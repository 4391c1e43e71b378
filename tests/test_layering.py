"""Layering rules of the library, checked on its source.

No library module reaches the dense generator tensor. The Bloch maps and
the simplex use closed forms; :mod:`blochsim.generators` defines the
convention and is the reference the tests compare against. The tests
import it from :mod:`blochsim.generators`; no library module, the package
root included, may import it, so the 16.7 MB tensor at N=32 cannot
return to a library path.

Every lambda is drawn in one of three places: the block generator
``_exponential_rows``, with the loop ``fill_ahead`` that it runs on its
helper thread over the same block schedule, the one-row draw of a shot,
``_draw``, or the one-call draw of ``sample_lambda``, so no consumer
grows a draw loop of its own. Every call of the block generator is
consumed inside ``contextlib.closing``, so a consumer that raises or
stops early still breaks the one barrier and joins the helper.
Importing the CLI loads no process pool, ``concurrent.futures`` or
``queue``: the helper thread needs ``threading`` alone, so the import
time of every run cannot grow unnoticed.

Every [re, im] pair is read by one codec, ``serialize.pairs_to_array``:
``cli.py`` converts no config value with ``complex`` or ``float``, and no
other library function builds complex numbers out of pairs, so no
per-field conversion loop grows back.

The square systems of the simplex in frame coordinates are built in
``simplex.py`` alone, and determinants are taken there alone: the
measure ratios and the oracle's solves read the same systems, and no
module divides by a factorial, which overflows a float from 171!.

The Born contraction ``einsum("ij,jk,ik->i", ...)`` is written in
``simplex.born_probabilities`` alone, and the test for the computational
basis, a comparison with ``eye``, in ``MeasurementBasis.__post_init__``
alone, so no second Born path or identity shortcut can grow.

Every integer a caller passes is checked by ``bloch._as_integer``, the one
caller of ``operator.index``, and ``cli.py`` asks no ``isinstance(..., int)``
of a config value, so no second integer check with its own bounds and
messages grows back.

A single shot breaks the symmetry in one step, ``sampler._draw``, which
races its raw row with ``_winner``, the one argmin of a single row that
``classify`` also calls. No library function calls ``sample_lambda`` or
``classify``: only ``run_measurement`` turns a shot's row into lambda,
through ``_to_lambda``, the normaliser ``sample_lambda`` uses.
Basis-diagonal states are built by ``collapse._diagonal`` alone, the one
place of the contraction ``einsum("ji,jk->ik", ...)``, and the
computational-basis flag ``_is_identity`` is read only there and in
``born_probabilities``, so no second collapse path or diagonal shortcut
grows back.

The float format of a report, 12 significant digits, is spelled once in
the library, as ``serialize._FLOAT``, so no second float writer grows
back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blochsim
import blochsim.generators

PACKAGE = Path(blochsim.__file__).parent
EXEMPT = {"generators.py"}
#: The module and everything it defines, so a re-export from the root counts too.
FORBIDDEN = {"generators"} | {
    name
    for name, value in vars(blochsim.generators).items()
    if getattr(value, "__module__", None) == "blochsim.generators"
}


def _imports_generators(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] in FORBIDDEN for name in names):
            return True
    return False


def test_library_modules_do_not_import_generators():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)
    assert modules
    offenders = [p.name for p in modules if _imports_generators(ast.parse(p.read_text()))]
    assert offenders == []


#: Generator methods that draw lambda or the exponentials it is made of.
LAMBDA_DRAWS = {"standard_exponential", "exponential", "dirichlet"}
#: The one block generator of lambda draws, its helper thread's fill loop,
#: the one-row draw of a single shot, and the public one-call draw.
DRAWERS = {
    ("sampler.py", "_exponential_rows"),
    ("sampler.py", "fill_ahead"),
    ("sampler.py", "_draw"),
    ("sampler.py", "sample_lambda"),
}


def _nodes(tree: ast.AST):
    """(enclosing function, node) of every node in a module."""

    def visit(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def _calls(tree: ast.AST):
    """(enclosing function, call node) of every call in a module."""
    return ((fn, node) for fn, node in _nodes(tree) if isinstance(node, ast.Call))


def _name(func: ast.expr) -> str | None:
    return getattr(func, "attr", getattr(func, "id", None))


def test_lambda_is_drawn_in_one_loop():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, call in _calls(ast.parse(path.read_text())):
            if _name(call.func) in LAMBDA_DRAWS:
                sites.add((path.name, fn))
    assert sites == DRAWERS


def test_cli_import_loads_no_pool_or_queue():
    # a child interpreter, as this one holds pytest's imports
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), inherited]))}
    script = (
        "import sys, blochsim.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing', 'queue')))"
    )
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert child.stdout == "[]\n"


def _builds_complex_from_pairs(call: ast.Call) -> bool:
    """``complex(re, im)``, or a ``.view`` of real pairs as a complex dtype."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "complex":
        return len(call.args) + len(call.keywords) >= 2
    return (isinstance(func, ast.Attribute) and func.attr == "view"
            and any("complex" in ast.unparse(arg) for arg in call.args))


def test_cli_converts_no_number_itself():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    conversions = [ast.unparse(call) for _, call in _calls(tree)
                   if isinstance(call.func, ast.Name) and call.func.id in ("complex", "float")]
    assert conversions == []


def test_pairs_are_read_by_one_codec():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites |= {(path.name, fn) for fn, call in _calls(tree) if _builds_complex_from_pairs(call)}
    assert sites == {("serialize.py", "pairs_to_array")}


def _takes_frame_coordinates(node: ast.AST) -> bool:
    """``frame @ x`` or ``s.frame @ x``: a product that maps onto the frame."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and _name(node.left) == "frame")


def test_frame_systems_and_determinants_live_in_simplex():
    frame_products, determinants, factorials = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if any(_takes_frame_coordinates(node) for node in ast.walk(tree)):
            frame_products.add(path.name)
        for fn, call in _calls(tree):
            if _name(call.func) in ("det", "slogdet"):
                determinants.add((path.name, fn))
            if _name(call.func) == "factorial":
                factorials.add((path.name, fn))
    assert frame_products == {"simplex.py"}
    assert determinants == {("simplex.py", "total_measure"), ("simplex.py", "subregion_ratios")}
    assert factorials == set()


BORN_SUBSCRIPTS = "ij,jk,ik->i"
DIAGONAL_SUBSCRIPTS = "ji,jk->ik"


def _is_einsum(node: ast.AST, subscripts: str) -> bool:
    """``einsum(subscripts, ...)``, spaces in the subscripts ignored."""
    return (isinstance(node, ast.Call) and _name(node.func) == "einsum" and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).replace(" ", "") == subscripts)


def _compares_with_eye(node: ast.AST) -> bool:
    """``x == eye(...)`` or ``eye(...) == x``, in any module."""
    return (isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops)
            and any(isinstance(side, ast.Call) and _name(side.func) == "eye"
                    for side in [node.left, *node.comparators]))


def test_born_contraction_and_identity_test_live_in_one_place():
    contractions, identity_tests = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, node in _nodes(ast.parse(path.read_text())):
            if _is_einsum(node, BORN_SUBSCRIPTS):
                contractions.add((path.name, fn))
            if _compares_with_eye(node):
                identity_tests.add((path.name, fn))
    assert contractions == {("simplex.py", "born_probabilities")}
    assert identity_tests == {("simplex.py", "__post_init__")}


def _checks_for_int(call: ast.Call) -> bool:
    """``isinstance(x, int)``, with ``int`` alone or in a tuple of types."""
    return (_name(call.func) == "isinstance" and len(call.args) == 2
            and any(isinstance(node, ast.Name) and node.id == "int" for node in ast.walk(call.args[1])))


def test_integers_are_checked_in_one_place():
    index_calls = set()
    for path in sorted(PACKAGE.glob("*.py")):
        index_calls |= {(path.name, fn) for fn, call in _calls(ast.parse(path.read_text()))
                        if _name(call.func) == "index"}
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    assert index_calls == {("bloch.py", "_as_integer")}
    assert [ast.unparse(call) for _, call in _calls(cli) if _checks_for_int(call)] == []


def _sites(predicate) -> set:
    """(module, enclosing function) of every library node the predicate accepts."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= {(path.name, fn) for fn, node in _nodes(ast.parse(path.read_text())) if predicate(node)}
    return sites


def _calls_to(name: str):
    return lambda node: isinstance(node, ast.Call) and _name(node.func) == name


def test_one_draw_step_and_one_basis_diagonal_builder():
    draw = ("sampler.py", "_draw")
    shots = {
        ("sampler.py", "measure_once"),
        ("sampler.py", "measure_degenerate"),
        ("collapse.py", "run_measurement"),
    }
    assert _sites(_calls_to("_draw")) == shots
    assert _sites(_calls_to("_winner")) == {draw, ("sampler.py", "classify")}
    assert _sites(_calls_to("_to_lambda")) == {("sampler.py", "sample_lambda"), ("collapse.py", "run_measurement")}
    assert _sites(_calls_to("sample_lambda")) | _sites(_calls_to("classify")) == set()
    diagonal = ("collapse.py", "_diagonal")
    assert _sites(lambda node: _is_einsum(node, DIAGONAL_SUBSCRIPTS)) == {diagonal}
    reads_identity = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_is_identity")
    assert reads_identity == {("simplex.py", "born_probabilities"), diagonal}


def test_every_block_stream_is_consumed_inside_closing():
    is_stream = _calls_to("_exponential_rows")
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        closed = {id(arg) for node in ast.walk(tree) if _calls_to("closing")(node) for arg in node.args}
        bare = [ast.unparse(node) for node in ast.walk(tree) if is_stream(node) and id(node) not in closed]
        assert bare == [], path.name
    assert _sites(is_stream) == {("sampler.py", "run_trials"), ("sampler.py", "geometric_hit_count_oracle")}


def test_the_float_format_is_spelled_once():
    spelled = {path.name: path.read_text().count(".12g") for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: times for name, times in spelled.items() if times} == {"serialize.py": 1}
