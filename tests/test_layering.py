"""Layering rules of the library, checked on its source.

No library module reaches the dense generator tensor. The Bloch maps and
the simplex use closed forms; :mod:`blochsim.generators` defines the
convention and is the reference the tests compare against. The package
root re-exports it, and nothing else may import it, so the 16.7 MB
tensor at N=32 cannot return to a library path.

Every lambda is drawn in one of two places: the block generator
``_exponential_rows`` or the one-call draw of ``sample_lambda``, so no
consumer grows a draw loop of its own.
"""

import ast
from pathlib import Path

import blochsim
import blochsim.generators

PACKAGE = Path(blochsim.__file__).parent
EXEMPT = {"__init__.py", "generators.py"}
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
#: The one block generator of lambda draws, and the one-call draw of a single shot.
DRAWERS = {("sampler.py", "_exponential_rows"), ("sampler.py", "sample_lambda")}


def _lambda_draw_sites(tree: ast.AST, module: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of every call of a lambda-draw method."""
    sites = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in LAMBDA_DRAWS:
                sites.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sites


def test_lambda_is_drawn_in_one_loop():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= _lambda_draw_sites(ast.parse(path.read_text()), path.name)
    assert sites == DRAWERS
