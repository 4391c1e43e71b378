"""Public names stay in step with the places that list them.

The package root binds exactly the names of its ``__all__``, so a deleted
name cannot linger in the list, and a new export cannot miss it. Inputs
that every caller passes have no default, and values the code can work
out from its other inputs are not stored.

The benchmark's tracer (``bench/tracer.py``) names its per-layer metrics
after the public functions it wraps, as ``"<module>.<function>"``. A
function renamed in the library but not there would leave its metric at
a constant 0, so every such name must still resolve. The test only reads
the tracer.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import blochsim
import blochsim.cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_package_root_matches_all():
    public = {
        name
        for name, value in vars(blochsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(blochsim.__all__) == len(set(blochsim.__all__))
    assert set(blochsim.__all__) == public
    star: dict = {}
    exec("from blochsim import *", star)
    assert set(star) - {"__builtins__"} == public


def test_required_inputs_have_no_default_and_dims_are_derived():
    empty = inspect.Parameter.empty
    seed = inspect.signature(blochsim.run_measurement).parameters["seed"]
    assert (seed.kind, seed.default) == (inspect.Parameter.KEYWORD_ONLY, empty)
    assert inspect.signature(blochsim.geometric_hit_count_oracle).parameters["simplex"].default is empty
    simplex_fields = dataclasses.fields(blochsim.MeasurementSimplex)
    assert [(f.name, f.init) for f in simplex_fields] == [("vertices", True), ("centroid", False), ("frame", False)]
    assert "dim" not in {f.name for f in dataclasses.fields(blochsim.cli.ExperimentConfig)}


def _tracer():
    spec = importlib.util.spec_from_file_location("blochsim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_names(tree: ast.AST, modules) -> set[tuple[str, str]]:
    """Every plain string constant ``"<module>.<name>"`` with a traced module."""
    fragments = {
        id(value)
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        for value in node.values
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in fragments:
            match = re.fullmatch(r"(\w+)\.(\w+)", node.value)
            if match and match[1] in modules:
                names.add((match[1], match[2]))
    return names


def test_tracer_span_names_resolve_to_public_functions():
    tracer = _tracer()
    unaliased = {alias: name for name, alias in tracer.ALIASES.items()}
    spans = _span_names(ast.parse(TRACER.read_text()), tracer.MODULES)
    assert spans
    dangling = []
    for short, name in sorted(spans):
        module = importlib.import_module(f"blochsim.{short}")
        function = getattr(module, unaliased.get(name, name), None)
        if not (inspect.isfunction(function) and function.__module__ == module.__name__
                and not function.__name__.startswith("_")):
            dangling.append(f"{short}.{name}")
    assert dangling == []
