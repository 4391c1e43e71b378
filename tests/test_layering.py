"""No library module reaches the dense generator tensor.

The Bloch maps and the simplex use closed forms; :mod:`blochsim.generators`
defines the convention and is the reference the tests compare against.
The package root re-exports it, and nothing else may import it, so the
16.7 MB tensor at N=32 cannot return to a library path.
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
