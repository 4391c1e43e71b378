"""The mutant list of ``tools/mutants.py`` still matches the source.

Running the mutants takes minutes, so tier-1 only checks that each one
names a distinct mutant of a line that occurs exactly once in its
module, and so would still be applied.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("blochsim_tools_mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutants  # dataclasses look their module up there
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_line_occurs_once(mutant):
    text = (ROOT / mutants.PACKAGE / mutant.module).read_text()
    assert text.split("\n").count(mutant.line) == 1
    mutated = mutant.apply(text)
    assert mutated != text
    assert mutated.split("\n").count(mutant.mutated) == text.split("\n").count(mutant.mutated) + 1
