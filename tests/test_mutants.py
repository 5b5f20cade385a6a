"""The mutant catalogue (``mutants.py``) still points at the code: each mutant's text
occurs exactly once in its file, and each names tests and a CHANGES.md entry that exist."""

import pytest

from mutants import MUTANTS, ROOT

CHANGES = (ROOT / "CHANGES.md").read_text(encoding="utf-8")


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.text) == 1
    assert mutant.replacement != mutant.text


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_tests_and_entry_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert all(f"def {n}(" in source or f"class {n}" in source for n in names), node
    assert mutant.entry in CHANGES
