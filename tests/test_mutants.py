"""The committed mutants still apply: tests/mutants.py is run outside tier-1,
so a refactor that moves a snippet fails here until its mutant is updated."""

import pytest
from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_exactly_once(mutant):
    text = (SRC / "absim" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_names_unique_and_named_tests_defined():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert mutant.tests
        for node in mutant.tests:
            path, *_, function = node.split("::")
            assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), node
