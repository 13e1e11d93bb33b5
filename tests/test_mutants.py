"""The mutation runner's table stays runnable: ``python tests/mutants.py``
exits 2 when a mutant's text is not in its file exactly once, and pytest
fails when a test it names is gone, so a refactor that moves either is
caught here rather than at the next mutation run."""

import ast

import pytest

from mutants import MUTANTS, ROOT

IDS = [mutant.name for mutant in MUTANTS]


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_a_mutant_text_is_in_its_file_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_every_test_a_mutant_names_exists(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        assert (ROOT / path).is_file(), test
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            name = name.split("[")[0]  # a parametrized id names its function
            found = [n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
            assert found, test
            scope = found[0].body
