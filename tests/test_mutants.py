"""The mutation runner's table stays runnable: ``python tests/mutants.py``
exits 2 when a mutant's text is not in its file exactly once, and pytest
fails when a test it names is gone, so a refactor that moves either is
caught here rather than at the next mutation run.  And no proof gate
goes without a mutant."""

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


def raises_runtime_error(statement) -> bool:
    """True for ``raise RuntimeError`` and ``raise RuntimeError(...)``."""
    exc = statement.exc if isinstance(statement, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "RuntimeError"


def test_every_gate_has_a_mutant():
    """Every ``if`` under ``src/`` whose body raises RuntimeError, a proof
    gate, has its line in the ``old`` text of a mutant of its file."""
    missing = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        olds = [mutant.old for mutant in MUTANTS if mutant.path == name]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.If) and any(map(raises_runtime_error, node.body)):
                line = lines[node.lineno - 1]
                if not any(line in old for old in olds):
                    missing.append(f"{name}:{node.lineno}: {line.strip()}")
    assert missing == []
