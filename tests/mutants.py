"""Mutation run: each proof gate, the CLI's report of a failed one, each
check of the record-line reader, each guard of the fork results and of
``verify``'s form sniff, ``verify``'s slow path for a line the reader
refuses, the exit code and ``atexit`` handlers of ``cli.run`` and the
digit width of the packed Horner pass must fail a test when they are
taken out.

Run from anywhere, with pytest and hypothesis installed::

    python tests/mutants.py

Each mutant replaces one exact piece of text, which must occur once, in
one file under ``src/``, and names the tests that must then fail.  The
runner copies ``src/`` and ``tests/`` into a temporary directory, runs
every mutant's tests there once unchanged (they must pass), then applies
one mutant at a time, runs its tests with pytest and restores the file.
A mutant is killed when its tests fail.  It prints one JSON object of
the killed, surviving and equivalent mutants, and exits 1 when a mutant
survives that ``EQUIVALENT`` does not list.  pytest does not collect
this file: its name is outside ``test_*.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root


CUBIC = "src/powersum_forge/cubic.py"
RELATIONS = "src/powersum_forge/relations.py"
QUADRATIC = "src/powersum_forge/quadratic.py"
SEARCH = "src/powersum_forge/search.py"
FORKS = "src/powersum_forge/forks.py"
CLI = "src/powersum_forge/cli.py"
POLYNOMIALS = "src/powersum_forge/polynomials.py"

#: ``verify``'s line check against :func:`scan_records` run line by line.
VERIFY_LINE_TESTS = (
    "tests/test_cli.py::test_verify_checks_odd_texts_evicted_and_alternating_seeds_as_line_by_line",
    "tests/test_cli.py::test_verify_checks_drawn_lines_as_line_by_line",
)

#: A family that ``sandor_generate`` builds wrong, through the library and the CLI.
FAMILY_GATE_TESTS = (
    "tests/test_cubic.py::test_generator_refuses_a_family_built_wrong",
    "tests/test_cli.py::test_a_family_built_wrong_is_one_error_line_and_exit_1",
)

MUTANTS = [
    Mutant(
        "sandor_generate gate",
        CUBIC,
        "    if not verify_cubic_identity(fq):\n",
        "    if False:\n",
        FAMILY_GATE_TESTS,
    ),
    Mutant(
        "grids: an identity that is not integral taken",
        SEARCH,
        "            if any(p._den != 1 for p in polys):\n"
        '                raise RuntimeError(f"seed {seed.as_tuple} mode {mode.label}: expanded identity is not integral")\n',
        "",
        ("tests/test_search.py::test_relation_mode_rejects_values_that_are_not_whole",),
    ),
    Mutant(
        "CLI: a failed gate not caught",
        CLI,
        "    except RuntimeError as exc:  # a proof gate failed\n"
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return VERIFICATION_FAILED\n",
        "",
        ("tests/test_cli.py::test_a_family_built_wrong_is_one_error_line_and_exit_1",),
    ),
    Mutant(
        "expand_relation gate",
        RELATIONS,
        "    if not powers_telescope(identity.polys, 3):\n",
        "    if False:\n",
        ("tests/test_relations.py",),
    ),
    Mutant(
        "factor_common_root gate",
        RELATIONS,
        "    if not powers_telescope(quotient.polys, 3):\n",
        "    if False:\n",
        ("tests/test_relations.py",),
    ),
    Mutant(
        "powersum_triple gate",
        QUADRATIC,
        "    if not powers_telescope([c.to_polynomial() for c in (leg_diff, leg_cross, hyp)], 2):\n",
        "    if False:\n",
        ("tests/test_quadratic.py",),
    ),
    Mutant(
        "piezas_generate gate",
        QUADRATIC,
        "    if not verify_square_identity(sq):\n",
        "    if False:\n",
        ("tests/test_quadratic.py",),
    ),
    Mutant(
        "piezas_degenerate_triple gate",
        QUADRATIC,
        "    if not powers_telescope([f.dehomogenize() for f in forms], 2):\n",
        "    if False:\n",
        ("tests/test_quadratic.py",),
    ),
    Mutant(
        "record reader: zero check dropped",
        SEARCH,
        "        if 0 in raw:\n            return None\n        reduced, content = canonicalize(raw)\n",
        "        reduced, content = canonicalize(raw)\n",
        ("tests/test_search.py", *VERIFY_LINE_TESTS),
    ),
    Mutant(
        "record reader: cube check dropped",
        SEARCH,
        "        if x1 * x1 * x1 + x2 * x2 * x2 + x3 * x3 * x3 != x4 * x4 * x4:\n            return None\n",
        "",
        ("tests/test_search.py", *VERIFY_LINE_TESTS),
    ),
    Mutant(
        "record reader: byte comparison dropped",
        SEARCH,
        "    if line != text and line != text[:-1]:\n        return None\n",
        "",
        ("tests/test_search.py", *VERIFY_LINE_TESTS),
    ),
    Mutant(
        "reflection proof: one point fewer",
        SEARCH,
        "for t in range(top // 2))",
        "for t in range(top // 2 - 1))",
        ("tests/test_search.py::test_relation_points_are_skipped_only_once_the_reflection_is_proven",),
    ),
    Mutant(
        "fork results: a result cut short not caught",
        FORKS,
        "        try:\n"
        "            ok, value = pickle.load(readers[i % len(readers)])\n"
        "        except (EOFError, pickle.UnpicklingError):  # the pipe ended before or in a result\n"
        '            raise ChildProcessError("a worker process ended without sending its result") from None\n',
        "        ok, value = pickle.load(readers[i % len(readers)])\n",
        ("tests/test_forks.py",),
    ),
    Mutant(
        "verify: a form parsed from a file with a second block",
        CLI,
        "_form_document(head[0]) if len(head) == 1 else None",
        "_form_document(head[0])",
        ("tests/test_cli.py::test_verify_reads_every_line_after_a_one_line_form",),
    ),
    Mutant(
        "verify: the degenerate triple taken unproven",
        CLI,
        "        ok = powers_telescope([f.dehomogenize() for f in forms], 2)\n",
        "        ok = True\n",
        ("tests/test_cli.py::test_verify_fails_a_degenerate_piezas_triple_with_a_moved_coefficient",),
    ),
    Mutant(
        "verify: a line the template reader refuses counted without the slow path",
        CLI,
        "item = _encoded_fields(line) or _json_record(line)",
        "item = _encoded_fields(line) or (line.strip() or None)",
        ("tests/test_cli.py::test_verify_jsonl_reports_bad_lines", *VERIFY_LINE_TESTS),
    ),
    Mutant(
        "run: the exit code forced to 0",
        CLI,
        "    os._exit(code)\n",
        "    os._exit(0)\n",
        ("tests/test_cli.py::test_python_m_keeps_the_exit_codes_and_the_output_of_main",),
    ),
    Mutant(
        "run: the atexit handlers skipped",
        CLI,
        "    atexit._run_exitfuncs()\n",
        "",
        ("tests/test_cli.py::test_an_atexit_handler_of_a_sitecustomize_still_runs",),
    ),
    Mutant(
        "packed pass: the digits two bits short",
        POLYNOMIALS,
        ".bit_length() for num in nums) + 2\n",
        ".bit_length() for num in nums)\n",
        ("tests/test_search.py::test_packed_pass_reads_values_at_the_bound",),
    ),
]

#: Mutants that no test can kill, each with the reason its change keeps
#: the program's behaviour; they are reported but not counted.
EQUIVALENT: dict[str, str] = {}


def _passes(copy: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=900)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if not _passes(copy, every_test):
            print("the tests fail without a mutant", file=sys.stderr)
            return 2
        result: dict[str, list[str]] = {"killed": [], "survived": [], "equivalent": []}
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"{mutant.name}: its text is not in {mutant.path} exactly once", file=sys.stderr)
                return 2
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                killed = not _passes(copy, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if mutant.name in EQUIVALENT:
                result["equivalent"].append(mutant.name)
            else:
                result["killed" if killed else "survived"].append(mutant.name)
    print(json.dumps(result, indent=2))
    return 1 if result["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
