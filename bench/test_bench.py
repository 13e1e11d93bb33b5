"""Tests for the benchmark's input generator and output checks.

Run from the repository root::

    python3 -m unittest discover -s bench -p "test_*.py"

The checker tests run the real CLI on small inputs, then tamper with
its outputs: a check that cannot see a planted fault would let a broken
program report a clean run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import inputs
import run

ROOT = Path(__file__).resolve().parent.parent


def cli(cwd: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(run.THREADS_ENV, None)
    done = subprocess.run(
        [sys.executable, "-m", "powersum_forge", *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class GeneratorTests(unittest.TestCase):
    def test_solutions_are_primitive_nontrivial_cubes(self):
        found = inputs.cube_solutions()
        self.assertIn((1, 6, 8, 9), found)
        self.assertIn((3, 4, 5, 6), found)
        for a, b, c, d in found:
            self.assertEqual(a**3 + b**3 + c**3, d**3)
            self.assertTrue(0 < a < b < c < d <= inputs.MAX_D)
        self.assertNotIn((6, 8, 10, 12), found)  # a multiple of (3, 4, 5, 6)

    def test_same_seed_gives_byte_identical_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in run.WORKLOADS:
                first, second = Path(tmp, workload, "a"), Path(tmp, workload, "b")
                inputs.write_inputs(workload, 7, first)
                inputs.write_inputs(workload, 7, second)
                names = sorted(p.name for p in first.iterdir())
                self.assertEqual(names, sorted(p.name for p in second.iterdir()))
                for name in names:
                    self.assertEqual((first / name).read_bytes(), (second / name).read_bytes())

    def test_seeds_are_distinct_solutions_and_work_is_fixed(self):
        for seed in range(20):
            grid = inputs.plan("cubic-grid", seed)
            chosen = grid["search"]["seeds"]
            self.assertEqual(len({tuple(sorted(s[:3])) for s in chosen}), 2)
            self.assertEqual(grid["lattice_points"], 2 * 301 * 301)
            self.assertEqual(inputs.plan("relation-grid", seed)["lattice_points"], 4001)
            self.assertEqual(inputs.plan("relation-expand", seed)["modes"], list(inputs.EXPAND_MODES))
        self.assertNotEqual(inputs.plan("cubic-grid", 1), inputs.plan("cubic-grid", 2))


class CheckTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def search(self):
        config = {
            "seeds": [[1, 6, 8, 9], [3, 4, 5, 6]],
            "u_range": [-4, 4],
            "v_range": [-4, 4],
            "modes": ["cubic"],
            "dedupe": True,
            "output": inputs.SOLUTIONS,
        }
        (self.dir / "search.json").write_text(json.dumps(config))
        stdout = cli(self.dir, "search", "--config", "search.json", "--threads", "1")
        return stdout, config

    def test_clean_search_passes(self):
        stdout, config = self.search()
        problems, counts = checks.check_search(stdout, self.dir / inputs.SOLUTIONS, config, 2 * 81)
        self.assertEqual(problems, [])
        self.assertEqual(counts["evaluated"], 162)
        self.assertGreater(counts["taxicab_tags"], 0)

    def test_tampered_jsonl_record_is_a_failed_operation(self):
        stdout, config = self.search()
        path = self.dir / inputs.SOLUTIONS
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["reduced"][0] = str(int(record["reduced"][0]) + 1)
        lines[3] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        ops = checks.Ops()
        ok = ops.record("search", checks.check_search(stdout, path, config, 2 * 81)[0])
        self.assertFalse(ok)
        self.assertEqual((ops.attempted, ops.failed), (1, 1))
        self.assertTrue(any("line 4" in p for p in ops.problems))

    def test_summary_that_loses_points_fails(self):
        stdout, config = self.search()
        summary = json.loads(stdout)
        summary["duplicates"] -= 1
        problems, _ = checks.check_search(json.dumps(summary), self.dir / inputs.SOLUTIONS, config, 2 * 81)
        self.assertTrue(any("!= evaluated" in p for p in problems))

    def test_relation_identity_and_planted_coefficient(self):
        stdout = cli(self.dir, "relation", "--seed", "1,6,8,9", "--mode", "Q:1,2", "--expand", "--factor")
        problems, counts = checks.check_relation(stdout, [1, 6, 8, 9], "Q:1,2")
        self.assertEqual(problems, [])
        self.assertEqual(counts["divisor_degree"], 4)  # u^2 (u+1)^2

        obj = json.loads(stdout)
        term = obj["factored"]["p"][2]["terms"][0]
        term["num"] = str(int(term["num"]) + 1)
        ops = checks.Ops()
        ops.record("relation", checks.check_relation(json.dumps(obj), [1, 6, 8, 9], "Q:1,2")[0])
        self.assertEqual((ops.attempted, ops.failed), (1, 1))

    def test_expanded_polynomial_must_match_power_sum_combo(self):
        stdout = cli(self.dir, "relation", "--seed", "1,6,8,9", "--mode", "Q:1,2", "--expand", "--factor")
        obj = json.loads(stdout)
        term = obj["combos"][0]["terms"][0]
        term["num"] = str(int(term["num"]) + 1)
        problems, _ = checks.check_relation(json.dumps(obj), [1, 6, 8, 9], "Q:1,2")
        self.assertTrue(any("combo1" in p for p in problems))

    def test_family_check(self):
        stdout = cli(self.dir, "sandor", "1", "6", "8", "9", "--reduce")
        self.assertEqual(checks.check_family(stdout, [1, 6, 8, 9]), [])
        obj = json.loads(stdout)
        obj["q"][0]["beta"] = str(int(obj["q"][0]["beta"]) + 1)
        self.assertNotEqual(checks.check_family(json.dumps(obj), [1, 6, 8, 9]), [])

    def test_cube_identity_needs_all_points(self):
        # u^3 + 0 + 0 = u^3 holds.  With p4 = u + u^3 it fails, although
        # both sides still agree at u = 0.
        x = {1: Fraction(1)}
        self.assertEqual(checks.cube_identity_problems([x, {}, {}, x], "id"), [])
        wrong = {1: Fraction(1), 3: Fraction(1)}
        self.assertNotEqual(checks.cube_identity_problems([x, {}, {}, wrong], "id"), [])


class ContractTests(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "relation-grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
