"""Seeded inputs for the benchmark workloads.

The cubic seeds are found by brute force rather than copied from the
program: every primitive solution of ``a^3 + b^3 + c^3 = d^3`` with
``0 < a < b < c < d <= MAX_D``.  The workload seed picks distinct
solutions and an order of ``(a, b, c)`` for each; grid sizes and the
mode list are fixed, so the amount of work does not depend on the seed.
Only the files written here and the command lines built from them reach
the program.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

MAX_D = 40

CUBIC_BOX = 150  # cubic-grid: u, v in [-150, 150]
RELATION_BOX = 2000  # relation-grid: u in [-2000, 2000]
RELATION_GRID_MODE = "Q:3,5"
EXPAND_MODES = ("Q:1,2", "Q:8,11", "Q:15,20", "Q:20,25", "F:10")

SEARCH_CONFIG = "search.json"
SOLUTIONS = "solutions.jsonl"
PLAN = "plan.json"

# Seeds per workload; both cubic-grid seeds go into one search.
SEED_COUNT = {"cubic-grid": 2, "relation-expand": 2, "relation-grid": 1}


def cube_solutions(max_d: int = MAX_D) -> list[tuple[int, int, int, int]]:
    """Primitive solutions with ``0 < a < b < c < d <= max_d``, sorted."""
    cube_root = {x**3: x for x in range(1, max_d + 1)}
    found = []
    for d in range(2, max_d + 1):
        for a in range(1, d):
            for b in range(a + 1, d):
                c = cube_root.get(d**3 - a**3 - b**3)
                if c is not None and b < c < d and math.gcd(a, b, c, d) == 1:
                    found.append((a, b, c, d))
    return sorted(found)


def pick_seeds(workload: str, seed: int) -> list[list[int]]:
    """Distinct solutions, each in a seed-chosen order of (a, b, c).

    Distinct solutions matter: reordering one solution gives a family
    whose canonical tuples coincide with the original's, which would
    turn a second cubic-grid seed into pure dedupe hits.
    """
    rng = random.Random(f"{workload}:{seed}")
    chosen = rng.sample(cube_solutions(), SEED_COUNT[workload])
    out = []
    for a, b, c, d in chosen:
        order = rng.choice(list(itertools.permutations((a, b, c))))
        out.append([*order, d])
    return out


def lattice_points(config: dict) -> int:
    """Grid points a search config evaluates, computed from the config alone."""
    (u_lo, u_hi), (v_lo, v_hi) = config["u_range"], config["v_range"]
    nu, nv = u_hi - u_lo + 1, v_hi - v_lo + 1
    per_seed = sum(nu * nv if m == "cubic" else nu for m in config["modes"])
    return per_seed * len(config["seeds"])


def plan(workload: str, seed: int) -> dict:
    """Everything a workload runs, as plain data."""
    seeds = pick_seeds(workload, seed)
    if workload == "cubic-grid":
        search = {
            "seeds": seeds,
            "u_range": [-CUBIC_BOX, CUBIC_BOX],
            "v_range": [-CUBIC_BOX, CUBIC_BOX],
            "modes": ["cubic"],
            "dedupe": True,
            "output": SOLUTIONS,
        }
    elif workload == "relation-grid":
        search = {
            "seeds": seeds,
            "u_range": [-RELATION_BOX, RELATION_BOX],
            "v_range": [0, 0],
            "modes": [RELATION_GRID_MODE],
            "dedupe": True,
            "output": SOLUTIONS,
        }
    elif workload == "relation-expand":
        return {"workload": workload, "seed": seed, "seeds": seeds, "modes": list(EXPAND_MODES)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "seed": seed,
        "search": search,
        "lattice_points": lattice_points(search),
    }


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files into ``directory``; return the plan."""
    directory.mkdir(parents=True, exist_ok=True)
    p = plan(workload, seed)
    (directory / PLAN).write_text(_dump(p), encoding="utf-8")
    if "search" in p:
        (directory / SEARCH_CONFIG).write_text(_dump(p["search"]), encoding="utf-8")
    return p
