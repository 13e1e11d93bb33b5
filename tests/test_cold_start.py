"""Which modules a fresh process loads: the package and each subcommand
import only what they run.  These tests assert module sets, never timings."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powersum_forge

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs ``python -m powersum_forge ARGS`` in process, then prints the loaded
#: module names as the last line of stdout; ``os._exit``, which ends
#: ``cli.run``, raises SystemExit instead, so the probe goes on after it.
PROBE = """
import os, runpy, sys


def _exit(code):
    raise SystemExit(code)


os._exit = _exit
sys.argv = ["powersum_forge", *sys.argv[1:]]
try:
    runpy.run_module("powersum_forge", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
print()
print(" ".join(sorted(sys.modules)))
"""


def loaded_modules(code: str, *args: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """What an interpreter has loaded before any line of this project runs."""
    return loaded_modules("import sys; print(' '.join(sys.modules))")


def test_import_package_loads_no_submodule():
    modules = loaded_modules("import sys, powersum_forge; print(' '.join(sys.modules))")
    assert "powersum_forge" in modules
    assert not [m for m in modules if m.startswith("powersum_forge.")]


@pytest.mark.parametrize(
    "argv",
    [
        ["relation", "--seed", "1,6,8,9", "--mode", "Q:1,2", "--expand", "--factor"],
        ["bernoulli", "12"],
    ],
    ids=["relation", "bernoulli"],
)
def test_subcommand_skips_search_quadratic_and_dataclasses(argv, bare_modules):
    modules = loaded_modules(PROBE, *argv)
    assert "powersum_forge.cli" in modules
    assert "powersum_forge.search" not in modules
    assert "powersum_forge.quadratic" not in modules
    if "dataclasses" not in bare_modules:
        assert "dataclasses" not in modules


def test_bernoulli_loads_no_polynomial_layer():
    modules = loaded_modules(PROBE, "bernoulli", "12")
    assert "powersum_forge.exactcore" in modules
    assert not modules & {"powersum_forge.polynomials", "powersum_forge.cubic", "powersum_forge.relations"}


def test_dir_covers_all():
    assert set(powersum_forge.__all__) <= set(dir(powersum_forge))


def test_exports_resolve_to_their_module_objects():
    for name in powersum_forge.__all__:
        module = importlib.import_module(f"powersum_forge.{powersum_forge._MODULE_OF[name]}")
        assert getattr(powersum_forge, name) is getattr(module, name)


def test_unknown_name_is_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        powersum_forge.nonexistent  # noqa: B018
    from powersum_forge import cli

    assert cli is sys.modules["powersum_forge.cli"]


def test_import_and_a_small_verify_load_no_multiprocessing(tmp_path, bare_modules):
    from powersum_forge import search
    from powersum_forge.cubic import CubicQuadruple
    from powersum_forge.search import SearchConfig, run_search, write_records

    path = tmp_path / "small.jsonl"
    cfg = SearchConfig(seeds=(CubicQuadruple(1, 6, 8, 9),), u_range=(-3, 3), v_range=(-3, 3))
    write_records(run_search(cfg), str(path))
    # a relation-mode search of 4,001 points, under the fork threshold
    grid = {"seeds": [[1, 6, 8, 9]], "u_range": [-2000, 2000], "v_range": [0, 0], "modes": ["Q:3,5"]}
    grid["output"] = str(tmp_path / "grid.jsonl")
    assert SearchConfig.from_dict(grid).lattice_points == 4001 < search._FORK_POINTS
    (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    imported = loaded_modules("import sys, powersum_forge; print(' '.join(sys.modules))")
    verified = loaded_modules(PROBE, "verify", str(path))
    searched = loaded_modules(PROBE, "search", "--config", str(tmp_path / "grid.json"))
    assert "powersum_forge.search" in verified & searched
    assert "powersum_forge.forks" not in verified | searched
    if "multiprocessing" not in bare_modules:
        assert "multiprocessing" not in imported | verified | searched
