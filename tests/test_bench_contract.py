"""The program surface the benchmark under ``bench/`` depends on.

``bench/tracer.py`` wraps named functions of the layers from outside and
``bench/run.py`` imports ``resolve_workers``.  Renaming or removing any of
them breaks the benchmark rather than a unit test, so each traced CLI
call the benchmark makes is run here once, through the tracer, on tiny
inputs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("POWERSUM_FORGE_THREADS", None)
    return env


def traced(tmp_path, name, *args):
    """Run one CLI call through the tracer; return its stdout."""
    spans = tmp_path / f"{name}.spans"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), name, "--", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert spans.stat().st_size > 0
    return proc.stdout


def test_traced_sandor_and_verify(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(traced(tmp_path, "sandor", "sandor", "1", "6", "8", "9", "--reduce"))
    report = json.loads(traced(tmp_path, "verify-family", "verify", str(family)))
    assert report["verified"] is True


def test_traced_search_and_verify(tmp_path):
    cfg = {
        "seeds": [[1, 6, 8, 9]],
        "u_range": [-3, 3],
        "v_range": [-3, 3],
        "modes": ["cubic", "Q:1,2"],
        "output": "out.jsonl",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    summary = json.loads(
        traced(tmp_path, "search", "search", "--config", "cfg.json", "--threads", "2")
    )
    assert summary["records"] > 0
    report = json.loads(traced(tmp_path, "verify-jsonl", "verify", "out.jsonl"))
    assert report["verified"] is True and report["records"] == summary["records"]


def read_spans(path):
    """``bench/tracer.py``'s own reader, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.read_spans(path)


def test_traced_relation_expand_factor(tmp_path):
    args = ["relation", "--seed", "1,6,8,9", "--mode", "Q:3,5", "--expand", "--factor"]
    out = json.loads(traced(tmp_path, "relation", *args))
    assert "factored" in out
    # A refactor that calls round the traced bindings keeps the names but
    # records no spans, which would zero the benchmark's per-layer times.
    _, spans = read_spans(tmp_path / "relation.spans")
    recorded = {name for name, *_ in spans}
    for name in (
        "powersums.square",
        "powersums.product",
        "relations.build_relation",
        "relations.expand_relation",
        "relations.factor_common_root",
    ):
        assert name in recorded, name


def test_traced_search_records_its_per_record_layers(tmp_path):
    # a box where the line rule skips points, so canonicalize still runs
    # for the rest and its span must still be recorded
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [-6, 2], "v_range": [-5, 7], "output": "out.jsonl"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    summary = json.loads(traced(tmp_path, "search", "search", "--config", "cfg.json"))
    _, spans = read_spans(tmp_path / "search.spans")
    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    assert calls.get("search.detect_taxicab") == summary["records"]
    assert summary["records"] <= calls.get("search.canonicalize", 0) < summary["evaluated"]


@pytest.mark.parametrize("requested", ["1", "4"])
def test_resolve_workers_importable_as_benchmark_does(requested):
    probe = (
        "import sys\n"
        "from powersum_forge.search import resolve_workers\n"
        "print(resolve_workers(int(sys.argv[1])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, requested],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == requested
