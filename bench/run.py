#!/usr/bin/env python3
"""Benchmark for the powersum-forge CLI.

Run from the repository root (standard library only)::

    python3 bench/run.py --workload cubic-grid --seed 1 --seconds 30 --trace 0

Every workload drives ``python -m powersum_forge`` in a fresh process
per call, from seeded inputs (``inputs.py``), repeats its pass of calls
for about ``--seconds`` seconds, checks every output independently
(``checks.py``) and prints a report followed, as the last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate (``tracer.py``) and the metrics are
the per-layer ones.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cubic-grid", "relation-expand", "relation-grid")
WORK_DIR = ".bench_run"  # inside the checkout; ignored by git
SETUP_SAMPLES = 15
RUN_LIMIT_S = 150.0  # children still running after this are killed
THREADS_ENV = "POWERSUM_FORGE_THREADS"
IMPORT_PROBE = "import time\nt = time.perf_counter()\nimport powersum_forge\nprint(time.perf_counter() - t)\n"
WORKERS_PROBE = "import sys\nfrom powersum_forge.search import resolve_workers\nprint(resolve_workers(int(sys.argv[1])))\n"

END_TO_END = {"setup_s": "s", "call_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}

# Per-layer busy time: the thread CPU time spent in these spans minus
# their traced children, summed over one pass.
LAYER_SPANS = {
    "cubic.evaluate_forms.s": ("cubic.evaluate_forms",),
    "search.canonicalize.s": ("search.canonicalize",),
    "search.detect_taxicab.s": ("search.detect_taxicab",),
    "search.run_search.s": ("search.run_search",),
    "search.write_records.s": ("search.write_records",),
    "search.load_records.s": ("cli.json.loads", "search.SolutionRecord.from_json"),
    "search.verify_record.s": ("search.verify_record",),
    "polynomials.evaluate.s": ("polynomials.evaluate",),
    "exactcore.bernoulli.fill_s": ("exactcore.bernoulli.fill",),
    "powersums.faulhaber.s": ("powersums.faulhaber",),
    "powersums.closed_forms.s": (
        "powersums.square",
        "powersums.product",
        "powersums.s1_power",
        "powersums.s2_s1_power",
    ),
    "cubic.verify_cubic_identity.s": ("cubic.verify_cubic_identity",),
    "relations.build_relation.s": ("relations.build_relation",),
    "relations.expand_relation.s": ("relations.expand_relation",),
    "relations.factor_common_root.s": ("relations.factor_common_root",),
    "render.poly_identity_to_json.s": ("render.poly_identity_to_json",),
    "cli.main.self_s": ("cli.main",),
}
LAYER_CALLS = {
    "cubic.evaluate_forms.calls": "cubic.evaluate_forms",
    "search.canonicalize.calls": "search.canonicalize",
    "search.verify_record.calls": "search.verify_record",
    "polynomials.evaluate.calls": "polynomials.evaluate",
}
# The layers a search spends its per-point work in.
PER_POINT_SPANS = (
    "cubic.evaluate_forms",
    "polynomials.evaluate",
    "search.canonicalize",
    "search.detect_taxicab",
    "search.run_search",
    "search.write_records",
)
SHARE_MODE = "Q:15,20"
COUNTS = {
    "search.workers": "count",
    "search.evaluated": "count",
    "search.degenerate": "count",
    "search.emitted": "count",
    "search.taxicab_tags": "count",
    "search.dedupe_hit_ratio": "ratio",
    "render.json_bytes": "bytes",
    "exactcore.bernoulli.max_index": "count",
    "relations.max_degree": "count",
    "relations.max_coeff_bits": "bits",
    "relations.divisor_degree": "count",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_CALLS},
    **COUNTS,
    "cli.startup_s": "s",
    "search.pool_wait_s": "s",
    "search.per_point_share": "ratio",
    "relations.expand_factor_share_q15_20": "ratio",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    label: str
    kind: str  # "call", "verify" or "aux"
    code: int
    wall: float
    rss_mb: float
    stdout: Path
    stderr: Path
    spans: Path | None
    mode: str | None = None


@dataclass
class Pass:
    traced: bool
    calls: list[Call] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def walls(self, kind: str) -> list[float]:
        return [c.wall for c in self.calls if c.kind == kind]

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)


class Runner:
    """Starts the CLI children of one benchmark run and checks their outputs."""

    def __init__(self, root: Path, work: Path, threads: int):
        self.work = work
        self.threads = threads
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ops = checks.Ops()
        self.reference: dict[str, str] = {}  # output label -> sha256 of its first pass
        self.stopped = False
        self.threads_env_set = THREADS_ENV in os.environ
        env = dict(os.environ)
        env.pop(THREADS_ENV, None)  # only --threads sets the worker count
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(root / WORK_DIR / "pycache")
        self.env = env
        self._serial = 0

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
        """Run one child to completion: exit code, wall seconds, peak RSS (MB)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=self.work
            )
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            self.stopped = True
        return code, wall, usage.ru_maxrss / 1024

    def probe(self, script: str, *args: str) -> tuple[str, float]:
        """Run a short Python script in a fresh interpreter; stdout and wall."""
        out, err = self.work / "probe.stdout", self.work / "probe.stderr"
        code, wall, _ = self.spawn([sys.executable, "-c", script, *args], out, err)
        if code != 0:
            raise SetupError(f"probe failed with exit code {code}: {err.read_text(errors='replace')[-2000:]}")
        return out.read_text().strip(), wall

    def cli(self, p: Pass, label: str, kind: str, args: list[str], mode: str | None = None) -> Call:
        self._serial += 1
        stem = self.work / "out" / label
        stdout, stderr = stem.with_suffix(".stdout"), stem.with_suffix(".stderr")
        spans = None
        argv = [sys.executable, "-m", "powersum_forge", *args]
        if p.traced:
            spans = self.work / "spans" / f"{self._serial:05d}-{label}.bin"
            run_id = f"{self._serial:05d}-{label}"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), run_id, "--", *args]
        code, wall, rss = self.spawn(argv, stdout, stderr)
        call = Call(label, kind, code, wall, rss, stdout, stderr, spans, mode)
        p.calls.append(call)
        return call

    def settle(self, p: Pass, call: Call, check, files: dict[str, Path] | None = None) -> dict:
        """Check one call's outputs and count it as an operation.

        ``check(stdout_text)`` returns ``(problems, counts)``.  The
        outputs are hashed; a hash that differs from the first pass's
        (traced or not) is a failure, since the same inputs must give
        the same bytes.
        """
        counts: dict = {}
        if call.code != 0:
            tail = call.stderr.read_text(errors="replace")[-500:]
            problems = [f"exit code {call.code}: {tail}"]
        else:
            problems, counts = check(call.stdout.read_text(encoding="utf-8", errors="replace"))
        outputs = {f"{call.label}.stdout": call.stdout, **(files or {})}
        for name, path in outputs.items():
            if not path.exists():
                problems.append(f"{name} was not written")
                continue
            digest = checks.sha256(path)
            p.hashes[name] = digest
            p.counts["json_bytes"] = p.counts.get("json_bytes", 0) + path.stat().st_size
            if self.reference.setdefault(name, digest) != digest:
                problems.append(f"{name} differs from the first pass (sha256 {digest})")
        self.ops.record(call.label, problems)
        return counts


# --- workloads --------------------------------------------------------------


def grid_pass(r: Runner, plan: dict, traced: bool) -> Pass:
    """cubic-grid and relation-grid: one search, then verify on its JSONL."""
    p = Pass(traced)
    solutions = r.work / inputs.SOLUTIONS
    search = r.cli(p, "search", "call", ["search", "--config", inputs.SEARCH_CONFIG, "--threads", str(r.threads)])
    counts = r.settle(
        p,
        search,
        lambda text: checks.check_search(text, solutions, plan["search"], plan["lattice_points"]),
        {inputs.SOLUTIONS: solutions},
    )
    p.counts.update(counts)
    verify = r.cli(p, "verify", "verify", ["verify", inputs.SOLUTIONS])
    r.settle(p, verify, lambda text: (checks.check_verify(text, counts.get("emitted")), {}))
    return p


def expand_pass(r: Runner, plan: dict, traced: bool) -> Pass:
    """relation-expand: per seed, the form family and its proof, then each mode."""
    p = Pass(traced)
    for n, seed in enumerate(plan["seeds"], start=1):
        sandor = r.cli(p, f"sandor-{n}", "aux", ["sandor", *map(str, seed), "--reduce"])
        r.settle(p, sandor, lambda text: (checks.check_family(text, seed), {}))
        family = sandor.stdout.relative_to(r.work)
        verify = r.cli(p, f"verify-{n}", "verify", ["verify", str(family)])
        r.settle(p, verify, lambda text: (checks.check_verify_family(text), {}))
        seed_arg = ",".join(map(str, seed))
        for mode in plan["modes"]:
            label = f"relation-{n}-{mode.replace(':', '').replace(',', '_')}"
            args = ["relation", "--seed", seed_arg, "--mode", mode, "--expand", "--factor"]
            call = r.cli(p, label, "call", args, mode=mode)
            counts = r.settle(p, call, lambda text: checks.check_relation(text, seed, mode))
            for key, value in counts.items():
                p.counts[key] = max(p.counts.get(key, 0), value)
    return p


PASSES = {"cubic-grid": grid_pass, "relation-grid": grid_pass, "relation-expand": expand_pass}


# --- per-layer numbers from spans --------------------------------------------


def call_layers(call: Call) -> dict:
    """One traced call's busy time (self CPU), inclusive wall time and
    call count per span name, its counters, start-up and pool wait."""
    header, spans = tracer.read_spans(call.spans)
    child_cpu = [0.0] * len(spans)
    for name, parent, start, end, cpu, thread in spans:
        if parent >= 0:
            child_cpu[parent] += cpu
    busy: dict[str, float] = {}
    wall: dict[str, float] = {}
    calls: dict[str, int] = {}
    main_thread = next((t for name, _, _, _, _, t in spans if name == "cli.main"), None)
    pool_wait = 0.0
    for i, (name, parent, start, end, cpu, thread) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + cpu - child_cpu[i]
        wall[name] = wall.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent < 0 and thread != main_thread:
            pool_wait += (end - start) - cpu
    return {
        "busy": busy,
        "wall": wall,
        "calls": calls,
        "counters": header["counters"],
        "startup": call.wall - wall.get("cli.main", 0.0),
        "pool_wait": pool_wait,
    }


def pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items()}
    per_point = search_wall = expand_factor = share_wall = 0.0
    max_index = workers = 0
    for call in p.calls:
        info = call_layers(call)
        for metric, names in LAYER_SPANS.items():
            out[metric] += sum(info["busy"].get(n, 0.0) for n in names)
        for metric, name in LAYER_CALLS.items():
            out[metric] += info["calls"].get(name, 0)
        out["cli.startup_s"] += info["startup"]
        out["search.pool_wait_s"] += info["pool_wait"]
        workers = max(workers, info["counters"].get("search.workers", 0))
        max_index = max(max_index, info["counters"].get("exactcore.bernoulli.max_index", 0))
        if call.label == "search":
            per_point += sum(info["busy"].get(n, 0.0) for n in PER_POINT_SPANS)
            search_wall += call.wall
        if call.mode == SHARE_MODE:
            wall = info["wall"]
            expand_factor += wall.get("relations.expand_relation", 0.0) + wall.get("relations.factor_common_root", 0.0)
            share_wall += call.wall
    out["search.per_point_share"] = per_point / search_wall if search_wall else 0.0
    out["relations.expand_factor_share_q15_20"] = expand_factor / share_wall if share_wall else 0.0
    out["search.workers"] = workers
    out["exactcore.bernoulli.max_index"] = max_index
    out.update(output_counts(p))
    return out


def output_counts(p: Pass) -> dict[str, float]:
    """Counts read from the outputs, which must repeat exactly."""
    c = p.counts
    evaluated = c.get("evaluated", 0)
    return {
        "search.evaluated": evaluated,
        "search.degenerate": c.get("degenerate", 0),
        "search.emitted": c.get("emitted", 0),
        "search.taxicab_tags": c.get("taxicab_tags", 0),
        "search.dedupe_hit_ratio": c.get("duplicates", 0) / evaluated if evaluated else 0.0,
        "render.json_bytes": c.get("json_bytes", 0),
        "relations.max_degree": c.get("max_degree", 0),
        "relations.max_coeff_bits": c.get("max_coeff_bits", 0),
        "relations.divisor_degree": c.get("divisor_degree", 0),
    }


def write_trace(p: Pass, path: Path) -> int:
    """All spans of one traced pass, one JSON line each (gzip)."""
    written = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for call in p.calls:
            header, spans = tracer.read_spans(call.spans)
            run = json.dumps(header["run"])
            for i, (name, parent, start, end, cpu, thread) in enumerate(spans):
                parent_id = parent + written if parent >= 0 else -1
                fh.write(
                    f'{{"run":{run},"id":{written + i},"name":"{name}","start":{start!r},'
                    f'"end":{end!r},"cpu":{cpu!r},"parent":{parent_id},"thread":{thread}}}\n'
                )
            written += len(spans)
    return written


# --- statistics and report ------------------------------------------------


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return f"p{pct} {ordered[rank - 1]:.6f}"
    return "no tail percentile (fewer than 10 samples beyond p75)"


def per_pass_mean(passes: list[Pass], kind: str) -> tuple[float, list[float]]:
    """Median over passes of the pass's mean call time; and every sample."""
    means = [statistics.fmean(p.walls(kind)) for p in passes if p.walls(kind)]
    samples = [w for p in passes for w in p.walls(kind)]
    return statistics.median(means), samples


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def run(args) -> tuple[dict, list[str], dict]:
    root = Path.cwd()
    src = root / "src"
    if not (src / "powersum_forge" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {src / 'powersum_forge'} is missing")
    nproc = len(os.sched_getaffinity(0))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("out", "spans"):
        (work / sub).mkdir(parents=True)
    try:
        return measure(args, root, work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path, nproc: int) -> tuple[dict, list[str], dict]:
    plan = inputs.write_inputs(args.workload, args.seed, work)
    r = Runner(root, work, nproc)

    r.probe(IMPORT_PROBE)  # fills the bytecode cache, as an installed package has one
    setup, setup_walls = [], []
    for _ in range(SETUP_SAMPLES):
        text, wall = r.probe(IMPORT_PROBE)
        setup.append(float(text))
        setup_walls.append(wall)
    workers, _ = r.probe(WORKERS_PROBE, str(nproc))

    run_pass = PASSES[args.workload]
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.monotonic()
    while not r.stopped:
        untraced.append(run_pass(r, plan, False))
        if args.trace:
            traced.append(run_pass(r, plan, True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(untraced) > args.seconds:
            break

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "commit": commit(root),
        "src_sha256": source_digest(root / "src"),
        "threads_arg": nproc,
        "resolved_workers": int(workers),
        "threads_env_set": r.threads_env_set,
    }
    grid = "search" in plan
    name = "search_s" if grid else "relation_s"
    call_s, call_samples = per_pass_mean(untraced, "call")
    verify_samples = [w for p in untraced for w in p.walls("verify")]
    verify_s = statistics.median(verify_samples)
    values = {
        "setup_s": statistics.median(setup),
        "call_s": call_s,
        "verify_s": verify_s,
        "peak_rss_mb": max(c.rss_mb for p in untraced for c in p.calls),
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"env {json.dumps(env)}",
        f"inputs seeds {json.dumps(plan['search']['seeds'] if grid else plan['seeds'])}"
        + (f"  lattice points {plan['lattice_points']}" if grid else f"  modes {','.join(plan['modes'])}"),
        f"setup_s {values['setup_s']:.6f} s  median of {len(setup)} fresh interpreters importing powersum_forge"
        f" (whole process: median {statistics.median(setup_walls):.6f} s)",
        f"call_s = {name} {call_s:.6f} s  median over {len(untraced)} passes of the pass mean;"
        f" {len(call_samples)} samples; {tail(call_samples)}",
    ]
    if grid:
        lines.append(f"search_points_per_s {plan['lattice_points'] / call_s:.1f} 1/s  ({plan['lattice_points']} points / search_s)")
    lines += [
        f"verify_s {verify_s:.6f} s  median of {len(verify_samples)} calls; {tail(verify_samples)}",
        f"peak_rss_mb {values['peak_rss_mb']:.3f} MB  largest ru_maxrss of the CLI children",
        f"ops_failed_ratio {r.ops.failed / r.ops.attempted:.6f}  ({r.ops.failed} failed of {r.ops.attempted} CLI calls)",
    ]
    lines += [f"sha256 {digest}  {label}" for label, digest in sorted(untraced[0].hashes.items())]
    lines += [f"problem {p}" for p in r.ops.problems[:20]]

    if args.trace:
        layers = [pass_layers(p) for p in traced]
        metrics = {
            metric: statistics.median(layer[metric] for layer in layers) if unit in ("s", "ratio") else layers[-1][metric]
            for metric, unit in PER_LAYER.items()
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1
        )
        units = PER_LAYER
        traces = root / WORK_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{args.workload}.spans.jsonl.gz"
        count = write_trace(traced[-1], trace_file)
        lines.append(f"trace {count} spans of the last traced pass in {trace_file.relative_to(root)}")
        lines += [f"{m} {metrics[m]!r} {units[m]}" for m in PER_LAYER]
    else:
        metrics, units = values, END_TO_END

    result = {
        "correct": r.ops.failed == 0,
        "attempted": r.ops.attempted,
        "failed": r.ops.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "plan": plan,
        "setup_samples": setup,
        "call_samples": call_samples,
        "verify_samples": verify_samples,
        "hashes": untraced[0].hashes,
        "problems": r.ops.problems,
        "result": result,
    }
    return result, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines, record = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = Path.cwd() / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"record {path.relative_to(Path.cwd())}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
