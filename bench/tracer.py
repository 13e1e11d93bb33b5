"""Run one powersum-forge CLI call with its layers' public functions traced.

Usage::

    python bench/tracer.py SPANS_FILE RUN_ID -- CLI_ARGS...

Each traced function is replaced, in every module namespace where the
program looks it up, by a wrapper that records a span: name, start and
end (``time.perf_counter``, which is the same monotonic clock in every
process), parent span, thread, and the thread's CPU time inside the
span (``time.thread_time``).  With the search's worker threads, wall
time inside a span includes waiting for the interpreter lock; CPU time
does not, so layer busy times are taken from it.  Spans stay in memory as flat arrays
and are written to SPANS_FILE when the call ends, together with a few
counters observed at the same boundaries.  The program itself is not
changed; stdout, stderr and the exit code are those of ``cli.main``.

File format: one JSON header line, then for each thread buffer its
name ids (int32), parent indices (int32, -1 for none), starts, ends
and CPU seconds (float64), each array written whole; ``read_spans`` reads it back.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import threading
import time
import types


class _Buffer:
    """Spans recorded by one thread; parents index into the same buffer."""

    __slots__ = ("names", "parents", "starts", "ends", "cpu", "stack", "leaf")

    def __init__(self):
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.cpu = array.array("d")
        self.stack: list[int] = []
        self.leaf = False


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.buffers: list[tuple[int, _Buffer]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self.buffers.append((threading.get_ident(), buf))
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, buf: _Buffer, nid: int) -> int:
        i = len(buf.starts)
        buf.names.append(nid)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.ends.append(0.0)
        buf.stack.append(i)
        buf.cpu.append(time.thread_time())
        buf.starts.append(time.perf_counter())
        return i

    @staticmethod
    def _close(buf: _Buffer, i: int) -> None:
        buf.ends[i] = time.perf_counter()
        buf.cpu[i] = time.thread_time() - buf.cpu[i]
        buf.stack.pop()

    def wrap(self, name: str, fn, leaf: bool = False):
        """``fn`` with a span per call.

        Inside a ``leaf`` span, nested traced calls record nothing, so
        their time counts as the leaf's own.
        """
        nid = self._name_id(name)
        get_buffer, open_span, close_span = self._buffer, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            if buf.leaf:
                return fn(*args, **kwargs)
            i = open_span(buf, nid)
            buf.leaf = leaf
            try:
                return fn(*args, **kwargs)
            finally:
                buf.leaf = False
                close_span(buf, i)

        return traced

    def wrap_iterator(self, name: str, fn):
        """``fn`` returns an iterator; each step of it becomes a span."""
        nid = self._name_id(name)

        def steps(it):
            while True:
                buf = self._buffer()
                i = self._open(buf, nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(buf, i)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    def dump(self, path: str, run_id: str) -> None:
        header = {
            "run": run_id,
            "names": self.names,
            "counters": self.counters,
            "buffers": [{"thread": ident, "spans": len(buf.starts)} for ident, buf in self.buffers],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, buf in self.buffers:
                for column in (buf.names, buf.parents, buf.starts, buf.ends, buf.cpu):
                    column.tofile(fh)


def _patch(modules, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` wherever a module holds it."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the layers' public functions; return the traced ``cli.main``."""
    from powersum_forge import cli, cubic, exactcore, polynomials, powersums, relations, render, search

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "powersum_forge"]

    def patch(module, attr, name, **kw):
        original = getattr(module, attr)
        _patch(modules, original, tracer.wrap(name, original, **kw))

    patch(cubic, "evaluate_forms", "cubic.evaluate_forms")
    patch(cubic, "verify_cubic_identity", "cubic.verify_cubic_identity")
    patch(search, "canonicalize", "search.canonicalize")
    patch(search, "detect_taxicab", "search.detect_taxicab")
    patch(search, "write_records", "search.write_records")
    patch(search, "verify_record", "search.verify_record", leaf=True)
    patch(powersums, "faulhaber", "powersums.faulhaber")
    for combo in ("square", "product", "s1_power", "s2_s1_power"):
        patch(powersums, combo, f"powersums.{combo}")
    patch(relations, "build_relation", "relations.build_relation")
    patch(relations, "expand_relation", "relations.expand_relation")
    patch(relations, "factor_common_root", "relations.factor_common_root")
    patch(render, "poly_identity_to_json", "render.poly_identity_to_json")

    run_search = search.run_search
    _patch(modules, run_search, tracer.wrap_iterator("search.run_search", run_search))

    resolve_workers = search.resolve_workers

    def counted_workers(*args, **kwargs):
        workers = resolve_workers(*args, **kwargs)
        tracer.counters["search.workers"] = workers
        return workers

    _patch(modules, resolve_workers, counted_workers)

    # The cache starts cold in every process, so a call above the
    # highest index seen so far is the one that extends it.
    bernoulli = exactcore.bernoulli
    fill = tracer.wrap("exactcore.bernoulli.fill", bernoulli)
    hit = tracer.wrap("exactcore.bernoulli", bernoulli)

    def traced_bernoulli(k):
        if k > tracer.counters.get("exactcore.bernoulli.max_index", 0):
            tracer.counters["exactcore.bernoulli.max_index"] = k
            return fill(k)
        return hit(k)

    _patch(modules, bernoulli, traced_bernoulli)

    polynomials.Polynomial.evaluate = tracer.wrap("polynomials.evaluate", polynomials.Polynomial.evaluate)
    from_json = search.SolutionRecord.from_json
    search.SolutionRecord.from_json = staticmethod(tracer.wrap("search.SolutionRecord.from_json", from_json))
    # verify decodes each JSONL line with the cli module's json.loads.
    cli.json = types.SimpleNamespace(loads=tracer.wrap("cli.json.loads", json.loads), dumps=json.dumps)

    return tracer.wrap("cli.main", cli.main)


def read_spans(path) -> tuple[dict, list[tuple[str, int, float, float, float, int]]]:
    """Header and spans ``(name, parent, start, end, cpu, thread)`` of a file.

    ``parent`` indexes the returned list, or is -1.
    """
    spans = []
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for info in header["buffers"]:
            n, base = info["spans"], len(spans)
            columns = []
            for code in ("i", "i", "d", "d", "d"):
                column = array.array(code)
                column.fromfile(fh, n)
                columns.append(column)
            for nid, parent, start, end, cpu in zip(*columns):
                parent = base + parent if parent >= 0 else -1
                spans.append((header["names"][nid], parent, start, end, cpu, info["thread"]))
    return header, spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_FILE RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_file, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
