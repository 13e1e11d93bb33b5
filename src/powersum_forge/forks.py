"""Jobs run on forked worker processes, their results taken in job order.

:func:`forked_map` forks its workers before anything else runs and deals
job ``i`` to worker ``i % n``.  A worker writes each result down its own
pipe, pickled after its length.  The write blocks while the pipe is
full, so a worker holds the result it is writing plus whatever the pipe
buffers: memory is bounded by the size of a result, which the caller
bounds by the size of a job.  A worker's exception goes down the same
pipe and is raised in the parent with its type and message.  A worker
that ends without sending a result raises ChildProcessError in the
parent.  Where no process or pipe can be had for the workers, the jobs
run in this process.  Every worker ends with ``os._exit``, and the
parent kills and reaps every worker when it leaves, at the end or early.

Forking is safe only where no thread was started before, which holds in
the CLI; a worker starts with its parent's modules and data in place.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import struct
from typing import Callable, Iterator, Sequence

__all__ = ["forked_map", "worker_count"]

#: The length of a result, sent down the pipe before it.
_MESSAGE = struct.Struct("=q")


def worker_count(threads: int | None, jobs: int) -> int:
    """Worker processes for ``jobs`` jobs: at most ``threads`` (None for no
    cap), one for each CPU this process may run on and one for each job.
    1, where ``fork`` is missing too, means run in process."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, jobs) if threads is None else min(threads, cpus, jobs))


@contextlib.contextmanager
def forked_map(function: Callable, jobs: Sequence, workers: int) -> Iterator[Iterator]:
    """The results of ``function(job)`` for each of ``jobs``, in order,
    computed by ``workers`` forked processes; the workers are forked on
    entry and killed and reaped on exit."""
    pids: list[int] = []
    fds: list[int] = []  # this process's ends, closed in each worker it forks
    try:
        try:
            pipes = [_start(function, jobs[w::workers], pids, fds) for w in range(workers)]
        except OSError:  # no process or pipe to be had
            _stop(pids, fds)
            pipes = None
        yield map(function, jobs) if pipes is None else _results(pipes, len(jobs))
    finally:
        _stop(pids, fds)


def _start(function: Callable, jobs: Sequence, pids: list[int], fds: list[int]) -> int:
    """Fork a worker for ``jobs``, its pid appended to ``pids``; returns
    this process's end of its results pipe, also appended to ``fds``."""
    results, results_end = os.pipe()
    fds.append(results)
    try:
        pid = os.fork()
        if pid == 0:
            try:
                for fd in fds:
                    os.close(fd)
                _work(function, jobs, results_end)
            finally:
                os._exit(0)
        pids.append(pid)
    finally:
        os.close(results_end)
    return results


def _stop(pids: list[int], fds: list[int]) -> None:
    """Kill and reap the workers of ``pids`` and close ``fds``; both end empty."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pid in pids:
        os.waitpid(pid, 0)
    for fd in fds:
        os.close(fd)
    pids.clear()
    fds.clear()


def _work(function: Callable, jobs: Sequence, pipe: int) -> None:
    """A worker's loop: each job's result sent down ``pipe``, up to the
    first job that raises."""
    for job in jobs:
        try:
            payload = pickle.dumps((True, function(job)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # re-raised in the parent
            _send(pipe, _pickled_error(exc))
            return
        _send(pipe, payload)


def _send(pipe: int, payload: bytes) -> None:
    """``payload`` down ``pipe`` after its length."""
    data = memoryview(_MESSAGE.pack(len(payload)) + payload)
    while data:
        data = data[os.write(pipe, data) :]


def _pickled_error(exc: BaseException) -> bytes:
    """``exc`` as a failed result; one that does not pickle becomes a
    RuntimeError with its type's name and its message."""
    try:
        return pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _read(pipe: int, size: int) -> bytes:
    """``size`` bytes from a worker's ``pipe``."""
    chunks = []
    while size:
        chunk = os.read(pipe, size)
        if not chunk:
            raise ChildProcessError("a worker process ended without sending its result")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _results(pipes: list[int], count: int) -> Iterator:
    """The workers' results in job order, job ``i`` from ``pipes[i % n]``."""
    for i in range(count):
        pipe = pipes[i % len(pipes)]
        (length,) = _MESSAGE.unpack(_read(pipe, _MESSAGE.size))
        ok, value = pickle.loads(_read(pipe, length))
        if not ok:
            raise value
        yield value
