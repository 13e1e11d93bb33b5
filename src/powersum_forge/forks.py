"""Jobs run on forked worker processes, their results taken in job order.

:func:`forked_map` forks its workers before anything else runs and deals
job ``i`` to worker ``i % n``.  A worker writes each result, pickled, to
one of its ``_IN_FLIGHT`` ``memfd`` files, from the file's start, and
sends only the file's number and the result's length down its pipe, so
no result's bytes cross a pipe.  Before it reuses a file it waits for
the parent to take the result in it, so each worker holds at most
``_IN_FLIGHT`` results: memory is bounded by the size of a result, which
the caller bounds by the size of a job.  A result that a ``memfd`` file
refuses (over a file size limit, or no memory for it) goes down the pipe
instead, and so does a worker's exception, which is raised in the parent
with its type and message.  A worker that ends without sending a result
raises ChildProcessError in the parent.  Where no process, pipe or
``memfd`` can be had for the workers, the jobs run in this process.
Every worker ends with ``os._exit``, and the parent kills and reaps
every worker when it leaves, at the end or early.

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

#: Results a worker may have written that the parent has not taken yet,
#: and the ``memfd`` files it writes them to.
_IN_FLIGHT = 2

#: A worker's message for each result: the number of the ``memfd`` file
#: it is in, or ``_PIPE`` when the result follows the message on the
#: pipe, and its length.
_MESSAGE = struct.Struct("=qq")
_PIPE = -1


def worker_count(threads: int | None, jobs: int) -> int:
    """Worker processes for ``jobs`` jobs: at most ``threads`` (None for no
    cap), one for each CPU this process may run on and one for each job.
    1, where ``fork`` or ``memfd`` is missing too, means run in process."""
    if not all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")):
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
            channels = [_start(function, jobs[w::workers], pids, fds) for w in range(workers)]
        except OSError:  # no process, pipe or memfd to be had
            _stop(pids, fds)
            channels = None
        yield map(function, jobs) if channels is None else _results(channels, len(jobs))
    finally:
        _stop(pids, fds)


def _start(function: Callable, jobs: Sequence, pids: list[int], fds: list[int]) -> tuple:
    """Fork a worker for ``jobs``, its pid appended to ``pids`` and this
    process's ends to ``fds``; returns its results pipe, acks pipe,
    ``memfd`` files and job count."""
    ends: list[int] = []  # the worker's ends, closed here once it is forked
    try:
        results, results_end = os.pipe()
        fds.append(results)
        ends.append(results_end)
        acks_end, acks = os.pipe()
        fds.append(acks)
        ends.append(acks_end)
        memfds: list[int] = []
        for _ in range(_IN_FLIGHT):
            memfds.append(os.memfd_create("powersum-forge-result"))
            fds.append(memfds[-1])
        pid = os.fork()
        if pid == 0:
            try:
                for fd in fds:
                    if fd not in memfds:
                        os.close(fd)
                _work(function, jobs, results_end, acks_end, memfds)
            finally:
                os._exit(0)
        pids.append(pid)
    finally:
        for fd in ends:
            os.close(fd)
    return results, acks, memfds, len(jobs)


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


def _work(function: Callable, jobs: Sequence, results: int, acks: int, memfds: list[int]) -> None:
    """A worker's loop: each job's result written to a file of ``memfds``
    and announced on ``results``, up to the first job that raises."""
    for j, job in enumerate(jobs):
        try:
            payload = pickle.dumps((True, function(job)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # re-raised in the parent
            _send(results, _PIPE, _pickled_error(exc))
            return
        if j >= _IN_FLIGHT and not os.read(acks, 1):
            return  # the parent has gone
        memfd = j % _IN_FLIGHT
        try:
            view = memoryview(payload)
            while view:
                view = view[os.pwrite(memfds[memfd], view, len(payload) - len(view)) :]
        except OSError:  # over a file size limit, or no memory for the file
            memfd = _PIPE
        _send(results, memfd, payload)


def _send(pipe: int, memfd: int, payload: bytes) -> None:
    """Announce ``payload`` in file ``memfd`` on ``pipe``, or send it
    there after the message when ``memfd`` is ``_PIPE``."""
    data = memoryview(_MESSAGE.pack(memfd, len(payload)) + (payload if memfd == _PIPE else b""))
    while data:
        data = data[os.write(pipe, data) :]


def _pickled_error(exc: BaseException) -> bytes:
    """``exc`` as a failed result; one that does not pickle becomes a
    RuntimeError with its type's name and its message."""
    try:
        return pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _read(pipe: int, size: int) -> bytearray:
    """``size`` bytes from a worker's ``pipe``."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(pipe, size - len(data))
        if not chunk:
            raise ChildProcessError("a worker process ended without sending its result")
        data += chunk
    return data


def _results(channels: list, count: int) -> Iterator:
    """The workers' results in job order, each file freed once read."""
    workers = len(channels)
    for i in range(count):
        results, acks, memfds, jobs = channels[i % workers]
        memfd, length = _MESSAGE.unpack(_read(results, _MESSAGE.size))
        payload = _read(results, length) if memfd == _PIPE else os.pread(memfds[memfd], length, 0)
        if i // workers + _IN_FLIGHT < jobs:
            try:
                os.write(acks, b".")
            except BrokenPipeError:
                pass  # the worker has stopped after an error, its last result
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        yield value
