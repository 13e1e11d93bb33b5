"""The fork helper that ``search`` and ``verify`` share: worker counts,
results in job order, errors raised in the parent, no child left behind.
No test here starts more than three processes."""

import errno
import functools
import os
import signal
import time

import pytest

from powersum_forge import forks


def no_child_process() -> bool:
    """True when this process has no child process, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize(
    "cpus,threads,jobs,expected",
    [
        (2, 99999999999999999999, 5, 2),
        (2, None, 5, 2),
        (2, 3, 1, 1),
        (2, 1, 100, 1),
        (2, None, 0, 1),
        (64, 10**30, 10**30, 64),
        (64, 3, 10**30, 3),
        (1, None, 10, 1),
    ],
)
def test_worker_count_is_the_least_of_threads_cpus_and_jobs(
    monkeypatch, cpus, threads, jobs, expected
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("worker_count forked"))
    assert forks.worker_count(threads, jobs) == expected


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_worker_count_is_one_without_fork_or_memfd(monkeypatch, name):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delattr(os, name, raising=False)
    assert forks.worker_count(None, 100) == 1


def sized(job: int) -> tuple[int, str]:
    # results from a few bytes to far more than a pipe holds
    return job, str(job) * (37 * job**4)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_map_gives_the_results_in_job_order(workers):
    jobs = list(range(9))
    with forks.forked_map(sized, jobs, workers) as results:
        assert list(results) == list(map(sized, jobs))
    assert no_child_process()


def test_forked_map_with_more_workers_than_jobs():
    with forks.forked_map(sized, [4], 3) as results:
        assert list(results) == [sized(4)]
    assert no_child_process()


def failing(job: int) -> int:
    if job == 5:
        raise ValueError(f"job {job} failed")
    return job


def test_forked_map_raises_a_worker_error_in_order_and_leaves_no_child():
    taken = []
    with pytest.raises(ValueError, match=r"^job 5 failed$"):
        with forks.forked_map(failing, list(range(12)), 3) as results:
            taken.extend(results)
    assert taken == [0, 1, 2, 3, 4]
    assert no_child_process()


def test_forked_map_left_early_leaves_no_child():
    with forks.forked_map(sized, list(range(20)), 2) as results:
        assert next(results) == sized(0)
    assert no_child_process()


def recorded(path: str, job: int) -> bytes:
    """Appends ``job`` to the file ``path`` as it starts; its result is
    more than a pipe buffers."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, b"%d\n" % job)
    finally:
        os.close(fd)
    return bytes(256 << 10)


def test_the_pipe_bounds_how_far_a_worker_runs_ahead(tmp_path):
    # A worker holds the result it is writing plus what the pipe buffers,
    # so it cannot start a job far past the results the parent has taken.
    path = tmp_path / "started"
    path.touch()
    jobs = list(range(12))
    with forks.forked_map(functools.partial(recorded, str(path)), jobs, 2) as results:
        assert next(results) == bytes(256 << 10)
        time.sleep(0.5)
        started = [int(line) for line in path.read_text().split()]
        for worker in range(2):
            assert len([job for job in started if job % 2 == worker and job > 0]) <= 2
        assert list(results) == [bytes(256 << 10)] * 11
    assert sorted(int(line) for line in path.read_text().split()) == jobs
    assert no_child_process()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_forked_map_runs_in_process_when_a_worker_cannot_be_forked(monkeypatch):
    fork, forks_made = os.fork, []

    def fork_once():
        if forks_made:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        forks_made.append(fork())
        return forks_made[-1]

    fds = open_fds()
    monkeypatch.setattr(os, "fork", fork_once)
    jobs = list(range(9))
    with forks.forked_map(sized, jobs, 3) as results:
        assert no_child_process()
        assert list(results) == list(map(sized, jobs))
    assert len(forks_made) == 1 and open_fds() == fds


def dying(job: int) -> int:
    if job == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    return job


def test_a_killed_worker_raises_child_process_error_and_leaves_no_child():
    taken = []
    fds = open_fds()
    with pytest.raises(ChildProcessError, match="ended without sending its result"):
        with forks.forked_map(dying, list(range(12)), 3) as results:
            taken.extend(results)
    assert taken == [0, 1, 2, 3]
    assert no_child_process() and open_fds() == fds
