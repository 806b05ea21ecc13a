"""Crash drills for the shared worker supervisor (PROTOCOL.md §10.1).

The lifecycle itself, independent of any client's wire protocol: a
SIGKILLed worker is detected, respawned and counted; a failed start
releases its pipe ends and resources; a wedged worker that ignores its
quit frame and SIGTERM is escalated to SIGKILL within bounded time.
The last tests pin what the supervisor changed in its clients: no ring
segments leak from a failed start, every ``auto`` mode degrades instead
of raising when workers cannot start, and a replacement that cannot
start leaves the client serving in-process.
"""

from __future__ import annotations

import errno
import os
import pickle
import signal
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.core import workers
from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.parallel import ProcessShardExecutor
from repro.core.resilience import RetryPolicy
from repro.core.store import DescriptorStore
from repro.core.sweep import SweepCell, SweepExecutor, run_sweep
from repro.core.workers import Supervisor, pooled_or_in_process

QUIT = pickle.dumps(None)


def echo_worker(conn) -> None:
    """Echo every object back; exit on ``None``."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        conn.send(message)


def wedged_worker(conn) -> None:
    """Ignore SIGTERM, say so, then never read the pipe again."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    while True:
        time.sleep(1.0)


def _pool(count: int, target=echo_worker, **kwargs) -> Supervisor:
    kwargs.setdefault("launch", lambda index: ((), ()))
    return Supervisor(
        target, count, name=target.__name__, quit_frame=QUIT, **kwargs
    )


def square_cell(params: dict, seed: int) -> int:
    return params["x"] * params["x"]


class _Resource:
    closed = False

    def close(self) -> None:
        self.closed = True


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _refuse_start(self) -> None:
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


class TestSigkill:
    def test_killed_worker_is_detected_respawned_and_counted(self):
        sleeps: list[float] = []
        pool = _pool(
            2,
            backoff=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
            sleep=sleeps.append,
        )
        pool.start()
        try:
            victim = pool.workers[0].process.pid
            os.kill(victim, signal.SIGKILL)
            # The death wakes a wait on the victim and is visible as
            # lost liveness; the survivor is untouched.
            assert 0 in pool.wait([0])
            pool.workers[0].process.join(5.0)
            assert not pool.workers[0].process.is_alive()
            assert pool.workers[1].process.is_alive()

            assert pool.restart(0) is True
            assert pool.restarts == [1, 0]
            assert sleeps == [0.01]
            assert pool.workers[0].process.pid != victim
            pool.workers[0].conn.send("ping")
            assert pool.workers[0].conn.recv() == "ping"
        finally:
            pool.close()
        for worker in pool.workers:
            assert not worker.process.is_alive()

    def test_kill_hook_leaves_the_slot_for_the_client_to_restart(self):
        pool = _pool(1)
        pool.start()
        try:
            pool.kill(0)
            assert not pool.workers[0].process.is_alive()
            assert pool.wait([0]) == {0: True}  # EOF on the pipe
            with pytest.raises(EOFError):
                pool.workers[0].conn.recv()
        finally:
            pool.close()


class TestFailedStart:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_failed_spawn_releases_pipe_ends_and_resources(self, monkeypatch):
        resource = _Resource()
        pool = _pool(1, launch=lambda index: ((), (resource,)))
        monkeypatch.setattr(BaseProcess, "start", _refuse_start)
        before = _open_fds()
        with pytest.raises(OSError):
            pool.spawn(0)
        assert _open_fds() == before
        assert resource.closed
        assert pool.workers == [None]

    def test_failed_start_stops_the_workers_already_running(self, monkeypatch):
        original = BaseProcess.start
        started: list = []

        def start_once(self) -> None:
            if started:
                _refuse_start(self)
            original(self)
            started.append(self)

        monkeypatch.setattr(BaseProcess, "start", start_once)
        pool = _pool(2)
        with pytest.raises(OSError):
            pool.start()
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_failed_restart_leaves_the_slot_empty(self, monkeypatch):
        pool = _pool(1)
        pool.start()
        try:
            monkeypatch.setattr(BaseProcess, "start", _refuse_start)
            assert pool.restart(0) is False
            assert pool.workers == [None]
            assert pool.restarts == [1]
        finally:
            pool.close()

    def test_closed_pool_starts_nothing(self):
        pool = _pool(1)
        pool.start()
        pool.close()
        assert pool.restart(0) is False
        assert not pool.workers[0].process.is_alive()


class TestWedgedWorker:
    @pytest.fixture
    def wedged(self, monkeypatch):
        monkeypatch.setattr(workers, "STOP_TIMEOUT_S", 0.2)
        pool = _pool(1, wedged_worker)
        pool.start()
        process = pool.workers[0].process
        assert pool.workers[0].conn.recv() == "ready"
        yield pool
        process.kill()  # never leave a SIGTERM-proof child behind
        process.join(5.0)

    def test_close_escalates_to_terminate_then_kill(self, wedged):
        pool, process = wedged, wedged.workers[0].process
        start = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - start
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL
        # quit grace + terminate + kill, each bounded by STOP_TIMEOUT_S.
        assert elapsed < 3.0

    def test_reap_escalates_without_a_quit_frame(self, wedged):
        pool, process = wedged, wedged.workers[0].process
        start = time.monotonic()
        pool.reap(0)
        assert time.monotonic() - start < 3.0
        assert process.exitcode == -signal.SIGKILL
        assert pool.workers == [None]


class TestDegradeRule:
    def test_too_few_cores_never_tries_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def pooled():
            raise AssertionError("pool built on a single-core box")

        assert pooled_or_in_process(pooled, lambda: "in-process") == (
            "in-process"
        )
        assert (
            pooled_or_in_process(
                lambda: "pooled", lambda: "in-process", check_cores=False
            )
            == "pooled"
        )


def _ring_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("nnn-ring-")}


def _store() -> tuple[DescriptorStore, CookieGenerator]:
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="svc"))
    return store, CookieGenerator(descriptor, clock=lambda: 100.0)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_failed_worker_start_leaks_no_ring_segments(monkeypatch):
    """A failed start releases the ring pair made for that worker."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(BaseProcess, "start", _refuse_start)
    store, _generator = _store()
    before = _ring_segments()
    pool = ProcessShardExecutor.auto(store, workers=2)
    pool.close()
    assert pool.transport == "in-process"
    assert _ring_segments() == before


def _verifier():
    store, generator = _store()
    pool = ProcessShardExecutor.auto(store, workers=2)
    assert pool.match(generator.generate(), 100.0) is not None
    return pool, pool.transport == "in-process"


def _sweep():
    executor = SweepExecutor.auto(square_cell, workers=2)
    assert executor.run([SweepCell(labels=(3,), params={"x": 3})]) == [9]
    return executor, executor.in_process


def _run_sweep():
    results, stats = run_sweep(
        square_cell, [SweepCell(labels=(4,), params={"x": 4})]
    )
    assert results == [16]
    return None, stats.in_process


@pytest.mark.parametrize(
    "build",
    [_verifier, _sweep, _run_sweep],
    ids=["verifier-pool", "sweep-executor", "run-sweep"],
)
def test_auto_serves_in_process_when_workers_cannot_start(monkeypatch, build):
    """One degrade rule: every ``auto`` mode serves in-process when a
    worker cannot be started, instead of raising."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(BaseProcess, "start", _refuse_start)
    client, in_process = build()
    if client is not None:
        client.close()
    assert in_process


def test_unstartable_replacement_is_served_in_process(monkeypatch):
    """A worker that dies when no replacement can start leaves its slot
    to the client's in-process path: the verifier pool's fallback
    matcher keeps answering."""
    store, generator = _store()
    with ProcessShardExecutor(store, workers=1) as pool:
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        monkeypatch.setattr(BaseProcess, "start", _refuse_start)

        assert pool.match(generator.generate(), 100.0) is not None
        assert pool.fallback_shards == [0]
