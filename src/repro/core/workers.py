"""One supervisor for every worker-process pool (PROTOCOL.md §10.1).

The verifier pool (:mod:`.parallel`) and the sweep pool (:mod:`.sweep`)
run their workers through :class:`Supervisor`: start method, spawn with
release on a failed start, death detection, bounded reaping and counted
restarts with backoff.  :func:`pooled_or_in_process` is the one degrade
rule.  Clients keep their wire protocol, their worker entry point and
their recovery contract; nothing here knows which client it serves.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Iterable, NamedTuple, TypeVar

from .resilience import RetryPolicy

__all__ = [
    "MIN_CORES",
    "STOP_TIMEOUT_S",
    "Supervisor",
    "Worker",
    "cpu_count",
    "pooled_or_in_process",
]

#: Below this many CPUs a worker can only time-slice against its parent,
#: so process pools are served in-process instead.
MIN_CORES = 2
#: Bound on each escalation step of a stop: the join after the quit
#: frame, after ``terminate`` and after ``kill``.
STOP_TIMEOUT_S = 5.0

T = TypeVar("T")


def cpu_count() -> int:
    """CPUs on this box (1 when the platform cannot tell)."""
    return os.cpu_count() or 1


def pooled_or_in_process(
    pooled: Callable[[], T],
    in_process: Callable[[], T],
    *,
    check_cores: bool = True,
) -> T:
    """The degrade rule: ``pooled()`` when the box has :data:`MIN_CORES`
    CPUs (skipped with ``check_cores=False``, for an explicitly sized
    pool) and every worker starts; ``in_process()`` otherwise.
    ``pooled`` must release what it started before its ``OSError``
    escapes, which :meth:`Supervisor.start` does."""
    if not check_cores or cpu_count() >= MIN_CORES:
        try:
            return pooled()
        except OSError:
            pass
    return in_process()


class Worker(NamedTuple):
    """One started worker: the parent's pipe end, the process, and the
    resources the client allocated for it (closed when it is reaped)."""

    conn: Any
    process: Any
    resources: tuple


class Supervisor:
    """``count`` worker slots running ``target(conn, *args)``.

    ``launch(index)`` returns ``(args, resources)`` for each start of
    slot ``index``; every resource needs a ``close()``.  ``quit_frame``
    is the raw bytes (``send_bytes``) that ask a worker to exit.  An
    empty slot (``workers[index] is None``) was never started, was
    reaped, or could not be restarted.
    """

    def __init__(
        self,
        target: Callable[..., None],
        count: int,
        *,
        name: str,
        quit_frame: bytes,
        launch: Callable[[int], tuple[tuple, tuple]],
        start_method: str | None = None,
        backoff: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = time.sleep,
    ) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._target = target
        self._name = name
        self._quit_frame = quit_frame
        self._launch = launch
        self._backoff = backoff
        self._sleep = sleep
        self.workers: list[Worker | None] = [None] * count
        self.restarts = [0] * count
        self._closed = False

    def start(self) -> None:
        """Start every slot; if one fails, stop the rest and re-raise."""
        try:
            for index in range(len(self.workers)):
                self.spawn(index)
        except BaseException:
            self.close()
            raise

    def spawn(self, index: int) -> None:
        """Start slot ``index``.  A failed start releases both pipe ends
        and the launch resources before the error escapes."""
        with contextlib.ExitStack() as undo:
            args, resources = self._launch(index)
            for resource in resources:
                undo.callback(resource.close)
            parent, child = self._ctx.Pipe()
            undo.callback(parent.close)
            with child:
                process = self._ctx.Process(
                    target=self._target,
                    args=(child, *args),
                    name=f"{self._name}-{index}",
                    daemon=True,
                )
                process.start()
            undo.pop_all()
        self.workers[index] = Worker(parent, process, resources)

    def restart(self, index: int) -> bool:
        """Replace slot ``index`` after the backoff for its restart
        count, and count the restart.  False when the replacement
        cannot start, or the pool is closed (a closed pool starts
        nothing): the client then serves the slot in-process."""
        if self._closed:
            return False
        if self._backoff is not None and self._sleep is not None:
            delay = self._backoff.delay_at(self.restarts[index])
            if delay > 0:
                self._sleep(delay)
        self.reap(index)
        self.restarts[index] += 1
        try:
            self.spawn(index)
        except OSError:
            return False
        return True

    def reap(self, index: int) -> None:
        """Stop slot ``index`` without a quit frame (it is presumed dead
        or untrustworthy) and release everything it held."""
        worker, self.workers[index] = self.workers[index], None
        if worker is not None:
            _finish(worker, grace=0.0)

    def kill(self, index: int) -> None:
        """SIGKILL slot ``index``'s process and wait for it (drill hook);
        the client finds the death on its next request."""
        worker = self.workers[index]
        if worker is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(STOP_TIMEOUT_S)

    def wait(self, indices: Iterable[int]) -> dict[int, bool]:
        """Block until a worker among ``indices`` has something to read
        or has died.  Maps each ready index to True when its pipe is
        readable (a reply, or the EOF of a death) and to False when only
        its sentinel fired (it died with nothing to say)."""
        conns: dict[Any, int] = {}
        sentinels: dict[Any, int] = {}
        for index in indices:
            worker = self.workers[index]
            conns[worker.conn] = index
            sentinels[worker.process.sentinel] = index
        ready: dict[int, bool] = {}
        for item in _mp_wait([*conns, *sentinels]):
            if item in conns:
                ready[conns[item]] = True
            else:
                ready.setdefault(sentinels[item], False)
        return ready

    def close(self) -> None:
        """Stop every worker gracefully; idempotent.  Quit frames go out
        to all workers first, so they exit concurrently.  The stopped
        workers stay in their slots for inspection."""
        if self._closed:
            return
        self._closed = True
        stopping = [worker for worker in self.workers if worker is not None]
        for worker in stopping:
            try:
                worker.conn.send_bytes(self._quit_frame)
            except (OSError, ValueError):
                pass  # already dead: the escalation below reaps it
        for worker in stopping:
            _finish(worker, grace=STOP_TIMEOUT_S)


def _finish(worker: Worker, grace: float) -> None:
    """Join within ``grace``, then escalate to terminate and kill, each
    bounded by :data:`STOP_TIMEOUT_S`; release the pipe and resources.
    The pipe closes only after the first join, so a worker answering
    the quit frame never writes into a closed pipe."""
    process = worker.process
    process.join(grace)
    worker.conn.close()
    for escalate in (process.terminate, process.kill):
        if not process.is_alive():
            break
        escalate()
        process.join(STOP_TIMEOUT_S)
    for resource in worker.resources:
        resource.close()
