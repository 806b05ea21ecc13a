"""Multi-core verification data plane (§5's linear core scaling).

The paper's middlebox reaches 20.4 Gb/s on 4 cores because each core
owns the descriptors whose cookies it verifies (§4.6): replay caches
stay locally sound, so cores never share state on the hot path.  This
module reproduces that on CPython, where threads cannot help a
CPU-bound verifier: each shard of the rendezvous dispatch runs in its
own **worker process** with a private :class:`~repro.core.matcher.
CookieMatcher`, replica :class:`~repro.core.store.DescriptorStore`, and
replay cache.

Three layers:

- a **batch wire codec** — :func:`encode_batch` / :func:`decode_batch`
  frame a cookie vector as one ``bytes`` blob built on the existing
  48-byte :meth:`Cookie.to_bytes` form, and :func:`encode_verdicts` /
  :func:`decode_verdicts` pack the reply as ``(reason code, descriptor
  id)`` records.  No ``Cookie`` or descriptor **object** ever crosses
  the process boundary, and nothing is pickled on the hot path.
- a **transport ladder** (PROTOCOL.md §12) — batch frames travel over
  per-shard :class:`~repro.core.shm_ring.ShmRing` pairs by default: a
  dispatch is one bounded memcpy into shared memory per shard and one
  polled read back, zero syscalls in steady state.  Pipes remain the
  control channel (descriptor deltas, stats, probes, shutdown) and the
  fallback transport (ring setup failure, frames too large for a
  slot, post-restart re-dispatch).  Below both sits the **in-process
  degrade mode**: where worker processes cannot win or cannot start
  (the :mod:`~repro.core.workers` degrade rule),
  :meth:`ProcessShardExecutor.auto` serves every shard from in-process
  matchers so the abstraction never costs 2x on a CI box.
- a :class:`ProcessShardExecutor` — the multi-process drop-in for
  :class:`~repro.core.distributed.ShardedVerifierPool`: same
  ``match`` / ``match_batch`` / ``shard_for`` / telemetry surface, same
  descriptor-affine rendezvous dispatch, identical verdict semantics
  (per-shard ordering, replay/NCT rules of PROTOCOL.md §9-§10).

Failure model (PROTOCOL.md §10): a crashed worker is detected at the
next dispatch (broken pipe / EOF / reply timeout — on the ring
transport, an unanswered sequence word plus a failed liveness check),
restarted with a **cold replay cache** and fresh rings, re-seeded from
the dispatcher's descriptor store, and counted in
``PoolStats.shard_restarts`` — the same fail-closed trade-off an NFV
pool makes when it replaces a dead instance: the pool keeps verifying
(no deadlock, no dropped dispatch) at the cost of one shard's replay
window starting empty.
"""

from __future__ import annotations

import contextlib
import json
import os  # noqa: F401 - degrade tests patch the CPU count via parallel.os
import struct
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from .cookie import COOKIE_WIRE_BYTES, Cookie
from .descriptor import CookieDescriptor
from .distributed import PoolStats, rendezvous_shard
from .errors import MalformedCookie
from .matcher import NETWORK_COHERENCY_TIME, CookieMatcher, MatchStats
from .resilience import RetryPolicy
from .shm_ring import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_SLOTS,
    RingFrameTooLarge,
    RingUnavailable,
    ShmRing,
)
from .store import DescriptorStore
from .workers import Supervisor, pooled_or_in_process

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..telemetry import MetricsRegistry

__all__ = [
    "encode_batch",
    "decode_batch",
    "encode_verdicts",
    "decode_verdicts",
    "VERDICT_ACCEPTED",
    "VERDICT_CODES",
    "VERDICT_REASONS",
    "VERDICT_UNAVAILABLE",
    "ShmTransportStats",
    "ProcessShardExecutor",
]

# ----------------------------------------------------------------------
# Batch wire codec
# ----------------------------------------------------------------------

_COUNT = struct.Struct("!I")

#: Verdict reason codes, one per :class:`MatchStats` outcome.  Code 0 is
#: the only accept; everything else names the reject reason, so a verdict
#: array is also a per-cookie error report.
VERDICT_REASONS: tuple[str, ...] = (
    "accepted",
    "unknown_id",
    "bad_signature",
    "stale_timestamp",
    "replayed",
    "revoked",
    "expired",
)
VERDICT_CODES: dict[str, int] = {
    reason: code for code, reason in enumerate(VERDICT_REASONS)
}
VERDICT_ACCEPTED = VERDICT_CODES["accepted"]

#: Dispatcher-level reason for cookies whose shard died twice within one
#: dispatch: the sub-batch fails closed with this marker.  Deliberately
#: **not** a wire code — workers can never report it (a worker that can
#: reply is by definition available), so :data:`VERDICT_REASONS` stays a
#: bijection with :class:`MatchStats` outcomes.
VERDICT_UNAVAILABLE = "verifier_unavailable"

#: One verdict record: reason code (1) + descriptor id (8, zero unless
#: accepted — ids, never descriptor objects, cross the wire).
_VERDICT_RECORD = struct.Struct("!BQ")


def encode_batch(cookies: Sequence[Cookie]) -> bytes:
    """Frame a cookie vector: ``!I`` count + count × 48-byte cookies.

    Built on :meth:`Cookie.to_bytes`, so a frame is exactly what the
    cookies would occupy on a binary carrier — and cookies that arrived
    off a wire round-trip bit-identically.
    """
    return _COUNT.pack(len(cookies)) + b"".join(
        cookie.to_bytes() for cookie in cookies
    )


def decode_batch(blob: bytes) -> list[Cookie]:
    """Inverse of :func:`encode_batch`; raises :class:`MalformedCookie`
    on a truncated frame, a count/length mismatch, or trailing bytes."""
    if len(blob) < _COUNT.size:
        raise MalformedCookie(
            f"batch frame too short for header: {len(blob)} bytes"
        )
    (count,) = _COUNT.unpack_from(blob)
    body = len(blob) - _COUNT.size
    if body != count * COOKIE_WIRE_BYTES:
        raise MalformedCookie(
            f"batch frame announces {count} cookies "
            f"({count * COOKIE_WIRE_BYTES} bytes) but carries {body}"
        )
    from_bytes = Cookie.from_bytes
    return [
        from_bytes(
            blob[
                _COUNT.size
                + index * COOKIE_WIRE_BYTES : _COUNT.size
                + (index + 1) * COOKIE_WIRE_BYTES
            ]
        )
        for index in range(count)
    ]


def encode_verdicts(verdicts: Sequence[tuple[int, int]]) -> bytes:
    """Pack ``(reason code, descriptor id)`` records into one blob."""
    out = bytearray(_COUNT.size + len(verdicts) * _VERDICT_RECORD.size)
    _COUNT.pack_into(out, 0, len(verdicts))
    pack_into = _VERDICT_RECORD.pack_into
    offset = _COUNT.size
    reason_count = len(VERDICT_REASONS)
    for code, descriptor_id in verdicts:
        if not 0 <= code < reason_count:
            raise MalformedCookie(f"verdict code {code} out of range")
        pack_into(out, offset, code, descriptor_id)
        offset += _VERDICT_RECORD.size
    return bytes(out)


def decode_verdicts(blob: bytes) -> list[tuple[int, int]]:
    """Inverse of :func:`encode_verdicts`; raises
    :class:`MalformedCookie` on truncation, length mismatch, or an
    unknown reason code."""
    if len(blob) < _COUNT.size:
        raise MalformedCookie(
            f"verdict frame too short for header: {len(blob)} bytes"
        )
    (count,) = _COUNT.unpack_from(blob)
    body = len(blob) - _COUNT.size
    if body != count * _VERDICT_RECORD.size:
        raise MalformedCookie(
            f"verdict frame announces {count} verdicts "
            f"({count * _VERDICT_RECORD.size} bytes) but carries {body}"
        )
    verdicts = list(_VERDICT_RECORD.iter_unpack(memoryview(blob)[_COUNT.size :]))
    reason_count = len(VERDICT_REASONS)
    for code, _descriptor_id in verdicts:
        if code >= reason_count:
            raise MalformedCookie(f"unknown verdict code {code}")
    return verdicts


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

# One-byte opcodes; every frame starts with one.
_OP_BATCH = b"B"  # + !d now + batch frame        -> verdict frame
_OP_DELTA = b"D"  # + JSON delta ops              -> b"\x01" ack
_OP_STATS = b"S"  #                               -> JSON stats
_OP_QUIT = b"Q"   #                               -> b"\x01" ack, exit

_NOW = struct.Struct("!d")

#: How many empty ring polls a worker burns after its last frame before
#: parking on the control pipe; one poll is a handful of interpreted
#: bytecodes, so this is roughly a millisecond of hot window — enough to
#: catch the dispatcher's next frame of a streaming dispatch without a
#: single syscall.
_WORKER_HOT_SPINS = 4096
#: Parked-worker wakeup quantum: the worker sleeps in ``conn.poll`` (so
#: control frames wake it instantly) and re-checks the ring this often.
_WORKER_IDLE_POLL_S = 0.001
#: How long a worker pushes into a full response ring before concluding
#: the dispatcher is gone and exiting (the executor would restart it).
_WORKER_PUSH_TIMEOUT_S = 60.0


def _worker_main(
    conn,
    nct: float,
    seed_json: str,
    rings: tuple[ShmRing, ShmRing] | None = None,
    ring_names: tuple[str, str] | None = None,
) -> None:
    """Verifier shard loop: one matcher over a replica store.

    The replica is seeded from JSON at start (control plane — the hot
    path never serializes descriptors) and updated by delta frames.
    Batch frames arrive on the request ring when the shard has one
    (``rings`` under fork, ``ring_names`` under spawn) and their verdict
    frames return on the response ring; the pipe carries control ops and
    fallback batches, each answered on the channel it arrived on.
    Any malformed frame terminates the worker: the dispatcher treats
    that as a crash and restarts the shard — failing closed beats
    verifying against a state we no longer trust.
    """
    store = DescriptorStore()
    for data in json.loads(seed_json):
        store.add(CookieDescriptor.from_json(data))
    matcher = CookieMatcher(store, nct=nct)
    codes = VERDICT_CODES
    accepted_code = VERDICT_ACCEPTED

    req_ring = resp_ring = None
    if rings is not None:
        # fork: inherited mappings; the dispatcher owns their lifetime.
        req_ring, resp_ring = rings
        req_ring.disown()
        resp_ring.disown()
    elif ring_names is not None:
        try:
            req_ring = ShmRing.attach(ring_names[0])
            resp_ring = ShmRing.attach(ring_names[1])
        except RingUnavailable:
            # The dispatcher believes this shard speaks shm; serving the
            # pipe only would deadlock its ring waits.  Die loudly and
            # let the recovery ladder decide.
            conn.close()
            raise

    def batch_reply(frame: bytes) -> bytes:
        (now,) = _NOW.unpack_from(frame, 1)
        cookies = decode_batch(frame[1 + _NOW.size :])
        reasons: list[str] = []
        matcher.match_batch(cookies, now, reasons=reasons)
        return encode_verdicts(
            [
                (
                    codes[reason],
                    cookie.cookie_id
                    if codes[reason] == accepted_code
                    else 0,
                )
                for reason, cookie in zip(reasons, cookies)
            ]
        )

    hot = 0
    try:
        while True:
            frame = None
            via_ring = False
            if req_ring is not None:
                frame = req_ring.try_pop()
                via_ring = frame is not None
                if frame is None:
                    if hot > 0:
                        hot -= 1
                        if hot & 127 == 0:
                            time.sleep(0)
                        continue
                    if not conn.poll(_WORKER_IDLE_POLL_S):
                        continue
            if frame is None:
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    break
            if req_ring is not None:
                hot = _WORKER_HOT_SPINS
            op = frame[:1]
            if op == _OP_BATCH:
                reply = batch_reply(frame)
                if via_ring:
                    if not resp_ring.push(reply, _WORKER_PUSH_TIMEOUT_S):
                        break  # dispatcher stopped draining; restart cycle
                else:
                    conn.send_bytes(reply)
            elif op == _OP_DELTA:
                for delta in json.loads(frame[1:].decode("utf-8")):
                    action = delta["op"]
                    if action == "add":
                        store.add(
                            CookieDescriptor.from_json(delta["descriptor"])
                        )
                    elif action == "revoke":
                        store.revoke(int(delta["cookie_id"]))
                    elif action == "remove":
                        store.remove(int(delta["cookie_id"]))
                    else:
                        raise MalformedCookie(f"unknown delta op {action!r}")
                conn.send_bytes(b"\x01")
            elif op == _OP_STATS:
                conn.send_bytes(
                    json.dumps(_matcher_stats(matcher)).encode("utf-8")
                )
            elif op == _OP_QUIT:
                conn.send_bytes(b"\x01")
                break
            else:
                raise MalformedCookie(f"unknown opcode {op!r}")
    except MalformedCookie:
        pass  # exit; the dispatcher restarts the shard fail-closed
    finally:
        conn.close()
        for ring in (req_ring, resp_ring):
            if ring is not None:
                ring.close()


def _matcher_stats(matcher: CookieMatcher) -> dict:
    """One shard's stats snapshot: the worker's stats reply, and the
    live view of an in-process fallback shard."""
    cache = matcher.replay_cache
    return {
        "match": matcher.stats.as_dict(),
        "replay_cache": {
            "rotations": cache.rotations,
            "idle_resets": cache.idle_resets,
            "size": cache.size,
        },
    }


def _zero_worker_stats() -> dict:
    return {
        "match": MatchStats().as_dict(),
        "replay_cache": {"rotations": 0, "idle_resets": 0, "size": 0},
    }


def _sum_worker_stats(snapshots: Sequence[dict]) -> dict:
    total = _zero_worker_stats()
    for snapshot in snapshots:
        for key, value in snapshot["match"].items():
            total["match"][key] += value
        for key, value in snapshot["replay_cache"].items():
            total["replay_cache"][key] += value
    return total


@dataclass
class ShmTransportStats:
    """Counters for the shared-memory transport (PROTOCOL.md §12)."""

    #: Sub-batches that travelled request-ring → response-ring.
    ring_dispatches: int = 0
    #: Sub-batches that travelled the pipe instead (no ring for the
    #: shard, oversize frame, or post-restart re-dispatch).
    pipe_dispatches: int = 0
    #: Frame bytes written to request rings / read from response rings.
    bytes_out: int = 0
    bytes_in: int = 0
    #: Frames that exceeded a slot's payload capacity and fell back to
    #: the pipe for that dispatch (the frame is never fragmented).
    oversize_pipe_fallbacks: int = 0
    #: Dispatches that found the request ring momentarily full and had
    #: to spin before publishing.
    backpressure_waits: int = 0
    #: Shard spawns whose ring allocation failed (shard degraded to the
    #: pipe transport).
    ring_setup_failures: int = 0
    #: Worker stats polls actually sent vs served from the interval
    #: cache (``stats_interval``).
    stats_polls: int = 0
    stats_cache_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


_TRANSPORTS = ("auto", "pipe", "in-process")


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class ProcessShardExecutor:
    """N verifier shards, each in its own process, behind the rendezvous
    dispatcher — the multi-process form of :class:`ShardedVerifierPool`.

    Semantics match the in-process pool exactly on healthy runs: the
    same cookie stream yields identical verdicts, identical per-shard
    :class:`MatchStats`, identical merged telemetry (the differential
    suite in ``tests/core/test_parallel_differential.py`` pins this).
    The speedup comes from real parallelism with cheap IPC: batch
    frames cross per-shard shared-memory rings (one bounded memcpy and
    one sequence-word store per direction — no syscall, no kernel
    copy), and the dispatch is pipelined — shard N's frame is encoded
    and published while shard N-1's worker is already verifying, then
    replies are collected in publish order.

    ``transport`` selects the hot path: ``"auto"`` (rings, falling back
    to pipes per shard if shared memory is unavailable), ``"pipe"``
    (pipes only), or ``"in-process"`` (degrade mode: no worker
    processes at all — every shard is served by an in-process matcher
    over the dispatcher's store, for single-core boxes where process
    IPC can only lose; use :meth:`auto` to pick this automatically).
    Pipes always remain the control channel and the re-dispatch path.

    Descriptors: the executor snapshots ``store`` into each worker at
    spawn and replays control-plane changes via :meth:`add_descriptor` /
    :meth:`revoke_descriptor` / :meth:`remove_descriptor` (delta push to
    all workers, so revocation takes effect pool-wide).  Mutating the
    store behind the executor's back leaves worker replicas stale —
    route descriptor changes through the executor.

    Crash handling is a ladder (PROTOCOL.md §11): a dead worker is
    detected at the next dispatch or stats poll and restarted cold with
    backoff and fresh rings (``restart_backoff``, counted in
    ``stats.shard_restarts``); the in-flight sub-batch is re-dispatched
    once over the pipe.  A shard that dies *again* during the
    re-dispatch fails its sub-batch closed — every cookie answers
    ``None`` with the dispatcher-level reason
    :data:`VERDICT_UNAVAILABLE` — rather than raising.  A shard that
    burns through ``max_restarts``, or whose replacement worker cannot
    start, is permanently served by an **in-process fallback matcher**
    over the dispatcher's own store (``stats.fallbacks``): slower, but a
    dispatch never raises because a worker died.  Process mechanics
    (start, reap, restart backoff) are the shared
    :class:`~repro.core.workers.Supervisor`'s.

    ``stats_interval`` > 0 amortizes worker stats polling: collections
    within the interval are served from the last snapshot (plus live
    in-process matchers) instead of a per-call pipe round-trip per
    worker.  A cached snapshot belongs to one worker incarnation: the
    moment that incarnation is reaped, its snapshot moves into the
    retired totals and leaves the cache, so a worker that is polled,
    restarted, and merged again inside one interval is never summed
    twice.

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        store: DescriptorStore,
        workers: int,
        nct: float = NETWORK_COHERENCY_TIME,
        *,
        reply_timeout: float = 30.0,
        start_method: str | None = None,
        max_restarts: int = 3,
        restart_backoff: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = time.sleep,
        transport: str = "auto",
        ring_slots: int = DEFAULT_SLOTS,
        ring_slot_bytes: int = DEFAULT_SLOT_BYTES,
        stats_interval: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if reply_timeout <= 0:
            raise ValueError("reply timeout must be positive")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, got {transport!r}"
            )
        if stats_interval < 0:
            raise ValueError("stats_interval must be non-negative")
        self.store = store
        self.nct = nct
        self.reply_timeout = reply_timeout
        self.max_restarts = max_restarts
        self.stats = PoolStats()
        self.shm_stats = ShmTransportStats()
        self._use_rings = transport == "auto"
        self._degraded = transport == "in-process"
        self._ring_slots = ring_slots
        self._ring_slot_bytes = ring_slot_bytes
        self.stats_interval = stats_interval
        self._worker_count = workers
        self._pool = Supervisor(
            _worker_main,
            workers,
            name="cookie-shard",
            quit_frame=_OP_QUIT,
            launch=self._launch,
            start_method=start_method,
            backoff=restart_backoff
            or RetryPolicy(
                max_attempts=max_restarts + 1, base_delay=0.05, max_delay=1.0
            ),
            sleep=sleep,
        )
        # Stats carried over from reaped workers (last successful poll)
        # so merged counters stay monotonic across restarts, and each
        # live incarnation's last poll (None until polled, and again
        # once retired — never counted in both places).
        self._retired_stats = _zero_worker_stats()
        self._last_polled: list[dict | None] = [None] * workers
        self._stats_polled_at: float | None = None
        self._fallback_matchers: dict[int, CookieMatcher] = {}
        self._shard_memo: dict[int, int] = {}
        if self._degraded:
            for index in range(workers):
                self._fallback_matchers[index] = CookieMatcher(
                    self.store, nct=self.nct
                )
        else:
            self._pool.start()

    @classmethod
    def auto(
        cls,
        store: DescriptorStore,
        workers: int,
        nct: float = NETWORK_COHERENCY_TIME,
        *,
        stats_interval: float = 0.25,
        **kwargs,
    ) -> "ProcessShardExecutor":
        """Build an executor on the best transport this box supports.

        The degrade ladder's bottom rung (PROTOCOL.md §12) is the
        supervisor's degrade rule: on a box with too few CPUs, or where
        worker processes cannot start, the multi-process abstraction is
        served **in-process** (no workers, no IPC, ≈1x the in-process
        pool instead of the 0.45x the pipe transport measured on 1
        core).  Otherwise rings are tried first and pipes remain the
        per-shard fallback.  Worker-stats polling is interval-cached by
        default (``stats_interval``); pass ``0`` to poll every
        collection.
        """
        build = partial(
            cls, store, workers, nct, stats_interval=stats_interval, **kwargs
        )
        return pooled_or_in_process(
            partial(build, transport="auto"),
            partial(build, transport="in-process"),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _make_rings(self) -> tuple[ShmRing, ShmRing] | None:
        """A fresh request/response ring pair, or None (pipe shard)."""
        if not self._use_rings:
            return None
        with contextlib.ExitStack() as undo:
            try:
                request = ShmRing.create(
                    slots=self._ring_slots, slot_bytes=self._ring_slot_bytes
                )
                undo.callback(request.close)
                # Verdict records are 9 B to the request's 48 B per
                # cookie, so a quarter-size response slot still fits any
                # batch whose request fit.
                response = ShmRing.create(
                    slots=self._ring_slots,
                    slot_bytes=max(4096, self._ring_slot_bytes // 4),
                )
            except RingUnavailable:
                self.shm_stats.ring_setup_failures += 1
                return None
            undo.pop_all()
        return request, response

    def _launch(self, index: int) -> tuple[tuple, tuple]:
        """Worker arguments and rings for one start of shard ``index``:
        a seed of the current store, plus the ring pair (inherited under
        fork, attached by name under spawn)."""
        seed = json.dumps([d.to_json() for d in self.store])
        rings = self._make_rings()
        if rings is None:
            return (self.nct, seed), ()
        if self._pool.start_method == "fork":
            return (self.nct, seed, rings), rings
        return (self.nct, seed, None, (rings[0].name, rings[1].name)), rings

    def _retire_stats(self, index: int) -> None:
        """Move the reaped incarnation's last poll into the retired
        totals, exactly once.  Everything it counted since that poll is
        lost with it (documented in §10)."""
        snapshot, self._last_polled[index] = self._last_polled[index], None
        if snapshot is not None:
            self._retired_stats = _sum_worker_stats(
                [self._retired_stats, snapshot]
            )

    def _restart(self, index: int) -> None:
        """One rung of the recovery ladder: restart the dead worker with
        backoff, or — once ``max_restarts`` is spent, or when no worker
        can start — retire the shard to an in-process fallback matcher.
        Idempotent for fallback shards."""
        if index in self._fallback_matchers:
            return
        self._retire_stats(index)
        if self._pool.restarts[index] < self.max_restarts and (
            self._pool.restart(index)
        ):
            self.stats.shard_restarts += 1
        else:
            self._enter_fallback(index)

    def _enter_fallback(self, index: int) -> None:
        """Permanently serve this shard from an in-process matcher over
        the dispatcher's own store.  Verdict semantics are unchanged
        (same store, same NCT; the replay cache starts cold exactly as a
        restarted worker's would); only the parallelism is lost."""
        self._pool.reap(index)
        self._fallback_matchers[index] = CookieMatcher(self.store, nct=self.nct)
        self.stats.fallbacks += 1

    def restart_shard(self, index: int) -> None:
        """Operator-initiated shard replacement (cold replay cache).
        Counts against ``max_restarts`` like any other restart."""
        self._restart(index)

    @property
    def degraded(self) -> bool:
        """True when this executor is the single-core degrade mode:
        every shard served in-process, no worker processes at all."""
        return self._degraded

    @property
    def transport(self) -> str:
        """The batch transport actually in use: ``"in-process"``
        (degrade mode), ``"shm"``, ``"pipe"``, or ``"mixed"`` (some
        shards lost their rings and run on pipes)."""
        if self._degraded:
            return "in-process"
        kinds = {
            kind
            for kind in self.shard_transports()
            if kind != "in-process"  # crash-fallback shards don't vote
        }
        if not kinds:
            return "in-process"  # every shard crashed into fallback
        if len(kinds) > 1:
            return "mixed"
        return kinds.pop()

    def shard_transports(self) -> list[str]:
        """Per-shard batch transport: ``"shm"``, ``"pipe"``, or
        ``"in-process"`` (degrade mode or crash fallback)."""
        return [
            "in-process"
            if worker is None
            else ("shm" if worker.resources else "pipe")
            for worker in self._pool.workers
        ]

    @property
    def fallback_shards(self) -> list[int]:
        """Shards retired to the in-process fallback matcher by the
        crash ladder.  Empty in degrade mode: there, in-process service
        is the configuration, not a failure."""
        if self._degraded:
            return []
        return sorted(self._fallback_matchers)

    def worker_pids(self) -> list[int | None]:
        """Live worker PIDs by shard (None for fallback shards).

        Exposed for chaos drills and kill tests, which need a real OS
        handle to SIGKILL — not for routine operation."""
        return [
            worker.process.pid if worker is not None else None
            for worker in self._pool.workers
        ]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def probe_shard(self, index: int, timeout: float | None = None) -> bool:
        """Liveness probe: one stats round-trip within ``timeout``
        (default: the reply timeout).  Fallback shards are healthy by
        definition (in-process, nothing to probe).  Never raises and
        never mutates pool state — pair with :meth:`ensure_healthy` to
        act on a failed probe."""
        if index in self._fallback_matchers:
            return True
        try:
            json.loads(self._roundtrip(index, _OP_STATS, timeout).decode("utf-8"))
            return True
        except (OSError, EOFError, TimeoutError, ValueError):
            return False

    def health(self) -> list[bool]:
        """Probe every shard; element i is shard i's liveness."""
        return [
            self.probe_shard(index) for index in range(self._worker_count)
        ]

    def ensure_healthy(self) -> list[bool]:
        """Probe every shard and climb the recovery ladder for any that
        fails (restart with backoff, or fallback once restarts are
        spent).  Returns post-recovery health — all True unless a
        restarted worker died again immediately."""
        for index in range(self._worker_count):
            if not self.probe_shard(index):
                self._restart(index)
        return self.health()

    def worker_process(self, index: int):
        """The shard's :class:`multiprocessing.Process` (tests, ops)."""
        worker = self._pool.workers[index]
        return worker.process if worker is not None else None

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        self._pool.close()

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self._worker_count

    def _shard_index(self, cookie_id: int) -> int:
        memo = self._shard_memo
        shard_index = memo.get(cookie_id)
        if shard_index is None:
            shard_index = rendezvous_shard(cookie_id, self._worker_count)
            memo[cookie_id] = shard_index
        return shard_index

    def shard_for(self, cookie: Cookie) -> int:
        """Same memoized rendezvous assignment as the in-process pool."""
        return self._shard_index(cookie.cookie_id)

    def shard_for_descriptor(self, descriptor: CookieDescriptor) -> int:
        return self._shard_index(descriptor.cookie_id)

    def _roundtrip(
        self, index: int, frame: bytes, timeout: float | None = None
    ) -> bytes:
        """Send one frame over the pipe and wait for the reply, bounded
        by ``timeout`` (default: the reply timeout); raises on a dead or
        unresponsive worker."""
        timeout = self.reply_timeout if timeout is None else timeout
        conn = self._pool.workers[index].conn
        conn.send_bytes(frame)
        if not conn.poll(timeout):
            raise TimeoutError(f"shard {index} gave no reply within {timeout}s")
        return conn.recv_bytes()

    def _send_sub_batch(self, shard: int, frame: bytes) -> str | None:
        """Publish one sub-batch on the shard's best transport.

        Returns the channel the reply will arrive on (``"ring"`` or
        ``"pipe"``), or None if the shard is unreachable (dead worker /
        full ring past the timeout) — the caller walks the recovery
        ladder.
        """
        worker = self._pool.workers[shard]
        if worker.resources:
            request, _response = worker.resources
            process = worker.process
            try:
                if not request.try_push(frame):
                    self.shm_stats.backpressure_waits += 1
                    if not request.push(
                        frame,
                        timeout=self.reply_timeout,
                        should_abort=lambda: not process.is_alive(),
                    ):
                        return None
                self.shm_stats.ring_dispatches += 1
                self.shm_stats.bytes_out += len(frame)
                return "ring"
            except RingFrameTooLarge:
                self.shm_stats.oversize_pipe_fallbacks += 1
                # fall through to the pipe for this dispatch
        try:
            worker.conn.send_bytes(frame)
        except (OSError, BrokenPipeError, ValueError):
            return None
        self.shm_stats.pipe_dispatches += 1
        return "pipe"

    def _collect_sub_batch(self, shard: int, channel: str) -> bytes | None:
        """The reply matching :meth:`_send_sub_batch`, or None on a
        dead/unresponsive worker."""
        worker = self._pool.workers[shard]
        if channel == "ring":
            _request, response = worker.resources
            process = worker.process
            reply = response.pop(
                self.reply_timeout,
                should_abort=lambda: not process.is_alive(),
            )
            if reply is None:
                # The worker may have published and *then* died — drain
                # one last time before declaring the sub-batch lost.
                reply = response.try_pop()
            if reply is not None:
                self.shm_stats.bytes_in += len(reply)
            return reply
        try:
            if not worker.conn.poll(self.reply_timeout):
                return None
            return worker.conn.recv_bytes()
        except (OSError, EOFError):
            return None

    def match(self, cookie: Cookie, now: float) -> CookieDescriptor | None:
        """Scalar verification — a batch of one through the same wire."""
        return self.match_batch([cookie], now)[0]

    def match_batch(
        self,
        cookies: Sequence[Cookie],
        now: float,
        reasons: list[str] | None = None,
    ) -> list[CookieDescriptor | None]:
        """Batched dispatch across worker processes.

        Cookies group per shard by memoized rendezvous assignment,
        preserving relative order within each shard's sub-batch (the
        only order replay detection can depend on — all cookies of a
        descriptor land on one shard).  Dispatch is pipelined: each
        shard's frame is encoded and published before the next shard's
        is encoded, so shard N's worker verifies while the dispatcher
        still serializes shard N+1 (double-buffering across shards);
        replies are then collected in publish order.

        Never raises for worker death.  A shard that dies mid-dispatch
        is restarted (with backoff, on fresh rings) and its sub-batch
        re-dispatched once over the pipe; a second death fails that
        sub-batch closed — ``None`` verdicts with the
        :data:`VERDICT_UNAVAILABLE` reason — and a shard past
        ``max_restarts`` is served by the in-process fallback matcher
        instead.  ``reasons``, if given, receives one reason string per
        cookie (:data:`VERDICT_REASONS` names, or
        ``verifier_unavailable``).
        """
        if not cookies:
            return []
        shard_index_for = self._shard_index
        per_shard: dict[int, list[int]] = {}
        for position, cookie in enumerate(cookies):
            per_shard.setdefault(
                shard_index_for(cookie.cookie_id), []
            ).append(position)
        # Pipelined fan-out: encode shard k's frame, publish it, only
        # then encode shard k+1's — workers overlap the dispatcher's
        # remaining serialization.  Shards already in fallback verify
        # locally after the collection pass.
        local: dict[int, list[int]] = {}
        frames: dict[int, bytes] = {}
        channels: dict[int, str] = {}
        failed: list[int] = []
        header = _OP_BATCH + _NOW.pack(now)
        for shard, positions in per_shard.items():
            if shard in self._fallback_matchers:
                local[shard] = positions
                continue
            frame = (
                header
                + _COUNT.pack(len(positions))
                + b"".join(
                    cookies[position].to_bytes() for position in positions
                )
            )
            frames[shard] = frame
            channel = self._send_sub_batch(shard, frame)
            if channel is None:
                failed.append(shard)
            else:
                channels[shard] = channel
        # Collect in publish order.
        replies: dict[int, bytes] = {}
        for shard in channels:
            reply = self._collect_sub_batch(shard, channels[shard])
            if reply is None:
                failed.append(shard)
            else:
                replies[shard] = reply
        # Recover: restart each failed shard, re-dispatch over the pipe.
        unavailable: list[int] = []
        for shard in failed:
            self._restart(shard)
            if shard in self._fallback_matchers:
                local[shard] = per_shard[shard]
                continue
            try:
                replies[shard] = self._roundtrip(shard, frames[shard])
            except (OSError, EOFError, TimeoutError, BrokenPipeError):
                # Died again during the re-dispatch: burn another rung of
                # the ladder (possibly tipping into fallback for *next*
                # dispatch) and fail this sub-batch closed.
                self._restart(shard)
                if shard in self._fallback_matchers:
                    local[shard] = per_shard[shard]
                else:
                    unavailable.append(shard)
        # Resolve descriptor ids against the dispatcher's own store —
        # descriptor objects never cross the process boundary.
        results: list[CookieDescriptor | None] = [None] * len(cookies)
        reason_arr: list[str] | None = (
            [VERDICT_UNAVAILABLE] * len(cookies)
            if reasons is not None
            else None
        )
        store_get = self.store.get
        for shard, positions in per_shard.items():
            if shard in local or shard in unavailable:
                continue
            try:
                verdicts = decode_verdicts(replies[shard])
                if len(verdicts) != len(positions):
                    raise MalformedCookie(
                        f"shard {shard} returned {len(verdicts)} verdicts "
                        f"for {len(positions)} cookies"
                    )
            except MalformedCookie:
                # A garbled reply means a worker we no longer trust:
                # same treatment as a death after re-dispatch.
                self._restart(shard)
                if shard in self._fallback_matchers:
                    local[shard] = positions
                else:
                    unavailable.append(shard)
                continue
            for position, (code, descriptor_id) in zip(positions, verdicts):
                if code == VERDICT_ACCEPTED:
                    descriptor = store_get(descriptor_id)
                    if descriptor is not None:
                        results[position] = descriptor
                        if reason_arr is not None:
                            reason_arr[position] = "accepted"
                    elif reason_arr is not None:
                        # Removed from the dispatcher's store since
                        # dispatch — fail closed, count as rejected.
                        reason_arr[position] = "unknown_id"
                elif reason_arr is not None:
                    reason_arr[position] = VERDICT_REASONS[code]
        # Fallback shards: verify in-process against the shared store.
        for shard, positions in local.items():
            matcher = self._fallback_matchers[shard]
            sub_reasons: list[str] | None = (
                [] if reason_arr is not None else None
            )
            sub_results = matcher.match_batch(
                [cookies[position] for position in positions],
                now,
                reasons=sub_reasons,
            )
            for offset, position in enumerate(positions):
                results[position] = sub_results[offset]
                if reason_arr is not None:
                    assert sub_reasons is not None
                    reason_arr[position] = sub_reasons[offset]
        for shard in unavailable:
            self.stats.unavailable_verdicts += len(per_shard[shard])
        accepted = sum(1 for result in results if result is not None)
        self.stats.accepted += accepted
        self.stats.rejected += len(cookies) - accepted
        if reasons is not None:
            assert reason_arr is not None
            reasons.extend(reason_arr)
        return results

    # ------------------------------------------------------------------
    # Descriptor deltas (control plane)
    # ------------------------------------------------------------------
    def _push_delta(self, ops: list[dict]) -> None:
        frame = _OP_DELTA + json.dumps(ops).encode("utf-8")
        for index in range(self._worker_count):
            if index in self._fallback_matchers:
                # Fallback matchers read the dispatcher's store directly;
                # there is no replica to update.
                continue
            try:
                reply = self._roundtrip(index, frame)
            except (OSError, EOFError, TimeoutError, BrokenPipeError):
                # The restart re-seeds from the already-updated store,
                # so the delta is applied either way.
                self._restart(index)
                continue
            if reply != b"\x01":  # pragma: no cover - defensive
                raise MalformedCookie(
                    f"shard {index} rejected descriptor delta"
                )

    def add_descriptor(self, descriptor: CookieDescriptor) -> CookieDescriptor:
        """Insert/replace in the dispatcher store and every replica."""
        self.store.add(descriptor)
        self._push_delta([{"op": "add", "descriptor": descriptor.to_json()}])
        return descriptor

    def revoke_descriptor(self, cookie_id: int) -> bool:
        """Revoke pool-wide; False if the id is unknown locally."""
        known = self.store.revoke(cookie_id)
        self._push_delta([{"op": "revoke", "cookie_id": cookie_id}])
        return known

    def remove_descriptor(self, cookie_id: int) -> CookieDescriptor | None:
        """Delete pool-wide (stronger than revocation)."""
        removed = self.store.remove(cookie_id)
        self._push_delta([{"op": "remove", "cookie_id": cookie_id}])
        return removed

    # ------------------------------------------------------------------
    # Stats and telemetry
    # ------------------------------------------------------------------
    def collect_worker_stats(self, force: bool = False) -> list[dict]:
        """Every worker's stats snapshot, one dict per shard.

        With ``stats_interval`` > 0, collections inside the interval are
        served from the cached snapshots (in-process matchers are always
        read live — they cost nothing) instead of one pipe round-trip
        per worker per call; pass ``force=True`` to poll regardless.

        Polls are incarnation-consistent: a worker that fails to answer is
        restarted (counted in ``shard_restarts``) and reports **zeros**
        for the new incarnation — its last snapshot has just moved into
        the retired totals, so merged views count it exactly once.  The
        collection itself can never hang the caller.
        """
        now = time.monotonic()
        if (
            not force
            and self.stats_interval > 0
            and self._stats_polled_at is not None
            and now - self._stats_polled_at < self.stats_interval
        ):
            self.shm_stats.stats_cache_hits += 1
            return [
                _matcher_stats(self._fallback_matchers[index])
                if index in self._fallback_matchers
                else self._last_polled[index] or _zero_worker_stats()
                for index in range(self._worker_count)
            ]
        snapshots: list[dict] = []
        for index in range(self._worker_count):
            if index in self._fallback_matchers:
                snapshots.append(_matcher_stats(self._fallback_matchers[index]))
                continue
            try:
                self.shm_stats.stats_polls += 1
                reply = self._roundtrip(index, _OP_STATS)
                snapshot = json.loads(reply.decode("utf-8"))
            except (OSError, EOFError, TimeoutError, BrokenPipeError,
                    ValueError):
                # The reap inside the restart retires this worker's last
                # snapshot; the shard's contribution to *this* merge is
                # the new incarnation's (empty) view — appending the old
                # snapshot here as well would count it twice.
                self._restart(index)
                if index in self._fallback_matchers:
                    snapshots.append(_matcher_stats(self._fallback_matchers[index]))
                else:
                    snapshots.append(_zero_worker_stats())
                continue
            self._last_polled[index] = snapshot
            snapshots.append(snapshot)
        self._stats_polled_at = now
        return snapshots

    def _merged_worker_stats(self, force: bool = False) -> dict:
        # Collect FIRST: a collection that trips a restart moves that
        # worker's cached snapshot into the retired totals, and the
        # retired totals must be read after that move, not before.
        snapshots = self.collect_worker_stats(force=force)
        return _sum_worker_stats([self._retired_stats] + snapshots)

    def collect_match_stats(self) -> MatchStats:
        """Merged :class:`MatchStats` across live workers and any stats
        retired by crashes — comparable to summing the in-process pool's
        per-shard matcher stats."""
        return MatchStats(**self._merged_worker_stats()["match"])

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "pool"
    ) -> None:
        """Register a collector that polls workers at snapshot time.

        Emits the same metric names as
        :meth:`ShardedVerifierPool.register_telemetry`, so dashboards
        and the differential suite see in-process and multi-process
        pools identically.  Transport internals (``pool.shm.*``) are a
        separate opt-in collector — :meth:`register_transport_telemetry`
        — precisely because the in-process pool has no counterpart for
        them.
        """
        from ..telemetry import TelemetrySnapshot

        def collect() -> TelemetrySnapshot:
            total = self._merged_worker_stats()
            counters = {
                f"{prefix}.matcher.{outcome}": count
                for outcome, count in total["match"].items()
            }
            counters[f"{prefix}.matcher.replay_cache.rotations"] = (
                total["replay_cache"]["rotations"]
            )
            counters[f"{prefix}.matcher.replay_cache.idle_resets"] = (
                total["replay_cache"]["idle_resets"]
            )
            counters[f"{prefix}.accepted"] = self.stats.accepted
            counters[f"{prefix}.rejected"] = self.stats.rejected
            counters[f"{prefix}.shard_restarts"] = self.stats.shard_restarts
            counters[f"{prefix}.fallbacks"] = self.stats.fallbacks
            counters[f"{prefix}.unavailable_verdicts"] = (
                self.stats.unavailable_verdicts
            )
            return TelemetrySnapshot(
                counters=counters,
                gauges={
                    f"{prefix}.matcher.replay_cache.size": (
                        total["replay_cache"]["size"]
                    ),
                    f"{prefix}.shards": self._worker_count,
                    f"{prefix}.fallback_shards": len(self.fallback_shards),
                },
            )

        registry.register_collector(prefix, collect)

    def register_transport_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "pool.shm"
    ) -> None:
        """Export the shared-memory transport counters (PROTOCOL.md
        §12): ring vs pipe dispatch mix, ring bytes both ways, oversize
        and backpressure events, stats-poll amortization, and gauges for
        the live transport ladder position (ring/pipe shard counts and
        the degrade flag)."""
        from ..telemetry import TelemetrySnapshot

        def collect() -> TelemetrySnapshot:
            kinds = self.shard_transports()
            return TelemetrySnapshot(
                counters={
                    f"{prefix}.{name}": value
                    for name, value in self.shm_stats.as_dict().items()
                },
                gauges={
                    f"{prefix}.ring_shards": kinds.count("shm"),
                    f"{prefix}.pipe_shards": kinds.count("pipe"),
                    f"{prefix}.degraded": 1 if self._degraded else 0,
                },
            )

        registry.register_collector(prefix, collect)
