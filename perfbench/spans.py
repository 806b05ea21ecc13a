"""Outside-in span tracing for the benchmark's traced run.

The program under test carries no instrumentation of its own, so the
traced run wraps each layer's *public* functions at class level, from
here, and only while a traced round is running.  Every wrapped call
records one span: its name, start and end (``perf_counter_ns``), the
index of the enclosing span (its parent) and the operation id the load loop
set (the burst or request index).  Spans stay in memory as compact
arrays and are written out once, when the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  Calls are synchronous and single-threaded, so a child always
lies inside its parent and the covered time is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array
from typing import Any, Iterable

__all__ = ["GcMonitor", "LayerTotals", "Tracer", "traced_functions"]


def traced_functions() -> list[tuple[str, type, str]]:
    """``(span name, owner class, attribute)`` for every wrapped function.

    The list is the layer map of the benchmark doc: one entry per public
    function a layer exposes on the measured paths.
    """
    from repro.core import policy as policy_module
    from repro.core.cookie import Cookie
    from repro.core.cp.deltalog import DeltaLog
    from repro.core.cp.service import ShardedControlPlane
    from repro.core.cp.shard import ControlPlaneShard
    from repro.core.descriptor import CookieDescriptor
    from repro.core.matcher import CookieMatcher, ReplayCache
    from repro.core.store import DescriptorStore
    from repro.core.transport import TransportRegistry
    from repro.services.billing import BillingAccountant, BillingJournal
    from repro.services.zerorate import CatalogSet, ZeroRatingMiddlebox

    entries = [
        ("transport.extract", TransportRegistry, "extract"),
        ("matcher.match", CookieMatcher, "match"),
        ("matcher.replay.check", ReplayCache, "check_and_record"),
        ("cookie.verify_signature", Cookie, "verify_signature"),
        ("store.get", DescriptorStore, "get"),
        ("store.add", DescriptorStore, "add"),
        ("store.revoke", DescriptorStore, "revoke"),
        ("middlebox.process_batch", ZeroRatingMiddlebox, "process_batch"),
        ("catalog.decide", CatalogSet, "decide"),
        ("billing.account", BillingAccountant, "account"),
        ("billing.flush_subscriber", BillingAccountant, "flush_subscriber"),
        ("billing.flush_all", BillingAccountant, "flush_all"),
        ("journal.append", BillingJournal, "append"),
        ("cp.shard.acquire", ControlPlaneShard, "acquire"),
        ("cp.shard.revoke", ControlPlaneShard, "revoke"),
        ("cp.deltalog.append", DeltaLog, "append"),
        ("descriptor.to_json", CookieDescriptor, "to_json"),
        ("descriptor.from_json", CookieDescriptor, "from_json"),
    ]
    # ShardedControlPlane.*: every public method of the dispatcher.
    for attr, value in vars(ShardedControlPlane).items():
        if not attr.startswith("_") and callable(value):
            entries.append((f"cp.{attr}", ShardedControlPlane, attr))
    # AccessPolicy.authorize is abstract; wrap each concrete override.
    for value in vars(policy_module).values():
        if (
            isinstance(value, type)
            and issubclass(value, policy_module.AccessPolicy)
            and "authorize" in vars(value)
            and value is not policy_module.AccessPolicy
        ):
            entries.append(("policy.authorize", value, "authorize"))
    return entries


class LayerTotals:
    """Per-span-name aggregates over every traced round of a run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: (span name, operation kind) -> calls, for per-operation counts.
        self.calls_by_kind: dict[tuple[str, str], int] = {}

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def mean_ns(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_ns.get(name, 0) / calls if calls else 0.0

    def mean_self_ns(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls if calls else 0.0


class Tracer:
    """Class-level wrappers plus an in-memory span recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._round: list[Any] = []
        self._stack: list[int] = []
        #: Current operation id; the load loop sets it before each operation.
        self.op = [0]
        self._installed: list[tuple[type, str, Any]] = []
        self.totals = LayerTotals()
        # Every span of the run, one column per field.
        self.columns = {
            key: array("q") for key in ("name", "start", "end", "parent", "op")
        }
        self._offset = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, function, nid: int):
        spans = self._round
        stack = self._stack
        op = self.op
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, op[0])

        return traced

    def install(self) -> None:
        """Wrap every function of :func:`traced_functions` in place."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in traced_functions():
            original = vars(owner)[attr]
            nid = self._name_id(name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, nid))
            else:
                wrapped = self._wrap(original, nid)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped function (safe to call twice)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def end_round(self, op_kinds: list[str]) -> None:
        """Fold the round's spans into :attr:`totals` and the columns.

        ``op_kinds[i]`` names the kind of operation ``i`` of the round
        (``"burst"``, ``"acquire"``, ...), for per-operation counts.
        """
        spans = self._round
        if self._stack:
            raise RuntimeError("round ended inside an open span")
        covered = [0] * len(spans)
        for nid, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = self.totals
        names = self.names
        columns = self.columns
        offset = self._offset
        for index, (nid, start, end, parent, op) in enumerate(spans):
            name = names[nid]
            duration = end - start
            totals.calls[name] = totals.calls.get(name, 0) + 1
            totals.total_ns[name] = totals.total_ns.get(name, 0) + duration
            totals.self_ns[name] = (
                totals.self_ns.get(name, 0) + duration - covered[index]
            )
            key = (name, op_kinds[op])
            totals.calls_by_kind[key] = totals.calls_by_kind.get(key, 0) + 1
            columns["name"].append(nid)
            columns["start"].append(start)
            columns["end"].append(end)
            columns["parent"].append(parent + offset if parent >= 0 else -1)
            columns["op"].append(op)
        self._offset += len(spans)
        spans.clear()

    def write(self, path_prefix: str) -> None:
        """Write every recorded span: ``<prefix>.json`` names the
        columns, ``<prefix>.bin`` holds them as native int64 arrays."""
        with open(path_prefix + ".bin", "wb") as handle:
            for column in self.columns.values():
                column.tofile(handle)
        with open(path_prefix + ".json", "w") as handle:
            json.dump(
                {
                    "spans": self._offset,
                    "columns": list(self.columns),
                    "dtype": "int64",
                    "byteorder": "native",
                    "names": self.names,
                    "parent": "row index of the enclosing span, -1 at a root",
                },
                handle,
                indent=1,
            )


class GcMonitor:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._started

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Iterable) -> None:
        gc.callbacks.remove(self._callback)
