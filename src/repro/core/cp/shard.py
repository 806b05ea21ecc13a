"""One control-plane shard: a descriptor store + its delta log.

A shard owns every descriptor whose cookie id rendezvous-hashes to it
(:func:`~repro.core.distributed.rendezvous_shard` — the same placement
the data-plane pools use, so a control-plane shard and its data-plane
counterpart agree on ownership for free).  The dispatcher mints cookie
ids and routes; the shard authorizes, stores, and logs.

Every successful mutation appends a :class:`~.deltalog.DeltaRecord`, so
``shard.snapshot()`` + ``shard.deltas_since(offset)`` is always a
complete replication feed.

:meth:`ControlPlaneShard.handle` is the shard's whole wire surface — the
in-process service calls it directly, and :func:`shard_worker_main`
serves the identical dict protocol over a :mod:`multiprocessing` pipe,
one shard per worker process (PROTOCOL.md §14.4).
"""

from __future__ import annotations

import secrets
from typing import Any, Callable

from ..attributes import CookieAttributes
from ..descriptor import COOKIE_ID_BITS, CookieDescriptor
from ..errors import AcquisitionDenied
from ..policy import AccessPolicy, AcquisitionRequest, OpenAccessPolicy
from ..server import ServiceOffering
from ..store import DescriptorStore
from .deltalog import DeltaLog, LogTruncated, StoreSnapshot

__all__ = ["ControlPlaneShard", "shard_worker_main"]


class ControlPlaneShard:
    """Store + delta log + policy for one rendezvous shard."""

    def __init__(
        self,
        index: int,
        policy: AccessPolicy | None = None,
        store: Any | None = None,
    ) -> None:
        self.index = index
        self.policy = policy if policy is not None else OpenAccessPolicy()
        self.store = store if store is not None else DescriptorStore()
        self.log = DeltaLog()
        self.offerings: dict[str, ServiceOffering] = {}
        # Flat ints on the op path; the service folds them into telemetry.
        self.acquired = 0
        self.denied = 0
        self.revoked = 0
        self.removed = 0
        self.renew_lookups = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def offer(self, offering: ServiceOffering) -> None:
        self.offerings[offering.name] = offering

    def withdraw_offering(self, name: str) -> None:
        self.offerings.pop(name, None)

    # ------------------------------------------------------------------
    # Mutations (each appends to the delta log)
    # ------------------------------------------------------------------
    def acquire(
        self,
        user: str,
        service: str,
        now: float,
        cookie_id: int | None = None,
        credentials: dict[str, Any] | None = None,
        preferences: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """Authorize and issue a descriptor; raises AcquisitionDenied.

        ``cookie_id`` is normally pre-minted by the dispatcher (that is
        what routed the call here); a bare shard mints its own.
        """
        offering = self.offerings.get(service)
        if offering is None:
            self.denied += 1
            raise AcquisitionDenied(f"service {service!r} is not offered")
        request = AcquisitionRequest(
            user=user,
            service=service,
            credentials=dict(credentials or {}),
            preferences=dict(preferences or {}),
            time=now,
        )
        try:
            self.policy.authorize(request)
        except AcquisitionDenied:
            self.denied += 1
            raise
        descriptor = CookieDescriptor(
            cookie_id=(
                cookie_id
                if cookie_id is not None
                else secrets.randbits(COOKIE_ID_BITS)
            ),
            key=secrets.token_bytes(32),
            service_data=(
                offering.service_data
                if offering.service_data is not None
                else offering.name
            ),
            attributes=offering.build_attributes(now),
        )
        self.store.add(descriptor)
        self.log.append("add", descriptor.cookie_id, now, descriptor.to_json())
        self.policy.on_granted(request)
        self.acquired += 1
        return descriptor

    def revoke(self, cookie_id: int, now: float) -> bool:
        if not self.store.revoke(cookie_id):
            return False
        self.log.append("revoke", cookie_id, now)
        self.revoked += 1
        return True

    def remove(self, cookie_id: int, now: float) -> bool:
        if self.store.remove(cookie_id) is None:
            return False
        self.log.append("remove", cookie_id, now)
        self.removed += 1
        return True

    def purge_expired(self, now: float) -> list[int]:
        """Drop expired descriptors, logging a ``remove`` for each so
        replicas converge; returns the dropped ids."""
        stale = [
            d.cookie_id for d in self.store if d.attributes.is_expired(now)
        ]
        for cookie_id in stale:
            self.store.remove(cookie_id)
            self.log.append("remove", cookie_id, now)
            self.removed += 1
        return stale

    def lookup(self, cookie_id: int) -> CookieDescriptor | None:
        return self.store.get(cookie_id)

    # ------------------------------------------------------------------
    # Replication feed
    # ------------------------------------------------------------------
    def snapshot(self) -> StoreSnapshot:
        return StoreSnapshot.take(self.store, self.log.next_offset)

    def deltas_since(self, offset: int):
        """Raises :class:`~.deltalog.LogTruncated` past the horizon."""
        return self.log.since(offset)

    def compact_to(self, offset: int) -> int:
        return self.log.compact_to(offset)

    def stats(self) -> dict[str, int]:
        return {
            "shard": self.index,
            "acquired": self.acquired,
            "denied": self.denied,
            "revoked": self.revoked,
            "removed": self.removed,
            "descriptors": len(self.store),
            "log_len": len(self.log),
            "log_base": self.log.base_offset,
            "log_next": self.log.next_offset,
        }

    # ------------------------------------------------------------------
    # Wire surface (in-process dispatch and the worker pipe protocol)
    # ------------------------------------------------------------------
    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one §14.4 shard frame; never raises."""
        op = request.get("op")
        try:
            if op == "acquire_batch":
                now = float(request["now"])
                descriptors: list[dict[str, Any] | None] = []
                errors: list[str | None] = []
                for entry in request["requests"]:
                    user, service, cookie_id = entry[0], entry[1], entry[2]
                    try:
                        descriptor = self.acquire(
                            str(user),
                            str(service),
                            now,
                            cookie_id=int(cookie_id),
                            credentials=entry[3] if len(entry) > 3 else None,
                            preferences=entry[4] if len(entry) > 4 else None,
                        )
                    except AcquisitionDenied as exc:
                        descriptors.append(None)
                        errors.append(str(exc))
                    else:
                        descriptors.append(descriptor.to_json())
                        errors.append(None)
                return {
                    "ok": True,
                    "descriptors": descriptors,
                    "errors": errors,
                    "next_offset": self.log.next_offset,
                }
            if op == "revoke_batch":
                now = float(request["now"])
                revoked = [
                    self.revoke(int(cid), now) for cid in request["cookie_ids"]
                ]
                return {
                    "ok": True,
                    "revoked": revoked,
                    "next_offset": self.log.next_offset,
                }
            if op == "remove_batch":
                now = float(request["now"])
                removed = [
                    self.remove(int(cid), now) for cid in request["cookie_ids"]
                ]
                return {
                    "ok": True,
                    "removed": removed,
                    "next_offset": self.log.next_offset,
                }
            if op == "purge_expired":
                removed_ids = self.purge_expired(float(request["now"]))
                return {
                    "ok": True,
                    "removed_ids": removed_ids,
                    "next_offset": self.log.next_offset,
                }
            if op == "lookup":
                descriptor = self.lookup(int(request["cookie_id"]))
                return {
                    "ok": True,
                    "descriptor": None if descriptor is None else descriptor.to_json(),
                }
            if op == "snapshot":
                return {"ok": True, "snapshot": self.snapshot().to_json()}
            if op == "deltas_since":
                try:
                    records = self.deltas_since(int(request["offset"]))
                except LogTruncated as exc:
                    return {"ok": False, "truncated": True, "error": str(exc)}
                return {
                    "ok": True,
                    "records": [r.to_json() for r in records],
                    "next_offset": self.log.next_offset,
                }
            if op == "compact_to":
                return {"ok": True, "dropped": self.compact_to(int(request["offset"]))}
            if op == "offer":
                self.offer(_offering_from_json(request["offering"]))
                return {"ok": True}
            if op == "withdraw":
                self.withdraw_offering(str(request["name"]))
                return {"ok": True}
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "install":
                # Parent-only re-seed after a respawn (§14.4).
                snapshot = StoreSnapshot.from_json(request["snapshot"])
                snapshot.install(self.store)
                self.log = DeltaLog(base_offset=snapshot.offset)
                return {"ok": True, "installed": len(snapshot.descriptors)}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}


def _offering_from_json(data: dict[str, Any]) -> ServiceOffering:
    """Rebuild an offering in a worker process.

    Only the JSON-shaped fields travel; an ``attribute_factory`` closure
    cannot cross a process boundary, so process mode supports the
    lifetime-based default (the service refuses to ship anything else).
    """
    return ServiceOffering(
        name=str(data["name"]),
        description=str(data.get("description", "")),
        lifetime=data.get("lifetime"),
        service_data=data.get("service_data"),
        extra=dict(data.get("extra", {})),
    )


def offering_to_json(offering: ServiceOffering) -> dict[str, Any]:
    return {
        "name": offering.name,
        "description": offering.description,
        "lifetime": offering.lifetime,
        "service_data": offering.service_data,
        "extra": offering.extra,
    }


def shard_worker_main(conn: Any, index: int, policy: AccessPolicy | None) -> None:
    """Worker entry point: serve one shard's §14.4 frames over a pipe.

    The parent retains the authoritative delta log + mirror, so a killed
    worker is re-seeded with an ``install`` frame on respawn.
    """
    shard = ControlPlaneShard(index, policy=policy)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        op = request.get("op")
        if op == "quit":
            try:
                conn.send({"ok": True})
            except (BrokenPipeError, OSError):
                pass
            break
        response = shard.handle(request)
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
    conn.close()
