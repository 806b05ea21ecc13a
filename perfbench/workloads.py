"""The four workloads: seeded inputs, set-up, and one timed round each.

Every workload follows the same shape, which ``run.py`` drives:

- ``make_inputs()`` builds everything the program will be handed (the
  descriptors and cookies a client would mint, the packets a generator
  would send, the churn schedule subscribers would follow).  It runs
  once, before any timing, and is a pure function of the seed.
- ``build()`` sets up the system under test from those inputs.  Its
  time is ``setup_s``.  Each round builds a fresh system, so a round
  replays the same seeded trace against a box that has never seen it
  (cookies are single-use, so a second pass through one box would be
  a replay, not the workload).
- ``run_round(system, tracer)`` sends the inputs through the system in
  a closed loop, one operation outstanding, timing each operation
  (a 256-packet rx burst, or one control-plane request) and nothing
  else, then checks the outputs.

Timestamps come from a logical clock that starts at ``EPOCH``: cookies
are minted at ``EPOCH`` and the boxes read ``EPOCH`` plus the round's
progress, so verdicts do not depend on how fast the box is.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

from repro.core.cp import ShardedControlPlane
from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.matcher import CookieMatcher
from repro.core.server import ServiceOffering
from repro.core.store import DescriptorStore
from repro.core.transport import default_registry
from repro.services.billing import (
    BillingAccountant,
    BillingJournal,
    reconcile_directories,
)
from repro.services.zerorate import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)
from repro.study.population import SubscriberPopulation
from repro.trace.records import FlowRecord, flow_to_packets

import checks

__all__ = ["WORKLOADS", "RoundOutcome", "key_repeat_share"]

EPOCH = 1_000_000.0
#: Packets per ``process_batch`` call: one rx burst.
BURST = 256
#: Wire bytes of every data packet (IPv4 + TCP headers + payload).
PACKET_SIZE = 512
#: Logical time that passes per burst (one 256-packet burst at ~0.3 Mpps).
BURST_TICK_S = 0.001
#: Keys a per-key signer cache would hold (``SignerCache`` default).
SIGNER_CACHE_KEYS = 4096


@dataclass
class RoundOutcome:
    """What one round did, as the checks and the metrics need it."""

    units: int  # packets (zr-*) or requests (cp-churn) completed
    durations_ns: array  # int64, one per timed operation
    op_kinds: list[str]  # one per timed operation
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    #: Exact program counters read after the round (layer metrics).
    counters: dict[str, float] = field(default_factory=dict)
    #: Everything the program produced, for traced/untraced equality.
    digest: dict[str, Any] = field(default_factory=dict)
    #: What ``run_round`` hands to ``finish`` beyond the above.
    raw: dict[str, Any] = field(default_factory=dict)


def key_repeat_share(keys: list[bytes], capacity: int = SIGNER_CACHE_KEYS) -> float:
    """Share of ``keys`` found among the ``capacity`` most recently used
    distinct keys before it: what a per-key cache of that size could hit
    at best."""
    recent: dict[bytes, None] = {}
    hits = 0
    for key in keys:
        if key in recent:
            hits += 1
            del recent[key]
        elif len(recent) >= capacity:
            del recent[next(iter(recent))]
        recent[key] = None
    return hits / len(keys) if keys else 0.0


def _client_ip(index: int) -> str:
    # The Fig. 4 generator's addressing: one subscriber address per index.
    return f"10.{(index >> 14) & 0x3F}.{(index >> 7) & 0x7F}.{index & 0x7F}"


def _descriptor(rng: random.Random, service_data: str) -> CookieDescriptor:
    return CookieDescriptor(
        cookie_id=rng.getrandbits(64),
        key=rng.randbytes(32),
        service_data=service_data,
    )


def _flow_packets(
    rng: random.Random,
    registry,
    index: int,
    client_ip: str,
    server_ip: str,
    packets: int,
    descriptor: CookieDescriptor | None,
) -> list:
    cookie = None
    if descriptor is not None:
        cookie = CookieGenerator(
            descriptor, lambda: EPOCH, rng=rng.randbytes
        ).generate()
    record = FlowRecord(
        start_time=EPOCH,
        client_ip=client_ip,
        client_port=1024 + index,
        server_ip=server_ip,
        server_port=443,
        packets=packets,
        avg_packet_size=PACKET_SIZE - 40,
    )
    return list(flow_to_packets(record, cookie=cookie, registry=registry))


def _bursts(packets: list) -> list[list]:
    return [packets[i : i + BURST] for i in range(0, len(packets), BURST)]


def _timed(op, durations: array):
    start = time.perf_counter_ns()
    result = op()
    durations.append(time.perf_counter_ns() - start)
    return result


# ----------------------------------------------------------------------
# zr-short / zr-long: the Fig. 4 middlebox, unbilled
# ----------------------------------------------------------------------
class Fig4Workload:
    """Cookied flows from a uniform draw over a 100k-descriptor pool."""

    builds_per_setup = 1

    def __init__(
        self,
        seed: int,
        workdir: str,
        packets_per_flow: int,
        flows: int,
        pool: int = 100_000,
    ) -> None:
        self.seed = seed
        self.packets_per_flow = packets_per_flow
        self.flows = flows
        self.pool_size = pool

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        registry = default_registry()
        self.pool = [_descriptor(rng, "zero-rate") for _ in range(self.pool_size)]
        self.packets: list = []
        self.delivered: dict[str, int] = {}
        keys: list[bytes] = []
        for index in range(self.flows):
            descriptor = self.pool[rng.randrange(self.pool_size)]
            keys.append(descriptor.key)
            ip = _client_ip(index)
            flow = _flow_packets(
                rng, registry, index, ip, "93.184.216.34",
                self.packets_per_flow, descriptor,
            )
            self.packets.extend(flow)
            self.delivered[ip] = sum(p.wire_length for p in flow)
        self.batches = _bursts(self.packets)
        self.properties = {
            "cookie.key_repeat_share": key_repeat_share(keys),
            "flows": self.flows,
            "packets": len(self.packets),
            "descriptor_pool": self.pool_size,
        }

    def build(self) -> dict[str, Any]:
        store = DescriptorStore()
        for descriptor in self.pool:
            store.add(descriptor)
        clock = _LogicalClock()
        middlebox = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        return {"middlebox": middlebox, "clock": clock}

    def close(self, system: dict[str, Any]) -> None:
        pass

    def run_round(self, system: dict[str, Any], tracer=None) -> RoundOutcome:
        durations = array("q")
        middlebox = system["middlebox"]
        clock = system["clock"]
        process_batch = middlebox.process_batch
        op = tracer.op if tracer is not None else [0]
        for index, batch in enumerate(self.batches):
            op[0] = index
            clock.now = EPOCH + index * BURST_TICK_S
            _timed(lambda: process_batch(batch), durations)
        return RoundOutcome(
            units=len(self.packets),
            durations_ns=durations,
            op_kinds=["burst"] * len(durations),
        )

    def observe(self, system: dict[str, Any], outcome: RoundOutcome) -> dict[str, Any]:
        """What the round produced, in the shape ``checks.check_fig4`` reads."""
        middlebox = system["middlebox"]
        return {
            "flows": self.flows,
            "cookie_hits": middlebox.cookie_hits,
            "verifier_failures": middlebox.verifier_failures,
            "delivered": self.delivered,
            "expected_free": self.delivered,  # every flow carries a valid cookie
            "counters": {
                ip: (c.free_bytes, c.charged_bytes)
                for ip, c in middlebox.counters.items()
            },
            "packets_per_flow": self.packets_per_flow,
        }

    def finish(self, system: dict[str, Any], outcome: RoundOutcome) -> None:
        middlebox = system["middlebox"]
        result = self.observe(system, outcome)
        outcome.failed, outcome.violations = checks.check_fig4(result)
        stats = middlebox.matcher.stats
        outcome.counters.update(
            {
                "packets": len(self.packets),
                "flows": self.flows,
                "matcher.accepted": stats.accepted,
                "matcher.rejected": stats.rejected,
                "matcher.replay.size": middlebox.matcher.replay_cache.size,
                "middlebox.tracked_flows": middlebox.tracked_flows,
                "middlebox.subscribers_evicted": middlebox.subscribers_evicted,
                "free_bytes": sum(v[0] for v in result["counters"].values()),
                "charged_bytes": sum(v[1] for v in result["counters"].values()),
            }
        )
        outcome.digest.update(
            {
                "counters": result["counters"],
                "matcher": stats.as_dict(),
                "cookie_hits": middlebox.cookie_hits,
                "cookie_misses": middlebox.cookie_misses,
                "flows_resolved": middlebox.flows_resolved,
            }
        )


class _LogicalClock:
    """The boxes' clock: the load loop advances it, reads are free."""

    def __init__(self) -> None:
        self.now = EPOCH

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# zr-billed: the write path (catalogs, accountant, journal)
# ----------------------------------------------------------------------
#: operator -> (app page builder, page seed, cdn covered, capped): the
#: three operators, pages and policy shapes of ``experiments/billing.py``.
BILLING_OPERATORS = (
    ("op-cnn", "build_cnn", 1, False, False),
    ("op-tube", "build_youtube", 2, True, True),
    ("op-skai", "build_skai", 3, False, False),
)
CHARGED_RATE_PER_GB = {"op-cnn": 12.0, "op-tube": 9.0, "op-skai": 15.0}


class BilledWorkload:
    """Recurring subscribers load their app's page through three operator
    catalogs, billed into a durable journal."""

    builds_per_setup = 1

    def __init__(
        self,
        seed: int,
        workdir: str,
        residents: int = 120,
        visitors: int = 4,
        flows: int = 12_000,
        max_subscribers: int = 122,
        packets_per_flow: int = 10,
        pool: int = 100_000,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.resident_count = residents
        self.visitor_count = visitors
        self.flows = flows
        self.max_subscribers = max_subscribers
        self.packets_per_flow = packets_per_flow
        self.pool_size = pool
        self._builds = 0

    def make_inputs(self) -> None:
        from repro.experiments.billing import BillingConfig
        from repro.web import sites

        rng = random.Random(self.seed)
        registry = default_registry()
        cap = BillingConfig().cap_bytes
        self.coverage: dict[str, AppCoverage] = {}
        pages = {}
        for operator, builder, page_seed, cdn, capped in BILLING_OPERATORS:
            page = getattr(sites, builder)(seed=page_seed)
            pages[operator] = page
            self.coverage[operator] = AppCoverage.from_page(page, cdn_covered=cdn)
        self.caps = {
            op: cap if capped else None for op, *_rest, capped in BILLING_OPERATORS
        }
        # The verifier's table holds the whole network's descriptors, as
        # in Fig. 4; only the subscribers below send traffic.
        self.pool = [_descriptor(rng, "zero-rate") for _ in range(self.pool_size)]
        # Subscriber i belongs to operator i mod 3 and holds one
        # descriptor for its operator's app; the first skai subscriber
        # roams, as in experiments/billing.py.  Visitors come after the
        # residents and send one flow each per round.
        self.subscribers = []
        for index in range(self.resident_count + self.visitor_count):
            operator = BILLING_OPERATORS[index % 3][0]
            resident = index < self.resident_count
            self.subscribers.append(
                {
                    "ip": f"10.{200 if resident else 201}.{index >> 8}.{index & 0xFF}",
                    "operator": operator,
                    "descriptor": _descriptor(rng, self.coverage[operator].app),
                    "roaming": index == 2,
                    "next_flow": 0,
                }
            )
        visitor_at = {
            (k + 1) * self.flows // (self.visitor_count + 1): self.resident_count + k
            for k in range(self.visitor_count)
        }
        # Residents recur with the Zipf activity of the control plane's
        # SubscriberPopulation, so keys repeat and caps bite.
        activity = SubscriberPopulation(self.resident_count, seed=self.seed)
        self.packets = []
        self.expected_free: list[bool] = []
        self.delivered: dict[str, dict[str, int]] = {}
        keys: list[bytes] = []
        cap_used: dict[str, int] = {}
        kinds: dict[str, int] = {}
        for index in range(self.flows):
            if index in visitor_at:
                sub = self.subscribers[visitor_at[index]]
            else:
                sub = self.subscribers[activity.draw_subscriber()]
            operator = sub["operator"]
            coverage = self.coverage[operator]
            # Each flow is the subscriber's next flow of its app's page
            # load, in page order: the page model fixes the server, so
            # the origin/cdn/third-party mix is the calibrated page's.
            # The app attaches its cookie to the page's web flows; the
            # auxiliary flows (DNS lookups, prefetches) go out bare.
            page_flows = pages[operator].flows
            page_flow = page_flows[sub["next_flow"] % len(page_flows)]
            sub["next_flow"] += 1
            cookied = page_flow.kind not in pages[operator].AUXILIARY_KINDS
            server = page_flow.server.ip
            byte_class = coverage.classify(server) if cookied else "uncookied"
            kinds[byte_class] = kinds.get(byte_class, 0) + 1
            descriptor = sub["descriptor"] if cookied else None
            if cookied:
                keys.append(descriptor.key)
            flow = _flow_packets(
                rng, registry, index, sub["ip"], server,
                self.packets_per_flow, descriptor,
            )
            # Reference verdicts, in stream order: the catalog rules of
            # PROTOCOL.md §16.1 (coverage, roaming, then the cap).
            covered = cookied and coverage.covers(byte_class)
            cap = self.caps[operator]
            for packet in flow:
                nbytes = packet.wire_length
                used = cap_used.get(sub["ip"], 0)
                free = (
                    covered
                    and not sub["roaming"]
                    and (cap is None or used + nbytes <= cap)
                )
                if free:
                    cap_used[sub["ip"]] = used + nbytes
                self.expected_free.append(free)
            per = self.delivered.setdefault(operator, {})
            per[sub["ip"]] = per.get(sub["ip"], 0) + sum(
                p.wire_length for p in flow
            )
            self.packets.extend(flow)
        self.batches = _bursts(self.packets)
        self.subscriber_packets: dict[str, int] = {}
        for packet in self.packets:
            ip = packet.ip.src if packet.ip.src.startswith("10.") else packet.ip.dst
            self.subscriber_packets[ip] = self.subscriber_packets.get(ip, 0) + 1
        free_bytes = sum(
            p.wire_length for p, f in zip(self.packets, self.expected_free) if f
        )
        wire = sum(p.wire_length for p in self.packets)
        self.properties = {
            "cookie.key_repeat_share": key_repeat_share(keys),
            "flows": self.flows,
            "packets": len(self.packets),
            "descriptor_pool": self.pool_size,
            "residents": self.resident_count,
            "visitors_per_round": self.visitor_count,
            "active_subscribers": sum(len(v) for v in self.delivered.values()),
            "max_subscribers": self.max_subscribers,
            "flow_classes": dict(sorted(kinds.items())),
            "expected_free_byte_share": free_bytes / wire,
        }

    def build(self) -> dict[str, Any]:
        catalogs = CatalogSet(
            [
                OperatorCatalog(
                    operator=operator,
                    apps=(self.coverage[operator],),
                    cap_bytes=self.caps[operator],
                    charged_rate_per_gb=CHARGED_RATE_PER_GB[operator],
                )
                for operator, *_rest in BILLING_OPERATORS
            ]
        )
        store = DescriptorStore()
        for descriptor in self.pool:
            store.add(descriptor)
        for sub in self.subscribers:
            catalogs.assign(sub["ip"], sub["operator"])
            if sub["roaming"]:
                catalogs.set_roaming(sub["ip"])
            store.add(sub["descriptor"])
        self._builds += 1
        directory = os.path.join(self.workdir, f"journal-{self._builds}")
        shutil.rmtree(directory, ignore_errors=True)
        journal = BillingJournal(
            directory, source="perfbench", stream_seed=self.seed, fsync="always"
        )
        accountant = BillingAccountant(catalogs, journal)
        clock = _LogicalClock()
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store),
            clock=clock,
            billing=accountant,
            max_subscribers=self.max_subscribers,
        )
        return {
            "middlebox": middlebox,
            "accountant": accountant,
            "journal": journal,
            "directory": directory,
            "clock": clock,
        }

    def close(self, system: dict[str, Any]) -> None:
        system["journal"].close()
        shutil.rmtree(system["directory"], ignore_errors=True)

    def run_round(self, system: dict[str, Any], tracer=None) -> RoundOutcome:
        middlebox = system["middlebox"]
        accountant = system["accountant"]
        clock = system["clock"]
        for packet in self.packets:
            packet.meta.pop("zero_rated", None)
        durations = array("q")
        process_batch = middlebox.process_batch
        flush_all = accountant.flush_all
        op = tracer.op if tracer is not None else [0]
        last = len(self.batches) - 1
        for index, batch in enumerate(self.batches):
            op[0] = index
            now = clock.now = EPOCH + index * BURST_TICK_S
            if index < last:
                _timed(lambda: process_batch(batch), durations)
                continue
            # The round's last burst ends in a flush_all checkpoint.
            pending = accountant.pending_subscribers

            def burst_and_checkpoint():
                process_batch(batch)
                flush_all(now=now)

            _timed(burst_and_checkpoint, durations)
        return RoundOutcome(
            units=len(self.packets),
            durations_ns=durations,
            op_kinds=["burst"] * len(durations),
            counters={"billing.pending_subscribers": pending},
        )

    def observe(self, system: dict[str, Any], outcome: RoundOutcome) -> dict[str, Any]:
        """What the round produced, in the shape ``checks.check_billed``
        reads, plus the reconciled invoices and the journal records."""
        middlebox = system["middlebox"]
        journal = system["journal"]
        journal.sync()
        report = reconcile_directories(
            [system["directory"]],
            rates=CHARGED_RATE_PER_GB,
            caps=self.caps,
            delivered=self.delivered,
        )
        return {
            "expected_free": self.expected_free,
            "observed_free": [bool(p.meta.get("zero_rated")) for p in self.packets],
            "verifier_failures": middlebox.verifier_failures,
            "lost": report.lost,
            "double_billed": report.double_billed,
            "tariff_violations": list(report.tariff_violations),
            "invoiced": {
                operator: invoice.per_subscriber_totals()
                for operator, invoice in report.invoices.items()
            },
            "delivered": self.delivered,
            "subscriber_packets": self.subscriber_packets,
            "fsyncs": journal.fsyncs,
            "records_appended": journal.records_appended,
            "fsync_policy": journal.fsync_policy,
            "invoices": report.invoices,
            "journal_records": BillingJournal.read_directory(system["directory"])[0],
        }

    def finish(self, system: dict[str, Any], outcome: RoundOutcome) -> None:
        middlebox = system["middlebox"]
        journal = system["journal"]
        result = self.observe(system, outcome)
        outcome.failed, outcome.violations = checks.check_billed(result)
        invoices = result["invoices"]
        stats = middlebox.matcher.stats
        outcome.counters.update(
            {
                "packets": len(self.packets),
                "flows": self.flows,
                "matcher.accepted": stats.accepted,
                "matcher.rejected": stats.rejected,
                "matcher.replay.size": middlebox.matcher.replay_cache.size,
                "middlebox.tracked_flows": middlebox.tracked_flows,
                "middlebox.subscribers_evicted": middlebox.subscribers_evicted,
                "billing.flushes": system["accountant"].flushes,
                "journal.records": journal.records_appended,
                "journal.fsyncs": journal.fsyncs,
                "journal.bytes": journal.bytes_appended,
                "journal.append_failures": journal.append_failures,
                "free_bytes": sum(i.free_bytes for i in invoices.values()),
                "charged_bytes": sum(i.charged_bytes for i in invoices.values()),
            }
        )
        records = [r.to_json() for r in result["journal_records"]]
        outcome.digest.update(
            {
                "verdicts": hashlib.sha256(bytes(result["observed_free"])).hexdigest(),
                "invoices": {op: i.to_json() for op, i in invoices.items()},
                "journal": hashlib.sha256(
                    json.dumps(records, sort_keys=True).encode()
                ).hexdigest(),
                "matcher": stats.as_dict(),
                "evicted": middlebox.subscribers_evicted,
            }
        )


# ----------------------------------------------------------------------
# cp-churn: the control plane, closed loop
# ----------------------------------------------------------------------
class ChurnWorkload:
    """Zipf-active subscribers acquire, renew and revoke descriptors."""

    #: An empty control plane builds in about 0.2 ms: timed alone, one
    #: build reads mostly scheduling noise, so set-up times a batch.
    builds_per_setup = 50

    def __init__(
        self,
        seed: int,
        workdir: str,
        events: int = 16_000,
        population: int = 100_000,
    ) -> None:
        self.seed = seed
        self.event_count = events
        self.population_size = population

    def make_inputs(self) -> None:
        population = SubscriberPopulation(self.population_size, seed=self.seed)
        self.service_names = list(population.service_names)
        # The controlplane experiment's schedule: Fig. 2 app skew, Zipf
        # activity, 70/20/10 acquire/renew/revoke intents.
        self.events = population.take_events(self.event_count, rate=5_000.0)
        mix: dict[str, int] = {}
        for event in self.events:
            mix[event.kind] = mix.get(event.kind, 0) + 1
        self.properties = {
            "events": len(self.events),
            "population": self.population_size,
            "services": len(self.service_names),
            "intent_mix": mix,
            "distinct_subscribers": len({e.subscriber for e in self.events}),
        }

    def build(self) -> dict[str, Any]:
        clock = _LogicalClock()
        controlplane = ShardedControlPlane(
            clock=clock, shards=1, mode="in-process"
        )
        for name in self.service_names:
            controlplane.offer(ServiceOffering(name=name, lifetime=3600.0))
        return {"controlplane": controlplane, "clock": clock}

    def close(self, system: dict[str, Any]) -> None:
        system["controlplane"].close()

    def run_round(self, system: dict[str, Any], tracer=None) -> RoundOutcome:
        controlplane = system["controlplane"]
        clock = system["clock"]
        handle_request = controlplane.handle_request
        op = tracer.op if tracer is not None else [0]
        held: dict[int, list[int]] = {}
        durations = array("q")
        answers: list[tuple[str, bool]] = []
        revoked: list[int] = []
        for event in self.events:
            user = f"sub-{event.subscriber}"
            ids = held.get(event.subscriber)
            if event.kind == "revoke":
                if not ids:
                    continue  # nothing held: the intent is a no-op
                kind = "revoke"
                request = {"op": "revoke", "cookie_id": ids.pop()}
            elif event.kind == "renew" and ids:
                kind = "renew"
                request = {"op": "renew", "user": user, "cookie_id": ids[-1]}
            else:
                kind = "acquire"
                request = {"op": "acquire", "user": user, "service": event.service}
            op[0] = len(durations)
            clock.now = EPOCH + event.time
            response = _timed(lambda: handle_request(request), durations)
            ok = bool(response.get("ok"))
            answers.append((kind, ok))
            if ok and kind == "revoke":
                revoked.append(request["cookie_id"])
            elif ok:
                held.setdefault(event.subscriber, []).append(
                    int(response["descriptor"]["cookie_id"])
                )
        kinds = [kind for kind, _ok in answers]
        return RoundOutcome(
            units=len(durations),
            durations_ns=durations,
            op_kinds=kinds,
            counters={
                "requests": len(durations),
                "requests.acquire": kinds.count("acquire"),
            },
            raw={"answers": answers, "revoked": revoked},
        )

    def observe(self, system: dict[str, Any], outcome: RoundOutcome) -> dict[str, Any]:
        """What the round produced, in the shape ``checks.check_churn`` reads."""
        controlplane = system["controlplane"]
        answers = outcome.raw["answers"]
        shards = controlplane.shard_stats()
        return {
            "answers": answers,
            "revoked_lookups": [
                (cookie_id, _revoked_state(controlplane, cookie_id))
                for cookie_id in outcome.raw["revoked"]
            ],
            "log_next_offsets": [s["log_next"] for s in shards],
            "mutations": [s["acquired"] + s["revoked"] + s["removed"] for s in shards],
            "granted": sum(1 for kind, ok in answers if ok and kind != "revoke"),
        }

    def finish(self, system: dict[str, Any], outcome: RoundOutcome) -> None:
        controlplane = system["controlplane"]
        result = self.observe(system, outcome)
        outcome.failed, outcome.violations = checks.check_churn(result)
        shard = controlplane.shard_stats()[0]
        outcome.digest.update(
            {
                "answers": result["answers"],
                "shard": shard,
                "stats": controlplane.stats.as_dict(),
            }
        )


def _revoked_state(controlplane: ShardedControlPlane, cookie_id: int) -> bool | None:
    descriptor = controlplane.lookup(cookie_id)
    return None if descriptor is None else descriptor.revoked


def make_workload(name: str, seed: int, workdir: str, **sizes):
    """The workload called ``name``, at its benchmark sizes unless
    ``sizes`` overrides them (the self-tests run small ones)."""
    if name == "zr-short":
        workload = Fig4Workload(
            seed, workdir, **{"packets_per_flow": 10, "flows": 10_000, **sizes}
        )
    elif name == "zr-long":
        workload = Fig4Workload(
            seed, workdir, **{"packets_per_flow": 50, "flows": 3_000, **sizes}
        )
    elif name == "zr-billed":
        workload = BilledWorkload(seed, workdir, **sizes)
    elif name == "cp-churn":
        workload = ChurnWorkload(seed, workdir, **sizes)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.name = name
    return workload


WORKLOADS = ("zr-short", "zr-long", "zr-billed", "cp-churn")
