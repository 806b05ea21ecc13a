"""Differential tests: batched vs scalar data paths for the packet-level
elements — zero-rating middlebox, cookie switch, hardware prefilter.

Each test builds two identical element instances over one descriptor
store, feeds the scalar one with ``handle``/``push`` per packet and the
batched one with ``process_batch``/``push_batch`` over clones of the
same stream, and compares everything observable: emitted packets and
their metadata, per-IP byte counters, flow-table state and LRU order,
eviction/resolution counters, and telemetry snapshots.  Hypothesis
drives adversarial traffic: interleaved flows with valid, malformed, and
absent cookies, mixed free/charged subscribers, tiny state caps, and
idle gaps between bursts.  A billing-enabled middlebox is compared the
same way, down to the accountant's pending deltas, journal records and
invoices.
"""

import tempfile

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.cookie import Cookie
from repro.core.offload import HardwarePrefilter
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.billing import BillingAccountant, BillingJournal, reconcile
from repro.services.zerorate import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)
from repro.telemetry import MetricsRegistry

COOKIE_KINDS = ("valid", "bad_sig", "none")
SUBSCRIBERS = ("10.0.0.1", "10.0.0.2", "10.0.1.9")


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _store():
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    return store, descriptor


def _flow_packets(descriptor, clock, flow_index, cookie_kind, count):
    """One flow: a cookied (or not) TLS hello plus reverse-path data."""
    subscriber = SUBSCRIBERS[flow_index % len(SUBSCRIBERS)]
    sport = 5000 + flow_index
    first = make_tcp_packet(
        subscriber, sport, "93.184.216.34", 443,
        content=TLSClientHello(sni="app.example.com"), payload_size=200,
    )
    if cookie_kind != "none":
        cookie = CookieGenerator(descriptor, clock).generate()
        if cookie_kind == "bad_sig":
            cookie = Cookie(
                cookie_id=cookie.cookie_id,
                uuid=cookie.uuid,
                timestamp=cookie.timestamp,
                signature=bytes([cookie.signature[0] ^ 0xFF])
                + cookie.signature[1:],
            )
        default_registry().attach(first, cookie)
    packets = [first]
    for _ in range(count - 1):
        packets.append(
            make_tcp_packet(
                "93.184.216.34", 443, subscriber, sport,
                payload_size=1200, encrypted=True,
            )
        )
    return packets


@st.composite
def traffic(draw, max_flows=5, max_packets=6):
    """Flow plans plus an interleaving that preserves per-flow order."""
    plans = draw(
        st.lists(
            st.tuples(
                st.sampled_from(COOKIE_KINDS), st.integers(1, max_packets)
            ),
            min_size=1,
            max_size=max_flows,
        )
    )
    tokens = [
        flow_index
        for flow_index, (_, count) in enumerate(plans)
        for _ in range(count)
    ]
    order = draw(st.permutations(tokens))
    return plans, order


def _interleaved(descriptor, clock, plans, order):
    per_flow = [
        _flow_packets(descriptor, clock, i, kind, count)
        for i, (kind, count) in enumerate(plans)
    ]
    cursors = [0] * len(per_flow)
    stream = []
    for flow_index in order:
        stream.append(per_flow[flow_index][cursors[flow_index]])
        cursors[flow_index] += 1
    return stream


def _middlebox_observables(middlebox, sink):
    return {
        "outputs": [
            (packet.meta.get("zero_rated"), packet.wire_length)
            for packet in sink.packets
        ],
        "counters": {
            ip: (counters.free_bytes, counters.charged_bytes)
            for ip, counters in middlebox.counters.items()
        },
        "flow_order": list(middlebox._flows.keys()),
        "flow_state": [
            (state.zero_rated, state.packets_seen, state.resolved,
             state.subscriber_ip)
            for state in middlebox._flows.values()
        ],
        "stats": (
            middlebox.packets_processed,
            middlebox.cookie_hits,
            middlebox.cookie_misses,
            middlebox.flows_resolved,
            middlebox.flows_evicted_idle,
            middlebox.flows_evicted_cap,
            middlebox.subscribers_evicted,
        ),
    }


def _twin_middleboxes(store, **kwargs):
    pair = []
    for _ in range(2):
        clock = kwargs.pop("clock", None) or Clock()
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock, **kwargs
        )
        sink = Sink()
        middlebox >> sink
        pair.append((middlebox, sink, clock))
    return pair


def _run_middlebox_differential(plans, order, chunk=None, **kwargs):
    store, descriptor = _store()
    (scalar, scalar_sink, scalar_clock), (batched, batched_sink, _) = (
        _twin_middleboxes(store, **kwargs)
    )
    stream = _interleaved(descriptor, scalar_clock, plans, order)
    for packet in stream:
        scalar.handle(packet.clone())
    clones = [packet.clone() for packet in stream]
    if chunk:
        for start in range(0, len(clones), chunk):
            batched.process_batch(clones[start : start + chunk])
    else:
        batched.process_batch(clones)
    return (scalar, scalar_sink), (batched, batched_sink)


class TestMiddleboxDifferential:
    @settings(max_examples=50, deadline=None)
    @given(plan=traffic())
    def test_batch_equals_scalar(self, plan):
        plans, order = plan
        (scalar, scalar_sink), (batched, batched_sink) = (
            _run_middlebox_differential(plans, order)
        )
        assert _middlebox_observables(
            batched, batched_sink
        ) == _middlebox_observables(scalar, scalar_sink)

    @settings(max_examples=30, deadline=None)
    @given(plan=traffic(), chunk=st.integers(1, 7))
    def test_chunked_batches_equal_scalar(self, plan, chunk):
        plans, order = plan
        (scalar, scalar_sink), (batched, batched_sink) = (
            _run_middlebox_differential(plans, order, chunk=chunk)
        )
        assert _middlebox_observables(
            batched, batched_sink
        ) == _middlebox_observables(scalar, scalar_sink)

    @settings(max_examples=30, deadline=None)
    @given(plan=traffic())
    def test_telemetry_equals_scalar(self, plan):
        plans, order = plan
        (scalar, _), (batched, _) = _run_middlebox_differential(plans, order)
        scalar_registry, batched_registry = MetricsRegistry(), MetricsRegistry()
        scalar.register_telemetry(scalar_registry)
        batched.register_telemetry(batched_registry)
        scalar_snapshot = scalar_registry.snapshot()
        batched_snapshot = batched_registry.snapshot()
        assert batched_snapshot.counters == scalar_snapshot.counters
        assert batched_snapshot.gauges == scalar_snapshot.gauges

    @settings(max_examples=30, deadline=None)
    @given(plan=traffic(max_flows=5))
    def test_tiny_caps_evict_identically(self, plan):
        """Flow-cap and subscriber-cap evictions (and their callbacks)
        fire at the same points on both paths."""
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar_evicted, batched_evicted = [], []
        scalar = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock, max_flows=2, max_subscribers=2,
            on_subscriber_evicted=lambda ip, counters: scalar_evicted.append(
                (ip, counters.free_bytes, counters.charged_bytes)
            ),
        )
        batched = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock, max_flows=2, max_subscribers=2,
            on_subscriber_evicted=lambda ip, counters: batched_evicted.append(
                (ip, counters.free_bytes, counters.charged_bytes)
            ),
        )
        scalar_sink, batched_sink = Sink(), Sink()
        scalar >> scalar_sink
        batched >> batched_sink
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        assert batched_evicted == scalar_evicted
        assert _middlebox_observables(
            batched, batched_sink
        ) == _middlebox_observables(scalar, scalar_sink)

    def test_idle_timeout_between_batches(self):
        """Advancing the clock past the idle timeout between bursts
        evicts and re-creates flow state identically on both paths."""
        store, descriptor = _store()
        scalar_clock, batched_clock = Clock(), Clock()
        scalar = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=scalar_clock, flow_idle_timeout=10.0
        )
        batched = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=batched_clock, flow_idle_timeout=10.0
        )
        burst = _flow_packets(descriptor, scalar_clock, 0, "valid", 4)
        for clock, middlebox, feed in (
            (scalar_clock, scalar, "scalar"),
            (batched_clock, batched, "batched"),
        ):
            clock.now = 0.0
            first = [packet.clone() for packet in burst]
            second = [packet.clone() for packet in burst[1:]]
            if feed == "scalar":
                for packet in first:
                    middlebox.handle(packet)
                clock.now = 25.0
                for packet in second:
                    middlebox.handle(packet)
            else:
                middlebox.process_batch(first)
                clock.now = 25.0
                middlebox.process_batch(second)
        assert batched.flows_evicted_idle == scalar.flows_evicted_idle == 1
        assert _middlebox_observables(batched, Sink()) == (
            _middlebox_observables(scalar, Sink())
        )

    def test_resolution_callback_order_equal(self):
        store, descriptor = _store()
        clock = Clock()
        plans = [("valid", 4), ("none", 4), ("bad_sig", 4)]
        order = [0, 1, 2] * 4
        stream = _interleaved(descriptor, clock, plans, order)
        scalar_log, batched_log = [], []

        def logger(log):
            return lambda key, state: log.append(
                (key, state.subscriber_ip, state.remote_ip, state.service,
                 state.zero_rated)
            )

        scalar = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock,
            on_flow_resolved=logger(scalar_log),
        )
        batched = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock,
            on_flow_resolved=logger(batched_log),
        )
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        assert batched_log == scalar_log
        assert len(scalar_log) == 3

    def test_contiguous_run_uses_exact_wire_lengths(self):
        """The batched run-coalescing fast path must account the same
        byte totals the per-packet path does."""
        store, descriptor = _store()
        clock = Clock()
        stream = _flow_packets(descriptor, clock, 0, "valid", 50)
        scalar = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        batched = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        subscriber = SUBSCRIBERS[0]
        expected_free = sum(packet.wire_length for packet in stream)
        assert scalar.counters_for(subscriber).free_bytes == expected_free
        assert batched.counters_for(subscriber).free_bytes == expected_free
        assert batched.counters_for(subscriber).charged_bytes == 0

    def test_mixed_free_and_charged_subscribers(self):
        store, descriptor = _store()
        clock = Clock()
        plans = [("valid", 5), ("none", 5)]
        order = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        stream = _interleaved(descriptor, clock, plans, order)
        scalar = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        batched = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        for middlebox in (scalar, batched):
            free = middlebox.counters_for(SUBSCRIBERS[0])
            charged = middlebox.counters_for(SUBSCRIBERS[1])
            assert free.charged_bytes == 0 and free.free_bytes > 0
            assert charged.free_bytes == 0 and charged.charged_bytes > 0
        assert {
            ip: (c.free_bytes, c.charged_bytes)
            for ip, c in batched.counters.items()
        } == {
            ip: (c.free_bytes, c.charged_bytes)
            for ip, c in scalar.counters.items()
        }


REMOTE = "93.184.216.34"


def _billed_middlebox(store, journal_dir, cap_bytes, max_subscribers):
    """A billing-enabled middlebox: the first two subscribers' operator
    caps the zero-rated app, the third's does not."""
    catalogs = CatalogSet([
        OperatorCatalog(
            operator="op-capped",
            apps=(AppCoverage(app="zero-rate", origin_ips=frozenset({REMOTE})),),
            cap_bytes=cap_bytes,
        ),
        OperatorCatalog(
            operator="op-open",
            apps=(AppCoverage(app="zero-rate", origin_ips=frozenset({REMOTE})),),
        ),
    ])
    catalogs.assign(SUBSCRIBERS[0], "op-capped")
    catalogs.assign(SUBSCRIBERS[1], "op-capped")
    catalogs.assign(SUBSCRIBERS[2], "op-open")
    accountant = BillingAccountant(
        catalogs, BillingJournal(journal_dir, fsync="never")
    )
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=Clock(), billing=accountant,
        max_subscribers=max_subscribers,
    )
    sink = Sink()
    middlebox >> sink
    return middlebox, sink, accountant


class TestBilledMiddleboxDifferential:
    """With billing, freeness is a per-packet catalog decision, so the
    batch path must not coalesce resolved runs: a cap crossed mid-run
    flips freeness between two packets of one flow."""

    @settings(max_examples=30, deadline=None)
    @given(
        plan=traffic(max_flows=4, max_packets=8),
        chunk=st.integers(1, 8),
        cap_bytes=st.integers(0, 8000),
        max_subscribers=st.integers(1, 3),
    )
    # One contiguous resolved run whose cap (4000 B) is crossed at its
    # fourth packet, fed as a single batch.
    @example(
        plan=([("valid", 8)], [0] * 8), chunk=8, cap_bytes=4000,
        max_subscribers=1,
    )
    def test_billed_batch_equals_scalar(
        self, plan, chunk, cap_bytes, max_subscribers
    ):
        plans, order = plan
        store, descriptor = _store()
        stream = _interleaved(descriptor, Clock(), plans, order)
        with tempfile.TemporaryDirectory() as scalar_dir, (
            tempfile.TemporaryDirectory()
        ) as batched_dir:
            scalar, scalar_sink, scalar_billing = _billed_middlebox(
                store, scalar_dir, cap_bytes, max_subscribers
            )
            batched, batched_sink, batched_billing = _billed_middlebox(
                store, batched_dir, cap_bytes, max_subscribers
            )
            for packet in stream:
                scalar.handle(packet.clone())
            clones = [packet.clone() for packet in stream]
            for start in range(0, len(clones), chunk):
                batched.process_batch(clones[start : start + chunk])

            assert _middlebox_observables(
                batched, batched_sink
            ) == _middlebox_observables(scalar, scalar_sink)
            assert batched_billing._pending == scalar_billing._pending
            assert batched_billing._cap_used == scalar_billing._cap_used
            assert batched_billing.stats_dict() == scalar_billing.stats_dict()
            records = []
            for accountant in (scalar_billing, batched_billing):
                accountant.flush_all()
                records.append(list(accountant.journal.records()))
                accountant.journal.close()
            assert records[1] == records[0]
            assert reconcile(records[1]).to_json() == (
                reconcile(records[0]).to_json()
            )


def _switch_observables(switch, sink):
    return {
        "outputs": [
            (
                packet.meta.get("qos_class"),
                packet.meta.get("service"),
                packet.wire_length,
            )
            for packet in sink.packets
        ],
        "stats": (
            switch.stats.packets,
            switch.stats.packets_sniffed,
            switch.stats.cookies_found,
            switch.stats.cookies_accepted,
            switch.stats.cookies_rejected,
            switch.stats.flows_bound,
            switch.stats.packets_served,
        ),
        "matcher": switch.matcher.stats.as_dict(),
        "flows": len(switch.flows),
    }


class TestSwitchDifferential:
    @settings(max_examples=50, deadline=None)
    @given(plan=traffic())
    def test_batch_equals_scalar(self, plan):
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar = CookieSwitch(CookieMatcher(store), clock=clock)
        batched = CookieSwitch(CookieMatcher(store), clock=clock)
        scalar_sink, batched_sink = Sink(), Sink()
        scalar >> scalar_sink
        batched >> batched_sink
        for packet in stream:
            scalar.push(packet.clone())
        batched.push_batch([packet.clone() for packet in stream])
        assert _switch_observables(batched, batched_sink) == (
            _switch_observables(scalar, scalar_sink)
        )

    def test_binding_within_one_batch_serves_followups(self):
        """A cookie at the head of a batch binds the flow; later packets
        of the same flow *in the same batch* ride the binding — exactly
        as a sequential pass would."""
        store, descriptor = _store()
        clock = Clock()
        stream = _flow_packets(descriptor, clock, 0, "valid", 6)
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        switch.push_batch([packet.clone() for packet in stream])
        assert switch.stats.flows_bound == 1
        assert switch.stats.packets_served == len(stream)
        assert all(
            packet.meta.get("service") == "zero-rate"
            for packet in sink.packets
        )

    @settings(max_examples=25, deadline=None)
    @given(plan=traffic(max_flows=3))
    def test_telemetry_equals_scalar(self, plan):
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar_registry, batched_registry = MetricsRegistry(), MetricsRegistry()
        scalar = CookieSwitch(
            CookieMatcher(store), clock=clock, telemetry=scalar_registry
        )
        batched = CookieSwitch(
            CookieMatcher(store), clock=clock, telemetry=batched_registry
        )
        for packet in stream:
            scalar.push(packet.clone())
        batched.push_batch([packet.clone() for packet in stream])
        scalar_snapshot = scalar_registry.snapshot()
        batched_snapshot = batched_registry.snapshot()
        assert batched_snapshot.counters == scalar_snapshot.counters
        assert batched_snapshot.gauges == scalar_snapshot.gauges


class TestPrefilterDifferential:
    def _env(self, store):
        prefilter = HardwarePrefilter(store, clock=lambda: 0.0)
        software, fast = Sink(), Sink()
        prefilter.software(software)
        prefilter.fast(fast)
        return prefilter, software, fast

    @settings(max_examples=50, deadline=None)
    @given(plan=traffic(max_flows=5, max_packets=3))
    def test_batch_partition_equals_scalar(self, plan):
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar, scalar_software, scalar_fast = self._env(store)
        batched, batched_software, batched_fast = self._env(store)
        for packet in stream:
            scalar.push(packet.clone())
        batched.push_batch([packet.clone() for packet in stream])
        registry = default_registry()
        def signature(sink):
            return [
                (packet.wire_length, registry.extract(packet) is not None)
                for packet in sink.packets
            ]
        assert signature(batched_software) == signature(scalar_software)
        assert signature(batched_fast) == signature(scalar_fast)
        assert batched.stats.packets == scalar.stats.packets == len(stream)

    def test_batch_preserves_per_path_order(self):
        """Within one batch, software-path packets stay in arrival order
        and fast-path packets stay in arrival order (the documented batch
        guarantee; cross-path interleaving is not promised)."""
        store, descriptor = _store()
        clock = Clock()
        cookied = _flow_packets(descriptor, clock, 0, "valid", 1)
        plain = [
            make_tcp_packet(
                "10.0.0.9", 7000 + i, "2.2.2.2", 443, payload_size=100 + i
            )
            for i in range(4)
        ]
        stream = [plain[0], cookied[0], plain[1], plain[2], plain[3]]
        prefilter, software, fast = self._env(store)
        prefilter.push_batch(stream)
        assert [p.wire_length for p in fast.packets] == [
            p.wire_length for p in plain
        ]
        assert len(software.packets) == 1
