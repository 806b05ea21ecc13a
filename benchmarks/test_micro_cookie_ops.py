"""Microbenchmarks — the primitive costs everything else is built from.

Cookie generation and verification are one HMAC-SHA256 each plus a hash
lookup; carriers add encode/decode.  These numbers bound what any Python
deployment of the mechanism can do and contextualize Fig. 4.
"""

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.transport import default_registry
from repro.netsim.appmsg import HTTPRequest
from repro.netsim.packet import make_tcp_packet


def _descriptor_env():
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="Boost"))
    matcher = CookieMatcher(store, nct=1e9)
    generator = CookieGenerator(descriptor, clock=lambda: 0.0)
    return store, descriptor, matcher, generator


def test_micro_cookie_generation(benchmark):
    _store, _descriptor, _matcher, generator = _descriptor_env()
    cookie = benchmark(generator.generate)
    assert cookie.cookie_id == _descriptor.cookie_id


def test_micro_cookie_verification(benchmark):
    _store, descriptor, matcher, generator = _descriptor_env()

    # Verification consumes each cookie once (replay cache), so feed a
    # fresh cookie per round via the setup hook.
    def setup():
        return (generator.generate(),), {}

    def verify(cookie):
        return matcher.verify(cookie, now=0.0)

    result = benchmark.pedantic(verify, setup=setup, rounds=2000, iterations=1)
    assert result is descriptor


def test_micro_wire_roundtrip(benchmark):
    _store, _descriptor, _matcher, generator = _descriptor_env()
    cookie = generator.generate()

    def roundtrip():
        from repro.core.cookie import Cookie

        return Cookie.from_text(cookie.to_text())

    assert benchmark(roundtrip) == cookie


def test_micro_http_attach_extract(benchmark):
    _store, _descriptor, _matcher, generator = _descriptor_env()
    registry = default_registry()

    def attach_extract():
        packet = make_tcp_packet(
            "10.0.0.1", 5000, "1.2.3.4", 80,
            content=HTTPRequest(host="example.com"), payload_size=200,
        )
        registry.attach(packet, generator.generate())
        return registry.extract(packet)

    found = benchmark(attach_extract)
    assert found is not None


def test_micro_replay_cache_ops(benchmark):
    from repro.core.matcher import ReplayCache

    cache = ReplayCache(window=5.0)
    counter = [0]

    def op():
        counter[0] += 1
        return cache.check_and_record(counter[0].to_bytes(16, "big"), now=0.0)

    assert benchmark(op) is False


def _cold_key_comparison(descriptors, cookies, batch_size, rounds):
    """Scalar ``match`` vs ``match_batch`` over one uniform cookie stream.

    Each cookie's descriptor is drawn uniformly from a ``descriptors``
    pool, so nearly every key is cold for the matcher's signer cache.
    Every round builds fresh matchers (fresh replay caches and signer
    caches) and alternates the two modes; the best round of each wins.
    """
    import random
    import time

    from repro.core.cookie import Cookie, sign_cookie_fields

    rng = random.Random(20160822)
    store = DescriptorStore()
    pool = [
        store.add(CookieDescriptor.create(service_data="Boost"))
        for _ in range(descriptors)
    ]
    stream = []
    for _ in range(cookies):
        descriptor = pool[rng.randrange(descriptors)]
        uuid = rng.randbytes(16)
        signature = sign_cookie_fields(
            descriptor.key, descriptor.cookie_id, uuid, 0.0
        )
        stream.append(Cookie(descriptor.cookie_id, uuid, 0.0, signature))
    batches = [
        stream[start : start + batch_size]
        for start in range(0, cookies, batch_size)
    ]

    def scalar():
        matcher = CookieMatcher(store, nct=1e9)
        match = matcher.match
        start = time.perf_counter()
        for cookie in stream:
            match(cookie, 0.0)
        elapsed = time.perf_counter() - start
        assert matcher.stats.accepted == cookies
        return elapsed

    def batched():
        matcher = CookieMatcher(store, nct=1e9)
        match_batch = matcher.match_batch
        start = time.perf_counter()
        for batch in batches:
            match_batch(batch, 0.0)
        elapsed = time.perf_counter() - start
        assert matcher.stats.accepted == cookies
        return elapsed

    scalar_s = batched_s = float("inf")
    for _ in range(rounds):
        scalar_s = min(scalar_s, scalar())
        batched_s = min(batched_s, batched())
    return {
        "scalar_us_per_cookie": scalar_s / cookies * 1e6,
        "batched_us_per_cookie": batched_s / cookies * 1e6,
        "batched_over_scalar_rate": scalar_s / batched_s,
    }


def test_micro_signer_cache_cold_keys(benchmark):
    """Batched verification must not lose to scalar on cold keys.

    ``match_batch`` signs through a per-key context cache.  On a uniform
    stream over 100k descriptors almost no key repeats within the
    cache's reach, so the cache's own bookkeeping (eviction, building a
    context for a key used once) is pure overhead on top of the HMAC.
    Floor: the batched rate is at least 0.85x the scalar rate.
    """
    comparison = benchmark.pedantic(
        lambda: _cold_key_comparison(
            descriptors=100_000, cookies=60_000, batch_size=256, rounds=3
        ),
        rounds=1,
        iterations=1,
    )
    for name, value in comparison.items():
        benchmark.extra_info[name] = round(value, 3)
    assert comparison["batched_over_scalar_rate"] >= 0.85, comparison


# ----------------------------------------------------------------------
# SQLite descriptor store: the PR-8 control-plane tuning, before/after.
# ----------------------------------------------------------------------

def _sqlite_store(tmp_path, name):
    """A file-backed store (WAL is meaningless for ':memory:')."""
    from repro.core import SQLiteDescriptorStore

    return SQLiteDescriptorStore(str(tmp_path / f"{name}.db"))


def _expiring_descriptors(count, expired_fraction=0.5):
    from repro.core.attributes import CookieAttributes

    cutoff = int(count * expired_fraction)
    return [
        CookieDescriptor.create(
            service_data="Boost",
            attributes=CookieAttributes(
                expires_at=50.0 if i < cutoff else 1e9
            ),
        )
        for i in range(count)
    ]


def test_micro_sqlite_bulk_add(benchmark, tmp_path):
    """add_many (one transaction) vs a commit per descriptor."""
    import time

    descriptors = _expiring_descriptors(500)

    per_row_store = _sqlite_store(tmp_path, "per_row")
    start = time.perf_counter()
    for descriptor in descriptors:
        per_row_store.add(descriptor)
    per_row_s = time.perf_counter() - start
    per_row_store.close()

    counter = [0]

    def bulk():
        counter[0] += 1
        store = _sqlite_store(tmp_path, f"bulk{counter[0]}")
        try:
            return store.add_many(descriptors)
        finally:
            store.close()

    added = benchmark.pedantic(bulk, rounds=3, iterations=1)
    assert added == len(descriptors)
    bulk_s = min(benchmark.stats.stats.data)
    benchmark.extra_info["per_row_s"] = round(per_row_s, 6)
    benchmark.extra_info["speedup"] = round(per_row_s / bulk_s, 2)
    # One transaction must beat 500 commits (by a lot; 2x is the floor).
    assert bulk_s < per_row_s / 2, (bulk_s, per_row_s)


def test_micro_sqlite_purge_indexed_vs_scan(benchmark, tmp_path):
    """Indexed DELETE vs the legacy load-decode-delete scan."""
    import time

    descriptors = _expiring_descriptors(2_000)

    scan_store = _sqlite_store(tmp_path, "scan")
    scan_store.add_many(descriptors)
    start = time.perf_counter()
    scan_purged = scan_store._purge_expired_scan(now=100.0)
    scan_s = time.perf_counter() - start
    scan_store.close()

    counter = [0]

    def indexed():
        counter[0] += 1
        store = _sqlite_store(tmp_path, f"indexed{counter[0]}")
        try:
            store.add_many(descriptors)
            start = time.perf_counter()
            purged = store.purge_expired(now=100.0)
            elapsed = time.perf_counter() - start
            assert len(store) == len(descriptors) - purged
            return purged, elapsed
        finally:
            store.close()

    purged, indexed_s = benchmark.pedantic(indexed, rounds=3, iterations=1)
    assert purged == scan_purged == 1_000
    benchmark.extra_info["scan_s"] = round(scan_s, 6)
    benchmark.extra_info["indexed_s"] = round(indexed_s, 6)
    benchmark.extra_info["speedup"] = round(scan_s / indexed_s, 2)
    assert indexed_s < scan_s, (indexed_s, scan_s)


def test_micro_sqlite_wal_enabled(tmp_path):
    """The tuning is actually on for file databases."""
    store = _sqlite_store(tmp_path, "wal")
    mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
    sync = store._conn.execute("PRAGMA synchronous").fetchone()[0]
    store.close()
    assert mode == "wal"
    assert sync == 1  # NORMAL
