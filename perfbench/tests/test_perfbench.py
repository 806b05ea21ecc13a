"""Self-tests of the benchmark, at small sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
from repro.core.transport import default_registry  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, traced_functions  # noqa: E402

SMALL = {
    "zr-short": {"flows": 60, "pool": 500},
    "zr-long": {"flows": 12, "pool": 500},
    "zr-billed": {
        "residents": 12,
        "visitors": 4,
        "flows": 120,
        "max_subscribers": 14,
        "pool": 500,
    },
    "cp-churn": {"events": 600, "population": 2_000},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def small(name: str, workdir: Path, seed: int = 7):
    workload = workloads.make_workload(name, seed, str(workdir), **SMALL[name])
    workload.make_inputs()
    return workload


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The wrappers change nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_matches_untraced_round(name, tmp_path):
    workload = small(name, tmp_path)
    originals = {(owner, attr): vars(owner)[attr] for _n, owner, attr in traced_functions()}
    _setup, plain = run._play(workload, keep_digest=True)
    tracer = Tracer()
    _setup, traced = run._play(workload, tracer, keep_digest=True)

    assert plain.violations == [] and traced.violations == []
    assert plain.digest == traced.digest
    drop = {"drive_ns", "rss_growth_bytes"}
    assert {k: v for k, v in plain.counters.items() if k not in drop} == {
        k: v for k, v in traced.counters.items() if k not in drop
    }
    assert sum(tracer.totals.calls.values()) > 0
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left wrapped"


def test_self_time_subtracts_children():
    tracer = Tracer()
    root = tracer._name_id("root")
    child = tracer._name_id("child")
    tracer._round.extend(
        [
            (root, 0, 100, -1, 0),
            (child, 10, 40, 0, 0),
            (child, 50, 60, 0, 0),
            (root, 200, 210, -1, 1),
        ]
    )
    tracer.end_round(["burst", "acquire"])
    totals = tracer.totals
    assert totals.calls == {"root": 2, "child": 2}
    assert totals.total_ns["root"] == 110
    assert totals.self_ns["root"] == 110 - 40
    assert totals.self_ns["child"] == 40
    assert totals.calls_by_kind[("root", "acquire")] == 1
    assert list(tracer.columns["parent"]) == [-1, 0, 0, -1]


# ----------------------------------------------------------------------
# Each output check fails on a corrupted result
# ----------------------------------------------------------------------
def observed(name: str, workdir: Path) -> dict:
    workload = small(name, workdir)
    system = workload.build()
    try:
        outcome = workload.run_round(system)
        return workload.observe(system, outcome)
    finally:
        workload.close(system)


def corrupt_fig4(result: dict) -> list[dict]:
    ip = next(iter(result["delivered"]))
    free, charged = result["counters"][ip]
    variants = [copy.deepcopy(result) for _ in range(4)]
    variants[0]["cookie_hits"] -= 1
    variants[1]["verifier_failures"] = 1
    variants[2]["counters"][ip] = (free, charged + 1)  # billed a byte twice
    variants[3]["counters"][ip] = (free - 100, charged + 100)  # cookied flow charged
    return variants


def corrupt_billed(result: dict) -> list[dict]:
    operator = next(iter(result["delivered"]))
    subscriber = next(iter(result["delivered"][operator]))
    variants = [copy.deepcopy(result) for _ in range(7)]
    variants[0]["observed_free"][0] = not variants[0]["observed_free"][0]
    variants[1]["lost"] = {operator: {subscriber: 512}}
    variants[2]["double_billed"] = {operator: {subscriber: 512}}
    variants[3]["tariff_violations"] = ["free bytes in class 'third_party'"]
    variants[4]["invoiced"][operator][subscriber] -= 1
    variants[5]["fsyncs"] = variants[5]["records_appended"] - 1
    variants[6]["fsync_policy"] = "rotate"
    return variants


def corrupt_churn(result: dict) -> list[dict]:
    variants = [copy.deepcopy(result) for _ in range(5)]
    kind, _ok = variants[0]["answers"][0]
    variants[0]["answers"][0] = (kind, False)
    cookie_id, _state = variants[1]["revoked_lookups"][0]
    variants[1]["revoked_lookups"][0] = (cookie_id, False)
    variants[2]["revoked_lookups"][0] = (cookie_id, None)
    variants[3]["log_next_offsets"][0] += 1
    variants[4]["granted"] += 1
    return variants


@pytest.mark.parametrize(
    "name, check, corrupt",
    [
        ("zr-short", checks.check_fig4, corrupt_fig4),
        ("zr-long", checks.check_fig4, corrupt_fig4),
        ("zr-billed", checks.check_billed, corrupt_billed),
        ("cp-churn", checks.check_churn, corrupt_churn),
    ],
)
def test_checks_pass_clean_and_fail_corrupted(name, check, corrupt, tmp_path):
    result = observed(name, tmp_path)
    assert check(result) == (0, [])
    for index, variant in enumerate(corrupt(result)):
        _failed, violations = check(variant)
        assert violations, f"corruption {index} of {name} went unnoticed"


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------
def _input_fingerprint(workload) -> str:
    if isinstance(workload, workloads.ChurnWorkload):
        return json.dumps([(e.time, e.kind, e.subscriber, e.service) for e in workload.events])
    registry = default_registry()
    rows = []
    for packet in workload.packets:
        found = registry.extract(packet)
        cookie = found[0].to_bytes().hex() if found else None
        rows.append((packet.ip.src, packet.ip.dst, packet.l4.src_port, packet.wire_length, cookie))
    return json.dumps(rows)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    first = small(name, tmp_path, seed=3)
    again = small(name, tmp_path, seed=3)
    other = small(name, tmp_path, seed=4)
    assert _input_fingerprint(first) == _input_fingerprint(again)
    assert first.properties == again.properties
    assert _input_fingerprint(first) != _input_fingerprint(other)


def test_billed_servers_come_from_the_page_models(tmp_path):
    from repro.web import sites

    workload = small("zr-billed", tmp_path)
    operator_of = {sub["ip"]: sub["operator"] for sub in workload.subscribers}
    servers = {
        operator: {f.server.ip for f in getattr(sites, builder)(seed=page_seed).flows}
        for operator, builder, page_seed, *_rest in workloads.BILLING_OPERATORS
    }
    for packet in workload.packets:
        src, dst = packet.ip.src, packet.ip.dst
        subscriber, server = (src, dst) if src in operator_of else (dst, src)
        assert server in servers[operator_of[subscriber]]


# ----------------------------------------------------------------------
# Metric declarations
# ----------------------------------------------------------------------
def test_metric_declarations():
    declared = spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in declared[kind]]
    assert len(names) == len(set(names)), "a metric is declared twice"
    for kind in ("end_to_end", "per_layer"):
        for metric in declared[kind]:
            assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
            assert UNIT.fullmatch(metric["unit"])
            assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_runs_emit_exactly_the_declared_metrics(name, tmp_path):
    declared = spec()
    workload = small(name, tmp_path)
    plain = run.run_untraced(workload, seconds=0)
    assert set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    # state_mb is left out: in a long-lived test process the allocator
    # reuses memory earlier tests freed, so growth can read as zero.
    assert all(v > 0 for k, v in plain["metrics"].items() if k != "state_mb")
    traced = run.run_traced(workload, seconds=0, spans_prefix=tmp_path / "spans")
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert (tmp_path / "spans.bin").stat().st_size > 0


def test_to_json_count_per_acquire_is_exact(tmp_path):
    workload = small("cp-churn", tmp_path)
    traced = run.run_traced(workload, seconds=0, spans_prefix=tmp_path / "spans")
    assert traced["metrics"]["descriptor.to_json.calls_per_acquire"] == 2.0


def test_catalog_and_journal_stay_idle_outside_billing(tmp_path):
    workload = small("zr-short", tmp_path)
    metrics = run.run_traced(workload, seconds=0, spans_prefix=tmp_path / "spans")["metrics"]
    for name in ("catalog.decide.share", "journal.append.share", "billing.account.share"):
        assert metrics[name] == 0.0


# ----------------------------------------------------------------------
# Without the program, the benchmark refuses to report
# ----------------------------------------------------------------------
def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    command = spec()["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "zr-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
