"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zr-short --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced rounds with rounds in which every
layer's public functions are wrapped (see ``spans.py``) and reports the
per-layer metrics.  The metric names, units and directions are declared
once, in ``BENCHMARK.json``.  The last line of standard output is the
result; the line before it is the run's context (machine, inputs,
series).  Both, and the traced run's spans, are also written under
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench_runs"
#: Rounds a run makes at least, whatever ``--seconds`` says, so that
#: every median has a few samples.
MIN_ROUNDS = 5
MULTI_PROCESS_CONFIGS = (
    "ProcessShardExecutor",
    "ShardedControlPlane(mode='process')",
    "SweepExecutor pool",
)


def declared_metrics() -> dict[str, dict[str, Any]]:
    """``name -> declaration`` for every metric in ``BENCHMARK.json``,
    tagged with its kind (``end_to_end`` or ``per_layer``)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    declared: dict[str, dict[str, Any]] = {}
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            if entry["name"] in declared:
                raise ValueError(f"metric {entry['name']!r} declared twice")
            declared[entry["name"]] = {**entry, "kind": kind}
    return declared


def _percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


def _windowed_percentiles(rounds, q: float, min_ops: int = 1_000) -> list[float]:
    """Nearest-rank percentile ``q`` of each window of consecutive
    rounds holding at least ``min_ops`` operations, in microseconds.

    A window of 1 000 operations leaves ten samples beyond its p99 and
    a hundred beyond its p90.
    """
    windows: list[list[int]] = [[]]
    for outcome in rounds:
        if len(windows[-1]) >= min_ops:
            windows.append([])
        windows[-1].extend(outcome.durations_ns)
    if len(windows) > 1 and len(windows[-1]) < min_ops:
        windows[-2].extend(windows.pop())
    return [_percentile(sorted(w), q) / 1e3 for w in windows]


def _rate(outcome) -> float:
    return outcome.units / (sum(outcome.durations_ns) / 1e9)


def _trimmed_mean(values: list[float], cut: float = 0.2) -> float:
    """Mean of the values left after dropping ``cut`` of them at each end."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    return statistics.fmean(ordered[drop : len(ordered) - drop])


def _throughput(rounds) -> float:
    """Operations completed over the time spent on them, whole run."""
    return sum(r.units for r in rounds) / (
        sum(sum(r.durations_ns) for r in rounds) / 1e9
    )


def _cpu_ticks() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, ...), in clock ticks."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _play(workload, tracer=None, gc_monitor=None, keep_digest: bool = False):
    """Build a fresh system (timed: set-up), drive one round, check it.

    Set-up time is the mean over ``workload.builds_per_setup`` builds,
    of which the last one is driven and the others are closed unused: a
    build too short to time on its own is timed as a batch.

    The outcome records how much the resident set grew from before the
    build to right after the drive, while the system holds all of its
    state.  What the program produced (``raw``, the operation kinds, and
    the digest unless ``keep_digest``) is dropped after the checks, so
    that a long run does not hold every round's output, nor make the
    collector walk it.
    """
    rss_before = _rss_bytes()
    start = time.perf_counter()
    systems = [workload.build() for _ in range(workload.builds_per_setup)]
    setup_s = (time.perf_counter() - start) / len(systems)
    system = systems.pop()
    for spare in systems:
        workload.close(spare)
    del systems
    try:
        if tracer is not None:
            tracer.install()
        try:
            with gc_monitor or contextlib.nullcontext():
                drive_start = time.perf_counter_ns()
                outcome = workload.run_round(system, tracer)
                drive_ns = time.perf_counter_ns() - drive_start
            outcome.counters["drive_ns"] = drive_ns
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome.counters["rss_growth_bytes"] = _rss_bytes() - rss_before
        if tracer is not None:
            tracer.end_round(outcome.op_kinds)
        workload.finish(system, outcome)
    finally:
        workload.close(system)
    outcome.raw = {}
    outcome.op_kinds = []
    if not keep_digest:
        outcome.digest = {}
    return setup_s, outcome


def _warm_up(workload) -> float:
    """One untimed round before measuring; returns its resident-set
    growth, the memory the first system to run took.

    Building the inputs leaves the collector with a heap it has not yet
    walked as a whole; the first full collection and the first touch of
    fresh memory are costs of building the inputs, not of the program,
    so they land here instead of in the first measured rounds.
    """
    gc.collect()
    return _play(workload)[1].counters["rss_growth_bytes"]


def run_untraced(workload, seconds: float) -> dict[str, Any]:
    first_growth = _warm_up(workload)
    rounds = []
    setups = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup_s, outcome = _play(workload)
        setups.append(setup_s)
        rounds.append(outcome)
    p50 = _windowed_percentiles(rounds, 0.50)
    p90 = _windowed_percentiles(rounds, 0.90)
    p99 = _windowed_percentiles(rounds, 0.99)
    growth = max(first_growth, *(r.counters["rss_growth_bytes"] for r in rounds))
    metrics = {
        "throughput": _throughput(rounds),
        "service_p50_us": statistics.fmean(p50),
        "service_p90_us": statistics.fmean(p90),
        "setup_s": _trimmed_mean(setups),
        "state_mb": growth / 2**20,
    }
    operations = sum(len(r.durations_ns) for r in rounds)
    series = {
        "throughput_per_round": [_rate(r) for r in rounds],
        "service_p50_us_per_window": p50,
        "service_p90_us_per_window": p90,
        "service_p99_us_per_window": p99,
        "setup_s": setups,
        "operations": operations,
        "operations_per_round": operations / len(rounds),
    }
    return {"metrics": metrics, "rounds": rounds, "series": series}


def run_traced(workload, seconds: float, spans_prefix: Path) -> dict[str, Any]:
    from spans import GcMonitor, Tracer

    tracer = Tracer()
    gc_monitor = GcMonitor()
    _warm_up(workload)
    untraced = []
    traced = []
    start = time.perf_counter()
    while (
        len(traced) < MIN_ROUNDS // 2 + 1
        or time.perf_counter() - start < seconds
    ):
        untraced.append(_play(workload, gc_monitor=gc_monitor)[1])
        traced.append(_play(workload, tracer)[1])
    metrics = layer_metrics(workload, tracer.totals, traced, untraced, gc_monitor)
    tracer.write(str(spans_prefix))
    series = {
        "untraced_throughput_per_round": [_rate(r) for r in untraced],
        "traced_throughput_per_round": [_rate(r) for r in traced],
        "spans": f"{spans_prefix}.{{json,bin}}",
        "span_count": len(tracer.columns["name"]),
        "span_calls": tracer.totals.calls,
    }
    return {"metrics": metrics, "rounds": untraced + traced, "series": series}


def layer_metrics(workload, totals, traced, untraced, gc_monitor) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from a traced run.

    ``ns`` is the mean inclusive time per call, ``self_ns`` excludes the
    time of wrapped callees, ``share`` is a share of the timed
    operations' wall time, and counts are exact.  A layer the workload
    does not reach reports 0.
    """
    counters: dict[str, float] = {}
    for outcome in traced:
        for key, value in outcome.counters.items():
            counters[key] = counters.get(key, 0) + value
    rounds = len(traced)
    wall_ns = sum(sum(r.durations_ns) for r in traced)
    packets = counters.get("packets", 0)
    flows = counters.get("flows", 0)
    requests = counters.get("requests", 0)
    calls = totals.count
    ns = totals.mean_ns

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def share(*names: str) -> float:
        return per(sum(totals.total_ns.get(n, 0) for n in names), wall_ns)

    def self_share(name: str) -> float:
        return per(totals.self_ns.get(name, 0), wall_ns)

    matched = counters.get("matcher.accepted", 0) + counters.get("matcher.rejected", 0)
    records = counters.get("journal.records", 0)
    gc_wall = sum(r.counters["drive_ns"] for r in untraced)
    return {
        "transport.extract.calls_per_flow": per(calls("transport.extract"), flows),
        "transport.extract.ns": ns("transport.extract"),
        "transport.extract.share": share("transport.extract"),
        "matcher.match.calls_per_flow": per(calls("matcher.match"), flows),
        "matcher.match.ns": ns("matcher.match"),
        "matcher.match.self_ns": totals.mean_self_ns("matcher.match"),
        "matcher.match.share": share("matcher.match"),
        "matcher.match.reject_rate": per(counters.get("matcher.rejected", 0), matched),
        "matcher.replay.check.ns": ns("matcher.replay.check"),
        "matcher.replay.size": per(counters.get("matcher.replay.size", 0), rounds),
        "cookie.verify_signature.ns": ns("cookie.verify_signature"),
        "cookie.verify_signature.share": share("cookie.verify_signature"),
        "cookie.key_repeat_share": workload.properties.get("cookie.key_repeat_share", 0.0),
        "store.get.ns": ns("store.get"),
        "store.get.calls_per_flow": per(calls("store.get"), flows),
        "store.add.ns": ns("store.add"),
        "store.revoke.ns": ns("store.revoke"),
        "middlebox.self_ns_per_pkt": per(
            totals.self_ns.get("middlebox.process_batch", 0), packets
        ),
        "middlebox.process_batch.self_share": self_share("middlebox.process_batch"),
        "middlebox.sniffed_share": per(calls("transport.extract"), packets),
        "middlebox.tracked_flows": per(counters.get("middlebox.tracked_flows", 0), rounds),
        "middlebox.subscribers_evicted": per(
            counters.get("middlebox.subscribers_evicted", 0), rounds
        ),
        "catalog.decide.calls_per_pkt": per(calls("catalog.decide"), packets),
        "catalog.decide.ns": ns("catalog.decide"),
        "catalog.decide.share": share("catalog.decide"),
        "billing.account.ns": ns("billing.account"),
        "billing.account.share": share("billing.account"),
        "billing.flush_subscriber.calls": per(calls("billing.flush_subscriber"), rounds),
        "billing.flush_subscriber.ns": ns("billing.flush_subscriber"),
        "billing.flush_subscriber.share": share("billing.flush_subscriber"),
        "billing.flush_all.ns": ns("billing.flush_all"),
        "billing.pending_subscribers": per(
            counters.get("billing.pending_subscribers", 0), rounds
        ),
        "journal.append.calls_per_flush": per(
            calls("journal.append"), counters.get("billing.flushes", 0)
        ),
        "journal.append.ns": ns("journal.append"),
        "journal.append.share": share("journal.append"),
        "journal.fsyncs_per_record": per(counters.get("journal.fsyncs", 0), records),
        "journal.bytes_per_record": per(counters.get("journal.bytes", 0), records),
        "journal.append_failures": counters.get("journal.append_failures", 0),
        "cp.handle_request.self_share": self_share("cp.handle_request"),
        "cp.acquire_batch.ns": ns("cp.acquire_batch"),
        "cp.revoke_batch.ns": ns("cp.revoke_batch"),
        "cp.renew.ns": ns("cp.renew"),
        "cp.lookup.calls_per_op": per(calls("cp.lookup"), requests),
        "cp.shard.acquire.ns": ns("cp.shard.acquire"),
        "cp.shard.acquire.share": share("cp.shard.acquire"),
        "cp.shard.revoke.ns": ns("cp.shard.revoke"),
        "cp.deltalog.append.ns": ns("cp.deltalog.append"),
        "cp.deltalog.append.calls_per_op": per(calls("cp.deltalog.append"), requests),
        "descriptor.to_json.calls_per_acquire": per(
            totals.calls_by_kind.get(("descriptor.to_json", "acquire"), 0),
            counters.get("requests.acquire", 0),
        ),
        "descriptor.from_json.calls_per_op": per(calls("descriptor.from_json"), requests),
        "descriptor.json.share": share("descriptor.to_json", "descriptor.from_json"),
        "policy.authorize.ns": ns("policy.authorize"),
        "runtime.gc.collections": per(gc_monitor.collections, len(untraced)),
        "runtime.gc.pause_share": per(gc_monitor.pause_ns, gc_wall),
        "trace.overhead": per(_throughput(traced), _throughput(untraced)),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable: unresolved ref " + ref[5:]


def _filesystem_of(path: Path) -> str:
    """The mount type holding ``path``, from ``/proc/self/mounts``."""
    target = str(path.resolve())
    best = ("", "unknown")
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return f"{best[1]} at {best[0] or '?'}"


def machine_context(workdir: Path, ticks_before: list[int], ticks_after: list[int]) -> dict[str, Any]:
    cores = os.cpu_count() or 1
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cores
    reason = (
        f"not measured: needs >= 4 cores, box has {usable}"
        if usable < 4
        else "not measured: no multi-process workload defined yet"
    )
    return {
        "nproc": usable,
        "cpu_count": cores,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "journal_filesystem": _filesystem_of(workdir),
        # Time the hypervisor gave this machine's CPUs to others while
        # the run measured: the first suspect when a run reads slow.
        "cpu_steal_share": (
            (ticks_after[7] - ticks_before[7])
            / max(1, sum(ticks_after[:8]) - sum(ticks_before[:8]))
        ),
        "multi_process": {name: reason for name in MULTI_PROCESS_CONFIGS},
    }


def input_context(workload, rounds) -> dict[str, Any]:
    """Input properties of the run: what the program was handed, and the
    split it produced (identical in every round of a run)."""
    first = rounds[0].counters
    free = first.get("free_bytes", 0)
    charged = first.get("charged_bytes", 0)
    context = dict(workload.properties)
    context.update(
        {
            "free_bytes_per_round": free,
            "charged_bytes_per_round": charged,
            "free_byte_share": free / (free + charged) if free + charged else 0.0,
            "subscribers_evicted_per_round": first.get(
                "middlebox.subscribers_evicted", 0
            ),
        }
    )
    return context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    declared = declared_metrics()
    kind = "per_layer" if args.trace else "end_to_end"
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = RUNS_DIR / f"{args.workload}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = workloads.make_workload(args.workload, args.seed, str(workdir))
        workload.make_inputs()
        ticks_before = _cpu_ticks()
        if args.trace:
            spans = RUNS_DIR / f"{args.workload}-spans"
            run = run_traced(workload, args.seconds, spans)
        else:
            run = run_untraced(workload, args.seconds)
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_context(workdir, ticks_before, _cpu_ticks()),
            "inputs": input_context(workload, run["rounds"]),
            "rounds": len(run["rounds"]),
            "series": run["series"],
            "violations": [v for r in run["rounds"] for v in r.violations][:20],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = {name for name, d in declared.items() if d["kind"] == kind}
    if set(run["metrics"]) != wanted:
        raise RuntimeError(
            f"metrics emitted and declared differ: {sorted(set(run['metrics']) ^ wanted)}"
        )
    result = {
        "correct": not any(r.violations for r in run["rounds"]),
        "attempted": sum(r.units for r in run["rounds"]),
        "failed": sum(r.failed for r in run["rounds"]),
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"]}
            for name, value in sorted(run["metrics"].items())
        },
    }
    record = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "result": result}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
