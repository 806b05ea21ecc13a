"""Output checks: each takes what a round produced and returns
``(failed operations, violations)``.  A non-empty violation list makes
the run's ``correct`` false; the failed count feeds ``failed``."""

from __future__ import annotations

from typing import Any

__all__ = ["check_billed", "check_churn", "check_fig4"]


def check_fig4(result: dict[str, Any]) -> tuple[int, list[str]]:
    """zr-short / zr-long: every flow carries one valid cookie, so every
    flow must be a cookie hit and every delivered byte free."""
    violations: list[str] = []
    failed = 0
    if result["cookie_hits"] != result["flows"]:
        violations.append(
            f"cookie_hits {result['cookie_hits']} != flows {result['flows']}"
        )
    if result["verifier_failures"]:
        failed += result["verifier_failures"]
        violations.append(f"{result['verifier_failures']} verifier failures")
    counters = result["counters"]
    per_flow = result["packets_per_flow"]
    for ip, delivered in result["delivered"].items():
        free, charged = counters.get(ip, (0, 0))
        if free + charged != delivered or free != result["expected_free"][ip]:
            failed += per_flow
            violations.append(
                f"{ip}: free {free} + charged {charged}, delivered "
                f"{delivered}, expected free {result['expected_free'][ip]}"
            )
    return failed, violations[:20]


def check_billed(result: dict[str, Any]) -> tuple[int, list[str]]:
    """zr-billed: per-packet verdicts match the catalog reference,
    invoices reconcile exactly with delivered bytes, and every record
    was fsynced."""
    violations: list[str] = []
    expected = result["expected_free"]
    observed = result["observed_free"]
    mismatched = sum(1 for e, o in zip(expected, observed) if e != o)
    mismatched += abs(len(expected) - len(observed))
    failed = mismatched + result["verifier_failures"]
    if mismatched:
        violations.append(f"{mismatched} packets with the wrong free/charged verdict")
    if result["verifier_failures"]:
        violations.append(f"{result['verifier_failures']} verifier failures")
    packets = result["subscriber_packets"]
    for label in ("lost", "double_billed"):
        for operator, per in sorted(result[label].items()):
            for subscriber, nbytes in sorted(per.items()):
                failed += packets.get(subscriber, 0)
                violations.append(f"{label}: {operator}/{subscriber} {nbytes} B")
    violations.extend(result["tariff_violations"])
    for operator, per in result["delivered"].items():
        invoiced = sum(result["invoiced"].get(operator, {}).values())
        if invoiced != sum(per.values()):
            violations.append(
                f"{operator}: invoiced {invoiced} B != delivered {sum(per.values())} B"
            )
    if result["fsync_policy"] != "always" or result["fsyncs"] < result["records_appended"]:
        violations.append(
            f"{result['fsyncs']} fsyncs for {result['records_appended']} records "
            f"under fsync={result['fsync_policy']!r}"
        )
    return failed, violations[:20]


def check_churn(result: dict[str, Any]) -> tuple[int, list[str]]:
    """cp-churn: every request answers ok, a revoked id looks up as
    revoked, and each shard's delta log holds one record per mutation."""
    violations: list[str] = []
    refused = [kind for kind, ok in result["answers"] if not ok]
    failed = len(refused)
    if refused:
        violations.append(f"{len(refused)} requests answered ok: false")
    not_revoked = [cid for cid, state in result["revoked_lookups"] if state is not True]
    failed += len(not_revoked)
    if not_revoked:
        violations.append(f"{len(not_revoked)} revoked ids do not look up as revoked")
    for shard, (offset, mutations) in enumerate(
        zip(result["log_next_offsets"], result["mutations"])
    ):
        if offset != mutations:
            violations.append(
                f"shard {shard}: delta log next_offset {offset} != {mutations} mutations"
            )
    answered = result["granted"] + len(result["revoked_lookups"])
    if sum(result["mutations"]) != answered:
        violations.append(
            f"{sum(result['mutations'])} shard mutations for {answered} "
            "granted or revoked answers"
        )
    return failed, violations[:20]
