"""From child reports to the benchmark's end-to-end and per-layer metrics.

This module imports nothing from the simulator, so the harness process stays
free of it; the boundary names come from :mod:`perfbench.tracer`, which
imports the simulator only when a tracer is installed.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from typing import Dict, List, Tuple

from perfbench.child import COUNTERS
from perfbench.tracer import boundary_names

#: (name, unit) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Counters read from the simulator, under the benchmark's names.
COUNTER_NAMES: Tuple[str, ...] = ("engine.events", "engine.peak_live_events", *COUNTERS)

#: Ratio name -> (numerator, denominator); the ratio is 0 on a 0 base.
RATIOS: Dict[str, Tuple[str, str]] = {
    "engine.fired_per_scheduled": ("engine.events", "engine.schedule.calls"),
    "network.flows_per_waterfill": ("network.flows_touched", "network.waterfill_calls"),
    "network.cache_hit_ratio": ("network.cache_hits", "network.cache_lookups"),
    "bidindex.scanned_per_auction": ("bidindex.contenders_scanned", "bidindex.auctions_held"),
    "bidindex.refreshes_per_auction": ("bidindex.refreshes", "bidindex.auctions_held"),
}


def per_layer_units() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    units: List[Tuple[str, str]] = []
    for boundary in boundary_names():
        units += [(f"{boundary}.calls", "count"), (f"{boundary}.self_s", "s"), (f"{boundary}.share", "ratio")]
    units += [(name, "count") for name in COUNTER_NAMES]
    units += [(name, "ratio") for name in RATIOS]
    units += [("trace.overhead", "ratio"), ("trace.unattributed_s", "s")]
    return units


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _digest_failures(plain: List[dict], traced: List[dict]) -> int:
    """Ops of every run whose digest differs from the untraced runs' usual one."""
    reference, _count = Counter(report["digest"] for report in plain).most_common(1)[0]
    failed = 0
    for report in plain + traced:
        if report["digest"] != reference and not report["failed"]:
            failed += report["ops"]
            report["problems"].append(f"digest {report['digest']} differs from {reference}")
    return failed


def end_to_end(plain: List[dict]) -> Dict[str, Dict[str, object]]:
    return {
        name: _metric(statistics.median(report[name] for report in plain), unit)
        for name, unit in END_TO_END
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of the traced run with the median traced wall time."""
    report = sorted(traced, key=lambda item: item["wall_s"])[len(traced) // 2]
    wall = report["wall_s"]
    values: Dict[str, float] = {}
    for boundary, measured in report["trace"]["boundaries"].items():
        values[f"{boundary}.calls"] = measured["calls"]
        values[f"{boundary}.self_s"] = measured["self_s"]
        values[f"{boundary}.share"] = measured["self_s"] / wall
    values.update(report["counters"])
    values["network.cache_lookups"] = values["network.cache_hits"] + values["network.cache_misses"]
    for name, (numerator, denominator) in RATIOS.items():
        base = values[denominator]
        values[name] = values[numerator] / base if base else 0.0
    values["trace.overhead"] = wall / statistics.median(item["wall_s"] for item in plain)
    values["trace.unattributed_s"] = report["trace"]["unattributed_s"]
    return {name: _metric(values[name], unit) for name, unit in per_layer_units()}


def summarise(plain: List[dict], traced: List[dict], trace: bool) -> Dict[str, object]:
    """The result object for one workload: correct, attempted, failed, metrics."""
    attempted = sum(report["ops"] for report in plain + traced)
    failed = sum(report["failed"] for report in plain + traced) + _digest_failures(plain, traced)
    for report in plain + traced:
        for problem in report["problems"]:
            print(f"perfbench: {report['workload']} seed {report['seed']}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer(plain, traced) if trace else end_to_end(plain),
    }


def combine(results: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """One result object for several workloads, metrics prefixed by workload."""
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }


def describe(name: str, result: Dict[str, object], plain: List[dict], trace: bool) -> List[str]:
    """Human-readable lines for one workload's result."""
    lines = [
        f"{name}: ops_failed {result['failed']}/{result['attempted']} ops; digest {plain[0]['digest']}",
        f"  wall_s of {len(plain)} untraced runs: " + " ".join(f"{report['wall_s']:.3f}" for report in plain),
    ]
    for metric, unit in END_TO_END:
        values = [report[metric] for report in plain]
        low, high = (statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (values[0], values[0]))
        lines.append(
            f"  {metric:<12} {statistics.median(values):10.4f} {unit:<3} "
            f"(q1 {low:.4f}, q3 {high:.4f})"
        )
    if trace:
        for metric, measured in result["metrics"].items():
            lines.append(f"  {metric:<36} {measured['value']:14.6g} {measured['unit']}")
    return lines
