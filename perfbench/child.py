"""One execution of one workload, in a fresh interpreter.

Run as ``python -m perfbench.child --workload NAME --seed N --trace 0|1
--out-dir DIR`` from the checkout root with ``src`` on ``PYTHONPATH``; the
harness (:mod:`perfbench.run`) starts one of these per measurement so each
reports its own time and its own peak RSS (:func:`peak_rss_mb`).  The last
line of standard output is one JSON object.

With ``--trace 0`` nothing is wrapped.  With ``--trace 1`` a
:class:`~perfbench.tracer.Tracer` wraps the layer boundaries before the
workload runs, reports per-boundary calls and self time, reads the
simulator's counters from the deployments the workload built, and writes
the spans to ``DIR/spans-NAME.npz`` after the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

#: SimCounters fields reported per layer, under the benchmark's names.
COUNTERS = {
    "network.reallocations": "reallocations",
    "network.flushes": "flushes",
    "network.waterfill_calls": "waterfill_calls",
    "network.flows_touched": "flows_touched",
    "network.cache_hits": "cache_hits",
    "network.cache_misses": "cache_misses",
    "bidindex.auctions_held": "auctions_held",
    "bidindex.contenders_scanned": "contenders_scanned",
    "bidindex.refreshes": "bid_index_refreshes",
    "thinner.filter_screened": "filter_screened",
    "thinner.filter_rejected": "filter_rejected",
    "telemetry.records_emitted": "records_emitted",
}


def peak_rss_mb() -> float:
    """This process's own peak RSS since it started, in MB.

    Read from ``VmHWM`` in ``/proc/self/status``: the high-water mark of this
    process's address space.  ``getrusage`` would not do: ``RUSAGE_CHILDREN``
    is a maximum over every child reaped so far, and on Linux ``ru_maxrss``
    of a process also counts the resident pages it inherited from its parent
    before ``exec``.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def deployment_counters(deployments: List) -> Dict[str, int]:
    """Counters summed over a workload's runs (peaks take the maximum)."""
    totals = {"engine.events": 0, "engine.peak_live_events": 0, **{name: 0 for name in COUNTERS}}
    for deployment in deployments:
        snapshot = deployment.network.counters.snapshot()
        totals["engine.events"] += deployment.engine.events_processed
        totals["engine.peak_live_events"] = max(
            totals["engine.peak_live_events"], snapshot["peak_live_events"]
        )
        for name, field in COUNTERS.items():
            totals[name] += snapshot[field]
    return totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        return 3

    from perfbench import workloads

    pins = workloads.load_pins()
    report: Dict[str, object] = {}
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer().install()
        try:
            outcome = workloads.execute(args.workload, args.seed, args.out_dir, pins)
        finally:
            tracer.uninstall()
        report["trace"] = tracer.summary(outcome.wall_s)
        report["counters"] = deployment_counters(tracer.deployments)
        tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}.npz"))
    else:
        outcome = workloads.execute(args.workload, args.seed, args.out_dir, pins)
        report["peak_rss_mb"] = peak_rss_mb()
        if workloads.WORKLOADS[args.workload].sweep:
            outcome.setup_s = workloads.sweep_setup_s(args.workload, args.seed)
    report.update(outcome.to_dict())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a large simulated population object
    # by object takes up to a second and is not part of any measurement.
    os._exit(status)
