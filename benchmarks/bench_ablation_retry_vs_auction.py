"""Ablation A1: the two speak-up mechanisms (§3.2 vs §3.3).

The paper implements and evaluates the explicit payment channel + virtual
auction; §3.2's random-drops-plus-aggressive-retries variant should achieve
the same bandwidth-proportional allocation.  This ablation runs the Figure 2
midpoint (half the bandwidth is good) under both mechanisms and under no
defense.
"""

from benchmarks.conftest import run_once
from repro.experiments.allocation import PAPER_CLIENT_COUNT
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario


def _compare(scale):
    total = scale.clients(PAPER_CLIENT_COUNT)
    good = total // 2
    bad = total - good
    capacity = scale.capacity(100.0, PAPER_CLIENT_COUNT, total)
    results = {}
    for defense in ("none", "retry", "speakup"):
        spec = build_scenario(
            "lan-baseline", good_clients=good, bad_clients=bad, capacity_rps=capacity,
            defense=defense, duration=scale.duration, seed=scale.seed,
        )
        results[defense] = spec.run()
    return results


def test_bench_retry_vs_auction(benchmark, bench_scale):
    results = run_once(benchmark, _compare, bench_scale)
    print()
    print(format_table(
        headers=["mechanism", "good_allocation", "good_served_frac"],
        rows=[(name, result.good_allocation, result.good_fraction_served)
              for name, result in results.items()],
        title="Ablation A1: encouragement mechanisms (ideal good allocation = 0.5)",
    ))
    assert results["speakup"].good_allocation > results["none"].good_allocation
    assert results["retry"].good_allocation > results["none"].good_allocation
    assert abs(results["speakup"].good_allocation - results["retry"].good_allocation) < 0.2
