"""§7.4: the empirical adversarial advantage.

Two questions:

1. What is the minimum capacity at which *all* of the good demand is
   satisfied?  The paper measures ``c = 115`` against the proportional-ideal
   ``c_id = 100`` — a 15% adversarial advantage.  We binary-search the same
   quantity.
2. How does the bad clients' window ``w`` affect what they capture?  The
   paper reports that ``w = 20`` is the (pessimistic) worst case among
   ``w ∈ [1, 60]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.theory import ideal_capacity
from repro.experiments.allocation import PAPER_CLIENT_COUNT
from repro.experiments.base import ExperimentScale
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner


@dataclass(frozen=True)
class AdvantageResult:
    """Outcome of the minimum-capacity search."""

    ideal_capacity_rps: float
    measured_capacity_rps: float
    advantage: float            # measured/ideal - 1 (the paper reports 0.15)
    served_fraction_at_ideal: float
    search_points: tuple


@dataclass(frozen=True)
class WindowSweepRow:
    """Server share captured by bad clients for one window size."""

    window: int
    bad_allocation: float
    good_fraction_served: float


def _served_fraction_at(
    capacity: float, good: int, bad: int, scale: ExperimentScale, runner: SweepRunner
) -> float:
    spec = build_scenario(
        "lan-baseline",
        good_clients=good,
        bad_clients=bad,
        capacity_rps=capacity,
        defense="speakup",
        duration=scale.duration,
        seed=scale.seed,
    )
    return runner.run_specs([spec])[0].good_fraction_served


def empirical_adversarial_advantage(
    scale: ExperimentScale,
    served_threshold: float = 0.99,
    max_factor: float = 1.6,
    tolerance: float = 0.025,
    runner: Optional[SweepRunner] = None,
) -> AdvantageResult:
    """Find the smallest capacity (relative to c_id) serving all good demand.

    Binary search between ``c_id`` and ``max_factor * c_id``; a capacity
    "serves all good demand" when the fraction of good requests served is at
    least ``served_threshold``.
    """
    runner = runner or SweepRunner()
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    good_demand = good * 2.0  # lambda = 2 requests/s per good client
    good_bandwidth = float(good)
    bad_bandwidth = float(bad)
    c_id = ideal_capacity(good_demand, good_bandwidth, bad_bandwidth)

    served_at_ideal = _served_fraction_at(c_id, good, bad, scale, runner)
    search_points = [(c_id / c_id, served_at_ideal)]

    low, high = c_id, c_id * max_factor
    if served_at_ideal >= served_threshold:
        # Already satisfied at the ideal: the advantage is (at most) zero.
        return AdvantageResult(c_id, c_id, 0.0, served_at_ideal, tuple(search_points))

    while (high - low) / c_id > tolerance:
        mid = (low + high) / 2.0
        served = _served_fraction_at(mid, good, bad, scale, runner)
        search_points.append((mid / c_id, served))
        if served >= served_threshold:
            high = mid
        else:
            low = mid
    measured = high
    return AdvantageResult(
        ideal_capacity_rps=c_id,
        measured_capacity_rps=measured,
        advantage=measured / c_id - 1.0,
        served_fraction_at_ideal=served_at_ideal,
        search_points=tuple(sorted(search_points)),
    )


def window_sweep(
    scale: ExperimentScale,
    windows: Sequence[int] = (1, 5, 10, 20, 40, 60),
    paper_capacity: float = 100.0,
    runner: Optional[SweepRunner] = None,
) -> List[WindowSweepRow]:
    """Vary the bad clients' window ``w`` and measure what they capture."""
    runner = runner or SweepRunner()
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    capacity = scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients)
    base = build_scenario(
        "lan-baseline",
        good_clients=good,
        bad_clients=bad,
        capacity_rps=capacity,
        defense="speakup",
        duration=scale.duration,
        seed=scale.seed,
    )
    # Locate the bad group: lan-baseline omits zero-count groups, so at tiny
    # scales (no good clients) it may be index 0 rather than 1.
    bad_index = next(
        index for index, group in enumerate(base.groups) if group.client_class == "bad"
    )
    window_path = f"groups.{bad_index}.window"
    records = runner.run(Sweep(base, axes={window_path: tuple(windows)}))
    return [
        WindowSweepRow(
            window=record.overrides[window_path],
            bad_allocation=record.result.bad_allocation,
            good_fraction_served=record.result.good_fraction_served,
        )
        for record in records
    ]


def format_window_sweep(rows: Sequence[WindowSweepRow]) -> str:
    """Render the window sweep as a text table."""
    return format_table(
        headers=["window", "bad_allocation", "good_served_frac"],
        rows=[(row.window, row.bad_allocation, row.good_fraction_served) for row in rows],
        title="Section 7.4: bad-client window sweep (c = c_id, G = B)",
    )
