"""Figures 2 and 3: how the thinner allocates the server.

Figure 2: 50 clients (2 Mbit/s each) on a LAN, ``c = 100`` requests/s; vary
the fraction ``f`` of good clients and measure the fraction of the server
they capture with speak-up, without speak-up, and against the ideal ``f``.

Figure 3: fix ``G = B`` (25 good, 25 bad) and vary the server capacity
``c ∈ {50, 100, 200}`` with speak-up off and on; report the allocation to
each class and the fraction of good requests served.  ``c = 100`` is the
ideal provisioning ``c_id`` for this workload; ``c = 200`` serves everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.base import ExperimentScale
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner

#: The good-client fractions Figure 2 sweeps.
FIGURE2_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: The capacities Figure 3 sweeps (requests/s at paper scale).
FIGURE3_CAPACITIES = (50.0, 100.0, 200.0)

#: Paper-scale client count shared by both figures.
PAPER_CLIENT_COUNT = 50


@dataclass(frozen=True)
class Figure2Row:
    """One point of Figure 2."""

    good_fraction: float
    good_clients: int
    bad_clients: int
    allocation_with_speakup: float
    allocation_without_speakup: float
    ideal: float


@dataclass(frozen=True)
class Figure3Row:
    """One bar group of Figure 3."""

    capacity_rps: float
    speakup_on: bool
    good_allocation: float
    bad_allocation: float
    good_fraction_served: float


def figure2_allocation(
    scale: ExperimentScale,
    fractions: Sequence[float] = FIGURE2_FRACTIONS,
    paper_capacity: float = 100.0,
    runner: Optional[SweepRunner] = None,
) -> List[Figure2Row]:
    """Reproduce Figure 2: allocation vs. the good clients' bandwidth fraction."""
    if not fractions:
        return []
    runner = runner or SweepRunner()
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    capacity = scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients)

    splits: List[tuple] = []
    for fraction in fractions:
        good = max(1, round(fraction * total_clients))
        good = min(good, total_clients - 1) if fraction < 1.0 else total_clients
        splits.append((good, total_clients - good))

    base = build_scenario(
        "lan-baseline",
        good_clients=max(1, splits[0][0]),
        bad_clients=max(1, splits[0][1]),
        capacity_rps=capacity,
        duration=scale.duration,
        seed=scale.seed,
    )
    sweep = Sweep(
        base,
        axes={
            ("groups.0.count", "groups.1.count"): splits,
            "defense": ("speakup", "none"),
        },
    )
    records = runner.run(sweep)
    by_point = {
        (record.overrides["groups.0.count"], record.overrides["defense"]): record.result
        for record in records
    }

    rows: List[Figure2Row] = []
    for fraction, (good, bad) in zip(fractions, splits):
        rows.append(
            Figure2Row(
                good_fraction=fraction,
                good_clients=good,
                bad_clients=bad,
                allocation_with_speakup=by_point[(good, "speakup")].good_allocation,
                allocation_without_speakup=by_point[(good, "none")].good_allocation,
                ideal=good / total_clients,
            )
        )
    return rows


def figure3_provisioning(
    scale: ExperimentScale,
    paper_capacities: Sequence[float] = FIGURE3_CAPACITIES,
    runner: Optional[SweepRunner] = None,
) -> List[Figure3Row]:
    """Reproduce Figure 3: allocations and served fraction across capacities."""
    if not paper_capacities:
        return []
    runner = runner or SweepRunner()
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    capacities = {
        scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients): paper_capacity
        for paper_capacity in paper_capacities
    }
    base = build_scenario(
        "lan-baseline",
        good_clients=good,
        bad_clients=bad,
        capacity_rps=next(iter(capacities)),
        duration=scale.duration,
        seed=scale.seed,
    )
    sweep = Sweep(
        base,
        axes={
            "capacity_rps": tuple(capacities),
            "defense": ("none", "speakup"),
        },
    )
    rows: List[Figure3Row] = []
    for record in runner.run(sweep):
        result = record.result
        rows.append(
            Figure3Row(
                capacity_rps=capacities[record.overrides["capacity_rps"]],
                speakup_on=(record.overrides["defense"] == "speakup"),
                good_allocation=result.good_allocation,
                bad_allocation=result.bad_allocation,
                good_fraction_served=result.good_fraction_served,
            )
        )
    return rows


def format_figure2(rows: Sequence[Figure2Row]) -> str:
    """Render Figure 2's series as a text table."""
    return format_table(
        headers=["good_fraction", "with_speakup", "without_speakup", "ideal"],
        rows=[
            (row.good_fraction, row.allocation_with_speakup, row.allocation_without_speakup, row.ideal)
            for row in rows
        ],
        title="Figure 2: fraction of server allocated to good clients (c = 100 req/s at paper scale)",
    )


def format_figure3(rows: Sequence[Figure3Row]) -> str:
    """Render Figure 3's bars as a text table."""
    return format_table(
        headers=["capacity", "speakup", "good_alloc", "bad_alloc", "good_served_frac"],
        rows=[
            (
                f"{row.capacity_rps:.0f}",
                "ON" if row.speakup_on else "OFF",
                row.good_allocation,
                row.bad_allocation,
                row.good_fraction_served,
            )
            for row in rows
        ],
        title="Figure 3: server allocation and served fraction, G = B",
    )
