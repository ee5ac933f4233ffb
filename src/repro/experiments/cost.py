"""Figures 4 and 5: the latency and byte cost of speak-up.

Both figures come from the same runs as Figure 3's "ON" bars (G = B = 50
Mbits/s at paper scale, capacity swept over {50, 100, 200} requests/s):

* Figure 4 plots the mean and 90th-percentile time that served good
  requests spent uploading dummy bytes;
* Figure 5 plots the average price (bytes uploaded per served request) for
  good and bad clients against the upper bound (G + B)/c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.allocation import FIGURE3_CAPACITIES, PAPER_CLIENT_COUNT
from repro.experiments.base import ExperimentScale
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner


@dataclass(frozen=True)
class CostRow:
    """Costs measured at one server capacity (speak-up on)."""

    capacity_rps: float
    mean_payment_time: float
    p90_payment_time: float
    mean_price_good_bytes: float
    mean_price_bad_bytes: float
    price_upper_bound_bytes: float
    good_fraction_served: float


def figure4_5_costs(
    scale: ExperimentScale,
    paper_capacities: Sequence[float] = FIGURE3_CAPACITIES,
    runner: Optional[SweepRunner] = None,
) -> List[CostRow]:
    """Measure payment time (Figure 4) and price (Figure 5) across capacities."""
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
        defense="speakup",
        duration=scale.duration,
        seed=scale.seed,
    )
    records = runner.run(Sweep(base, axes={"capacity_rps": tuple(capacities)}))
    rows: List[CostRow] = []
    for record in records:
        result = record.result
        rows.append(
            CostRow(
                capacity_rps=capacities[record.overrides["capacity_rps"]],
                mean_payment_time=result.good.payment_time.mean,
                p90_payment_time=result.good.payment_time.p90,
                mean_price_good_bytes=result.mean_price_by_class.get("good", 0.0),
                mean_price_bad_bytes=result.mean_price_by_class.get("bad", 0.0),
                price_upper_bound_bytes=result.price_upper_bound_bytes,
                good_fraction_served=result.good_fraction_served,
            )
        )
    return rows


def format_costs(rows: Sequence[CostRow]) -> str:
    """Render Figures 4 and 5 as one table (seconds and KBytes)."""
    return format_table(
        headers=[
            "capacity",
            "mean_pay_s",
            "p90_pay_s",
            "price_good_KB",
            "price_bad_KB",
            "upper_bound_KB",
        ],
        rows=[
            (
                f"{row.capacity_rps:.0f}",
                row.mean_payment_time,
                row.p90_payment_time,
                row.mean_price_good_bytes / 1000.0,
                row.mean_price_bad_bytes / 1000.0,
                row.price_upper_bound_bytes / 1000.0,
            )
            for row in rows
        ],
        title="Figures 4 & 5: payment time and price per served request (speak-up on, G = B)",
    )
