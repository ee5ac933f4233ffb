"""When should speak-up be on?  The adaptive-engagement design point, measured.

The paper frames speak-up as a defense that "does nothing in peacetime":
the thinner should charge clients bandwidth only while the server is under
attack.  That leaves the operator a control question the paper does not
evaluate — how quickly must the defense engage once a pulse starts, and
what does sluggish engagement cost the good clients?

This experiment answers it empirically with the ``adaptive-pulse``
scenario: good demand is steady, the attackers fire one full-rate pulse
mid-run, and an :class:`~repro.defenses.adaptive.AdaptiveDefense` watches
server utilisation with a configurable sampling cadence.  For each watcher
cadence we record

* **engagement lag** — seconds from pulse start until the inner defense
  switched on (roughly one check interval, since the pulse saturates the
  server almost immediately);
* **engaged time** — how long the defense ran in total (the bandwidth tax
  window);
* **good fraction served** — the paper's headline service metric over the
  whole run.

Two static baselines bracket the sweep: ``always-on`` (plain speak-up for
the whole run — maximal tax, no lag) and ``off`` (the undefended baseline —
no tax, and the pulse eats the good clients' service).  The adaptive rows
should approach the always-on service level from below as the watcher
samples faster, while only charging payment during (and shortly after) the
pulse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.base import ExperimentScale
from repro.metrics.collector import RunResult
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import SweepRunner

#: Load-watcher sampling cadences the sweep covers (seconds).
CHECK_INTERVALS = (0.5, 1.0, 2.0, 4.0)

#: Paper-scale population for the pulse workload (the §7.2 LAN mix).
PAPER_CLIENT_COUNT = 50


@dataclass(frozen=True)
class AdaptiveRow:
    """One policy of the engagement sweep."""

    mode: str
    check_interval_s: Optional[float]
    engage_lag_s: Optional[float]
    time_engaged_s: float
    engaged_fraction: float
    good_fraction_served: float
    good_allocation: float
    payment_bytes_sunk: float


def _engage_lag(result: RunResult, pulse_start: float) -> Optional[float]:
    engagement = result.engagement
    if engagement is None or engagement.first_engaged_at is None:
        return None
    return engagement.first_engaged_at - pulse_start


def adaptive_engagement(
    scale: ExperimentScale,
    check_intervals: Sequence[float] = CHECK_INTERVALS,
    paper_capacity: float = 100.0,
    runner: Optional[SweepRunner] = None,
) -> List[AdaptiveRow]:
    """Good-client service vs engagement lag across one attack pulse.

    Returns one row per watcher cadence plus the ``always-on`` and ``off``
    baselines, all on the identical pulse workload and seed.
    """
    runner = runner or SweepRunner()
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    capacity = scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients)
    pulse_start = scale.duration / 4.0

    common = dict(
        good_clients=good,
        bad_clients=bad,
        capacity_rps=capacity,
        duration=scale.duration,
        seed=scale.seed,
    )
    specs = [
        build_scenario("adaptive-pulse", check_interval_s=interval, **common)
        for interval in check_intervals
    ]
    # The static baselines run the same pulse population with the composed
    # defense swapped out for a plain policy.
    specs.append(specs[0].with_values({"defense": "speakup", "name": "always-on"}))
    specs.append(specs[0].with_values({"defense": "none", "name": "off"}))

    results = runner.run_specs(specs)

    rows: List[AdaptiveRow] = []
    for interval, result in zip(check_intervals, results):
        engagement = result.engagement
        rows.append(
            AdaptiveRow(
                mode=f"adaptive@{interval:g}s",
                check_interval_s=interval,
                engage_lag_s=_engage_lag(result, pulse_start),
                time_engaged_s=engagement.time_engaged if engagement else 0.0,
                engaged_fraction=engagement.engaged_fraction if engagement else 0.0,
                good_fraction_served=result.good_fraction_served,
                good_allocation=result.good_allocation,
                payment_bytes_sunk=result.payment_bytes_sunk,
            )
        )
    for mode, result, engaged in (
        ("always-on", results[-2], scale.duration),
        ("off", results[-1], 0.0),
    ):
        rows.append(
            AdaptiveRow(
                mode=mode,
                check_interval_s=None,
                engage_lag_s=None,
                time_engaged_s=engaged,
                engaged_fraction=engaged / scale.duration if scale.duration else 0.0,
                good_fraction_served=result.good_fraction_served,
                good_allocation=result.good_allocation,
                payment_bytes_sunk=result.payment_bytes_sunk,
            )
        )
    return rows


def format_adaptive(rows: Sequence[AdaptiveRow]) -> str:
    """Render the engagement sweep as a text table."""
    return format_table(
        headers=[
            "policy",
            "engage lag (s)",
            "engaged (s)",
            "engaged frac",
            "good served frac",
            "good alloc",
            "payment (MB)",
        ],
        rows=[
            (
                row.mode,
                "-" if row.engage_lag_s is None else f"{row.engage_lag_s:.1f}",
                f"{row.time_engaged_s:.1f}",
                f"{row.engaged_fraction:.2f}",
                f"{row.good_fraction_served:.3f}",
                f"{row.good_allocation:.3f}",
                f"{row.payment_bytes_sunk / 1e6:.1f}",
            )
            for row in rows
        ],
        title=(
            "Adaptive engagement: good-client service vs watcher cadence "
            "across one attack pulse"
        ),
    )
