"""§4.3 empirically: provisioning a sharded thinner fleet.

The paper argues the thinner itself must be provisioned against the attack
(condition C1) and gives the closed form in :mod:`repro.analysis.provisioning`:
during a full-bore attack the front-end tier must sink roughly ``G + B``
bits/s of payment traffic, however many boxes that tier is made of.  The
fleet subsystem lets us check the scale-out half of that story by
*measurement* instead of arithmetic: run the same over-subscribed workload
in front of 1, 2, 4, ... thinner shards and record how much payment traffic
each shard actually absorbed.

Two quantities are compared per shard count ``N``:

* **closed form** — ``payment_traffic_estimate(B, G) / N``, the per-shard
  sink rate an evenly split fleet must be provisioned for;
* **observed** — each shard's clients' delivered payment bytes over the
  run, as bits/s; the mean over shards is the empirical per-shard load and
  the max shows how far the dispatch policy strays from an even split.

The observed mean tracks the closed form's ``1/N`` curve from below (clients
also spend time in request RTTs, POST quiescent gaps, and TCP slow start, so
they deliver a high fraction — not 100% — of their bandwidth), which is
exactly the shape Figure "provisioning" of §4.3 sketches: per-front-end
capacity falls inversely with fleet size while the aggregate stays ``G + B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.provisioning import payment_traffic_estimate
from repro.experiments.base import ExperimentScale
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRecord, SweepRunner

#: Fleet sizes the provisioning sweep covers.
FLEET_SHARD_COUNTS = (1, 2, 4, 8)

#: Paper-scale population behind the fleet (the §7.2 LAN mix).
PAPER_CLIENT_COUNT = 50


@dataclass(frozen=True)
class FleetProvisioningRow:
    """One fleet size of the empirical provisioning curve."""

    shards: int
    good_bandwidth_bps: float
    bad_bandwidth_bps: float
    #: ``payment_traffic_estimate(B, G)``: what the whole tier must sink.
    predicted_fleet_bps: float
    #: The closed form's per-shard share, ``predicted / shards``.
    predicted_shard_bps: float
    #: Payment bits/s actually delivered to the whole fleet.
    observed_fleet_bps: float
    #: Mean and max over shards of the observed per-shard sink rate.
    observed_shard_mean_bps: float
    observed_shard_max_bps: float

    @property
    def fleet_utilisation(self) -> float:
        """Observed aggregate sink rate over the closed-form estimate."""
        if self.predicted_fleet_bps == 0:
            return 0.0
        return self.observed_fleet_bps / self.predicted_fleet_bps

    @property
    def shard_imbalance(self) -> float:
        """Max-over-mean of the per-shard load (1.0 = perfectly even)."""
        if self.observed_shard_mean_bps == 0:
            return 0.0
        return self.observed_shard_max_bps / self.observed_shard_mean_bps


def fleet_provisioning_curve(
    scale: ExperimentScale,
    shard_counts: Sequence[int] = FLEET_SHARD_COUNTS,
    shard_policy: str = "least-loaded",
    admission_mode: str = "partitioned",
    paper_capacity: float = 100.0,
    runner: Optional[SweepRunner] = None,
) -> List[FleetProvisioningRow]:
    """Measure per-shard payment load across fleet sizes and compare to §4.3.

    The default dispatch policy is ``least-loaded`` so the curve isolates
    the provisioning question (how much must *one* front-end sink when the
    tier splits the attack N ways) from hash-imbalance noise; rerun with
    ``shard_policy="hash"`` to see the imbalance column grow instead.
    """
    if not shard_counts:
        return []
    runner = runner or SweepRunner()
    sweep = _provisioning_sweep(
        scale, shard_counts, shard_policy, admission_mode, paper_capacity
    )
    return [_row_from_record(record) for record in runner.run(sweep)]


def _provisioning_sweep(
    scale: ExperimentScale,
    shard_counts: Sequence[int],
    shard_policy: str,
    admission_mode: str,
    paper_capacity: float,
) -> Sweep:
    """The provisioning grid: the fleet-lan mix swept over fleet sizes."""
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    capacity = scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients)

    base = build_scenario(
        "fleet-lan",
        good_clients=good,
        bad_clients=bad,
        thinner_shards=shard_counts[0],
        shard_policy=shard_policy,
        admission_mode=admission_mode,
        capacity_rps=capacity,
        duration=scale.duration,
        seed=scale.seed,
    )
    return Sweep(base, axes={"thinner_shards": tuple(shard_counts)})


def _row_from_record(record: SweepRecord) -> FleetProvisioningRow:
    """One provisioning-curve row from one executed sweep point."""
    result = record.result
    shards = int(record.overrides["thinner_shards"])
    predicted = payment_traffic_estimate(
        result.bad_bandwidth_bps, result.good_bandwidth_bps
    )
    per_shard_bps = [
        shard.client_bytes_paid * 8.0 / result.duration for shard in result.shards
    ]
    observed_total = sum(per_shard_bps)
    return FleetProvisioningRow(
        shards=shards,
        good_bandwidth_bps=result.good_bandwidth_bps,
        bad_bandwidth_bps=result.bad_bandwidth_bps,
        predicted_fleet_bps=predicted,
        predicted_shard_bps=predicted / shards,
        observed_fleet_bps=observed_total,
        observed_shard_mean_bps=observed_total / shards,
        observed_shard_max_bps=max(per_shard_bps) if per_shard_bps else 0.0,
    )


def format_fleet(rows: Sequence[FleetProvisioningRow]) -> str:
    """Render the provisioning curve as a text table (rates in Mbit/s)."""
    mbit = 1e6

    return format_table(
        headers=[
            "shards",
            "predicted/shard",
            "observed mean",
            "observed max",
            "fleet util",
            "imbalance",
        ],
        rows=[
            (
                row.shards,
                f"{row.predicted_shard_bps / mbit:.2f}",
                f"{row.observed_shard_mean_bps / mbit:.2f}",
                f"{row.observed_shard_max_bps / mbit:.2f}",
                f"{row.fleet_utilisation:.2f}",
                f"{row.shard_imbalance:.2f}",
            )
            for row in rows
        ],
        title=(
            "Section 4.3: per-shard payment sink rate (Mbit/s) vs the closed "
            "form (G+B)/N"
        ),
    )
