"""Dispatch strategies across datacenter fabrics: does topology change the answer?

The §4.3 fleet experiments all ran on a star-of-stars, where every client
reaches every shard over an uncontended private link — so dispatch policy
only moves *population* balance, never path contention.  On a leaf-spine or
fat-tree fabric with an oversubscribed core and bystander cross-traffic, the
payment flows converging on a shard share fabric links with each other and
with the cross-traffic: an unlucky dispatch decision now costs real
bandwidth.  This experiment runs the same ``fabric-mega`` population on each
requested fabric under each registered dispatch strategy and tabulates
good-client service and per-shard payment-load imbalance, optionally with a
mid-run shard kill/heal pulse composed on top (the chaos-smoke
configuration) to confirm the registry strategies stay failover-clean off
the star.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.routing import ROUTER_STRATEGY_NAMES
from repro.experiments.base import ExperimentScale
from repro.faults.spec import kill_heal_pulse
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner

#: Fabric shapes the comparison covers (``star`` is the legacy star-of-stars).
FABRIC_TOPOLOGIES = ("star", "leaf-spine", "fat-tree")

#: Paper-scale population behind the fleet (the §7.2 LAN mix).
PAPER_CLIENT_COUNT = 50


@dataclass(frozen=True)
class FabricComparisonRow:
    """One (fabric, strategy) cell of the comparison grid."""

    fabric: str
    strategy: str
    #: Fraction of the server's service the good clients captured.
    good_allocation: float
    #: Fraction of good demand actually served.
    good_fraction_served: float
    total_served: int
    #: Max-over-mean of per-shard payment bytes sunk (1.0 = perfectly even).
    shard_imbalance: float


def _imbalance(result) -> float:
    loads = [shard.client_bytes_paid for shard in result.shards]
    if not loads:
        return 0.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 0.0
    return max(loads) / mean


def fabric_strategy_comparison(
    scale: ExperimentScale,
    fabrics: Sequence[str] = FABRIC_TOPOLOGIES,
    strategies: Sequence[str] = ROUTER_STRATEGY_NAMES,
    shards: int = 8,
    oversubscription: float = 4.0,
    cross_traffic_pairs: int = 4,
    probe: str = "pins",
    kill_shard: Optional[int] = None,
    kill_at_s: Optional[float] = None,
    heal_at_s: Optional[float] = None,
    paper_capacity: float = 100.0,
    runner: Optional[SweepRunner] = None,
) -> List[FabricComparisonRow]:
    """Run every requested strategy on every requested fabric.

    All cells share one population, capacity, and seed (from ``scale``), so
    differences are attributable to the fabric shape and the dispatch
    strategy alone.  Within a fabric the strategies run as one sweep over
    ``shard_policy.name``.  Passing ``kill_shard`` composes a
    :func:`~repro.faults.spec.kill_heal_pulse` onto every cell (defaults:
    kill at 25% of the run, heal at 60%).
    """
    runner = runner or SweepRunner()
    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    shards = min(shards, max(1, total_clients))
    capacity = scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients)

    fault_plan = None
    if kill_shard is not None:
        kill_at = kill_at_s if kill_at_s is not None else scale.duration * 0.25
        heal_at = heal_at_s if heal_at_s is not None else scale.duration * 0.6
        fault_plan = kill_heal_pulse(kill_shard, kill_at, heal_at)

    rows: List[FabricComparisonRow] = []
    for fabric in fabrics:
        base = build_scenario(
            "fabric-mega",
            good_clients=good,
            bad_clients=bad,
            thinner_shards=shards,
            fabric=fabric,
            oversubscription=oversubscription,
            cross_traffic_pairs=cross_traffic_pairs if fabric != "star" else 0,
            probe=probe,
            capacity_rps=capacity,
            duration=scale.duration,
            seed=scale.seed,
        )
        if fault_plan is not None:
            base = replace(base, fault_plan=fault_plan)
        sweep = Sweep(base, axes={"shard_policy.name": tuple(strategies)})
        for record in runner.run(sweep):
            result = record.result
            rows.append(
                FabricComparisonRow(
                    fabric=fabric,
                    strategy=record.overrides["shard_policy.name"],
                    good_allocation=result.good_allocation,
                    good_fraction_served=result.good_fraction_served,
                    total_served=result.total_served,
                    shard_imbalance=_imbalance(result),
                )
            )
    return rows


def format_fabric(rows: Sequence[FabricComparisonRow]) -> str:
    """Render the comparison grid as a text table."""
    return format_table(
        headers=[
            "fabric",
            "strategy",
            "good alloc",
            "good served",
            "served",
            "imbalance",
        ],
        rows=[
            (
                row.fabric,
                row.strategy,
                f"{row.good_allocation:.3f}",
                f"{row.good_fraction_served:.3f}",
                row.total_served,
                f"{row.shard_imbalance:.2f}",
            )
            for row in rows
        ],
        title="Dispatch strategies across fabric topologies (good-client service)",
    )
