"""Experiment harness: one module per table/figure of the paper's §7.

Every experiment accepts an :class:`~repro.experiments.base.ExperimentScale`
so the same code serves three audiences: unit/integration tests (seconds of
simulated time, a handful of clients), the benchmark harness (the default
scale, which reproduces the paper's shapes in minutes), and full paper-scale
runs (``ExperimentScale.paper()`` — 50 clients, 600 simulated seconds).

Each figure's sweep is expressed as a :class:`~repro.scenarios.spec.ScenarioSpec`
grid executed by a :class:`~repro.scenarios.runner.SweepRunner`; pass
``runner=SweepRunner(jobs=N)`` to any figure function to fan its grid out
across cores.
"""

from repro.experiments.base import ExperimentScale
from repro.experiments.allocation import (
    Figure2Row,
    Figure3Row,
    figure2_allocation,
    figure3_provisioning,
    format_figure2,
    format_figure3,
)
from repro.experiments.cost import CostRow, figure4_5_costs, format_costs
from repro.experiments.adversary import (
    AdvantageResult,
    WindowSweepRow,
    empirical_adversarial_advantage,
    window_sweep,
)
from repro.experiments.heterogeneous import (
    CategoryRow,
    figure6_bandwidth_heterogeneity,
    figure7_rtt_heterogeneity,
    format_categories,
)
from repro.experiments.bottleneck import BottleneckRow, figure8_shared_bottleneck, format_bottleneck
from repro.experiments.cross_traffic import (
    CrossTrafficRow,
    figure9_cross_traffic,
    format_cross_traffic,
)
from repro.experiments.capacity import SinkRateResult, thinner_sink_capacity
from repro.experiments.fleet import (
    FleetProvisioningRow,
    fleet_provisioning_curve,
    format_fleet,
)

__all__ = [
    "FleetProvisioningRow",
    "fleet_provisioning_curve",
    "format_fleet",
    "ExperimentScale",
    "Figure2Row",
    "Figure3Row",
    "figure2_allocation",
    "figure3_provisioning",
    "format_figure2",
    "format_figure3",
    "CostRow",
    "figure4_5_costs",
    "format_costs",
    "AdvantageResult",
    "WindowSweepRow",
    "empirical_adversarial_advantage",
    "window_sweep",
    "CategoryRow",
    "figure6_bandwidth_heterogeneity",
    "figure7_rtt_heterogeneity",
    "format_categories",
    "BottleneckRow",
    "figure8_shared_bottleneck",
    "format_bottleneck",
    "CrossTrafficRow",
    "figure9_cross_traffic",
    "format_cross_traffic",
    "SinkRateResult",
    "thinner_sink_capacity",
]
