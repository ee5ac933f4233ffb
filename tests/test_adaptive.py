"""Tests for the adaptive (attack-triggered engagement) defense."""

import pytest

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.defenses import AdaptiveDefense, AdaptiveThinner, DefenseSpec
from repro.errors import DefenseError
from repro.experiments.adaptive import adaptive_engagement, format_adaptive
from repro.experiments.base import ExperimentScale
from repro.metrics.collector import EngagementMetrics, RunResult
from repro.scenarios.registry import build_scenario
from repro.simnet.topology import build_lan, uniform_bandwidths

#: A small pulse setup every test shares: capacity 20, pre-pulse good demand
#: 8 req/s (utilisation 0.4, below the 0.6 disengage threshold), one attack
#: pulse from t=10 to t=18, modest bad windows so the backlog drains fast.
PULSE = dict(
    good_clients=4,
    bad_clients=4,
    capacity_rps=20.0,
    pulse_start_s=10.0,
    pulse_length_s=8.0,
    bad_window=5,
    duration=48.0,
    check_interval_s=1.0,
)


def pulse_spec(**overrides):
    return build_scenario("adaptive-pulse", **{**PULSE, **overrides})


def test_adaptive_engages_during_pulse_and_disengages_around_it():
    result = pulse_spec().run()
    engagement = result.engagement
    assert engagement is not None

    pulse_start = PULSE["pulse_start_s"]
    pulse_end = pulse_start + PULSE["pulse_length_s"]
    # One engage and one disengage, in order, inside the run: disengaged
    # before the pulse, engaged during it, disengaged after the backlog
    # drains, well before the run ends.
    [(engaged_at, engaged), (disengaged_at, disengaged)] = engagement.transitions
    assert (engaged, disengaged) == (True, False)
    assert pulse_start - 1.0 < engaged_at <= pulse_start + 3.0
    assert engagement.first_engaged_at == engaged_at
    assert pulse_end < disengaged_at <= PULSE["duration"] - 1.0
    assert 0.0 < engagement.time_engaged < PULSE["duration"]


def test_adaptive_never_engages_without_an_attack():
    result = pulse_spec(bad_clients=0).run()
    engagement = result.engagement
    assert engagement.transitions == []
    assert engagement.time_engaged == 0.0
    # Peacetime means nobody pays a byte.
    assert result.payment_bytes_sunk == 0.0
    assert result.good.bytes_paid == 0.0


def test_adaptive_tracks_always_on_service_and_beats_undefended():
    adaptive = pulse_spec().run()
    always_on = pulse_spec().with_value("defense.name", "speakup").run()
    off = pulse_spec().with_value("defense.name", "none").run()
    # Engagement restores (most of) the good clients' allocation during the
    # pulse; the undefended baseline gives the pulse to the attackers.
    assert adaptive.good_allocation >= off.good_allocation
    assert adaptive.good_fraction_served >= off.good_fraction_served - 0.05
    assert adaptive.good_fraction_served >= always_on.good_fraction_served - 0.1
    # But the adaptive run charges payment only around the pulse.
    assert 0.0 < adaptive.payment_bytes_sunk <= always_on.payment_bytes_sunk


def test_adaptive_conserves_requests_across_switches():
    deployment = pulse_spec().build()
    deployment.run(PULSE["duration"])
    thinner = deployment.thinner
    assert isinstance(thinner, AdaptiveThinner)
    assert deployment.network.counters.engagement_switches >= 2
    stats = thinner.stats
    # Every received request is admitted, dropped, or still contending.
    assert stats.requests_received == (
        stats.requests_admitted + stats.requests_dropped + len(thinner.contenders())
    )
    assert stats.requests_served > 0


def test_adaptive_validation():
    with pytest.raises(DefenseError, match="disengage_threshold"):
        AdaptiveDefense(engage_threshold=0.5, disengage_threshold=0.8)
    with pytest.raises(DefenseError, match="check_interval"):
        AdaptiveDefense(check_interval=0.0)
    with pytest.raises(DefenseError, match="nest"):
        AdaptiveDefense(inner="adaptive")


def test_adaptive_metrics_round_trip():
    result = pulse_spec().run()
    rebuilt = RunResult.from_dict(result.to_dict())
    assert rebuilt.engagement is not None
    assert rebuilt.engagement.transitions == result.engagement.transitions
    assert rebuilt.engagement.time_engaged == pytest.approx(
        result.engagement.time_engaged
    )
    assert rebuilt.defense == "adaptive(speakup)"


def test_engagement_metrics_computations():
    metrics = EngagementMetrics(
        duration=20.0, transitions=[[4.0, True], [9.0, False], [15.0, True]]
    )
    assert metrics.first_engaged_at == 4.0
    assert metrics.time_engaged == pytest.approx(10.0)
    assert metrics.engaged_fraction == pytest.approx(0.5)


def test_adaptive_fleet_runs_per_shard_watchers():
    spec = build_scenario(
        "adaptive-pulse", good_clients=4, bad_clients=4, capacity_rps=20.0,
        pulse_start_s=6.0, pulse_length_s=6.0, bad_window=5,
        duration=30.0,
    )
    fleet = spec.with_values(
        {"thinner_shards": 2, "shard_policy": "least-loaded"}
    ).run()
    assert len(fleet.shards) == 2
    assert fleet.engagement is None  # the convenience view is single-shard only
    engagements = [shard.engagement for shard in fleet.shards]
    assert all(engagement is not None for engagement in engagements)
    # Both shards see the pulse and engage independently.
    assert all(engagement.first_engaged_at is not None for engagement in engagements)


def test_adaptive_engagement_experiment_rows():
    rows = adaptive_engagement(
        ExperimentScale(duration=16.0, client_scale=0.12, seed=3),
        check_intervals=(0.5, 2.0),
    )
    assert [row.mode for row in rows] == [
        "adaptive@0.5s", "adaptive@2s", "always-on", "off",
    ]
    by_mode = {row.mode: row for row in rows}
    assert by_mode["adaptive@0.5s"].engage_lag_s is not None
    assert by_mode["adaptive@0.5s"].engage_lag_s <= by_mode["adaptive@2s"].engage_lag_s
    assert by_mode["always-on"].engaged_fraction == 1.0
    assert by_mode["off"].payment_bytes_sunk == 0.0
    table = format_adaptive(rows)
    assert "always-on" in table and "engage lag" in table


def test_adaptive_with_pipeline_inner_surfaces_stage_metrics():
    result = pulse_spec(
        inner_defense="ratelimit>speakup", duration=24.0, pulse_start_s=6.0,
        pulse_length_s=6.0,
    ).run()
    # The engagement happened and the engaged side's screening stage kept
    # its per-stage attribution visible through the adaptive proxy.
    assert result.engagement.first_engaged_at is not None
    assert [stage.name for stage in result.stages] == ["ratelimit"]
    assert result.stages[0].screened > 0
    assert result.defense == "adaptive(ratelimit>speakup)"


def test_adaptive_thinner_direct_wiring():
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(4, 2 * MBIT))
    deployment = Deployment(
        topology,
        thinner_host,
        DeploymentConfig(
            server_capacity_rps=6.0,
            defense=DefenseSpec.make(
                "adaptive", engage_threshold=0.8, disengage_threshold=0.4,
                check_interval=0.5,
            ),
        ),
    )
    for host in hosts[:2]:
        GoodClient(deployment, host)
    for host in hosts[2:]:
        BadClient(deployment, host, rate_rps=40.0, window=10)
    deployment.run(12.0)
    thinner = deployment.thinner
    # The constant attack keeps utilisation pinned: engaged once, still on.
    assert thinner.engaged
    assert [action for _t, action, _s in deployment.timeline] == ["engage"]
    # The merged stats and the shared book read coherently through the proxy.
    assert thinner.stats.requests_received > 0
    assert len(thinner.prices) > 0
