"""The declarative scenario subsystem: specs, registry, and arrival shapes."""

from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import LanScenario, run_lan_scenario
from repro.faults.spec import kill_heal_pulse
from repro.scenarios import (
    ArrivalSpec,
    GroupSpec,
    ScenarioSpec,
    TopologySpec,
    build_scenario,
    freeze_overrides,
    scenario_description,
    scenario_names,
)

#: Small-scale factory arguments so every registry scenario runs in a test.
SMALL_SCENARIO_KWARGS = {
    "lan-baseline": dict(good_clients=2, bad_clients=2, capacity_rps=10.0, duration=6.0),
    "bandwidth-tiers": dict(clients_per_category=1, capacity_rps=5.0, duration=6.0),
    "rtt-tiers": dict(clients_per_category=1, capacity_rps=5.0, duration=6.0),
    "shared-bottleneck": dict(
        good_behind=2, bad_behind=2, direct_good=1, direct_bad=1,
        capacity_rps=10.0, duration=6.0,
    ),
    "cross-traffic": dict(speakup_clients=4, duration=6.0),
    "flash-crowd": dict(good_clients=2, bad_clients=2, capacity_rps=10.0, duration=9.0),
    "pulsed-attack": dict(
        good_clients=2, bad_clients=2, capacity_rps=10.0, duration=9.0,
        pulse_period_s=3.0, pulse_on_s=1.5,
    ),
    "diurnal-demand": dict(good_clients=2, bad_clients=2, capacity_rps=10.0, duration=9.0),
    "adaptive-pulse": dict(good_clients=2, bad_clients=2, capacity_rps=10.0,
                           bad_window=4, duration=12.0),
    "layered-lan": dict(good_clients=2, bad_clients=2, capacity_rps=10.0,
                        duration=6.0),
    "uplink-tiers": dict(clients_per_tier=2, capacity_rps=10.0, duration=6.0),
    "fleet-lan": dict(good_clients=3, bad_clients=3, thinner_shards=2,
                      capacity_rps=10.0, duration=6.0),
    "fleet-failover": dict(good_clients=3, bad_clients=3, thinner_shards=2,
                           kill_shard=1, kill_at_s=2.0, heal_at_s=4.0,
                           repin_ttl_s=0.5, capacity_rps=10.0, duration=6.0),
    "fleet-mega": dict(good_clients=4, bad_clients=2, thinner_shards=2,
                       bad_rate=8.0, bad_window=3, capacity_rps=10.0,
                       duration=6.0),
    "stress-mega": dict(good_clients=4, bad_clients=2, bad_window=2,
                        capacity_rps=10.0, duration=6.0),
    "thinner-mega": dict(good_clients=3, flash_clients=2, bad_clients=2,
                         bad_rate=8.0, bad_window=3, capacity_rps=10.0,
                         duration=6.0),
    "soa-mega": dict(good_clients=3, bad_clients=3, good_rate=2.0,
                     bad_rate=8.0, bad_window=2, capacity_rps=10.0,
                     duration=6.0),
    "rollup-mega": dict(good_clients=3, bad_clients=3, good_rate=2.0,
                        bad_rate=8.0, bad_window=2, capacity_rps=10.0,
                        reservoir=64, bucket_s=0.5, duration=6.0),
    "fleet-brownout": dict(good_clients=3, bad_clients=3, thinner_shards=2,
                           fault="stall", fault_shard=1, start_at_s=2.0,
                           end_at_s=4.0, retry="budgeted", health_probe=True,
                           capacity_rps=10.0, duration=6.0),
    "fabric-mega": dict(good_clients=4, bad_clients=2, thinner_shards=2,
                        fabric="leaf-spine", leaves=2, spines=2,
                        cross_traffic_pairs=1, bad_rate=8.0, bad_window=3,
                        capacity_rps=10.0, duration=6.0),
}


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------


def _small_lan_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="test-lan",
        groups=(
            GroupSpec(count=2, client_class="good"),
            GroupSpec(count=2, client_class="bad"),
        ),
        capacity_rps=10.0,
        duration=6.0,
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_spec_json_round_trip():
    spec = ScenarioSpec(
        name="round-trip",
        topology=TopologySpec(kind="bottleneck", bottleneck_bandwidth_bps=8e6),
        groups=(
            GroupSpec(count=3, client_class="good", behind_bottleneck=True,
                      category="behind"),
            GroupSpec(count=2, client_class="bad", window=7,
                      arrival=ArrivalSpec(kind="onoff", period_s=4.0, on_s=1.0)),
        ),
        capacity_rps=25.0,
        defense="retry",
        duration=30.0,
        seed=11,
        config_overrides=(("model_slow_start", False),),
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_spec_round_trips_retry_policy_and_health_probe():
    from repro.clients.base import RetryPolicy
    from repro.core.fleet import HealthProbeSpec

    spec = _small_lan_spec(
        retry_policy=RetryPolicy.budgeted(),
        groups=(
            GroupSpec(count=2, client_class="good",
                      retry_policy=RetryPolicy.naive(max_attempts=3)),
            GroupSpec(count=2, client_class="bad"),
        ),
    )
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.groups[0].retry_policy == RetryPolicy.naive(max_attempts=3)
    # A group without its own policy serialises without the key at all, so
    # pre-retry spec dicts and new ones stay byte-compatible.
    payload = spec.to_dict()
    assert "retry_policy" in payload["groups"][0]
    assert "retry_policy" not in payload["groups"][1]

    fleet = _small_lan_spec(
        topology=TopologySpec(kind="lan"),
        health_probe=HealthProbeSpec(eject_fraction=0.25),
        thinner_shards=2,
    )
    assert ScenarioSpec.from_json(fleet.to_json()) == fleet


def test_health_probe_needs_a_real_fleet():
    from repro.core.fleet import HealthProbeSpec

    spec = _small_lan_spec(health_probe=HealthProbeSpec())  # one shard
    with pytest.raises(ExperimentError, match="thinner_shards"):
        spec.validate()
    with pytest.raises(ExperimentError):
        _small_lan_spec(
            health_probe=HealthProbeSpec(alpha=2.0), thinner_shards=2
        ).validate()


def test_retry_policy_fields_are_sweepable():
    from repro.clients.base import RetryPolicy

    spec = _small_lan_spec(retry_policy=RetryPolicy.budgeted())
    swept = spec.with_value("retry_policy.budget", 5.0)
    assert swept.retry_policy.budget == 5.0
    assert spec.retry_policy.budget != 5.0  # original untouched


def test_spec_from_dict_accepts_mapping_overrides():
    spec = ScenarioSpec.from_dict({
        "groups": [{"count": 1}],
        "config_overrides": {"model_slow_start": False},
    })
    assert spec.config_overrides == (("model_slow_start", False),)
    assert spec.groups[0] == GroupSpec(count=1)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"vectorized": False}, "unknown config_overrides key 'vectorized'"),
        ({"bogus": 1}, "unknown config_overrides key 'bogus'"),
        ({"seed": 5}, "config_overrides key 'seed' is set by the scenario itself"),
        ({"thinner_shards": 2}, "'thinner_shards' is set by the scenario itself"),
    ],
    ids=["vectorized", "bogus", "seed", "thinner_shards"],
)
def test_bad_config_overrides_fail_with_one_clear_error(overrides, message):
    """An override that is not a DeploymentConfig field, or one the spec
    already sets itself, is a config error naming the key, not a TypeError."""
    spec = ScenarioSpec.from_dict({
        "groups": [{"count": 1}],
        "duration": 1.0,
        "config_overrides": overrides,
    })
    with pytest.raises(ExperimentError, match=message):
        spec.build()


def test_spec_validation_rejects_nonsense():
    with pytest.raises(ExperimentError):
        _small_lan_spec(capacity_rps=0.0).validate()
    with pytest.raises(ExperimentError):
        _small_lan_spec(duration=-1.0).validate()
    with pytest.raises(ExperimentError):
        _small_lan_spec(defense="firewall").validate()
    with pytest.raises(ExperimentError):
        _small_lan_spec(groups=()).validate()  # no clients on a LAN
    with pytest.raises(ExperimentError):
        # behind_bottleneck needs a bottleneck topology
        _small_lan_spec(
            groups=(GroupSpec(count=1, behind_bottleneck=True),)
        ).validate()
    with pytest.raises(ExperimentError):
        TopologySpec(kind="ring").validate()
    with pytest.raises(ExperimentError):
        TopologySpec(kind="bottleneck").validate()  # missing bottleneck bandwidth
    with pytest.raises(ExperimentError):
        ArrivalSpec(kind="bursty").validate()
    with pytest.raises(ExperimentError):
        ArrivalSpec(kind="onoff", period_s=0.0, on_s=1.0).validate()


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(defense="quantum", admission_mode="pooled"), "partitioned"),
        (
            dict(
                defense="quantum",
                fault_plan=kill_heal_pulse(1, kill_at_s=1.0, heal_at_s=2.0),
            ),
            "fault injection",
        ),
        (dict(config_overrides=freeze_overrides({"post_bytes": 0.0})), "post_bytes"),
        (dict(config_overrides=freeze_overrides({"request_bytes": -1.0})), "request_bytes"),
    ],
    ids=["quantum-pooled", "quantum-faults", "post-bytes", "request-bytes"],
)
def test_validate_rejects_every_deployment_setting_build_rejects(changes, message):
    """validate() runs the deployment's own checks, so a spec that passes it
    cannot fail in build() on a deployment setting."""
    spec = replace(build_scenario("fleet-lan", thinner_shards=2, duration=2.0), **changes)
    with pytest.raises(ExperimentError, match=message):
        spec.validate()
    with pytest.raises(ExperimentError, match=message):
        spec.build()


def test_with_value_replaces_nested_fields():
    spec = _small_lan_spec()
    assert spec.with_value("capacity_rps", 40.0).capacity_rps == 40.0
    assert spec.with_value("groups.1.window", 9).groups[1].window == 9
    assert spec.with_value("topology.lan_delay_s", 0.002).topology.lan_delay_s == 0.002
    # The original is untouched (specs are frozen values).
    assert spec.groups[1].window is None
    with pytest.raises(ExperimentError):
        spec.with_value("groups.9.window", 1)
    with pytest.raises(ExperimentError):
        spec.with_value("groups.x.window", 1)
    with pytest.raises(ExperimentError):
        spec.with_value("no_such_field", 1)


def test_spec_run_matches_lan_scenario_facade():
    lan = LanScenario(good_clients=2, bad_clients=2, capacity_rps=10.0,
                      duration=6.0, seed=5)
    via_facade = run_lan_scenario(lan)
    via_spec = lan.to_spec().run()
    assert via_facade.to_dict() == via_spec.to_dict()


def test_build_produces_expected_population():
    deployment = _small_lan_spec().build()
    assert len(deployment.good_clients) == 2
    assert len(deployment.bad_clients) == 2


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_covers_every_scenario_in_small_kwargs():
    assert set(scenario_names()) == set(SMALL_SCENARIO_KWARGS)


@pytest.mark.parametrize("name", sorted(SMALL_SCENARIO_KWARGS))
def test_registry_scenario_builds_and_runs(name):
    spec = build_scenario(name, **SMALL_SCENARIO_KWARGS[name])
    assert spec.name == name
    assert scenario_description(name)
    # JSON round trip holds for every registered scenario.
    from repro.scenarios import ScenarioSpec as Spec
    assert Spec.from_json(spec.to_json()) == spec
    result = spec.run()
    assert result.duration == spec.duration
    assert result.total_served >= 0


def test_registry_rejects_unknown_names_and_arguments():
    with pytest.raises(ExperimentError):
        build_scenario("no-such-scenario")
    with pytest.raises(ExperimentError):
        build_scenario("lan-baseline", not_an_argument=1)


# ---------------------------------------------------------------------------
# Arrival shapes
# ---------------------------------------------------------------------------


def test_arrival_modulator_shapes():
    onoff = ArrivalSpec(kind="onoff", period_s=10.0, on_s=4.0).modulator()
    assert onoff(0.0) == 1.0 and onoff(3.9) == 1.0
    assert onoff(5.0) == 0.0 and onoff(13.0) == 1.0

    flash = ArrivalSpec(kind="flash", start_s=10.0, ramp_s=4.0, floor=0.1).modulator()
    assert flash(0.0) == pytest.approx(0.1)
    assert flash(12.0) == pytest.approx(0.55)
    assert flash(20.0) == 1.0

    diurnal = ArrivalSpec(kind="diurnal", period_s=20.0, floor=0.2).modulator()
    assert diurnal(0.0) == pytest.approx(0.2)      # trough
    assert diurnal(10.0) == pytest.approx(1.0)     # peak mid-period
    assert diurnal(20.0) == pytest.approx(0.2)     # next trough

    assert ArrivalSpec().modulator() is None


def test_pulsed_attackers_issue_less_than_steady_ones():
    steady = build_scenario("lan-baseline", good_clients=2, bad_clients=2,
                            capacity_rps=10.0, duration=12.0).run()
    pulsed = build_scenario("pulsed-attack", good_clients=2, bad_clients=2,
                            capacity_rps=10.0, duration=12.0,
                            pulse_period_s=4.0, pulse_on_s=2.0).run()
    # A 50% duty cycle roughly halves the attack's issued requests.
    assert pulsed.bad.issued < 0.75 * steady.bad.issued
    assert pulsed.good.issued == steady.good.issued


def test_flash_crowd_good_demand_is_back_loaded():
    flash = build_scenario("flash-crowd", good_clients=3, bad_clients=2,
                           capacity_rps=10.0, duration=12.0,
                           flash_start_s=8.0, flash_ramp_s=1.0,
                           baseline_fraction=0.0).run()
    steady = build_scenario("lan-baseline", good_clients=3, bad_clients=2,
                            capacity_rps=10.0, duration=12.0).run()
    # Before the flash no good requests exist, so issuance is well below steady.
    assert 0 < flash.good.issued < 0.7 * steady.good.issued


def test_freeze_overrides_rejects_malformed_input():
    from repro.scenarios import freeze_overrides

    assert freeze_overrides(None) == ()
    assert freeze_overrides({"b": 2, "a": 1}) == (("a", 1), ("b", 2))
    assert freeze_overrides([("a", 1)]) == (("a", 1),)
    for bad in ("foo", 7, ["ab"], [("a", 1, 2)], [3]):
        with pytest.raises(ExperimentError):
            freeze_overrides(bad)
