"""The declarative scenario subsystem: specs, registry, and arrival shapes.

``tests/data/registry_pins.json`` holds the sha256 of ``to_json()`` for
specs the registry builds: every factory at its defaults, each factory
with one of its client counts at 0 (and ``uplink-tiers`` at
``bad_fraction`` 0 and 1), and the four perfbench workloads' arguments at
seed 0.  They were captured before the factories built their groups
through one helper; the replay test must reproduce them byte for byte.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.defenses import DefenseSpec
from repro.errors import ExperimentError, ReproError
from repro.faults.spec import kill_heal_pulse
from repro.scenarios import (
    ArrivalSpec,
    ConfigOverrides,
    GroupSpec,
    ScenarioSpec,
    TopologySpec,
    build_scenario,
    scenario_description,
    scenario_names,
)

REGISTRY_PINS = json.loads(
    (Path(__file__).parent / "data" / "registry_pins.json").read_text()
)["cases"]

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
        config_overrides=ConfigOverrides(max_contenders=8),
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
        "config_overrides": {"max_contenders": 8},
    })
    assert spec.config_overrides == ConfigOverrides(max_contenders=8)
    assert spec.groups[0] == GroupSpec(count=1)
    # An override left unset is not written; none at all writes {}.
    assert spec.to_dict()["config_overrides"] == {"max_contenders": 8}
    assert ScenarioSpec(groups=(GroupSpec(count=1),)).to_dict()["config_overrides"] == {}


@pytest.mark.parametrize(
    "key, value",
    [("bogus", 1), ("defense_spec", {"name": "none", "kwargs": {}})],
    ids=["bogus", "defense_spec"],
)
def test_spec_from_dict_rejects_unknown_keys_with_one_line(key, value):
    """An unknown key is a config error naming it and the known fields, not a
    TypeError; the retired ``defense_spec`` key is not read as a second way
    to set the defense."""
    with pytest.raises(ExperimentError, match=f"'{key}'") as excinfo:
        ScenarioSpec.from_dict({"groups": [{"count": 1}], key: value})
    message = str(excinfo.value)
    assert "\n" not in message
    assert "known fields" in message and "shard_policy" in message


def _populated_spec_document():
    """One spec JSON holding every kind of nested object a spec can carry."""
    from repro.clients.base import RetryPolicy
    from repro.core.fleet import HealthProbeSpec
    from repro.core.routing import RouterSpec
    from repro.defenses import normalise_defense
    from repro.faults.spec import FaultEvent, FaultPlan
    from repro.telemetry.spec import TelemetrySpec

    spec = ScenarioSpec(
        topology=TopologySpec(kind="leaf-spine", leaves=2, spines=2),
        groups=(
            GroupSpec(
                count=2,
                arrival=ArrivalSpec(kind="onoff", period_s=4.0, on_s=1.0),
                retry_policy=RetryPolicy.naive(),
            ),
        ),
        defense=DefenseSpec.make("adaptive", inner=normalise_defense("ratelimit>speakup")),
        thinner_shards=2,
        shard_policy=RouterSpec(name="power-of-two"),
        fault_plan=FaultPlan(
            events=(FaultEvent(at_s=1.0, action="degrade", shard=0, factor=0.5),)
        ),
        retry_policy=RetryPolicy.budgeted(),
        health_probe=HealthProbeSpec(),
        telemetry=TelemetrySpec(),
        config_overrides=ConfigOverrides(max_contenders=8),
    )
    return json.loads(spec.to_json())


#: The settings of the first pipeline stage inside the populated document's
#: adaptive defense.
_STAGE = "defense.kwargs.inner.kwargs.stages.0.kwargs"


@pytest.mark.parametrize(
    "path, key, value, needles",
    [
        ("topology", "bogus", 1, ("TopologySpec", "'bogus'")),
        ("groups.0", "bogus", 1, ("GroupSpec", "'bogus'")),
        ("groups.0.arrival", "bogus", 1, ("ArrivalSpec", "'bogus'")),
        ("groups.0.retry_policy", "bogus", 1, ("RetryPolicy", "'bogus'")),
        ("retry_policy", "bogus", 1, ("RetryPolicy", "'bogus'")),
        ("health_probe", "bogus", 1, ("HealthProbeSpec", "'bogus'")),
        ("shard_policy", "bogus", 1, ("RouterSpec", "'bogus'")),
        ("fault_plan", "bogus", 1, ("FaultPlan", "'bogus'")),
        ("fault_plan.events.0", "bogus", 1, ("FaultEvent", "'bogus'")),
        ("", "capacity_rps", "fast", ("ScenarioSpec.capacity_rps", "'fast'")),
        ("groups.0", "count", "ten", ("GroupSpec.count", "'ten'")),
        ("groups.0", "rate_rps", "x", ("GroupSpec.rate_rps: expected float or None", "'x'")),
        ("", "shard_policy", 5, ("ScenarioSpec.shard_policy: expected str or RouterSpec", "5")),
        ("config_overrides", "max_contenders", 0.5,
         ("ConfigOverrides.max_contenders: expected int or None", "0.5")),
        ("config_overrides", "max_contenders", math.nan, ("ConfigOverrides.max_contenders",)),
        ("config_overrides", "max_contenders", True, ("ConfigOverrides.max_contenders",)),
        ("config_overrides", "max_contenders", "3", ("ConfigOverrides.max_contenders",)),
        ("config_overrides", "seed", 5, ("ConfigOverrides", "'seed'")),
        ("", "config_overrides", [["max_contenders", 8]], ("ScenarioSpec.config_overrides",)),
        ("", "config_overrides", "foo", ("ScenarioSpec.config_overrides",)),
        (_STAGE, "bogus", 1, ("unknown parameter 'bogus' for defense 'ratelimit'",)),
        (_STAGE, "allowed_rps", "fast", ("RateLimitDefense.allowed_rps", "'fast'")),
        (_STAGE, "burst", "x", ("RateLimitDefense.burst: expected float or None", "'x'")),
        ("defense.kwargs.inner.kwargs", "stages", "ratelimit",
         ("PipelineDefense.stages", "'ratelimit'")),
    ],
)
def test_a_mistyped_spec_key_fails_with_one_line_at_any_depth(path, key, value, needles):
    """An unknown key in any nested object, or a wrong-typed scalar, is one
    ExperimentError line naming the class and the key, never a TypeError or
    a silently dropped setting.  Defense settings, a pipeline stage's inside
    an adaptive defense included, are read by their defense's fields."""
    document = _populated_spec_document()
    target = document
    for part in filter(None, path.split(".")):
        target = target[int(part)] if isinstance(target, list) else target[part]
    target[key] = value
    with pytest.raises(ExperimentError) as excinfo:
        ScenarioSpec.from_dict(document)
    message = str(excinfo.value)
    assert "\n" not in message
    for needle in needles:
        assert needle in message


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"vectorized": False}, r"unknown ConfigOverrides keys: \['vectorized'\]"),
        ({"bogus": 1}, r"unknown ConfigOverrides keys: \['bogus'\]"),
        ({"seed": 5}, r"unknown ConfigOverrides keys: \['seed'\]"),
        ({"thinner_shards": 2}, r"unknown ConfigOverrides keys: \['thinner_shards'\]"),
    ],
    ids=["vectorized", "bogus", "seed", "thinner_shards"],
)
def test_bad_config_overrides_fail_with_one_clear_error(overrides, message):
    """An override that is not a DeploymentConfig field, or one the spec
    already sets itself, fails to read with one line naming the key and the
    one field an override can set, not a TypeError."""
    with pytest.raises(ExperimentError, match=message) as excinfo:
        ScenarioSpec.from_dict({
            "groups": [{"count": 1}],
            "duration": 1.0,
            "config_overrides": overrides,
        })
    assert "\n" not in str(excinfo.value)
    assert "known fields: max_contenders" in str(excinfo.value)


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
        (dict(config_overrides=ConfigOverrides(max_contenders=0)), "max_contenders"),
        (dict(defense=DefenseSpec.make("ratelimit", burst=-1.0)),
         r"^defense\.burst must be at least 1 and finite, got -1.0$"),
        (dict(defense=DefenseSpec.make("ratelimit", burst=0.5)), r"^defense\.burst must be at least 1"),
        (dict(defense=DefenseSpec.make("pow", puzzle_cost=math.inf)),
         r"^defense\.puzzle_cost must be positive and finite, got inf$"),
        (dict(defense=DefenseSpec.make("profiling", learning_period=-5.0)),
         r"^defense\.learning_period must be non-negative"),
        (dict(defense=DefenseSpec.make("profiling", baseline_profile={"client-000": math.nan})),
         r"^defense\.baseline_profile\['client-000'\] must be non-negative and finite, got nan$"),
        (dict(defense=DefenseSpec.make("captcha", solve_probabilities={"bad": math.nan})),
         r"^defense\.solve_probabilities\['bad'\] must be in \[0, 1\], got nan$"),
        (dict(defense=DefenseSpec.make("none", policy="bogus")), r"^defense\.policy must be one of"),
        (dict(defense=DefenseSpec.make("speakup", variant="bogus")),
         r"^defense\.variant must be one of"),
        (dict(defense=DefenseSpec.make("adaptive", check_interval=math.inf)),
         r"^defense\.check_interval must be positive and finite, got inf$"),
        (dict(defense=DefenseSpec.make("adaptive", inner=DefenseSpec.make("pipeline", stages=(
            DefenseSpec.make("ratelimit", allowed_rps=math.nan), "speakup")))),
         r"^defense\.inner\.stages\.0\.allowed_rps must be positive and finite, got nan$"),
        (dict(defense=DefenseSpec.make("pipeline", stages=("ratelimit", "bogus"))),
         r"^defense\.stages\.1: unknown defense 'bogus'"),
        (dict(defense=DefenseSpec("firewall")), r"^defense: unknown defense 'firewall'"),
    ],
    ids=["quantum-pooled", "quantum-faults", "max-contenders", "burst-negative",
         "burst-below-one", "puzzle-inf", "learning-negative", "profile-nan",
         "probability-nan", "policy", "variant", "interval-inf", "nested-stage-nan",
         "nested-unknown", "unknown-defense"],
)
def test_validate_rejects_every_deployment_setting_build_rejects(changes, message):
    """validate() runs the deployment's own checks, so a spec that passes it
    cannot fail in build() on a deployment setting.  A defense setting's
    range check is the defense's own, and its line names the setting's path
    from the scenario's ``defense`` field."""
    spec = replace(build_scenario("fleet-lan", thinner_shards=2, duration=2.0), **changes)
    with pytest.raises(ExperimentError, match=message):
        spec.validate()
    with pytest.raises(ExperimentError, match=message):
        spec.build()


@pytest.mark.parametrize(
    "path, value, needle",
    [
        ("groups.0.bandwidth_bps", math.nan,
         "groups.0.bandwidth_bps must be positive and finite, got nan"),
        ("groups.0.bandwidth_bps", math.inf, "groups.0.bandwidth_bps"),
        ("topology.thinner_bandwidth_bps", math.nan, "topology.thinner_bandwidth_bps"),
        ("topology.lan_delay_s", math.nan, "topology.lan_delay_s"),
        ("encouragement_delay", math.nan, "encouragement_delay"),
        ("capacity_rps", math.nan, "server_capacity_rps"),
    ],
    ids=["bandwidth-nan", "bandwidth-inf", "thinner-nan", "lan-delay-nan", "encouragement-nan",
         "capacity-nan"],
)
def test_a_non_finite_link_host_or_deployment_value_fails_build_with_one_line(
    path, value, needle
):
    spec = _small_lan_spec().with_value(path, value)
    with pytest.raises(ReproError, match=needle) as error:
        spec.build()
    assert "\n" not in str(error.value)


def test_a_non_finite_bandwidth_fails_build_for_a_client_that_never_sends():
    """The spec refuses the group's bandwidth before anything is built, so a
    client that would never send cannot carry it into a run."""
    spec = _small_lan_spec()
    idle = GroupSpec(count=1, client_class="good", rate_rps=1e-9, bandwidth_bps=math.nan)
    spec = replace(spec, groups=spec.groups + (idle,))
    with pytest.raises(ReproError, match="groups.2.bandwidth_bps"):
        spec.build()


@pytest.mark.parametrize(
    "path, value",
    [
        ("duration", math.nan),
        ("duration", math.inf),
        ("groups.1.bandwidth_bps", math.nan),
        ("groups.0.rate_rps", math.inf),
        ("groups.0.extra_delay_s", math.nan),
        ("topology.bottleneck_delay_s", math.inf),
        ("topology.web_server_bandwidth_bps", math.nan),
    ],
)
def test_a_non_finite_spec_value_fails_validate_and_build_with_one_line(path, value):
    """A NaN or infinite duration, group or topology value read from JSON is
    refused by ``validate()``, the pre-flight of sweeps and campaigns, with
    one line naming the field.  A NaN duration used to run forever."""
    document = _small_lan_spec().to_dict()
    target = document
    *parents, key = path.split(".")
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target[part]
    target[key] = value
    spec = ScenarioSpec.from_dict(document)
    for call in (spec.validate, spec.build):
        with pytest.raises(ExperimentError, match=f"{path} must be .* and finite") as error:
            call()
        assert "\n" not in str(error.value)


def _spec_with_every_sub_spec() -> ScenarioSpec:
    """A small fleet spec with a fault plan, probe, retry policy and telemetry."""
    from repro.clients.base import RetryPolicy
    from repro.core.fleet import HealthProbeSpec
    from repro.telemetry import TelemetrySpec

    spec = build_scenario("fleet-failover", good_clients=4, bad_clients=4, duration=2.0)
    return replace(spec, health_probe=HealthProbeSpec(), retry_policy=RetryPolicy(),
                   telemetry=TelemetrySpec())


@pytest.mark.parametrize(
    "changes",
    [
        {"groups.0.arrival.kind": "diurnal", "groups.0.arrival.period_s": math.nan},
        {"groups.0.arrival.kind": "diurnal", "groups.0.arrival.period_s": math.inf},
        {"groups.0.arrival.kind": "flash", "groups.0.arrival.start_s": math.nan},
        {"groups.0.arrival.kind": "flash", "groups.0.arrival.start_s": math.inf},
        {"groups.0.arrival.kind": "flash", "groups.0.arrival.ramp_s": math.nan},
        {"groups.0.arrival.phase_s": math.inf},
        {"telemetry.bucket_s": math.nan},
        {"telemetry.bucket_s": math.inf},
        {"fault_plan.repin_ttl_s": math.nan},
        {"fault_plan.repin_ttl_s": math.inf},
        {"fault_plan.sample_interval_s": math.nan},
        {"fault_plan.events.0.at_s": math.nan},
        {"health_probe.interval_s": math.nan},
        {"health_probe.holddown_s": math.inf},
        {"retry_policy.base_backoff_s": math.nan},
    ],
    ids=["period-nan", "period-inf", "start-nan", "start-inf", "ramp-nan", "phase-inf",
         "bucket-nan", "bucket-inf", "repin-nan", "repin-inf", "sample-nan", "event-at-nan",
         "probe-interval-nan", "holddown-inf", "backoff-nan"],
)
def test_a_non_finite_sub_spec_value_fails_from_dict_with_one_line(changes):
    """Arrival, telemetry, fault-plan, probe and retry timings read from JSON
    are refused with one line naming the field: NaN and infinity used to run
    silently or fail inside the engine."""
    document = _spec_with_every_sub_spec().to_dict()
    ScenarioSpec.from_dict(document).validate()
    for path, value in changes.items():
        target = document
        *parents, key = path.split(".")
        for part in parents:
            target = target[int(part)] if isinstance(target, list) else target[part]
        target[key] = value
    for call in ("validate", "build"):
        with pytest.raises(ExperimentError, match=f"^{path} must be .*finite") as error:
            getattr(ScenarioSpec.from_dict(document), call)()
        assert "\n" not in str(error.value)


def test_a_fabric_spec_refuses_non_finite_oversubscription_and_cross_traffic():
    spec = build_scenario("fabric-mega", duration=1.0)
    for path, value in (("topology.oversubscription", math.nan),
                        ("topology.cross_traffic_bandwidth_bps", math.inf),
                        ("topology.fabric_delay_s", math.nan)):
        with pytest.raises(ExperimentError, match=path):
            spec.with_value(path, value).validate()


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


def test_registry_specs_match_their_pins():
    assert set(scenario_names()) <= set(REGISTRY_PINS)
    moved = [
        case
        for case, pin in sorted(REGISTRY_PINS.items())
        if hashlib.sha256(
            build_scenario(pin["scenario"], **pin["kwargs"]).to_json().encode("utf-8")
        ).hexdigest()
        != pin["sha256"]
    ]
    assert moved == []


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
