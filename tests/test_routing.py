"""The dispatch-strategy registry: legacy equivalence, pins, and properties.

Three layers of protection around ``repro.core.routing``:

* **legacy equivalence** — the registry versions of ``hash`` /
  ``least-loaded`` / ``random`` must be *byte-identical* to the policies the
  old hardcoded ``ShardRouter`` shipped: unit-level sequence equality on the
  router itself, plus full-run sha256 fingerprints against
  ``tests/data/failover_pins.json`` — the pins captured on main before the
  fault layer landed, which a ``RouterSpec``-configured run must still hit.
* **pinned strategies** — every registered strategy's full-run fingerprint
  on a small ``fabric-mega`` leaf-spine case is pinned in
  ``tests/data/routing_pins.json``, so a strategy (or ECMP, or fabric
  sizing) change cannot land silently.
* **degradation + dominance properties** — ``power-of-two`` with no probe
  signal performs one uniform draw, so its runs are byte-identical to
  ``random``; with the ``pins`` probe on a capacity-straddled fabric it
  beats ``random`` on good-client service (the balance actually pays).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.routing import (
    PROBE_SIGNALS,
    ROUTER_STRATEGIES,
    ROUTER_STRATEGY_NAMES,
    Probe,
    RouterSpec,
    ShardRouter,
    as_router_spec,
    strategy_needs_rng,
)
from repro.errors import ExperimentError, ThinnerError
from repro.rng import StreamFactory
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner
from repro.scenarios.spec import ScenarioSpec

FAILOVER_PINS = json.loads(
    (Path(__file__).parent / "data" / "failover_pins.json").read_text()
)
ROUTING_PINS = json.loads(
    (Path(__file__).parent / "data" / "routing_pins.json").read_text()
)

LEGACY_POLICIES = ("hash", "least-loaded", "random")


# ---------------------------------------------------------------------------
# RouterSpec
# ---------------------------------------------------------------------------


def test_router_spec_round_trips_through_json():
    spec = RouterSpec(
        name="weighted-sink", probe="sink-rate", probe_window_s=0.25, spill_factor=2.0
    )
    assert RouterSpec.from_dict(spec.to_dict()) == spec
    assert RouterSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_router_spec_validation_errors():
    with pytest.raises(ThinnerError, match="unknown router strategy"):
        RouterSpec(name="round-robin").validate()
    with pytest.raises(ThinnerError, match="unknown router probe"):
        RouterSpec(probe="latency").validate()
    with pytest.raises(ThinnerError, match="probe_window_s"):
        RouterSpec(probe_window_s=0.0).validate()
    with pytest.raises(ThinnerError, match="spill_factor"):
        RouterSpec(spill_factor=0.5).validate()
    for name in ROUTER_STRATEGY_NAMES:
        for probe in PROBE_SIGNALS:
            RouterSpec(name=name, probe=probe).validate()


def test_registry_contains_legacy_and_new_strategies():
    assert ROUTER_STRATEGY_NAMES == (
        "hash",
        "least-loaded",
        "random",
        "power-of-two",
        "weighted-sink",
        "sticky-spill",
    )
    for name in LEGACY_POLICIES:
        assert name in ROUTER_STRATEGIES
    assert strategy_needs_rng("hash") is False
    assert strategy_needs_rng("sticky-spill") is False
    assert strategy_needs_rng("random") is True
    assert strategy_needs_rng("power-of-two") is True
    assert strategy_needs_rng("weighted-sink") is True
    with pytest.raises(ThinnerError, match="unknown router strategy"):
        strategy_needs_rng("round-robin")


def test_scenario_spec_threads_router_spec_through_json():
    spec = build_scenario(
        "fabric-mega",
        good_clients=8,
        bad_clients=4,
        thinner_shards=4,
        router="sticky-spill",
        probe="contenders",
        spill_factor=1.5,
        duration=1.0,
    )
    assert spec.shard_policy == RouterSpec(
        name="sticky-spill", probe="contenders", spill_factor=1.5
    )
    rebuilt = ScenarioSpec.from_dict(json.loads(spec.to_json()))
    assert rebuilt.shard_policy == spec.shard_policy
    assert rebuilt.to_dict() == spec.to_dict()


def test_legacy_scenario_json_has_no_router_spec_key():
    """Specs that never set a RouterSpec serialize exactly as before."""
    spec = build_scenario("fleet-lan", good_clients=4, bad_clients=4, duration=1.0)
    payload = spec.to_dict()
    assert "router_spec" not in payload
    assert payload["shard_policy"] == "hash"
    assert "fabric_k" not in payload["topology"]


# ---------------------------------------------------------------------------
# Router-level equivalence and strategy behavior (no simulation)
# ---------------------------------------------------------------------------


def _dispatch_stream(seed=7):
    return StreamFactory(seed).stream("shard-dispatch")


@pytest.mark.parametrize("policy", LEGACY_POLICIES)
def test_spec_router_matches_legacy_string_router(policy):
    """RouterSpec(name=<legacy>) draws and picks identically to the string."""
    names = [f"client-{i:03d}" for i in range(40)]
    legacy = ShardRouter(5, policy, rng=_dispatch_stream())
    speced = ShardRouter(5, RouterSpec(name=policy), rng=_dispatch_stream())
    assert [legacy.assign(n) for n in names] == [speced.assign(n) for n in names]
    assert legacy.counts == speced.counts
    # Kill a shard and re-pin everyone who was on it: same landing spots.
    for router in (legacy, speced):
        router.set_alive(1, False)
    moved_legacy = [legacy.reassign(n, 1) for n in names[:10]]
    moved_speced = [speced.reassign(n, 1) for n in names[:10]]
    assert moved_legacy == moved_speced
    assert legacy.counts == speced.counts


def test_a_strategy_name_is_its_default_spec():
    """Any registered strategy's name stands for its default RouterSpec."""
    for name in ROUTER_STRATEGY_NAMES:
        assert as_router_spec(name) == RouterSpec(name=name)
    with pytest.raises(ThinnerError, match="unknown router strategy"):
        ShardRouter(2, "round-robin")
    router = ShardRouter(2, "power-of-two", rng=_dispatch_stream())
    assert router.policy == "power-of-two"
    assert router.spec == RouterSpec(name="power-of-two")
    with pytest.raises(ThinnerError, match="needs a seeded stream"):
        ShardRouter(2, RouterSpec(name="weighted-sink"))
    # Probe-free strategies never need a stream.
    ShardRouter(4, RouterSpec(name="sticky-spill"))


def test_power_of_two_follows_a_load_probe():
    """With a live load signal, p2c lands on the less-loaded of its draws."""
    loads = [100.0, 0.0, 100.0, 100.0]
    probe = Probe(lambda router, shard: loads[shard], "load")
    router = ShardRouter(
        4, RouterSpec(name="power-of-two"), rng=_dispatch_stream(), probe=probe
    )
    picks = [router.assign(f"c{i}") for i in range(60)]
    # Shard 1 reports zero load forever, so it must win every comparison it
    # appears in: strictly more often than any always-loaded shard.
    assert picks.count(1) > max(picks.count(s) for s in (0, 2, 3))
    # Two shards, one strictly better: shard 0 can only win when both draws
    # land on it (probability 1/4), so the better shard must dominate.
    two = ShardRouter(
        2,
        RouterSpec(name="power-of-two"),
        rng=_dispatch_stream(),
        probe=Probe(lambda router, shard: [5.0, 1.0][shard], "load"),
    )
    two_picks = [two.assign(f"c{i}") for i in range(40)]
    assert two_picks.count(1) > two_picks.count(0)


def test_power_of_two_without_probe_draws_exactly_like_random():
    """Probe-free p2c performs a single uniform draw per client."""
    names = [f"client-{i:03d}" for i in range(50)]
    random_router = ShardRouter(6, RouterSpec(name="random"), rng=_dispatch_stream())
    p2c_router = ShardRouter(
        6, RouterSpec(name="power-of-two", probe="none"), rng=_dispatch_stream()
    )
    assert [random_router.assign(n) for n in names] == [
        p2c_router.assign(n) for n in names
    ]


def test_weighted_sink_follows_a_rate_probe():
    """All weight on one shard -> every pick lands there; no signal -> uniform."""
    rates = [0.0, 0.0, 9.0, 0.0]
    probe = Probe(lambda router, shard: rates[shard], "rate")
    router = ShardRouter(
        4, RouterSpec(name="weighted-sink", probe="sink-rate"),
        rng=_dispatch_stream(), probe=probe,
    )
    assert set(router.assign(f"c{i}") for i in range(20)) == {2}
    # Zero total weight falls back to the uniform draw (same as random).
    dead_probe = Probe(lambda router, shard: 0.0, "rate")
    fallback = ShardRouter(
        4, RouterSpec(name="weighted-sink"), rng=_dispatch_stream(), probe=dead_probe
    )
    uniform = ShardRouter(4, RouterSpec(name="random"), rng=_dispatch_stream())
    names = [f"c{i}" for i in range(30)]
    assert [fallback.assign(n) for n in names] == [uniform.assign(n) for n in names]


def test_sticky_spill_stays_on_hash_until_the_primary_overflows():
    hash_router = ShardRouter(4, "hash")
    sticky = ShardRouter(4, RouterSpec(name="sticky-spill", spill_factor=1.25))
    # A lone client always sticks to its hash bucket (the spill threshold is
    # floored at one pin, so low occupancy never degenerates to least-loaded).
    first = hash_router.assign("client-000")
    assert sticky.assign("client-000") == first
    # Pile pins onto that shard until it far exceeds 1.25x its fair share:
    # the next client hashing there must spill to the least-loaded shard.
    sticky.counts = [0, 0, 0, 0]
    sticky.counts[first] = 12
    before = list(sticky.counts)
    spilled = sticky.assign("client-000")
    assert spilled != first
    assert spilled == min(range(4), key=lambda s: (before[s], s))


# ---------------------------------------------------------------------------
# Full-run fingerprints
# ---------------------------------------------------------------------------


def _digest(spec):
    deployment = spec.build()
    deployment.run(spec.duration)
    result = deployment.results()
    digest = hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    return digest, deployment.engine.events_processed


@pytest.mark.parametrize("mode", ("partitioned", "pooled"))
@pytest.mark.parametrize("policy", LEGACY_POLICIES)
@pytest.mark.parametrize("scenario", ("fleet-lan", "fleet-mega"))
def test_router_spec_runs_are_byte_identical_to_legacy_pins(scenario, policy, mode):
    """A RouterSpec naming a legacy policy hits the pre-registry pins.

    The pins in ``failover_pins.json`` were captured on main before this
    module existed; a star-of-stars fleet run dispatched through the
    registry (``shard_policy`` set to a ``RouterSpec``) must reproduce them
    byte for byte.
    """
    config = FAILOVER_PINS["configs"][scenario]
    spec = build_scenario(
        scenario,
        good_clients=config["good_clients"],
        bad_clients=config["bad_clients"],
        thinner_shards=config["thinner_shards"],
        capacity_rps=config["capacity_rps"],
        duration=config["duration"],
        admission_mode=mode,
    )
    spec = dataclasses.replace(spec, shard_policy=RouterSpec(name=policy))
    digest, events = _digest(spec)
    pin = FAILOVER_PINS["pins"][f"{scenario}/{policy}/{mode}"]
    assert digest == pin["sha256"], "registry dispatch diverged from legacy main"
    assert events == pin["events_processed"]


def _fabric_spec(strategy, probe="pins"):
    config = ROUTING_PINS["config"]
    return build_scenario(
        "fabric-mega",
        good_clients=config["good_clients"],
        bad_clients=config["bad_clients"],
        thinner_shards=config["thinner_shards"],
        fabric=config["fabric"],
        leaves=config["leaves"],
        spines=config["spines"],
        oversubscription=config["oversubscription"],
        cross_traffic_pairs=config["cross_traffic_pairs"],
        capacity_rps=config["capacity_rps"],
        duration=config["duration"],
        seed=config["seed"],
        router=strategy,
        probe=probe,
    )


@pytest.mark.parametrize("strategy", ROUTER_STRATEGY_NAMES)
def test_every_strategy_matches_its_fabric_pin(strategy):
    """Pinned fingerprints for all six strategies on the leaf-spine case."""
    digest, events = _digest(_fabric_spec(strategy))
    pin = ROUTING_PINS["pins"][strategy]
    assert digest == pin["sha256"], f"{strategy} diverged from its pinned run"
    assert events == pin["events_processed"]


def test_power_of_two_with_no_probe_degrades_to_random_exactly():
    """Full-run byte identity, not just statistical similarity."""
    random_digest = _digest(_fabric_spec("random"))
    p2c_digest = _digest(_fabric_spec("power-of-two", probe="none"))
    assert p2c_digest == random_digest


# ---------------------------------------------------------------------------
# The balance dividend: p2c beats random where balance is worth money
# ---------------------------------------------------------------------------


def test_power_of_two_beats_random_on_good_client_service():
    """All six strategies run the capacity-straddled leaf-spine fabric.

    Per-shard admission capacity is set just below the *balanced* per-shard
    demand, so a strategy that spreads clients tightly saturates every
    shard while a loose spread strands capacity on underloaded shards.
    ``power-of-two`` with the ``pins`` probe must beat ``random`` on good
    requests served.  (The cohort is all-good: attacker clumping is
    *convex* for good clients — a shard the adversary piles onto was lost
    anyway, while the shards it spared flourish — so an adversarial cohort
    rewards imbalance and would mask the effect under test.)
    """
    served = {}
    for strategy in ROUTER_STRATEGY_NAMES:
        spec = build_scenario(
            "fabric-mega",
            good_clients=160,
            bad_clients=0,
            thinner_shards=8,
            fabric="leaf-spine",
            leaves=8,
            spines=3,
            oversubscription=4.0,
            cross_traffic_pairs=4,
            router=strategy,
            probe="pins",
            good_rate=2.0,
            capacity_rps=288.0,
            duration=3.0,
            seed=0,
        )
        deployment = spec.build()
        deployment.run(spec.duration)
        result = deployment.results()
        served[strategy] = result.good.served
        assert result.good.served > 0, f"{strategy} served nothing"
        assert len(result.shards) == 8
    assert served["power-of-two"] > served["random"], served


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------


def test_router_spec_fields_are_sweepable():
    base = _fabric_spec("power-of-two")
    base = dataclasses.replace(base, duration=0.5)
    sweep = Sweep(
        base,
        axes={
            "shard_policy.name": ("random", "power-of-two"),
            "shard_policy.probe_window_s": (0.25, 1.0),
        },
    )
    records = list(SweepRunner().run(sweep))
    assert len(records) == 4
    seen = {
        (
            record.overrides["shard_policy.name"],
            record.overrides["shard_policy.probe_window_s"],
        )
        for record in records
    }
    assert seen == {
        ("random", 0.25),
        ("random", 1.0),
        ("power-of-two", 0.25),
        ("power-of-two", 1.0),
    }
    for record in records:
        assert record.result.total_served >= 0


def test_sweeping_router_spec_on_a_legacy_spec_is_a_clear_error():
    spec = build_scenario("fleet-lan", good_clients=4, bad_clients=4, duration=1.0)
    sweep = Sweep(spec, axes={"shard_policy.name": ("hash", "random")})
    with pytest.raises(ExperimentError, match="cannot descend into the plain value"):
        list(SweepRunner().run(sweep))


def test_sweeping_shard_policy_on_fabric_mega_dispatches_with_each_point():
    """A grid over ``shard_policy`` replaces the factory's RouterSpec: each
    point builds a router running the strategy it names."""
    base = build_scenario(
        "fabric-mega", good_clients=8, bad_clients=4, thinner_shards=4, duration=1.0
    )
    sweep = Sweep(base, axes={"shard_policy": ("hash", "least-loaded")})
    policies = [point.spec.build()._router.policy for point in sweep.points()]
    assert policies == ["hash", "least-loaded"]
