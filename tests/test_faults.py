"""The fault-injection layer: plans, kills, heals, and the pins guarding it.

Three families of tests:

* **pin tests** — ``tests/data/failover_pins.json`` stores sha256
  fingerprints of fleet runs captured on main *before* the fault layer
  landed.  Runs with no plan and runs with an *empty* ``FaultPlan()`` must
  both still match them bit for bit, across all three dispatch policies and
  both admission modes: the fault layer must be invisible until a plan has
  events.
* **semantic tests** — what one kill/heal pulse does: eviction, slot
  reclamation (both admission modes), lagged re-pinning, sticky healing,
  and the validation errors (quantum, single shard, malformed plans).
* **property tests** (``-m slow``) — randomized kill/heal schedules over
  several seeds preserve the client-accounting identity, leave nothing
  attached to dead shards, keep the injector's counters monotone, and stay
  deterministic run-to-run.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.clients.base import RetryPolicy
from repro.clients.population import (
    PopulationSpec,
    build_mixed_population,
    build_population,
)
from repro.constants import MBIT
from repro.core.fleet import ServerMux
from repro.core.frontend import Deployment, DeploymentConfig
from repro.errors import ExperimentError, FaultError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.spec import gray_pulse, kill_heal_pulse
from repro.httpd.messages import RequestState
from repro.scenarios.registry import build_scenario
from repro.simnet.topology import build_fleet, uniform_bandwidths

PINS_PATH = Path(__file__).parent / "data" / "failover_pins.json"
PINS = json.loads(PINS_PATH.read_text())

SHARD_POLICIES = ("hash", "least-loaded", "random")
ADMISSION_MODES = ("partitioned", "pooled")


# ---------------------------------------------------------------------------
# FaultPlan / FaultEvent
# ---------------------------------------------------------------------------


def test_fault_plan_round_trips_through_json():
    plan = FaultPlan(
        events=(
            FaultEvent(at_s=2.0, action="kill", shard=1),
            FaultEvent(at_s=5.0, action="heal", shard=1),
        ),
        repin_ttl_s=1.5,
        sample_interval_s=0.5,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_fault_plan_orders_events_stably():
    plan = FaultPlan(
        events=(
            FaultEvent(at_s=5.0, action="heal", shard=1),
            FaultEvent(at_s=2.0, action="kill", shard=0),
            FaultEvent(at_s=2.0, action="kill", shard=1),
        )
    )
    ordered = plan.ordered_events()
    assert [e.at_s for e in ordered] == [2.0, 2.0, 5.0]
    assert [e.shard for e in ordered] == [0, 1, 1]  # ties keep plan order


def test_fault_plan_validation_errors():
    with pytest.raises(FaultError):
        FaultEvent(at_s=-1.0, action="kill", shard=0).validate()
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="reboot", shard=0).validate()
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="kill", shard=5).validate(shards=3)
    with pytest.raises(FaultError):
        FaultPlan(repin_ttl_s=-1.0).validate()
    with pytest.raises(FaultError):
        FaultPlan(sample_interval_s=0.0).validate()
    with pytest.raises(FaultError):
        kill_heal_pulse(0, kill_at_s=5.0, heal_at_s=5.0)


def test_kill_heal_pulse_builds_one_pulse():
    plan = kill_heal_pulse(2, kill_at_s=3.0, heal_at_s=9.0, repin_ttl_s=1.0)
    assert [(e.at_s, e.action, e.shard) for e in plan.ordered_events()] == [
        (3.0, "kill", 2),
        (9.0, "heal", 2),
    ]
    assert plan.repin_ttl_s == 1.0
    assert not plan.is_empty
    assert FaultPlan().is_empty


def test_gray_pulse_builds_composed_events():
    plan = gray_pulse((0, 2), 3.0, 9.0, factor=0.1, loss_p=0.5, stall=True)
    assert len(plan.events) == 12  # 3 axes x start/stop x 2 shards
    shaped = [(e.at_s, e.action, e.shard) for e in plan.events]
    assert (3.0, "degrade", 0) in shaped
    assert (9.0, "lossless", 2) in shaped
    plan.validate(shards=3, horizon_s=10.0)
    with pytest.raises(FaultError, match="at least one"):
        gray_pulse((0,), 3.0, 9.0)
    with pytest.raises(FaultError):
        gray_pulse((0,), 9.0, 3.0, stall=True)


def test_gray_event_validation():
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="degrade", shard=0).validate()  # no factor
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="degrade", shard=0, factor=0.0).validate()
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="lossy", shard=0, loss_p=1.5).validate()
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="kill", shard=0, factor=0.5).validate()
    with pytest.raises(FaultError):
        FaultEvent(at_s=1.0, action="stall", shard=0, loss_p=0.5).validate()
    # Gray events round-trip with their parameters.
    event = FaultEvent(at_s=1.0, action="degrade", shard=2, factor=0.25)
    assert FaultEvent.from_dict(event.to_dict()) == event


def test_strict_horizon_validation_lists_every_problem():
    plan = FaultPlan(
        events=(
            FaultEvent(at_s=99.0, action="kill", shard=0),
            FaultEvent(at_s=2.0, action="heal", shard=1),  # never killed
            FaultEvent(at_s=3.0, action="restore", shard=2),  # never degraded
        )
    )
    plan.validate(shards=3)  # lenient mode: stop no-ops are legal
    with pytest.raises(FaultError, match=r"3 problem"):
        plan.validate(shards=3, horizon_s=10.0)
    # A matched pulse inside the horizon is fine.
    gray_pulse((1,), 2.0, 8.0, stall=True).validate(shards=3, horizon_s=10.0)


# ---------------------------------------------------------------------------
# Pin tests: the fault layer is invisible until a plan has events
# ---------------------------------------------------------------------------


def _fingerprint(scenario: str, policy: str, mode: str, fault_plan=None):
    config = PINS["configs"][scenario]
    spec = build_scenario(
        scenario,
        good_clients=config["good_clients"],
        bad_clients=config["bad_clients"],
        thinner_shards=config["thinner_shards"],
        capacity_rps=config["capacity_rps"],
        duration=config["duration"],
        shard_policy=policy,
        admission_mode=mode,
    )
    if fault_plan is not None:
        spec = replace(spec, fault_plan=fault_plan)
    deployment = spec.build()
    deployment.run(spec.duration)
    result = deployment.results()
    digest = hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    return digest, deployment.engine.events_processed


@pytest.mark.parametrize("mode", ADMISSION_MODES)
@pytest.mark.parametrize("policy", SHARD_POLICIES)
@pytest.mark.parametrize("scenario", sorted(PINS["configs"]))
def test_empty_fault_plan_is_byte_identical_to_pre_fault_main(
    scenario, policy, mode
):
    pin = PINS["pins"][f"{scenario}/{policy}/{mode}"]

    digest, events = _fingerprint(scenario, policy, mode)
    assert digest == pin["sha256"], "no-plan run diverged from pre-fault main"
    assert events == pin["events_processed"]

    digest, events = _fingerprint(scenario, policy, mode, fault_plan=FaultPlan())
    assert digest == pin["sha256"], "an empty FaultPlan() perturbed the run"
    assert events == pin["events_processed"]


# ---------------------------------------------------------------------------
# Kill/heal semantics
# ---------------------------------------------------------------------------


def run_faulted_fleet(
    plan,
    shards=3,
    good=6,
    bad=6,
    capacity=18.0,
    duration=12.0,
    **config_kwargs,
):
    """Build, populate and run a small fleet with a fault plan."""
    topology, hosts, thinner_hosts = build_fleet(
        uniform_bandwidths(good + bad, 2 * MBIT), shards
    )
    config = DeploymentConfig(
        server_capacity_rps=capacity,
        seed=0,
        thinner_shards=shards,
        fault_plan=plan,
        **config_kwargs,
    )
    deployment = Deployment(topology, thinner_hosts, config)
    build_mixed_population(deployment, hosts, good, bad)
    deployment.run(duration)
    return deployment, deployment.results()


def _assert_invariants(deployment):
    """The cross-cutting conservation laws every faulted run must keep."""
    injector = deployment.fault_injector
    # Client-count conservation: every client is pinned to exactly one shard.
    assert sum(deployment._router.counts) == len(deployment.clients)
    dead_hosts = {
        deployment.thinner_hosts[shard]
        for shard, alive in enumerate(injector.alive)
        if not alive
    }
    for shard, alive in enumerate(injector.alive):
        if not alive:
            # Nothing contends at a dead thinner.
            assert deployment.thinners[shard].contenders() == []
    for client in deployment.clients:
        stats = client.stats
        # Request accounting: everything issued is served, denied, dropped,
        # in flight, or backlogged — kills must not leak requests.
        assert stats.issued == (
            stats.served
            + stats.denied
            + stats.dropped
            + client.outstanding
            + len(client.backlog)
        )
        # No payment channel stays open toward a killed thinner.
        for channel in client.channels.values():
            if channel.is_open:
                assert channel.thinner_host not in dead_hosts


@pytest.mark.parametrize("mode", ADMISSION_MODES)
def test_kill_evicts_and_clients_repin_to_survivors(mode):
    plan = kill_heal_pulse(1, kill_at_s=4.0, heal_at_s=20.0, repin_ttl_s=1.0)
    deployment, result = run_faulted_fleet(plan, admission_mode=mode)
    injector = deployment.fault_injector
    assert injector.kills == 1
    assert injector.heals == 0  # heal scheduled after the run ends
    assert injector.repinned_clients > 0
    assert injector.orphaned_requests > 0
    assert not injector.alive[1]
    # Everyone left the dead shard for the survivors.
    assert deployment._router.counts[1] == 0
    assert not any(client.shard == 1 for client in deployment.clients)
    # The access link went down with the shard.
    host = deployment.thinner_hosts[1]
    assert not host.access.up.is_up and not host.access.down.is_up
    # Service continued on the survivors after the kill.
    assert result.total_served > 0
    _assert_invariants(deployment)
    assert result.failover is not None
    assert result.failover.kills == 1


def test_heal_rejoins_but_repinned_clients_stay_put():
    plan = kill_heal_pulse(1, kill_at_s=4.0, heal_at_s=8.0, repin_ttl_s=1.0)
    deployment, result = run_faulted_fleet(plan)
    injector = deployment.fault_injector
    assert injector.kills == 1 and injector.heals == 1
    assert injector.alive == [True, True, True]
    host = deployment.thinner_hosts[1]
    assert host.access.up.is_up and host.access.down.is_up
    # Sticky DNS: healed shards only receive *future* re-pins, and with no
    # further kills nobody re-resolves, so the shard stays empty.
    assert deployment._router.counts[1] == 0
    _assert_invariants(deployment)
    assert [action for _t, action, _s in result.failover.timeline] == [
        "kill",
        "heal",
    ]


def test_failover_metrics_round_trip_and_stay_optional():
    plan = kill_heal_pulse(1, kill_at_s=4.0, heal_at_s=8.0, repin_ttl_s=1.0)
    _deployment, result = run_faulted_fleet(plan)
    payload = result.to_dict()
    assert "failover" in payload
    from repro.metrics.collector import RunResult

    rebuilt = RunResult.from_dict(payload)
    assert rebuilt.failover is not None
    assert rebuilt.to_dict() == payload
    # Fault-free results carry no failover key and parse to None.
    plain = RunResult.from_dict(
        {k: v for k, v in payload.items() if k != "failover"}
    )
    assert plain.failover is None
    assert "failover" not in plain.to_dict()


def test_pooled_slot_offers_skip_dead_shards():
    class _Server:
        busy = False
        current = None
        on_request_done = None
        on_ready = None

    pool = ServerMux(_Server(), rotate=True)
    offered = []
    for index in range(3):
        view = pool.view()
        view.on_ready = lambda index=index: offered.append(index)
    pool.set_alive(1, False)
    pool._slot_freed()
    assert 1 not in offered
    assert offered == [0, 2]
    offered.clear()
    pool.set_alive(1, True)
    pool._slot_freed()
    assert offered == [0, 1, 2]


def test_pooled_reclaim_only_returns_the_owners_slot():
    class _Request:
        request_id = 7

    class _Server:
        busy = True
        current = _Request()
        on_request_done = None
        on_ready = None

    server = _Server()
    pool = ServerMux(server, rotate=True)
    pool.view(), pool.view()
    pool._owner_by_request[7] = 0
    assert pool.reclaim(1) is None  # someone else's slot
    assert pool.reclaim(0) is server.current
    assert 7 not in pool._owner_by_request
    assert pool.reclaim(0) is None  # already reclaimed


def test_pooled_fleet_survives_shard_death_end_to_end():
    plan = kill_heal_pulse(0, kill_at_s=3.0, heal_at_s=30.0, repin_ttl_s=0.5)
    deployment, result = run_faulted_fleet(plan, admission_mode="pooled")
    assert not deployment._pool.alive[0]
    # The shared slot kept cycling through the survivors after the kill.
    assert result.total_served > 0
    current = deployment.server.current
    if current is not None:
        assert deployment._pool._owner_by_request[current.request_id] != 0
    _assert_invariants(deployment)


# ---------------------------------------------------------------------------
# Gray-failure semantics: degrade, lossy, stall
# ---------------------------------------------------------------------------


def _build_faulted_fleet(plan, good=6, bad=6, shards=3, retry_policy=None, **kwargs):
    """Like :func:`run_faulted_fleet` but without running (and with retries)."""
    topology, hosts, thinner_hosts = build_fleet(
        uniform_bandwidths(good + bad, 2 * MBIT), shards, **kwargs
    )
    config = DeploymentConfig(
        server_capacity_rps=18.0, seed=0, thinner_shards=shards, fault_plan=plan
    )
    deployment = Deployment(topology, thinner_hosts, config)
    specs = [
        PopulationSpec(count=good, client_class="good", retry_policy=retry_policy),
        PopulationSpec(count=bad, client_class="bad", retry_policy=retry_policy),
    ]
    build_population(deployment, hosts, specs)
    return deployment


def test_degrade_scales_the_access_link_and_restores():
    plan = gray_pulse((1,), 3.0, 8.0, factor=0.25)
    deployment = _build_faulted_fleet(plan, shard_bandwidth_bps=12 * MBIT)
    host = deployment.thinner_hosts[1]
    base_up = host.access.up.capacity_bps
    base_down = host.access.down.capacity_bps
    observed = {}

    def peek():
        observed["mid"] = (host.access.up.capacity_bps, host.access.up.is_up)

    deployment.engine.schedule_at(5.0, peek)
    deployment.run(12.0)
    # Mid-pulse the link ran at a quarter capacity but never went down.
    assert observed["mid"] == (0.25 * base_up, True)
    # The restore put both directions back at their base capacity.
    assert host.access.up.capacity_bps == base_up
    assert host.access.down.capacity_bps == base_down
    injector = deployment.fault_injector
    assert injector.degrades == 1
    assert injector.capacity_factor == [1.0, 1.0, 1.0]
    assert [action for _t, action, _s in injector.timeline] == ["degrade", "restore"]
    # Degrades never touch the dispatch masks.
    assert injector.alive == [True, True, True]
    assert deployment._router.alive == [True, True, True]
    _assert_invariants(deployment)


def test_lossy_drops_completed_uploads():
    plan = gray_pulse((0, 1, 2), 2.0, 10.0, loss_p=0.5)
    deployment = _build_faulted_fleet(plan)
    deployment.run(12.0)
    injector = deployment.fault_injector
    assert injector.lossy_uploads > 0
    assert injector.loss_p == [0.0, 0.0, 0.0]  # lossless restored
    # Without a retry policy every lost upload finalises as a client drop.
    assert sum(client.stats.dropped for client in deployment.clients) > 0
    _assert_invariants(deployment)
    result = deployment.results()
    assert result.failover.lossy_uploads == injector.lossy_uploads


def test_stall_freezes_admission_and_resume_recovers():
    plan = gray_pulse((1,), 3.0, 8.0, stall=True)
    deployment = _build_faulted_fleet(plan)
    snapshots = {}

    def snap(label):
        snapshots[label] = [t.stats.requests_admitted for t in deployment.thinners]

    deployment.engine.schedule_at(3.5, snap, "early")
    deployment.engine.schedule_at(7.5, snap, "late")
    deployment.run(12.0)
    injector = deployment.fault_injector
    assert injector.stalls == 1
    assert injector.stalled == [False, False, False]  # resumed
    # The stalled shard granted nothing while stalled; the others kept going.
    assert snapshots["late"][1] == snapshots["early"][1]
    assert sum(snapshots["late"]) > sum(snapshots["early"])
    # After the resume the shard grants admission again.
    final = [t.stats.requests_admitted for t in deployment.thinners]
    assert final[1] > snapshots["late"][1]
    _assert_invariants(deployment)


def test_retries_resend_lost_uploads_and_budget_suppresses():
    plan = gray_pulse((0, 1, 2), 2.0, 10.0, loss_p=0.5)
    naive = _build_faulted_fleet(plan, retry_policy=RetryPolicy.naive())
    naive.run(12.0)
    naive_result = naive.results()
    naive_retries = (
        naive_result.good.retries_attempted + naive_result.bad.retries_attempted
    )
    assert naive_retries > 0
    assert naive_result.failover.retries_attempted == naive_retries
    _assert_invariants(naive)

    budgeted = _build_faulted_fleet(plan, retry_policy=RetryPolicy.budgeted())
    budgeted.run(12.0)
    budgeted_result = budgeted.results()
    budgeted_retries = (
        budgeted_result.good.retries_attempted + budgeted_result.bad.retries_attempted
    )
    suppressed = (
        budgeted_result.good.retries_suppressed + budgeted_result.bad.retries_suppressed
    )
    # The token bucket retries less and records what it refused.
    assert 0 < budgeted_retries < naive_retries
    assert suppressed > 0
    _assert_invariants(budgeted)
    # The retry counters survive the metrics round trip.
    from repro.metrics.collector import RunResult

    payload = budgeted_result.to_dict()
    assert RunResult.from_dict(payload).to_dict() == payload


def test_retry_policy_validation_and_round_trip():
    policy = RetryPolicy.budgeted()
    assert RetryPolicy.from_dict(policy.to_dict()) == policy
    assert RetryPolicy.from_dict(RetryPolicy.naive().to_dict()) == RetryPolicy.naive()
    from repro.errors import ClientError

    for bad in (
        dict(base_backoff_s=-1.0),
        dict(max_backoff_s=-0.5),
        dict(max_attempts=-1),
        dict(budget=-1.0),
        dict(refill_per_s=-1.0),
    ):
        with pytest.raises(ClientError):
            replace(policy, **bad).validate()


# ---------------------------------------------------------------------------
# The kill/deadline double-count regression (the sweep must not re-deny)
# ---------------------------------------------------------------------------


def test_deny_is_a_noop_for_requests_already_finalised():
    deployment = _build_faulted_fleet(None, good=1, bad=1, shards=2)
    deployment.run(1.0)
    bad_client = next(c for c in deployment.clients if c.client_class == "bad")
    assert bad_client.backlog  # rate 40/s against window 20 backs up fast
    request = bad_client.backlog[0]
    # Simulate a kill (or thinner drop) landing exactly on the deadline
    # tick: the request reached a terminal state before the sweep saw it.
    request.state = RequestState.DROPPED
    denied_before = bad_client.stats.denied
    bad_client._deny(request)
    assert bad_client.stats.denied == denied_before
    # A pending request still gets denied exactly once.
    fresh = bad_client.backlog[1]
    bad_client._deny(fresh)
    assert bad_client.stats.denied == denied_before + 1
    assert fresh.state is RequestState.DENIED


def test_kill_on_exact_backlog_deadline_keeps_the_identity():
    # Phase 1: a fault-free run discovers a real backlog-head deadline on a
    # real shard.  Phase 2 re-runs the same seed with a kill scheduled at
    # exactly that tick, so the shard_failed abort and the 10-second denial
    # sweep land in the same engine timestamp.
    probe = _build_faulted_fleet(None)
    probe.run(6.0)
    candidates = sorted(
        (client.backlog[0].issued_at + client.backlog_timeout, client.shard)
        for client in probe.clients
        if client.backlog
    )
    assert candidates, "expected backlogged clients in an oversubscribed fleet"
    deadline, shard = candidates[0]
    plan = kill_heal_pulse(shard, kill_at_s=deadline, heal_at_s=deadline + 100.0)
    deployment = _build_faulted_fleet(plan)
    deployment.run(deadline + 2.0)
    assert deployment.fault_injector.kills == 1
    for client in deployment.clients:
        stats = client.stats
        assert stats.issued == (
            stats.served
            + stats.denied
            + stats.dropped
            + client.outstanding
            + len(client.backlog)
        ), "a request was double-counted at the kill/deadline tick"


# ---------------------------------------------------------------------------
# Validation at the deployment boundary
# ---------------------------------------------------------------------------


def test_quantum_with_fault_plan_is_rejected():
    config = DeploymentConfig(
        server_capacity_rps=10.0,
        defense="quantum",
        thinner_shards=2,
        fault_plan=kill_heal_pulse(0, 1.0, 2.0),
    )
    with pytest.raises(ExperimentError, match="does not support fault injection"):
        config.validate()


def test_single_shard_with_fault_plan_is_rejected():
    config = DeploymentConfig(
        server_capacity_rps=10.0,
        fault_plan=kill_heal_pulse(0, 1.0, 2.0),
    )
    with pytest.raises(ExperimentError, match="thinner_shards > 1"):
        config.validate()
    spec = build_scenario("fleet-lan", thinner_shards=2, duration=5.0)
    spec = replace(spec, fault_plan=kill_heal_pulse(5, 1.0, 2.0))
    with pytest.raises(ExperimentError):
        spec.validate()  # shard 5 out of range for a 2-shard fleet


def test_empty_plan_wires_no_injector():
    _deployment, result = run_faulted_fleet(None, duration=2.0)
    assert _deployment.fault_injector is None
    assert result.failover is None
    _deployment, result = run_faulted_fleet(FaultPlan(), duration=2.0)
    assert _deployment.fault_injector is None
    assert result.failover is None


def test_injector_requires_a_sharded_fleet():
    topology, hosts, thinner_host = build_fleet(uniform_bandwidths(4, 2 * MBIT), 2)
    config = DeploymentConfig(server_capacity_rps=10.0, thinner_shards=2)
    deployment = Deployment(topology, thinner_host, config)

    class _One:
        config = DeploymentConfig(server_capacity_rps=10.0)

    with pytest.raises(FaultError):
        FaultInjector(_One(), kill_heal_pulse(0, 1.0, 2.0))
    # And a well-formed fleet accepts one.
    injector = FaultInjector(deployment, kill_heal_pulse(0, 1.0, 2.0))
    assert injector.alive == [True, True]


# ---------------------------------------------------------------------------
# The fleet-failover scenario and experiment
# ---------------------------------------------------------------------------


def test_fleet_failover_scenario_runs_and_recovers_small():
    result = build_scenario(
        "fleet-failover",
        good_clients=6,
        bad_clients=6,
        thinner_shards=3,
        capacity_rps=30.0,
        kill_at_s=4.0,
        heal_at_s=8.0,
        repin_ttl_s=1.0,
        duration=12.0,
    ).run()
    failover = result.failover
    assert failover is not None
    assert failover.kills == 1 and failover.heals == 1
    assert failover.repinned_clients > 0
    # The sampled service curve is monotone cumulative counts.
    times = [t for t, _served in failover.service_samples]
    served = [s for _t, s in failover.service_samples]
    assert times == sorted(times)
    assert served == sorted(served)


def test_failover_experiment_reports_recovery():
    from repro.experiments.base import ExperimentScale
    from repro.experiments.failover import failover_pulse, format_failover

    outcome = failover_pulse(
        ExperimentScale(duration=12.0, client_scale=0.24, seed=0),
        shards=3,
        repin_ttl_s=1.0,
    )
    assert outcome.kills == 1 and outcome.heals == 1
    assert outcome.pre_kill_rate_rps > 0
    assert 0.0 <= outcome.dip_ratio <= outcome.recovery_ratio + 1.0
    text = format_failover(outcome)
    assert "kill/heal pulse" in text
    assert "recovery ratio" in text


# ---------------------------------------------------------------------------
# Randomized property tests (slow: the dedicated CI job runs these)
# ---------------------------------------------------------------------------


def _random_plan(seed, shards=3, duration=10.0, events=8):
    rng = random.Random(seed)
    return FaultPlan(
        events=tuple(
            FaultEvent(
                at_s=round(rng.uniform(0.5, duration - 0.5), 3),
                action=rng.choice(("kill", "heal")),
                shard=rng.randrange(shards),
            )
            for _ in range(events)
        ),
        repin_ttl_s=rng.choice((0.25, 1.0, 3.0)),
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ADMISSION_MODES)
def test_random_schedules_preserve_invariants(seed, mode):
    plan = _random_plan(seed)
    deployment, result = run_faulted_fleet(
        plan, duration=10.0, admission_mode=mode
    )
    injector = deployment.fault_injector
    _assert_invariants(deployment)
    # Kills and heals alternate per shard, so executed heals never exceed
    # executed kills and the timeline matches the counters.
    assert injector.heals <= injector.kills
    assert injector.kills + injector.heals == len(injector.timeline)
    assert result.failover.orphaned_requests == injector.orphaned_requests


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_schedule_counters_are_monotone(seed):
    plan = _random_plan(seed)
    topology, hosts, thinner_hosts = build_fleet(uniform_bandwidths(12, 2 * MBIT), 3)
    config = DeploymentConfig(
        server_capacity_rps=18.0, seed=0, thinner_shards=3, fault_plan=plan
    )
    deployment = Deployment(topology, thinner_hosts, config)
    build_mixed_population(deployment, hosts, 6, 6)

    counters = ("kills", "heals", "repinned_clients", "orphaned_requests")
    snapshots = []
    injector = deployment.fault_injector

    def snapshot():
        snapshots.append(
            {name: getattr(injector, name) for name in counters}
            | {"timeline": len(injector.timeline)}
        )

    for at in (2.5, 5.0, 7.5):
        deployment.engine.schedule_at(at, snapshot)
    deployment.run(10.0)
    snapshot()

    for earlier, later in zip(snapshots, snapshots[1:]):
        for name, value in earlier.items():
            assert value <= later[name], f"{name} went backwards"


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_schedules_are_deterministic(seed):
    plan = _random_plan(seed)
    _d1, first = run_faulted_fleet(plan, duration=10.0)
    _d2, second = run_faulted_fleet(plan, duration=10.0)
    assert first.to_dict() == second.to_dict()


def _random_gray_plan(seed, shards=3, duration=10.0, events=10):
    """A schedule drawing from the whole fault vocabulary, gray and binary."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(events):
        action = rng.choice(
            ("kill", "heal", "degrade", "restore", "lossy", "lossless", "stall", "resume")
        )
        kwargs = {}
        if action == "degrade":
            kwargs["factor"] = round(rng.uniform(0.05, 1.0), 3)
        elif action == "lossy":
            kwargs["loss_p"] = round(rng.uniform(0.0, 0.9), 3)
        drawn.append(
            FaultEvent(
                at_s=round(rng.uniform(0.5, duration - 0.5), 3),
                action=action,
                shard=rng.randrange(shards),
                **kwargs,
            )
        )
    return FaultPlan(events=tuple(drawn), repin_ttl_s=rng.choice((0.25, 1.0, 3.0)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ADMISSION_MODES)
def test_random_gray_schedules_preserve_invariants(seed, mode):
    plan = _random_gray_plan(seed)
    deployment, result = run_faulted_fleet(plan, duration=10.0, admission_mode=mode)
    injector = deployment.fault_injector
    _assert_invariants(deployment)
    for shard, host in enumerate(deployment.thinner_hosts):
        # Administrative liveness tracks the injector's view exactly.
        assert host.access.up.is_up == injector.alive[shard]
        assert host.access.down.is_up == injector.alive[shard]
        # Degrades scale from the base capacity, so the final factor fully
        # determines the final capacity — no compounding, no drift.
        factor = injector.capacity_factor[shard]
        assert 0.0 < factor <= 1.0
        assert host.access.up.capacity_bps == pytest.approx(
            host.access.up.base_capacity_bps * factor
        )
        assert host.access.down.capacity_bps == pytest.approx(
            host.access.down.base_capacity_bps * factor
        )
        assert 0.0 <= injector.loss_p[shard] <= 1.0
    # Every executed transition is on the timeline; no counter double-counts.
    assert injector.heals <= injector.kills
    assert result.failover.orphaned_requests == injector.orphaned_requests
    assert result.failover.lossy_uploads == injector.lossy_uploads
    assert result.failover.degrades == injector.degrades
    assert result.failover.stalls == injector.stalls


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_gray_schedules_are_deterministic(seed):
    plan = _random_gray_plan(seed)
    _d1, first = run_faulted_fleet(plan, duration=10.0)
    _d2, second = run_faulted_fleet(plan, duration=10.0)
    assert first.to_dict() == second.to_dict()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_random_gray_schedules_with_retries_preserve_accounting(seed):
    """Retries under random gray faults never break request conservation."""
    plan = _random_gray_plan(seed, events=8)
    topology, hosts, thinner_hosts = build_fleet(uniform_bandwidths(12, 2 * MBIT), 3)
    config = DeploymentConfig(
        server_capacity_rps=18.0, seed=0, thinner_shards=3, fault_plan=plan
    )
    deployment = Deployment(topology, thinner_hosts, config)
    policy = RetryPolicy.budgeted()
    build_population(
        deployment,
        hosts,
        [
            PopulationSpec(count=6, client_class="good", retry_policy=policy),
            PopulationSpec(count=6, client_class="bad", retry_policy=policy),
        ],
    )
    deployment.run(10.0)
    injector = deployment.fault_injector
    _assert_invariants(deployment)
    retries = sum(client.stats.retries_attempted for client in deployment.clients)
    suppressed = sum(client.stats.retries_suppressed for client in deployment.clients)
    assert retries >= 0 and suppressed >= 0
    failover = deployment.results().failover
    assert failover.retries_attempted == retries
    assert failover.retries_suppressed == suppressed
    assert failover.lossy_uploads == injector.lossy_uploads
