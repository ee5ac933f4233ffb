"""The sharded thinner fleet (§4.3 scale-out).

Covers the dispatch policies, both admission modes, the per-shard metrics
breakdown, the fleet provisioning experiment against the closed form, and —
load-bearing for every existing figure — that a one-shard deployment is
indistinguishable from the historical single-thinner path.
"""

import pytest

from repro.analysis.provisioning import payment_traffic_estimate
from repro.clients.population import build_mixed_population
from repro.constants import MBIT
from repro.core.fleet import HealthProbeSpec, ServerMux
from repro.core.frontend import Deployment, DeploymentConfig
from repro.core.routing import ShardRouter
from repro.errors import ExperimentError, ThinnerError, TopologyError
from repro.experiments.base import ExperimentScale
from repro.experiments.fleet import fleet_provisioning_curve, format_fleet
from repro.metrics.collector import ShardMetrics
from repro.rng import StreamFactory
from repro.scenarios.registry import build_scenario
from repro.simnet.topology import build_fleet, uniform_bandwidths


def make_fleet_deployment(
    shards=3,
    good=6,
    bad=6,
    capacity=12.0,
    duration=10.0,
    **config_kwargs,
):
    """Build, populate and run a small fleet; returns (deployment, result)."""
    topology, hosts, thinner_hosts = build_fleet(
        uniform_bandwidths(good + bad, 2 * MBIT), shards
    )
    config = DeploymentConfig(
        server_capacity_rps=capacity, seed=0, thinner_shards=shards, **config_kwargs
    )
    deployment = Deployment(topology, thinner_hosts, config)
    build_mixed_population(deployment, hosts, good, bad)
    deployment.run(duration)
    return deployment, deployment.results()


# ---------------------------------------------------------------------------
# ShardRouter
# ---------------------------------------------------------------------------


def test_router_hash_policy_is_stable_and_order_independent():
    names = [f"client-{i:03d}" for i in range(20)]
    first = [ShardRouter(4, "hash").assign(name) for name in names]
    second = [ShardRouter(4, "hash").assign(name) for name in reversed(names)]
    assert first == list(reversed(second))
    assert set(first) <= set(range(4))


def test_router_least_loaded_balances_exactly():
    router = ShardRouter(3, "least-loaded")
    for i in range(9):
        router.assign(f"c{i}")
    assert router.counts == [3, 3, 3]


def test_router_random_policy_is_seeded():
    draws = [
        [ShardRouter(5, "random", rng=StreamFactory(7).stream("shard-dispatch")).assign(f"c{i}") for i in range(10)]
        for _ in range(2)
    ]
    assert draws[0] == draws[1]


def test_router_single_shard_consumes_no_randomness():
    router = ShardRouter(1, "random")  # no rng needed for one shard
    assert router.assign("anyone") == 0


def test_router_validates_inputs():
    with pytest.raises(ThinnerError):
        ShardRouter(0)
    with pytest.raises(ThinnerError):
        ShardRouter(2, "round-robin")
    with pytest.raises(ThinnerError):
        ShardRouter(2, "random")  # rng required above one shard


# ---------------------------------------------------------------------------
# build_fleet
# ---------------------------------------------------------------------------


def test_build_fleet_splits_the_aggregate_across_shards():
    topology, clients, thinners = build_fleet(
        uniform_bandwidths(4, 2 * MBIT), 4, fleet_bandwidth_bps=400 * MBIT
    )
    assert [host.name for host in thinners] == [
        "thinner-00", "thinner-01", "thinner-02", "thinner-03",
    ]
    for host in thinners:
        assert host.upload_capacity_bps == pytest.approx(100 * MBIT)
    assert len(clients) == 4


def test_build_fleet_validates_inputs():
    with pytest.raises(TopologyError):
        build_fleet([], 2)
    with pytest.raises(TopologyError):
        build_fleet(uniform_bandwidths(2, MBIT), 0)
    with pytest.raises(TopologyError):
        build_fleet(uniform_bandwidths(2, MBIT), 2, client_delays_s=[0.0])


# ---------------------------------------------------------------------------
# Fleet deployments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["partitioned", "pooled"])
def test_fleet_serves_the_full_population(mode):
    deployment, result = make_fleet_deployment(admission_mode=mode)
    assert len(deployment.thinners) == 3
    assert result.total_served > 0
    # Every shard got clients (hash over client-NNN names spreads) and the
    # shard breakdown accounts for every served request.
    assert sum(s.clients for s in result.shards) == 12
    assert sum(s.requests_served for s in result.shards) == result.total_served
    assert result.good_allocation + result.bad_allocation == pytest.approx(1.0)


def test_partitioned_mode_splits_server_capacity():
    deployment, _result = make_fleet_deployment(admission_mode="partitioned")
    assert len(deployment.servers) == 3
    for server in deployment.servers:
        assert server.capacity_rps == pytest.approx(4.0)


def test_pooled_mode_shares_one_server():
    deployment, result = make_fleet_deployment(admission_mode="pooled")
    assert len(deployment.servers) == 1
    assert deployment.servers[0].capacity_rps == pytest.approx(12.0)
    assert result.total_served == deployment.servers[0].stats.served


def test_pooled_and_partitioned_throughput_match_single_thinner():
    # Whatever the fleet arrangement, the back-end can only do c requests/s:
    # an over-subscribed run serves ~duration * c requests in every mode.
    _dep1, single = make_fleet_deployment(shards=1)
    _dep2, part = make_fleet_deployment(admission_mode="partitioned")
    _dep3, pooled = make_fleet_deployment(admission_mode="pooled")
    for result in (part, pooled):
        assert result.total_served == pytest.approx(single.total_served, rel=0.1)


def test_per_shard_metrics_sum_to_the_totals():
    deployment, result = make_fleet_deployment(admission_mode="partitioned")
    assert [s.shard for s in result.shards] == [0, 1, 2]
    assert [s.thinner_host for s in result.shards] == [
        "thinner-00", "thinner-01", "thinner-02",
    ]
    assert sum(s.auctions_held for s in result.shards) == result.auctions_held
    assert sum(s.free_admissions for s in result.shards) == result.free_admissions
    assert sum(s.payment_bytes_sunk for s in result.shards) == pytest.approx(
        result.payment_bytes_sunk
    )
    total_paid = sum(s.client_bytes_paid for s in result.shards)
    assert total_paid == pytest.approx(result.good.bytes_paid + result.bad.bytes_paid)
    for shard, thinner in zip(result.shards, deployment.thinners):
        assert shard.requests_received == thinner.stats.requests_received
        assert shard.clients == len(deployment.clients_of_shard(shard.shard))


def test_shard_metrics_round_trip_through_json():
    _deployment, result = make_fleet_deployment()
    rebuilt = result.from_json(result.to_json())
    assert [s.to_dict() for s in rebuilt.shards] == [s.to_dict() for s in result.shards]
    assert all(isinstance(s, ShardMetrics) for s in rebuilt.shards)


def test_clients_route_requests_to_their_assigned_shard():
    deployment, _result = make_fleet_deployment()
    for client in deployment.clients:
        assert client.thinner is deployment.thinners[client.shard]
        assert client.thinner_host is deployment.thinner_hosts[client.shard]
    # Each shard's received count is exactly its own clients' sent count
    # (no request ever crossed shards).
    for index, thinner in enumerate(deployment.thinners):
        sent = sum(c.stats.sent for c in deployment.clients_of_shard(index))
        assert thinner.stats.requests_received <= sent


@pytest.mark.parametrize("defense", ["speakup", "retry", "none", "quantum"])
def test_every_defense_runs_partitioned(defense):
    _deployment, result = make_fleet_deployment(
        shards=2, duration=6.0, defense=defense, admission_mode="partitioned"
    )
    assert result.total_served > 0


@pytest.mark.parametrize("defense", ["speakup", "retry", "none"])
def test_pooled_mode_supports_non_quantum_defenses(defense):
    _deployment, result = make_fleet_deployment(
        shards=2, duration=6.0, defense=defense, admission_mode="pooled"
    )
    assert result.total_served > 0


def test_fleet_runs_are_deterministic():
    _d1, first = make_fleet_deployment(admission_mode="pooled")
    _d2, second = make_fleet_deployment(admission_mode="pooled")
    assert first.to_dict() == second.to_dict()


# ---------------------------------------------------------------------------
# Configuration errors
# ---------------------------------------------------------------------------


def test_pooled_quantum_is_rejected():
    with pytest.raises(ExperimentError, match="quantum"):
        DeploymentConfig(
            thinner_shards=2, admission_mode="pooled", defense="quantum"
        ).validate()


def test_config_validates_fleet_knobs():
    with pytest.raises(ExperimentError):
        DeploymentConfig(thinner_shards=0).validate()
    with pytest.raises(ExperimentError, match="shard_policy"):
        DeploymentConfig(shard_policy="sticky").validate()
    with pytest.raises(ExperimentError, match="admission_mode"):
        DeploymentConfig(admission_mode="shared").validate()


def test_deployment_needs_one_host_per_shard():
    topology, _hosts, thinner_hosts = build_fleet(uniform_bandwidths(4, 2 * MBIT), 2)
    with pytest.raises(ExperimentError, match="thinner_shards"):
        Deployment(topology, thinner_hosts[0], DeploymentConfig(thinner_shards=2))
    with pytest.raises(ExperimentError, match="thinner_shards"):
        Deployment(topology, thinner_hosts, DeploymentConfig())


def test_thinner_factory_is_single_shard_only():
    topology, _hosts, thinner_hosts = build_fleet(uniform_bandwidths(4, 2 * MBIT), 2)
    with pytest.raises(ExperimentError, match="factories"):
        Deployment(
            topology,
            thinner_hosts,
            DeploymentConfig(thinner_shards=2),
            thinner_factory=lambda deployment: None,
        )


def test_pooled_admission_rejects_double_submit():
    from repro.httpd.messages import new_request
    from repro.httpd.server import EmulatedServer
    from repro.simnet.engine import Engine

    engine = Engine()
    server = EmulatedServer(engine, 10.0, rng=StreamFactory(0).stream("server"))
    pool = ServerMux(server, rotate=True)
    view_a, view_b = pool.view(), pool.view()
    view_a.submit(new_request(client_id="a", issued_at=0.0))
    with pytest.raises(Exception):
        view_b.submit(new_request(client_id="b", issued_at=0.0))


class _SlotServer:
    """A stand-in server: a view takes the slot by setting ``busy``."""

    busy = False
    current = None
    on_request_done = None
    on_ready = None


def _offer_log(mux, count, takers):
    """Add ``count`` views; each logs its offers and takes the slot when its
    index is in ``takers`` (a set the caller may change between offers)."""
    offered = []
    for index in range(count):

        def on_ready(index=index):
            offered.append(index)
            if index in takers:
                mux.server.busy = True

        mux.view().on_ready = on_ready
    return offered


def _free_slot(mux, offered):
    offered.clear()
    mux.server.busy = False
    mux._slot_freed()
    return list(offered)


def test_pooled_offers_rotate_past_the_shard_that_took_the_slot():
    mux = ServerMux(_SlotServer(), rotate=True)
    takers = {1}
    offered = _offer_log(mux, 3, takers)
    assert _free_slot(mux, offered) == [0, 1]
    # View 1 took the slot, so the next offer starts at view 2.
    assert _free_slot(mux, offered) == [2, 0, 1]
    takers.clear()
    takers.add(2)
    assert _free_slot(mux, offered) == [2]
    assert _free_slot(mux, offered) == [0, 1, 2]


def test_adaptive_offers_always_start_at_the_active_side():
    mux = ServerMux(_SlotServer(), rotate=False)
    takers = {1}
    offered = _offer_log(mux, 2, takers)
    mux.next_offer = 1  # the controller engaged side 1
    assert _free_slot(mux, offered) == [1]
    # Side 1 just took the slot, and the next offer still starts there.
    assert _free_slot(mux, offered) == [1]
    takers.clear()
    takers.add(0)
    assert _free_slot(mux, offered) == [1, 0]
    assert _free_slot(mux, offered) == [1, 0]
    mux.next_offer = 0  # disengaged
    assert _free_slot(mux, offered) == [0]


# ---------------------------------------------------------------------------
# The one-shard invariant
# ---------------------------------------------------------------------------


def test_fleet_lan_with_one_shard_equals_lan_baseline():
    """``thinner_shards=1`` must reproduce the single-thinner run exactly."""
    kwargs = dict(good_clients=3, bad_clients=3, capacity_rps=12.0, duration=8.0)
    baseline = build_scenario("lan-baseline", **kwargs)
    fleet = build_scenario("fleet-lan", thinner_shards=1, **kwargs)
    assert baseline.run().to_dict() == fleet.run().to_dict()


def test_scenario_validation_rejects_bad_fleet_specs():
    with pytest.raises(ExperimentError):
        build_scenario("fleet-lan", thinner_shards=0).validate()
    with pytest.raises(ExperimentError, match="shard_policy"):
        build_scenario("fleet-lan", shard_policy="sticky").validate()
    spec = build_scenario("shared-bottleneck").with_value("thinner_shards", 2)
    with pytest.raises(ExperimentError, match="lan"):
        spec.validate()


# ---------------------------------------------------------------------------
# The provisioning experiment (§4.3)
# ---------------------------------------------------------------------------


def test_fleet_provisioning_curve_tracks_the_closed_form():
    rows = fleet_provisioning_curve(ExperimentScale.test(), shard_counts=(1, 2, 4))
    assert [row.shards for row in rows] == [1, 2, 4]
    for row in rows:
        # The closed form is computed from the measured bandwidths.
        assert row.predicted_fleet_bps == pytest.approx(
            payment_traffic_estimate(row.bad_bandwidth_bps, row.good_bandwidth_bps)
        )
        assert row.predicted_shard_bps == pytest.approx(
            row.predicted_fleet_bps / row.shards
        )
        # Stated tolerance: at test scale the fleet sinks 50-100% of the
        # closed-form (G+B) estimate (quiescent gaps, slow start, and request
        # RTTs keep it below 1; anything below half would mean the fleet is
        # not absorbing the attack).
        assert 0.5 <= row.fleet_utilisation <= 1.0
        assert row.shard_imbalance >= 1.0
    # The provisioning curve: per-shard load falls as shards are added.
    means = [row.observed_shard_mean_bps for row in rows]
    assert means[0] > means[1] > means[2]
    # And the per-shard mean stays within the stated 50% band of (G+B)/N.
    for row in rows:
        assert row.observed_shard_mean_bps <= row.predicted_shard_bps
        assert row.observed_shard_mean_bps >= 0.5 * row.predicted_shard_bps


def test_format_fleet_renders_a_table():
    rows = fleet_provisioning_curve(ExperimentScale.test(), shard_counts=(1, 2))
    table = format_fleet(rows)
    assert "Section 4.3" in table
    assert "predicted/shard" in table


def test_fleet_provisioning_campaign_matches_direct_curve(tmp_path):
    from repro.experiments.fleet import fleet_provisioning_campaign

    scale = ExperimentScale.test()
    direct = fleet_provisioning_curve(scale, shard_counts=(1, 2))
    directory = str(tmp_path / "campaign")
    via_campaign = fleet_provisioning_campaign(
        scale, directory, shard_counts=(1, 2), jobs=2
    )
    assert via_campaign == direct
    # A second call resumes the finished campaign (a no-op) and re-streams
    # the same rows from the spools.
    assert fleet_provisioning_campaign(scale, directory, shard_counts=(1, 2)) == direct


# ---------------------------------------------------------------------------
# Health prober: gray-failure ejection and probation readmission
# ---------------------------------------------------------------------------


def test_probe_spec_validates_and_round_trips():
    spec = HealthProbeSpec(interval_s=0.25, alpha=0.5, eject_fraction=0.2)
    spec.validate()
    assert HealthProbeSpec.from_dict(spec.to_dict()) == spec
    for bad in (
        dict(interval_s=0.0),
        dict(alpha=0.0),
        dict(alpha=1.5),
        dict(eject_fraction=0.0),
        dict(eject_fraction=1.0),
        dict(holddown_s=-1.0),
        dict(min_samples=0),
    ):
        with pytest.raises(ThinnerError):
            HealthProbeSpec(**bad).validate()


def test_router_ejection_mask_narrows_reassign():
    router = ShardRouter(3, "least-loaded")
    for i in range(6):
        router.assign(f"c{i}")
    router.set_ejected(1, True)
    assert router.routable_shards() == [0, 2]
    assert router.live_shards() == [0, 1, 2]  # liveness mask untouched
    # Reassignment lands only on routable shards.
    for i in range(6):
        assert router.reassign(f"c{i}", i % 3) in (0, 2)
    # Readmission widens the candidate set again.
    router.set_ejected(1, False)
    assert router.routable_shards() == [0, 1, 2]
    with pytest.raises(ThinnerError):
        router.set_ejected(9, True)


def test_router_prefers_sick_shard_over_no_shard():
    router = ShardRouter(2, "hash")
    router.assign("c0")
    router.set_alive(1, False)
    router.set_ejected(0, True)
    # Everything routable is gone: liveness wins over the ejection mask.
    assert router.reassign("c0", 0) == 0


def test_prober_ejects_a_stalled_shard_and_readmits_after_holddown():
    spec = build_scenario(
        "fleet-brownout",
        good_clients=5,
        bad_clients=5,
        thinner_shards=4,
        capacity_rps=20.0,
        duration=12.0,
        fault="stall",
        fault_shard=0,
        start_at_s=4.0,
        end_at_s=8.0,
        health_probe=True,
        probe_interval_s=0.5,
        holddown_s=3.0,
    )
    deployment = spec.build()
    deployment.run(spec.duration)
    result = deployment.results()
    prober = deployment.health_prober
    assert prober is not None
    assert prober.ejections >= 1
    assert prober.readmits >= 1
    # The eject precedes its readmit and names the stalled shard.
    events = [(kind, shard) for _at, kind, shard in prober.timeline]
    assert events.index(("eject", 0)) < events.index(("readmit", 0))
    # Probation cleared every ejection by the end of the run.
    assert deployment._router.ejected == [False, False, False, False]
    # Re-pinned clients are sticky: nobody migrates back after readmission.
    assert deployment._router.counts[0] == 0
    assert sum(deployment._router.counts) == len(deployment.clients)
    # The prober's story lands in the failover metrics and survives JSON.
    failover = result.failover
    assert failover.ejections == prober.ejections
    assert failover.readmits == prober.readmits
    assert failover.ejected_repins == prober.repinned_clients
    round_tripped = type(failover).from_dict(failover.to_dict())
    assert round_tripped.ejections == failover.ejections
    assert round_tripped.readmits == failover.readmits


def test_prober_is_quiet_on_a_healthy_fleet():
    spec = build_scenario(
        "fleet-brownout",
        good_clients=5,
        bad_clients=5,
        thinner_shards=4,
        capacity_rps=20.0,
        duration=8.0,
        fault="stall",
        fault_shard=0,
        start_at_s=20.0,  # pulse never lands inside the run
        end_at_s=21.0,
        health_probe=True,
    )
    deployment = spec.build()
    deployment.run(spec.duration)
    prober = deployment.health_prober
    assert prober.ejections == 0
    assert prober.readmits == 0
    assert prober.probe_samples > 0
    assert deployment._router.ejected == [False] * 4
