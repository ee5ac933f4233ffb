"""Tests for the pipeline (layered admission) defense."""

import pytest

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.auction import VirtualAuctionThinner
from repro.core.frontend import Deployment, DeploymentConfig
from repro.defenses import DefenseSpec, PipelineDefense
from repro.defenses.pipeline import PipelineThinner as _PipelineThinner
from repro.errors import DefenseError
from repro.metrics.collector import RunResult
from repro.scenarios.registry import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner
from repro.simnet.topology import build_lan, uniform_bandwidths


def build_deployment(defense, good=2, bad=2, capacity=8.0, seed=0):
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(good + bad, 2 * MBIT))
    deployment = Deployment(
        topology,
        thinner_host,
        DeploymentConfig(server_capacity_rps=capacity, defense=defense, seed=seed),
    )
    for host in hosts[:good]:
        GoodClient(deployment, host)
    for host in hosts[good:]:
        BadClient(deployment, host)
    return deployment


def test_pipeline_builds_thinner_proxy_with_stages():
    deployment = build_deployment("ratelimit>speakup")
    assert isinstance(deployment.thinner, _PipelineThinner)
    assert isinstance(deployment.thinner.inner, VirtualAuctionThinner)
    assert [stage.name for stage in deployment.thinner.stages] == ["ratelimit"]


def test_single_stage_pipeline_is_the_admission_thinner_itself():
    defense = PipelineDefense(stages=("speakup",))
    topology, _hosts, thinner_host = build_lan(uniform_bandwidths(2, 2 * MBIT))
    deployment = Deployment(topology, thinner_host, DeploymentConfig())
    thinner = defense.build_thinner(deployment)
    assert isinstance(thinner, VirtualAuctionThinner)


def test_pipeline_rejects_non_screening_front_stage():
    with pytest.raises(DefenseError, match="filter stage"):
        PipelineDefense(stages=("speakup", "none"))
    with pytest.raises(DefenseError, match="at least one stage"):
        PipelineDefense(stages=())
    with pytest.raises(DefenseError, match="do not nest"):
        PipelineDefense(stages=(DefenseSpec("pipeline"), DefenseSpec("speakup")))


def test_pipeline_screens_and_attributes_drops_per_stage():
    deployment = build_deployment(
        DefenseSpec.make(
            "pipeline",
            stages=(
                DefenseSpec.make("ratelimit", allowed_rps=4.0),
                DefenseSpec.make("speakup"),
            ),
        )
    )
    deployment.run(12.0)
    result = deployment.results()

    stages = result.stages
    assert [stage.name for stage in stages] == ["ratelimit"]
    stage = stages[0]
    # Bad clients fire at 40 req/s against a 4 req/s bucket: most of their
    # requests must be screened out before the auction.
    assert stage.rejected > 0
    assert stage.screened >= stage.rejected

    counters = deployment.network.counters
    assert counters.filter_screened == stage.screened
    assert counters.filter_rejected == stage.rejected

    assert result.defense == "ratelimit>speakup"
    # Screened-out requests count as received-then-dropped at the thinner.
    stats = deployment.thinner.stats
    assert stats.requests_dropped >= stage.rejected
    assert stats.requests_received >= stage.screened


def test_pipeline_stage_metrics_round_trip():
    deployment = build_deployment("ratelimit>speakup")
    deployment.run(8.0)
    result = deployment.results()
    rebuilt = RunResult.from_dict(result.to_dict())
    assert [stage.to_dict() for stage in rebuilt.stages] == [
        stage.to_dict() for stage in result.stages
    ]
    assert rebuilt.shards[0].stages[0].screened > 0


def test_layered_lan_scenario_beats_undefended_baseline():
    layered_spec = build_scenario(
        "layered-lan", good_clients=3, bad_clients=3, capacity_rps=12.0,
        allowed_rps=4.0, duration=10.0,
    )
    layered = layered_spec.run()
    undefended = layered_spec.with_value("defense", DefenseSpec("none")).run()
    assert layered.stages[0].rejected > 0
    assert layered.good_allocation >= undefended.good_allocation
    assert undefended.stages == []


def test_sweeping_defense_on_layered_lan_runs_each_swept_defense():
    """A grid over ``defense`` replaces the scenario's composed defense: each
    point runs the defense it names, not the factory's pipeline."""
    base = build_scenario(
        "layered-lan", good_clients=3, bad_clients=3, capacity_rps=12.0, duration=3.0,
    )
    records = SweepRunner().run(Sweep(base, axes={"defense": ("speakup", "none")}))
    assert [record.result.defense for record in records] == ["speakup", "none"]
    assert records[1].result.payment_bytes_sunk == 0.0


def test_pipeline_payment_flows_through_register_payment():
    deployment = build_deployment("ratelimit>speakup")
    deployment.run(10.0)
    # Requests that passed the filter were auctioned: payment was sunk.
    assert deployment.thinner.stats.payment_bytes_sunk > 0
