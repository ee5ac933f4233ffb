"""Tests for Deployment / DeploymentConfig wiring."""

import math

import pytest

from repro.constants import DEFAULT_POST_BYTES, MBIT
from repro.core.admission import NoDefenseThinner
from repro.core.auction import VirtualAuctionThinner
from repro.core.frontend import Deployment, DeploymentConfig
from repro.core.quantum import QuantumAuctionThinner
from repro.core.retry import RandomDropThinner
from repro.errors import ExperimentError
from repro.simnet.topology import build_lan, uniform_bandwidths


def build(config=None, **kwargs):
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(2, 2 * MBIT))
    return Deployment(topology, thinner_host, config or DeploymentConfig(**kwargs)), hosts


def test_config_validation():
    with pytest.raises(ExperimentError):
        DeploymentConfig(server_capacity_rps=0).validate()
    with pytest.raises(ExperimentError):
        DeploymentConfig(defense="bogus").validate()
    # A hand-built config refuses every max_contenders a scenario cannot
    # read: not a positive int (a bool is not a count).
    for contenders in (0, -3, math.nan, math.inf, 0.5, True, "3"):
        with pytest.raises(ExperimentError, match="max_contenders must be a positive int"):
            DeploymentConfig(max_contenders=contenders).validate()
    with pytest.raises(ExperimentError):
        DeploymentConfig(encouragement_delay=-1).validate()
    DeploymentConfig().validate()
    DeploymentConfig(max_contenders=3).validate()


@pytest.mark.parametrize(
    "defense,thinner_type",
    [
        ("speakup", VirtualAuctionThinner),
        ("retry", RandomDropThinner),
        ("quantum", QuantumAuctionThinner),
        ("none", NoDefenseThinner),
    ],
)
def test_defense_selects_thinner_class(defense, thinner_type):
    deployment, _hosts = build(defense=defense)
    assert isinstance(deployment.thinner, thinner_type)


def test_run_requires_positive_duration_and_results_require_run():
    deployment, _hosts = build()
    with pytest.raises(ExperimentError):
        deployment.run(0.0)
    with pytest.raises(ExperimentError):
        deployment.results()


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
def test_run_refuses_a_non_finite_duration_with_one_line(duration):
    deployment, _hosts = build()
    with pytest.raises(ExperimentError, match="duration must be positive and finite"):
        deployment.run(duration)
    assert deployment.engine.now == 0.0


def test_run_advances_clock_and_accumulates_duration():
    deployment, _hosts = build()
    deployment.run(2.0)
    deployment.run(3.0)
    assert deployment.engine.now == pytest.approx(5.0)
    assert deployment.duration == pytest.approx(5.0)


def test_payment_channel_posts_the_prototype_size():
    deployment, hosts = build()
    from repro.httpd.messages import new_request

    channel = deployment.payment_channel(hosts[0], new_request("c", issued_at=0.0))
    assert channel.post_bytes == DEFAULT_POST_BYTES
    assert channel.thinner_host is deployment.thinner_host


def test_client_streams_are_distinct_per_name():
    """One name draws the same values every time it is asked for; two
    names draw different ones.  Client streams are not registered, so a
    second request makes a fresh stream rather than returning the first."""
    deployment, _hosts = build()

    def draws(name):
        stream = deployment.client_stream(name)
        return [stream.random() for _ in range(5)]

    assert draws("client-a") == draws("client-a")
    assert draws("client-a") != draws("client-b")
    assert "client:client-a" not in deployment.streams


def test_gc_reenabled_even_when_run_raises():
    """``run`` pauses GC around the engine loop but must restore it on error."""
    import gc

    deployment, _hosts = build()

    boom = RuntimeError("engine exploded")
    enabled_in_loop = []

    def exploding(_flow=None):
        enabled_in_loop.append(gc.isenabled())
        raise boom

    deployment.engine.schedule_after(0.5, exploding)
    assert gc.isenabled()
    with pytest.raises(RuntimeError) as excinfo:
        deployment.run(1.0)
    assert excinfo.value is boom
    assert enabled_in_loop == [False], "the event loop must run with the GC paused"
    assert gc.isenabled(), "a failing run must not leave the GC disabled"


def test_start_up_shares_the_loops_gc_pause():
    """Auxiliaries and clients start with the GC paused, and a failing
    ``start()`` still re-enables it."""
    import gc

    class Recorder:
        def __init__(self):
            self.enabled = []

        def start(self):
            self.enabled.append(gc.isenabled())

    class Exploding:
        def start(self):
            raise RuntimeError("start failed")

    deployment, _hosts = build()
    recorder = Recorder()
    deployment.register_auxiliary(recorder)
    deployment.run(0.5)
    assert recorder.enabled == [False]
    assert gc.isenabled()

    deployment, _hosts = build()
    deployment.register_auxiliary(Exploding())
    with pytest.raises(RuntimeError, match="start failed"):
        deployment.run(0.5)
    assert gc.isenabled(), "a failing start() must not leave the GC disabled"


def test_gc_left_alone_when_already_disabled():
    """``run`` only re-enables GC it disabled itself."""
    import gc

    deployment, _hosts = build()
    assert gc.isenabled()
    gc.disable()
    try:
        deployment.run(0.5)
        assert not gc.isenabled(), "run must not enable GC the caller disabled"
    finally:
        gc.enable()


def test_aggregate_bandwidth_by_class():
    from repro.clients.bad import BadClient
    from repro.clients.good import GoodClient

    deployment, hosts = build()
    GoodClient(deployment, hosts[0])
    BadClient(deployment, hosts[1])
    assert deployment.aggregate_bandwidth_bps() == pytest.approx(4 * MBIT)
    assert deployment.aggregate_bandwidth_bps("good") == pytest.approx(2 * MBIT)
    assert len(deployment.good_clients) == 1
    assert len(deployment.bad_clients) == 1
