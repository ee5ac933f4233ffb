"""Tests for the slow-start ramp and transfer-time estimates."""

import pytest

from repro.constants import MBIT
from repro.simnet.engine import Engine
from repro.simnet.network import FluidNetwork
from repro.simnet.tcp import SlowStartRamp, slow_start_transfer_time
from repro.simnet.topology import build_lan, uniform_bandwidths


def make(bandwidth=2 * MBIT):
    topology, hosts, thinner = build_lan(uniform_bandwidths(1, bandwidth))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    return engine, network, hosts[0], thinner


def test_zero_rtt_means_no_ramp():
    engine, network, client, thinner = make()
    ramp = SlowStartRamp(network)
    flow = network.send(client, thinner)
    ramp.attach(flow, rtt=0.0)
    assert flow.rate_cap_bps is None


def test_ramp_caps_then_doubles_then_releases():
    engine, network, client, thinner = make(bandwidth=100 * MBIT)
    ramp = SlowStartRamp(network)
    flow = network.send(client, thinner)
    rtt = 0.1
    ramp.attach(flow, rtt=rtt)
    initial = ramp.initial_rate(rtt)
    assert flow.rate_cap_bps == pytest.approx(initial)
    engine.run(until=0.15)
    assert flow.rate_cap_bps == pytest.approx(2 * initial)
    # After enough doublings the cap is removed entirely.
    engine.run(until=2.0)
    assert flow.rate_cap_bps is None


def test_ramp_never_caps_above_ceiling():
    engine, network, client, thinner = make(bandwidth=1 * MBIT)
    ramp = SlowStartRamp(network)
    flow = network.send(client, thinner)
    # Initial window over a tiny RTT already exceeds the 1 Mbit/s ceiling.
    ramp.attach(flow, rtt=0.001)
    assert flow.rate_cap_bps is None


def test_ramp_slows_initial_delivery():
    """With a large RTT the first seconds deliver fewer bytes than line rate."""
    engine, network, client, thinner = make(bandwidth=2 * MBIT)
    ramp = SlowStartRamp(network)
    flow = network.send(client, thinner)
    ramp.attach(flow, rtt=0.3)
    engine.run(until=1.0)
    assert network.delivered_bytes(flow) < 2 * MBIT * 1.0 / 8


def test_transfer_time_monotone_in_size_and_rtt():
    small = slow_start_transfer_time(1_000, rtt=0.1, bottleneck_bps=1 * MBIT)
    large = slow_start_transfer_time(100_000, rtt=0.1, bottleneck_bps=1 * MBIT)
    assert large > small
    fast_rtt = slow_start_transfer_time(50_000, rtt=0.05, bottleneck_bps=1 * MBIT)
    slow_rtt = slow_start_transfer_time(50_000, rtt=0.5, bottleneck_bps=1 * MBIT)
    assert slow_rtt > fast_rtt


def test_transfer_time_degenerate_cases():
    assert slow_start_transfer_time(0, rtt=0.1, bottleneck_bps=1 * MBIT) == 0.0
    # Zero RTT degenerates to pure serialisation delay.
    assert slow_start_transfer_time(1_000_000, rtt=0.0, bottleneck_bps=8 * MBIT) == pytest.approx(1.0)


def test_large_transfer_approaches_bandwidth_limit():
    size = 10_000_000
    bottleneck = 10 * MBIT
    latency = slow_start_transfer_time(size, rtt=0.05, bottleneck_bps=bottleneck)
    serialisation = size * 8 / bottleneck
    assert latency >= serialisation
    assert latency < serialisation * 1.5
