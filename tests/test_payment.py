"""Tests for payment channels (POST streams, quiescence, accounting)."""

import pytest

from repro.constants import MBIT
from repro.core.payment import PaymentChannel, PaymentChannelState
from repro.errors import PaymentError
from repro.simnet.engine import Engine
from repro.simnet.network import FluidNetwork
from repro.simnet.topology import build_lan, uniform_bandwidths


def make_channel(post_bytes=250_000, quiescent_rtts=2.0, bandwidth=2 * MBIT):
    topology, hosts, thinner = build_lan(uniform_bandwidths(1, bandwidth))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    channel = PaymentChannel(
        network, hosts[0], thinner, request_id=1,
        post_bytes=post_bytes, quiescent_rtts=quiescent_rtts,
    )
    return engine, network, channel


def test_channel_parameter_validation():
    topology, hosts, thinner = build_lan(uniform_bandwidths(1, 2 * MBIT))
    network = FluidNetwork(Engine(), topology)
    with pytest.raises(PaymentError):
        PaymentChannel(network, hosts[0], thinner, request_id=1, post_bytes=0)
    with pytest.raises(PaymentError):
        PaymentChannel(network, hosts[0], thinner, request_id=1, quiescent_rtts=-1)


def test_open_starts_paying_and_cannot_reopen():
    engine, network, channel = make_channel()
    channel.open()
    assert channel.is_open
    assert channel.state == PaymentChannelState.PAYING
    with pytest.raises(PaymentError):
        channel.open()


def test_bytes_accumulate_at_access_rate():
    engine, network, channel = make_channel(post_bytes=10_000_000)
    channel.open()
    engine.run(until=2)
    # 2 Mbit/s for 2 s = 0.5 MB.
    assert channel.total_paid() == pytest.approx(500_000)
    assert channel.payment_rate_bps() == pytest.approx(2 * MBIT)


def test_posts_repeat_after_quiescent_gap():
    engine, network, channel = make_channel(post_bytes=250_000, quiescent_rtts=2.0)
    channel.open()
    # One POST takes 1 s at 2 Mbit/s; the gap is 2 * RTT = 8 ms.
    engine.run(until=0.5)
    assert channel.posts_completed == 0
    engine.run(until=1.004)
    assert channel.posts_completed == 1
    # During the gap no new bytes flow.
    paid_during_gap = channel.total_paid()
    engine.run(until=1.007)
    assert channel.total_paid() == pytest.approx(paid_during_gap)
    # After the gap the next POST starts.
    engine.run(until=3.0)
    assert channel.posts_completed >= 1
    assert channel.total_paid() > paid_during_gap


def test_close_commits_in_flight_bytes_and_stops_future_posts():
    engine, network, channel = make_channel(post_bytes=1_000_000)
    channel.open()
    engine.run(until=1)
    total = channel.close()
    assert total == pytest.approx(250_000)
    assert channel.state == PaymentChannelState.CLOSED
    assert not channel.is_open
    # Nothing more accrues after close.
    engine.run(until=5)
    assert channel.total_paid() == pytest.approx(250_000)
    assert network.active_flows == []
    # Closing twice is harmless.
    assert channel.close() == pytest.approx(250_000)


def test_peek_balance_matches_synced_balance():
    engine, network, channel = make_channel(post_bytes=5_000_000)
    channel.open()
    engine.run(until=1.5)
    peeked = channel.peek_balance(engine.now)
    assert peeked == pytest.approx(channel.balance(sync=True))


def test_consume_resets_the_bid_but_not_the_total():
    engine, network, channel = make_channel(post_bytes=10_000_000)
    channel.open()
    engine.run(until=2)
    consumed = channel.consume()
    assert consumed == pytest.approx(500_000)
    assert channel.balance() == pytest.approx(0.0)
    assert channel.total_paid() == pytest.approx(500_000)
    engine.run(until=3)
    assert channel.balance() == pytest.approx(250_000)
    assert channel.total_paid() == pytest.approx(750_000)


def test_post_completion_callback():
    completions = []
    engine, network, channel = make_channel(post_bytes=250_000)
    channel.on_post_complete = lambda ch, count: completions.append(count)
    channel.open()
    engine.run(until=2.2)
    assert completions and completions[0] == 1
