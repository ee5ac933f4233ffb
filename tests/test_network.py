"""Tests for the fluid network: flow lifecycle, integration, incremental rates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MBIT
from repro.errors import FlowError
from repro.simnet.bandwidth import max_min_fair_rates
from repro.simnet.engine import Engine
from repro.simnet.flow import FlowState
from repro.simnet.network import FluidNetwork
from repro.simnet.topology import build_bottleneck, build_lan, uniform_bandwidths


def make_network(clients=3, bandwidth=2 * MBIT):
    topology, hosts, thinner = build_lan(uniform_bandwidths(clients, bandwidth))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    return engine, network, hosts, thinner


def test_bounded_flow_completes_at_the_expected_time():
    engine, network, hosts, thinner = make_network()
    done = []
    network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append(engine.now))
    engine.run(until=10)
    # 1 MByte at 2 Mbit/s is exactly 4 seconds.
    assert done == [pytest.approx(4.0)]
    assert network.completed_flows == 1


def test_unbounded_flow_accumulates_bytes_until_stopped():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, label="stream")
    engine.run(until=8)
    assert network.delivered_bytes(flow) == pytest.approx(2 * MBIT * 8 / 8)
    delivered = network.stop_flow(flow)
    assert delivered == pytest.approx(2_000_000)
    assert flow.state == FlowState.STOPPED


def test_two_flows_from_same_host_share_its_uplink():
    engine, network, hosts, thinner = make_network()
    first = network.send(hosts[0], thinner)
    second = network.send(hosts[0], thinner)
    engine.run(until=4)
    assert network.delivered_bytes(first) == pytest.approx(network.delivered_bytes(second))
    total = network.delivered_bytes(first) + network.delivered_bytes(second)
    assert total == pytest.approx(2 * MBIT * 4 / 8)


def test_stopping_one_flow_speeds_up_the_other():
    engine, network, hosts, thinner = make_network()
    first = network.send(hosts[0], thinner)
    second = network.send(hosts[0], thinner)
    engine.run(until=2)
    network.stop_flow(first)
    engine.run(until=4)
    # Second flow: 1 Mbit/s for 2 s then 2 Mbit/s for 2 s = 0.75 MB.
    assert network.delivered_bytes(second) == pytest.approx(750_000)


def test_completion_time_adapts_when_competition_leaves():
    engine, network, hosts, thinner = make_network()
    done = []
    network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append(engine.now))
    blocker = network.send(hosts[0], thinner)
    engine.run(until=2)      # bounded flow has 0.25 MB so far
    network.stop_flow(blocker)
    engine.run(until=10)
    # Remaining 0.75 MB at full 2 Mbit/s takes 3 more seconds.
    assert done == [pytest.approx(5.0)]


def test_a_completion_pushed_later_fires_once_at_its_new_time():
    engine, network, hosts, thinner = make_network()
    done = []
    network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append(engine.now))
    engine.schedule_at(2.0, network.send, hosts[0], thinner)
    engine.run(until=10)
    # 0.5 MB left at 2 s, then 1 Mbit/s: the 4.0 s completion moves to 6.0 s.
    assert done == [6.0]
    assert engine.events_processed == 2


def test_a_completion_left_short_by_float_residue_is_rearmed():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, size_bytes=1_000_000)
    engine.run(until=1)
    # One byte short at the 4.0 s completion, standing in for float residue.
    network.soa.fm_delivered[flow._fid] -= 1.0
    engine.run(until=10)
    # The last byte takes 8 / 2e6 s more at the same 2 Mbit/s.
    assert flow.state == FlowState.COMPLETED
    assert flow.finished_at == 4.0 + 8 / 2e6
    assert engine.pending_events == 0


def test_completions_keep_their_place_among_same_instant_events():
    engine, network, hosts, thinner = make_network()
    fired = []
    # 1 MByte at 2 Mbit/s each, on separate uplinks: both finish at 4.0 s.
    engine.schedule_at(4.0, fired.append, "X")
    first = network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: fired.append("A"))
    second = network.send(hosts[1], thinner, size_bytes=1_000_000, on_complete=lambda f: fired.append("B"))
    engine.run(until=1)  # the first flush gives both flows their completion times
    engine.schedule_at(4.0, fired.append, "Y")
    engine.run(until=10)
    assert fired == ["X", "A", "B", "Y"]
    assert first.finished_at == second.finished_at == 4.0


def test_pending_completions_are_one_engine_event_but_count_per_flow():
    engine, network, hosts, thinner = make_network(clients=50)
    for index, host in enumerate(hosts):
        network.send(host, thinner, size_bytes=1_000_000 + index)
    network.sync()
    assert len(network.active_flows) == 50
    assert engine.pending_events == 1
    # The next flush samples the live-event peak as if each flow had its own event.
    network.send(hosts[0], thinner)
    network.sync()
    assert network.counters.peak_live_events == 50


def test_rate_cap_is_respected_and_can_be_lifted():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, rate_cap_bps=0.5 * MBIT)
    engine.run(until=2)
    assert network.delivered_bytes(flow) == pytest.approx(0.5 * MBIT * 2 / 8)
    network.set_rate_cap(flow, None)
    engine.run(until=4)
    assert network.delivered_bytes(flow) == pytest.approx(0.125e6 + 2 * MBIT * 2 / 8 / 1e0)


def test_flow_cannot_start_twice():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner)
    with pytest.raises(FlowError):
        network.start_flow(flow)


def test_stopping_finished_flow_is_a_noop():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, size_bytes=1000)
    engine.run(until=1)
    assert flow.state == FlowState.COMPLETED
    assert network.stop_flow(flow) == pytest.approx(1000)


def test_shared_bottleneck_constrains_aggregate():
    topology, behind, direct, thinner, cable = build_bottleneck(
        bottlenecked_bandwidths_bps=uniform_bandwidths(4, 2 * MBIT),
        direct_bandwidths_bps=uniform_bandwidths(1, 2 * MBIT),
        bottleneck_bandwidth_bps=4 * MBIT,
    )
    engine = Engine()
    network = FluidNetwork(engine, topology)
    flows = [network.send(host, thinner) for host in behind]
    direct_flow = network.send(direct[0], thinner)
    engine.run(until=4)
    behind_total = sum(network.delivered_bytes(flow) for flow in flows)
    # The four clients could send 8 Mbit/s but the cable passes only 4 Mbit/s.
    assert behind_total == pytest.approx(4 * MBIT * 4 / 8, rel=1e-6)
    assert network.delivered_bytes(direct_flow) == pytest.approx(2 * MBIT * 4 / 8)


def test_link_load_and_utilisation_queries():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner)
    engine.run(until=1)
    uplink = hosts[0].access.up
    assert network.link_load_bps(uplink) == pytest.approx(2 * MBIT)
    assert network.link_utilisation(uplink) == pytest.approx(1.0)
    assert network.flows_on(uplink) == [flow]


def test_a_second_network_starts_with_the_links_the_first_built_reset():
    topology, hosts, thinner = build_lan(uniform_bandwidths(3, 2 * MBIT))
    engine = Engine()
    first = FluidNetwork(engine, topology)
    first.send(hosts[0], thinner)
    hosts[0].access.up.set_capacity_factor(0.5, network=first)
    engine.run(until=1)
    uplink = hosts[0].access.up
    assert uplink._flows and uplink.capacity_bps == 1 * MBIT

    engine = Engine()
    second = FluidNetwork(engine, topology)
    # Only the links the first network built are registered, each reset.
    assert second.soa.l_views == list(topology.built_links())
    assert len(second.soa.l_views) == 4
    for link in second.soa.l_views:
        assert link._soa is second.soa
        assert not link._flows and not link._entry_sums
        assert link.capacity_bps == link.base_capacity_bps
    # A flow starts from a clean slate: no ghost of the first network's flow.
    flow = second.send(hosts[0], thinner)
    other = second.send(hosts[1], thinner)
    engine.run(until=1)
    assert second.delivered_bytes(flow) == pytest.approx(2 * MBIT / 8)
    assert second.delivered_bytes(other) == pytest.approx(2 * MBIT / 8)
    assert len(second.soa.l_views) == 5


def test_total_delivered_bytes_accumulates():
    engine, network, hosts, thinner = make_network()
    network.send(hosts[0], thinner, size_bytes=1000)
    network.send(hosts[1], thinner, size_bytes=2000)
    engine.run(until=2)
    assert network.total_delivered_bytes == pytest.approx(3000)


# ---------------------------------------------------------------------------
# Property: the incremental allocator always matches the global reference
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),      # which client host
            st.integers(min_value=0, max_value=2),      # 0: start, 1: stop oldest, 2: advance time
        ),
        min_size=1,
        max_size=25,
    )
)
def test_incremental_rates_match_global_recomputation(operations):
    """Property: after any sequence of flow starts/stops, the incremental
    component-based allocation equals the brute-force global max-min rates.

    ``sync()`` settles the deferred dirty-set recomputation before the rates
    are compared (exactly what the engine does before firing each event)."""
    topology, hosts, thinner = build_lan(uniform_bandwidths(4, 2 * MBIT))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    live = []
    clock = 0.0
    for host_index, action in operations:
        if action == 0:
            live.append(network.send(hosts[host_index], thinner))
        elif action == 1 and live:
            network.stop_flow(live.pop(0))
        else:
            clock += 0.05
            engine.run(until=clock)

    network.sync()
    active = network.active_flows
    expected = max_min_fair_rates(active)
    for flow in active:
        assert flow.rate_bps == pytest.approx(expected[flow], rel=1e-6, abs=1e-3)


def _assert_matches_global(network):
    network.sync()
    active = network.active_flows
    expected = max_min_fair_rates(active)
    for flow in active:
        assert flow.rate_bps == pytest.approx(expected[flow], rel=1e-6, abs=1e-3)


@pytest.mark.parametrize("seed", [7, 19, 42])
def test_incremental_matches_global_on_200_flow_topologies(seed):
    """Property at scale: the dirty-component waterfill path (batched
    recomputation, entry-grouped potential load, signature cache) agrees
    with the global reference on randomized ~200-flow topologies, through
    cap changes, detaches, and time advances.

    The shared cable is deliberately oversubscribed so components span many
    hosts and exceed the rate cache's minimum size — this exercises the
    cached path, not just tiny per-uplink waterfills.
    """
    rng = random.Random(seed)
    tier_mbit = (0.5, 1.0, 2.0, 5.0)
    topology, behind, direct, thinner, _cable = build_bottleneck(
        bottlenecked_bandwidths_bps=[rng.choice(tier_mbit) * MBIT for _ in range(30)],
        direct_bandwidths_bps=[rng.choice(tier_mbit) * MBIT for _ in range(30)],
        bottleneck_bandwidth_bps=20 * MBIT,
    )
    hosts = list(behind) + list(direct)
    engine = Engine()
    network = FluidNetwork(engine, topology)

    caps = (None, 0.25 * MBIT, 0.75 * MBIT, 3 * MBIT)
    flows = [
        network.send(rng.choice(hosts), thinner, rate_cap_bps=rng.choice(caps))
        for _ in range(200)
    ]
    assert len(network.active_flows) == 200

    clock = 0.0
    for step in range(150):
        op = rng.random()
        if op < 0.25 and flows:
            network.stop_flow(flows.pop(rng.randrange(len(flows))))
        elif op < 0.55 and flows:
            network.set_rate_cap(rng.choice(flows), rng.choice(caps))
        elif op < 0.75:
            flows.append(
                network.send(rng.choice(hosts), thinner, rate_cap_bps=rng.choice(caps))
            )
        else:
            clock += 0.01
            engine.run(until=clock)
        if step % 25 == 24:
            _assert_matches_global(network)

    _assert_matches_global(network)
    # The oversubscribed cable must have produced components wide enough to
    # engage the signature cache at least once.
    counters = network.counters
    assert counters.cache_hits + counters.cache_misses > 0
    assert counters.flows_touched > 0
