"""Tests for the workload clients (arrivals, windowing, backlog, stats)."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.bad import BadClient
from repro.clients.base import (
    _IDLE_STATS,
    _NO_ENTRIES,
    _NO_ITEMS,
    ARRIVAL_BATCH,
    ArrivalPark,
    ClientStats,
    RetryPolicy,
)
from repro.clients.cheats import FocusedCheater, LurkingCheater
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.errors import ClientError, ExperimentError
from repro.faults import FaultPlan
from repro.faults.spec import gray_pulse, kill_heal_pulse
from repro.rng import RandomStream
from repro.scenarios.registry import build_scenario
from repro.simnet.engine import Engine
from repro.simnet.topology import build_fleet, build_lan, uniform_bandwidths
from tests.conftest import add_clients, make_deployment


def build_empty_deployment(clients=4, capacity=10.0, defense="speakup", seed=0):
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(clients, 2 * MBIT))
    config = DeploymentConfig(server_capacity_rps=capacity, defense=defense, seed=seed)
    return Deployment(topology, thinner_host, config), hosts


def test_client_parameter_validation():
    deployment, hosts = build_empty_deployment()
    with pytest.raises(ClientError):
        GoodClient(deployment, hosts[0], rate_rps=0.0)
    with pytest.raises(ClientError):
        GoodClient(deployment, hosts[1], window=0)


def test_default_rates_and_windows_match_the_paper():
    deployment, hosts = build_empty_deployment()
    good = GoodClient(deployment, hosts[0])
    bad = BadClient(deployment, hosts[1])
    assert (good.rate_rps, good.window, good.client_class) == (2.0, 1, "good")
    assert (bad.rate_rps, bad.window, bad.client_class) == (40.0, 20, "bad")


def test_good_client_window_limits_outstanding_requests():
    deployment, hosts = build_empty_deployment(clients=1, capacity=2.0)
    client = GoodClient(deployment, hosts[0])
    deployment.run(10.0)
    # Window is one: outstanding can never exceed it.
    assert client.outstanding <= 1
    assert client.stats.issued >= client.stats.sent
    assert client.stats.sent >= client.stats.served


def test_bad_client_keeps_many_requests_outstanding():
    deployment, hosts = build_empty_deployment(clients=1, capacity=1.0)
    client = BadClient(deployment, hosts[0])
    deployment.run(10.0)
    assert client.outstanding == client.window


def test_backlogged_requests_time_out_as_denials():
    deployment, hosts = build_empty_deployment(clients=1, capacity=0.5)
    client = BadClient(deployment, hosts[0], rate_rps=30.0, window=2)
    deployment.run(25.0)
    assert client.stats.denied > 0
    # Conservation: every issued request is accounted for exactly once.
    accounted = (client.stats.served + client.stats.denied + client.stats.dropped
                 + client.outstanding + len(client.backlog))
    assert accounted == client.stats.issued


def test_served_requests_record_payment_metrics():
    deployment, result = make_deployment(good=2, bad=2, capacity=8.0, duration=12.0)
    good_clients = deployment.good_clients
    assert any(client.stats.payment_times for client in good_clients)
    for client in good_clients:
        for payment_time in client.stats.payment_times:
            assert payment_time >= 0.0
        assert client.stats.served_fraction <= 1.0
        assert client.total_bytes_spent() >= client.stats.bytes_paid


def test_difficulty_callable_draws_per_request():
    deployment, hosts = build_empty_deployment(clients=1, capacity=20.0)
    client = GoodClient(deployment, hosts[0], difficulty=lambda c: c.rng.uniform(1.0, 3.0))
    deployment.run(5.0)
    assert client.stats.issued > 0


def test_population_builder_counts_and_classes():
    spec = build_scenario(
        "lan-baseline", good_clients=4, bad_clients=2, client_bandwidth_bps=2 * MBIT
    )
    deployment = spec.build()
    assert len(deployment.clients) == 6
    assert len(deployment.good_clients) == 4
    assert len(deployment.bad_clients) == 2
    assert deployment.aggregate_bandwidth_bps("good") == pytest.approx(4 * 2 * MBIT)


def test_a_group_of_an_unknown_class_fails_to_build():
    spec = build_scenario("lan-baseline", good_clients=3, bad_clients=0)
    with pytest.raises(ExperimentError, match="unknown client class 'weird'"):
        spec.with_value("groups.0.client_class", "weird").build()


def test_population_spec_defaults_follow_class():
    deployment = build_scenario("lan-baseline", good_clients=1, bad_clients=1).build()
    good, bad = deployment.clients
    assert (good.client_class, good.rate_rps, good.window) == ("good", 2.0, 1)
    assert (bad.client_class, bad.rate_rps, bad.window) == ("bad", 40.0, 20)


def test_focused_cheater_uses_one_channel_at_a_time():
    deployment, hosts = build_empty_deployment(clients=2, capacity=4.0)
    cheater = FocusedCheater(deployment, hosts[0], rate_rps=10.0, window=5)
    GoodClient(deployment, hosts[1])
    deployment.run(12.0)
    open_channels = sum(1 for channel in cheater.channels.values() if channel.is_open)
    assert open_channels <= 1
    assert cheater.client_class == "bad"


def test_lurking_cheater_delays_payment():
    deployment, hosts = build_empty_deployment(clients=2, capacity=4.0)
    lurker = LurkingCheater(deployment, hosts[0], lurk_delay=2.0, rate_rps=5.0, window=3)
    GoodClient(deployment, hosts[1])
    deployment.run(10.0)
    assert lurker.stats.issued > 0
    with pytest.raises(ClientError):
        LurkingCheater(deployment, hosts[1], lurk_delay=-1.0)


def test_cheaters_cannot_beat_proportional_share_by_much():
    """Theorem 3.1 in action: timing games cannot grossly exceed the
    bandwidth-proportional share."""

    def run(factory):
        topology, hosts, thinner_host = build_lan(uniform_bandwidths(4, 2 * MBIT))
        deployment = Deployment(
            topology, thinner_host,
            DeploymentConfig(server_capacity_rps=10.0, defense="speakup", seed=4),
        )
        GoodClient(deployment, hosts[0])
        GoodClient(deployment, hosts[1])
        factory(deployment, hosts[2])
        factory(deployment, hosts[3])
        deployment.run(20.0)
        return deployment.results()

    focused = run(lambda dep, host: FocusedCheater(dep, host))
    plain = run(lambda dep, host: BadClient(dep, host))
    # Cheating with timing should not buy dramatically more than the plain
    # bad client strategy (both hold ~half the bandwidth).
    assert focused.bad_allocation < plain.bad_allocation + 0.2
    assert focused.bad_allocation < 0.75


# ---------------------------------------------------------------------------
# Batched arrival pregeneration
# ---------------------------------------------------------------------------


def test_batched_arrivals_match_legacy_scheduler_exactly():
    """The pregenerated path must consume the client stream in the legacy
    order.  A trivially-callable difficulty forces the legacy per-event
    scheduler without drawing anything itself, so both runs must produce
    bit-identical request issue times and outcomes."""

    def run(difficulty):
        deployment, hosts = build_empty_deployment(clients=4, capacity=8.0, seed=9)
        clients = [
            GoodClient(deployment, hosts[0], difficulty=difficulty),
            GoodClient(deployment, hosts[1], difficulty=difficulty),
            BadClient(deployment, hosts[2], difficulty=difficulty),
            BadClient(deployment, hosts[3], difficulty=difficulty),
        ]
        assert clients[0]._batched_arrivals == (not callable(difficulty))
        deployment.run(8.0)
        return deployment

    batched = run(1.0)
    legacy = run(lambda client: 1.0)
    for client_b, client_l in zip(batched.clients, legacy.clients):
        assert client_b.stats.issued == client_l.stats.issued
        assert client_b.stats.served == client_l.stats.served
        assert client_b.stats.response_times == client_l.stats.response_times
        assert client_b.stats.prices == client_l.stats.prices
    assert batched.results().to_dict() == legacy.results().to_dict()


def test_batched_arrivals_match_legacy_under_modulation():
    """Same contract with thinning in play: the refill loop's
    gap/accept draw interleaving must match the per-event scheduler's."""

    def run(difficulty):
        deployment, hosts = build_empty_deployment(clients=2, capacity=8.0, seed=5)
        modulator = lambda now: 0.4 if now < 4.0 else 1.0
        for host in hosts:
            GoodClient(deployment, host, rate_rps=6.0,
                       rate_modulator=modulator, difficulty=difficulty)
        deployment.run(8.0)
        return [client.stats.issued for client in deployment.clients], deployment.results()

    batched_issued, batched_result = run(1.0)
    legacy_issued, legacy_result = run(lambda client: 1.0)
    assert batched_issued == legacy_issued
    assert batched_result.to_dict() == legacy_result.to_dict()


def test_idle_modulated_clients_cost_almost_no_events():
    """A floor-zero modulated cohort must not scale engine event count:
    thinned-away candidates die in the refill loop, not in the queue."""
    from repro.clients.base import MAX_CANDIDATES_PER_REFILL

    def run(modulator):
        deployment, hosts = build_empty_deployment(clients=4, capacity=10.0, seed=2)
        for host in hosts:
            GoodClient(deployment, host, rate_rps=50.0, rate_modulator=modulator)
        deployment.run(20.0)
        return deployment.engine.events_processed

    idle_events = run(lambda now: 0.0)
    # 4 clients x 50 candidates/s x 20 s = 4000 candidates; the legacy
    # scheduler would have burned one event per candidate.  Batched
    # pregeneration needs only ~one resume event per MAX_CANDIDATES.
    candidates = 4 * 50.0 * 20.0
    assert idle_events <= candidates / MAX_CANDIDATES_PER_REFILL + 16


def test_pregeneration_stops_near_run_horizon():
    """A short run must not pregenerate (or buffer) a whole batch of
    post-horizon arrivals for every client."""
    deployment, hosts = build_empty_deployment(clients=1, capacity=10.0, seed=3)
    client = GoodClient(deployment, hosts[0], rate_rps=1.0)
    deployment.run(0.5)
    # rate 1/s over 0.5 s: a handful of chained chunks at most, not the
    # full 64-draw batch (~64 simulated seconds of lookahead).
    assert len(client._pending_arrivals) <= 8
    assert client._gen_time < 40.0


def test_the_first_refill_draws_only_what_the_horizon_needs():
    """A 0.02 req/s client in a 0.05 s run draws one gap, which already
    lies past the run's end, and buffers nothing behind it."""
    deployment, hosts = build_empty_deployment(clients=1, capacity=10.0, seed=0)
    client = GoodClient(deployment, hosts[0], rate_rps=0.02)
    deployment.run(0.05)
    twin = RandomStream(0, f"client:{client.name}")
    assert client._gen_time == 0.0 + twin.exponential(0.02)
    assert client._gen_time > 0.05
    assert len(client._pending_arrivals) == 0
    assert client.stats.issued == 0


def test_a_refill_under_a_horizon_stops_at_its_batch():
    """Chunks of 1, 2, 4 and 8 gaps are capped at what is left of the
    batch, so a refill that stays inside the horizon holds exactly
    :data:`ARRIVAL_BATCH` arrivals."""
    deployment, hosts = build_empty_deployment(clients=1, capacity=10.0, seed=0)
    client = GoodClient(deployment, hosts[0], rate_rps=1000.0)
    deployment.engine.run_horizon = 10.0
    client.start()
    assert len(client._pending_arrivals) == ARRIVAL_BATCH - 1  # one is already scheduled


# ---------------------------------------------------------------------------
# Footprint
# ---------------------------------------------------------------------------


def test_clients_have_no_instance_dict():
    deployment, hosts = build_empty_deployment(clients=5)
    clients = [
        GoodClient(deployment, hosts[0]),
        BadClient(deployment, hosts[1]),
        FocusedCheater(deployment, hosts[2]),
        LurkingCheater(deployment, hosts[3]),
    ]
    for client in clients:
        assert not hasattr(client, "__dict__"), type(client).__name__
        assert not hasattr(client.stats, "__dict__")
        assert client._retry is None
    retrying = GoodClient(deployment, hosts[4], retry_policy=RetryPolicy.budgeted())
    assert not hasattr(retrying._retry, "__dict__")


def _rollup_mega_2000():
    return build_scenario(
        "rollup-mega", good_clients=1950, bad_clients=50,
        thinner_bandwidth_bps=400 * MBIT, seed=0,
    )


def test_a_built_client_costs_at_most_800_bytes():
    """Bytes ``build()`` allocates per client at 2,000 clients.

    A slotted client reads about 600 B on CPython 3.11.  Its host keeps
    only its access parameters: the access link is built when the client
    first sends, inside ``run()``, and so are its Mersenne Twister and its
    own ``ClientStats``.  Its stream is not registered with the
    deployment's stream factory and keeps no name, its retry state is one
    empty slot, and its sample lists, channel and upload maps and pending
    arrivals are shared empties until their first write.  Its own
    ``ClientStats`` at build time, with a registered, named stream and six
    retry slots, reads about 870 B per client and fails the bound, as do
    fresh empty containers (about 1.25 KB), access links built with every
    host (about 2.2 KB) and a Twister made at build time (about 4.1 KB).
    The headroom is for other CPython versions.
    """
    spec = _rollup_mega_2000()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deployment = spec.build()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(deployment.clients) == 2000
    assert allocated / 2000 <= 800


def test_idle_clients_hold_no_generator_after_a_run():
    """After a 0.05 s run nearly every client's next draw lies past the
    run's end, so its stream is parked, and so is its next arrival.  The
    peak of ``build()`` plus ``run()`` is about 750 B per client.  Its own
    ``ClientStats`` for every client, with registered, named streams and
    six retry slots, puts it at about 1,020 B, an engine event per idle
    arrival with fresh empty containers at about 1.63 KB, access links
    built with every host at about 2.6 KB, Twisters made at build time at
    about 4.2 KB, and Twisters never parked at about 4.5 KB."""
    spec = _rollup_mega_2000()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deployment = spec.build()
        deployment.run(spec.duration)
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    now = deployment.engine.now
    idle = [
        client for client in deployment.clients
        if not client._pending_arrivals and client._gen_time > now
    ]
    assert len(idle) >= 1950
    assert all(client.rng._rng is None for client in idle)
    assert allocated / 2000 <= 950


def test_idle_clients_hold_no_engine_event_and_no_containers():
    """A client that never sent holds no engine event of its own (its next
    arrival waits in the deployment's park) and only the shared empties."""
    spec = _rollup_mega_2000()
    deployment = spec.build()
    deployment.run(spec.duration)
    assert deployment.engine.pending_events < 100
    idle = [client for client in deployment.clients if not client.stats.sent]
    assert len(idle) >= 1900
    for client in idle:
        assert client.channels is _NO_ENTRIES and client._inflight is _NO_ENTRIES
        assert client._pending_arrivals is _NO_ITEMS and client.backlog is _NO_ITEMS
        stats = client.stats
        assert stats.payment_times is stats.response_times is stats.prices is _NO_ITEMS


@pytest.mark.parametrize(
    "retry_policy", [RetryPolicy.naive(), RetryPolicy.budgeted()], ids=["naive", "budgeted"]
)
def test_no_outcome_writes_the_shared_idle_stats(retry_policy):
    """Served, dropped, denied, backlogged, retried, budget-suppressed and
    shard-killed requests all count in their own client's stats: after a
    run with every one of them the shared idle stats still equal
    ``ClientStats()``, and exactly the clients that never issued hold them."""
    lossy = gray_pulse((0, 1, 2), 2.0, 10.0, loss_p=0.5)
    kill = kill_heal_pulse(1, kill_at_s=4.0, heal_at_s=8.0)
    topology, hosts, thinner_hosts = build_fleet(uniform_bandwidths(16, 2 * MBIT), 3)
    config = DeploymentConfig(
        server_capacity_rps=18.0, seed=0, thinner_shards=3,
        fault_plan=FaultPlan(events=lossy.events + kill.events),
    )
    deployment = Deployment(topology, thinner_hosts, config)
    add_clients(deployment, hosts, 6, 6, retry_policy=retry_policy)
    for host in hosts[12:]:
        GoodClient(deployment, host, rate_rps=1e-6, retry_policy=retry_policy)
    deployment.run(14.0)

    result = deployment.results()
    stats = [client.stats for client in deployment.clients]
    for name in ("served", "dropped", "denied", "backlogged", "retries_attempted"):
        assert sum(getattr(each, name) for each in stats) > 0, name
    if retry_policy.budget is not None:
        assert sum(each.retries_suppressed for each in stats) > 0
    assert result.failover.kills == 1 and result.failover.orphaned_requests > 0
    assert _IDLE_STATS == ClientStats()
    assert sum(each is _IDLE_STATS for each in stats) == 4
    assert all((each is _IDLE_STATS) == (each.issued == 0) for each in stats)


@pytest.mark.parametrize(
    "make_spec, steps",
    [
        (_rollup_mega_2000, (0.05, 0.2, 0.25)),
        (lambda: build_scenario("lan-baseline", good_clients=10, bad_clients=10, seed=3),
         (1.0, 1.5, 1.5)),
    ],
    ids=["rollup-mega", "lan-baseline"],
)
def test_stepped_runs_give_the_result_of_one_run(make_spec, steps):
    """Each ``run()`` wakes the arrivals parked past the last one's horizon;
    run in steps, a deployment fires the same events and reports the same
    result as one run over the whole span."""
    spec = make_spec()
    whole = spec.build()
    whole.run(sum(steps))
    stepped = spec.build()
    for step in steps:
        stepped.run(step)
    assert stepped.engine.now == whole.engine.now
    assert stepped.engine.events_processed == whole.engine.events_processed
    assert stepped.results().to_dict() == whole.results().to_dict()


class _Probe:
    """Stands in for a client: logs each arrival and may schedule one more,
    parking it as a client does when it lies past the run horizon."""

    def __init__(self, engine, park, log, name, gap):
        self.engine, self.park, self.log, self.name, self.gap = engine, park, log, name, gap

    def _arrival(self):
        self.log.append((self.engine.now, self.name))
        if self.gap is not None:
            due, self.gap = self.engine.now + self.gap, None
            self.name += "'"
            _push_arrival(self.engine, self.park, due, self)


def _push_arrival(engine, park, due, probe):
    horizon = engine.run_horizon
    if park is None or horizon is None or due <= horizon:
        engine.schedule_at(due, probe._arrival)
    else:
        park.park(due, engine.reserve_seq(), probe)


def _fire_all(operations, horizons, parked):
    """Schedule the operations, run to each horizon then to the end; return
    the ``(time, name)`` log and the events fired."""
    engine = Engine()
    park = ArrivalPark(engine) if parked else None
    log = []
    engine.run_horizon = horizons[0]
    for index, (is_arrival, time, gap) in enumerate(operations):
        if is_arrival:
            _push_arrival(engine, park, time, _Probe(engine, park, log, f"a{index}", gap))
        else:
            engine.schedule_at(time, lambda name=f"e{index}": log.append((engine.now, name)))
    for horizon in horizons:
        engine.run(until=horizon)
    engine.run()
    return log, engine.events_processed


_INSTANTS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 4.0)


@settings(max_examples=200, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.booleans(), _INSTANTS, st.none() | st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        max_size=30,
    ),
    horizons=st.lists(_INSTANTS, min_size=1, max_size=4).map(sorted),
)
def test_parked_arrivals_fire_in_the_order_of_their_own_events(operations, horizons):
    """Ties, same-instant events and arrivals parked mid-run included, the
    park fires each arrival at the time and seq its own event would have."""
    assert _fire_all(operations, horizons, parked=True) == _fire_all(
        operations, horizons, parked=False
    )


def test_only_hosts_that_carried_a_flow_build_an_access_link():
    """After a 2,000-client run exactly the senders and the thinner have an
    access link, and the network's store holds only the links a flow
    crossed: each sender's uplink and the thinner's downlink."""
    spec = _rollup_mega_2000()
    deployment = spec.build()
    deployment.run(spec.duration)
    thinner = deployment.thinner_hosts[0]
    senders = [client.host for client in deployment.clients if client.stats.sent]
    assert 0 < len(senders) < 100
    network = deployment.network
    built = {link.name for link in network.topology.built_links()}
    assert built == {
        f"{host.name}.access.{direction}"
        for host in senders + [thinner]
        for direction in ("up", "down")
    }
    registered = [link.name for link in network.soa.l_views]
    assert sorted(registered) == sorted(
        [host.access.up.name for host in senders] + [thinner.access.down.name]
    )


def test_a_second_run_resumes_parked_streams_exactly():
    """Each client's arrivals over two runs are the chained gaps a fresh
    twin of its stream draws, whether or not the stream sat parked between
    the runs."""
    spec = build_scenario("rollup-mega", good_clients=20, bad_clients=0, seed=3)
    deployment = spec.build()
    deployment.run(spec.duration)
    parked = [client for client in deployment.clients if client.rng._rng is None]
    assert len(parked) == 20
    deployment.run(150.0)
    resumed = 0
    for client in deployment.clients:
        twin = RandomStream(3, f"client:{client.name}")
        arrivals = []
        t = 0.0
        while t < client._gen_time:
            t = t + twin.exponential(client.rate_rps)
            arrivals.append(t)
        assert t == client._gen_time
        assert client.stats.issued == sum(1 for at in arrivals if at <= deployment.engine.now)
        assert client.rng.random() == twin.random()
        resumed += client.stats.issued > 0
    assert resumed >= 15
