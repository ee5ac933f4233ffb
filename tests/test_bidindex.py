"""Unit tests for the kinetic bid index and the shared selection contract.

The contract (see ``ThinnerBase._best_contender``): winner selection
maximises ``(peek_bid(now), -arrived_at, -seq)`` and eviction minimises
``(peek_bid(now), -arrived_at, seq)`` — the highest bidder wins with earlier
arrival winning ties, the lowest bidder is evicted with the *latest* arrival
losing ties, and among fully identical keys the earlier-inserted contender
is selected (the first-wins behaviour of the historical linear scans).
"""

from repro.constants import MBIT
from repro.core.auction import VirtualAuctionThinner
from repro.core.bidindex import COMPACT_MIN_HEAP, KineticBidIndex
from repro.core.frontend import Deployment, DeploymentConfig
from repro.perf.counters import SimCounters
from repro.rng import RandomStream
from repro.simnet.topology import build_lan, uniform_bandwidths
from tests.conftest import add_clients


# ---------------------------------------------------------------------------
# Lightweight stand-ins for contenders with linear bid trajectories
# ---------------------------------------------------------------------------


class FakeFlow:
    def __init__(self, rate_bps):
        self.rate_bps = rate_bps


class FakeChannel:
    """A channel whose balance follows ``base + slope * (t - t0)``."""

    def __init__(self, base, slope_bytes_per_s, t0=0.0):
        self.base = base
        self.slope = slope_bytes_per_s
        self.t0 = t0
        self._flow = FakeFlow(slope_bytes_per_s * 8.0) if slope_bytes_per_s else None

    def peek_balance(self, now):
        return self.base + self.slope * (now - self.t0)

    def payment_rate_bps(self):
        return self._flow.rate_bps if self._flow is not None else 0.0


class FakeRequest:
    def __init__(self, request_id):
        self.request_id = request_id


class FakeContender:
    def __init__(self, request_id, arrived_at, seq, channel=None):
        self.request = FakeRequest(request_id)
        self.arrived_at = arrived_at
        self.seq = seq
        self.channel = channel

    def peek_bid(self, now):
        if self.channel is None:
            return 0.0
        return self.channel.peek_balance(now)


def reference_best(contenders, now):
    """The historical linear scan (first max wins)."""
    best = None
    best_key = None
    for contender in contenders:
        key = (contender.peek_bid(now), -contender.arrived_at, -contender.seq)
        if best_key is None or key > best_key:
            best, best_key = contender, key
    return best


def reference_worst(contenders, now, exempt=None):
    worst = None
    worst_key = None
    for contender in contenders:
        if contender.request.request_id == exempt:
            continue
        key = (contender.peek_bid(now), -contender.arrived_at, contender.seq)
        if worst_key is None or key < worst_key:
            worst, worst_key = contender, key
    return worst


def make_index():
    return KineticBidIndex(SimCounters())


# ---------------------------------------------------------------------------
# The tie-break contract
# ---------------------------------------------------------------------------


def test_highest_bid_wins_and_lowest_is_evicted():
    index = make_index()
    low = FakeContender(1, arrived_at=0.5, seq=0, channel=FakeChannel(100.0, 0.0))
    high = FakeContender(2, arrived_at=1.0, seq=1, channel=FakeChannel(900.0, 0.0))
    index.add(low, now=1.0)
    index.add(high, now=1.0)
    assert index.best(2.0) is high
    assert index.worst(2.0) is low


def test_earlier_arrival_wins_bid_ties():
    index = make_index()
    late = FakeContender(1, arrived_at=2.0, seq=0)
    early = FakeContender(2, arrived_at=1.0, seq=1)
    index.add(late, now=2.0)
    index.add(early, now=2.0)
    # Both bid zero: the earlier arrival wins the auction and the *later*
    # arrival loses the eviction decision.
    assert index.best(3.0) is early
    assert index.worst(3.0) is late


def test_fully_identical_keys_fall_back_to_insertion_order():
    index = make_index()
    first = FakeContender(1, arrived_at=1.0, seq=0)
    second = FakeContender(2, arrived_at=1.0, seq=1)
    index.add(first, now=1.0)
    index.add(second, now=1.0)
    assert index.best(2.0) is first    # first max wins, as the scans did
    assert index.worst(2.0) is first   # first min wins likewise


def test_eviction_exempts_the_triggering_arrival():
    index = make_index()
    old = FakeContender(1, arrived_at=1.0, seq=0)
    newest = FakeContender(2, arrived_at=2.0, seq=1)
    index.add(old, now=2.0)
    index.add(newest, now=2.0)
    # Without the exemption the newest zero-bid arrival would be the victim.
    assert index.worst(3.0) is newest
    assert index.worst(3.0, exempt=2) is old
    # The exempt skip must not lose the entry for later queries.
    assert index.worst(3.0) is newest


def test_crossing_trajectories_change_the_winner_over_time():
    index = make_index()
    tortoise = FakeContender(1, 0.0, 0, FakeChannel(1000.0, 10.0))
    hare = FakeContender(2, 0.0, 1, FakeChannel(0.0, 500.0))
    index.add(tortoise, now=0.0)
    index.add(hare, now=0.0)
    assert index.best(1.0) is tortoise      # 1010 vs 500
    assert index.best(10.0) is hare         # 1100 vs 5000
    assert index.worst(10.0) is tortoise


def test_refresh_rekeys_after_trajectory_change():
    index = make_index()
    channel = FakeChannel(0.0, 100.0)
    paying = FakeContender(1, 0.0, 0, channel)
    rival = FakeContender(2, 0.0, 1, FakeChannel(50.0, 0.0))
    index.add(paying, now=0.0)
    index.add(rival, now=0.0)
    assert index.best(1.0) is paying  # 100 vs 50
    # The POST completes at t=1: balance freezes at 100 (slope drops to 0).
    channel.base, channel.slope, channel.t0, channel._flow = 100.0, 0.0, 1.0, None
    index.refresh(paying)
    assert index.best(5.0) is paying         # still 100 vs 50
    # A quantum win consumes the balance: now the rival leads.
    channel.base = 0.0
    index.refresh(paying)
    assert index.best(6.0) is rival
    # Deferred refreshes collapse: two marks, at most two re-keys counted.
    assert index.counters.bid_index_refreshes <= 2


def test_remove_discards_entry_and_empty_groups_are_dropped():
    index = make_index()
    contenders = [
        FakeContender(i, float(i), i, FakeChannel(10.0 * i, float(i)))
        for i in range(1, 6)
    ]
    for contender in contenders:
        index.add(contender, now=0.0)
    assert len(index) == 5
    for contender in contenders[:4]:
        index.remove(contender.request.request_id)
    assert len(index) == 1
    assert index.best(1.0) is contenders[4]
    # Queries prune groups left empty by removals.
    assert len(index._groups) == 1


def test_compaction_keeps_heaps_bounded():
    index = make_index()
    keep = FakeContender(0, 0.0, 0, FakeChannel(1.0, 7.0))
    index.add(keep, now=0.0)
    for round_id in range(3):
        for i in range(1, 2 * COMPACT_MIN_HEAP):
            contender = FakeContender(
                10_000 * round_id + i, float(i), i, FakeChannel(float(i), 7.0)
            )
            index.add(contender, now=0.0)
            index.remove(contender.request.request_id)
    group = index._groups[7.0]
    assert group.live == 1
    assert len(group._best) < COMPACT_MIN_HEAP
    assert index.best(1.0) is keep


def test_randomized_equivalence_with_reference_scan():
    """Interleaved adds/refreshes/removals/queries match the linear scan."""
    rng = RandomStream(1234, "bidindex-test")
    index = make_index()
    live = {}
    next_id = [0]

    def spawn(now):
        next_id[0] += 1
        rid = next_id[0]
        slope = rng.choice([0.0, 0.0, 125.0, 250.0, 1000.0])
        base = rng.choice([0.0, 10.0, 500.0, 1e6]) + rng.uniform(0.0, 5.0)
        contender = FakeContender(
            rid, arrived_at=now, seq=rid, channel=FakeChannel(base, slope, t0=now)
        )
        live[rid] = contender
        index.add(contender, now)

    now = 0.0
    for step in range(600):
        now += rng.uniform(0.0, 0.3)
        action = rng.random()
        if action < 0.4 or not live:
            spawn(now)
        elif action < 0.55:
            rid = rng.choice(sorted(live))
            contender = live[rid]
            channel = contender.channel
            channel.base = channel.peek_balance(now)
            channel.t0 = now
            channel.slope = rng.choice([0.0, 125.0, 250.0, 1000.0])
            channel._flow = FakeFlow(channel.slope * 8.0) if channel.slope else None
            index.refresh(contender)
        elif action < 0.7:
            rid = rng.choice(sorted(live))
            del live[rid]
            index.remove(rid)
        elif action < 0.85:
            assert index.best(now) is reference_best(live.values(), now)
        else:
            exempt = rng.choice(sorted(live)) if rng.random() < 0.5 else None
            assert index.worst(now, exempt) is reference_worst(
                live.values(), now, exempt
            )
    assert index.best(now) is reference_best(live.values(), now)


# ---------------------------------------------------------------------------
# End-to-end exactness: every auction of a real run checked against a scan
# ---------------------------------------------------------------------------


def test_real_run_winners_match_linear_scan(monkeypatch):
    """Each indexed winner equals the historical linear scan's."""
    picks = []
    pick_winner = VirtualAuctionThinner._pick_winner

    def checked_pick_winner(thinner):
        winner = pick_winner(thinner)
        assert winner is reference_best(thinner._contenders.values(), thinner.engine.now)
        picks.append(winner)
        return winner

    monkeypatch.setattr(VirtualAuctionThinner, "_pick_winner", checked_pick_winner)
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(8, 2 * MBIT))
    config = DeploymentConfig(server_capacity_rps=15.0, seed=7)
    deployment = Deployment(topology, thinner_host, config)
    add_clients(deployment, hosts, 4, 4)
    deployment.run(12.0)
    assert len(picks) > 50
    # The whole point: selection cost per auction is far below O(n) — in
    # this steady state the index touches a handful of slope groups.
    counters = deployment.network.counters
    assert counters.auctions_held > 0
    scanned_per_auction = counters.contenders_scanned / counters.auctions_held
    assert scanned_per_auction < 16.0
    assert counters.bid_index_refreshes > 0


def test_sub_linear_scanning_at_scale():
    """contenders_scanned per auction stays O(log n)-ish as n grows 4x."""
    from repro.scenarios.registry import build_scenario

    def scan_cost(bad_clients):
        spec = build_scenario(
            "thinner-mega",
            good_clients=0,
            flash_clients=0,
            bad_clients=bad_clients,
            bad_rate=40.0,
            bad_window=8,
            capacity_rps=40.0,
            duration=2.0,
        )
        deployment = spec.build()
        deployment.run(spec.duration)
        counters = deployment.network.counters
        contenders = len(deployment.thinner.contenders())
        assert counters.auctions_held > 20
        return counters.contenders_scanned / counters.auctions_held, contenders

    small_cost, small_n = scan_cost(40)
    large_cost, large_n = scan_cost(160)
    assert large_n >= 3.5 * small_n          # the contender set really grew
    # O(n) scanning would grow the per-auction cost ~4x; the kinetic index
    # keeps it within log-ish slack of the small run and far below n.
    assert large_cost < 2.0 * small_cost + 10.0
    assert large_cost < 0.25 * large_n
