"""Dedicated coverage for contender eviction (``max_contenders`` / §6).

The paper motivates a bound on concurrent contenders with connection-
descriptor pressure: when a new request arrives at a full thinner, the
lowest-paying contender is dropped (ties evict the *latest* arrival), and
the arrival that triggered the eviction is itself exempt.  These tests
drive ``ThinnerBase`` directly with stub clients for precise control, plus
one end-to-end run checking the bid index stays consistent under eviction
churn.
"""

import pytest

from repro.constants import MBIT
from repro.core.auction import VirtualAuctionThinner
from repro.core.frontend import Deployment, DeploymentConfig
from repro.httpd.messages import new_request
from repro.simnet.topology import build_lan, uniform_bandwidths
from tests.conftest import add_clients


class StubClient:
    """Just enough client for ThinnerBase: a host, callbacks, optional paying."""

    def __init__(self, host, deployment=None, pays=False):
        self.host = host
        self.deployment = deployment
        self.pays = pays
        self.encouraged = []
        self.responses = []
        self.drops = []

    def on_encouraged(self, request):
        self.encouraged.append(request)
        if self.pays:
            channel = self.deployment.payment_channel(self.host, request)
            channel.open()
            self.deployment.thinner.register_payment(request, channel)

    def on_response(self, request, response):
        self.responses.append(request)

    def on_dropped(self, request, reason):
        self.drops.append((request, reason))


@pytest.fixture
def bounded_thinner():
    """A VirtualAuctionThinner with max_contenders=3 and a busy server."""
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(6, 2 * MBIT))
    config = DeploymentConfig(server_capacity_rps=10.0, max_contenders=3, seed=0)
    deployment = Deployment(topology, thinner_host, config)
    thinner = deployment.thinner
    assert isinstance(thinner, VirtualAuctionThinner)
    # Force the contending path: pretend a request is already being served.
    thinner._server_idle = False
    clients = [StubClient(host, deployment) for host in hosts]
    return deployment, thinner, clients


def arrive(deployment, thinner, client, issued_at=None):
    request = new_request(
        client_id=client.host.name,
        issued_at=deployment.engine.now if issued_at is None else issued_at,
        client_class="good",
    )
    thinner.receive_request(request, client)
    return request


def test_evict_on_arrival_keeps_bound_and_drops_lowest_bidder(bounded_thinner):
    deployment, thinner, clients = bounded_thinner
    engine = deployment.engine

    # The first two contenders pay; the third never opens a channel.
    clients[0].pays = clients[1].pays = True
    requests = []
    for client in clients[:3]:
        requests.append(arrive(deployment, thinner, client))
        engine.run(until=engine.now + 0.01)
    assert len(thinner.contenders()) == 3

    # Let the encouragement round-trips complete and some payment flow.
    engine.run(until=engine.now + 0.5)
    bids = [cont.peek_bid(engine.now) for cont in thinner.contenders()]
    assert max(bids) > 0.0

    # ...then a fourth arrival must evict exactly one contender — the
    # lowest bidder — and never exceed the bound.
    before = {cont.request.request_id for cont in thinner.contenders()}
    lowest = min(
        thinner.contenders(), key=lambda c: (c.peek_bid(engine.now), -c.arrived_at)
    )
    fourth = arrive(deployment, thinner, clients[3])
    assert len(thinner.contenders()) == 3
    after = {cont.request.request_id for cont in thinner.contenders()}
    assert fourth.request_id in after
    assert before - after == {lowest.request.request_id}
    assert thinner.stats.requests_dropped == 1


def test_exempt_protects_triggering_arrival_on_zero_bid_ties(bounded_thinner):
    deployment, thinner, clients = bounded_thinner
    engine = deployment.engine

    # Four arrivals at distinct times, no payment in flight anywhere: all
    # bids are zero, so the eviction tie-break (latest arrival loses) would
    # pick the triggering arrival itself — the exemption must protect it
    # and evict the latest of the *older* contenders instead.
    first = arrive(deployment, thinner, clients[0])
    engine.run(until=engine.now + 0.001)
    second = arrive(deployment, thinner, clients[1])
    engine.run(until=engine.now + 0.001)
    third = arrive(deployment, thinner, clients[2])
    engine.run(until=engine.now + 0.001)
    fourth = arrive(deployment, thinner, clients[3])

    remaining = {cont.request.request_id for cont in thinner.contenders()}
    assert remaining == {first.request_id, second.request_id, fourth.request_id}
    assert clients[2].drops == []  # drop notification still in flight
    engine.run(until=engine.now + 0.1)
    assert [req.request_id for req, _ in clients[2].drops] == [third.request_id]
    assert clients[2].drops[0][1] == "evicted"


def test_simultaneous_arrivals_evict_by_insertion_order(bounded_thinner):
    deployment, thinner, clients = bounded_thinner
    engine = deployment.engine

    # All four arrive at the same instant: identical arrived_at, identical
    # zero bids.  Insertion order is the last tie-break, preserving the
    # historical scan's first-wins `min()`: the *earliest inserted* of the
    # non-exempt contenders is the victim on fully identical keys.
    requests = [arrive(deployment, thinner, client) for client in clients[:4]]
    assert len(thinner.contenders()) == 3
    remaining = {cont.request.request_id for cont in thinner.contenders()}
    assert remaining == {requests[1].request_id, requests[2].request_id,
                         requests[3].request_id}

    # A fifth simultaneous arrival evicts the (new) earliest-inserted one.
    fifth = arrive(deployment, thinner, clients[4])
    remaining = {cont.request.request_id for cont in thinner.contenders()}
    assert remaining == {requests[2].request_id, requests[3].request_id,
                         fifth.request_id}


def test_eviction_keeps_bid_index_consistent_end_to_end():
    """A full run under heavy eviction churn: the auction keeps finding the
    true highest bidder (the index contract test) and the bound holds."""
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(8, 2 * MBIT))
    config = DeploymentConfig(server_capacity_rps=8.0, max_contenders=4, seed=11)
    deployment = Deployment(topology, thinner_host, config)
    add_clients(deployment, hosts, 4, 4)
    deployment.run(12.0)

    thinner = deployment.thinner
    assert len(thinner.contenders()) <= 4
    assert thinner.stats.requests_dropped > 0
    dropped = sum(client.stats.dropped for client in deployment.clients)
    assert dropped == thinner.stats.requests_dropped
    # Index and contender map agree after the churn.
    assert len(thinner._bid_index) == len(thinner.contenders())
    result = deployment.results()
    assert result.total_served > 0
