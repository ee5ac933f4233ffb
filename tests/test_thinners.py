"""Behavioural tests for the thinner variants.

These drive small end-to-end deployments (real clients, real payment
channels) and check the paper's qualitative claims: free admission when the
server is idle, highest bidder wins under overload, the undefended baseline
favours the aggressive clients, and the price tracking works.
"""

import pytest

from repro.constants import MBIT
from repro.defenses.spec import DefenseSpec
from tests.conftest import make_deployment


def test_idle_server_admits_without_payment():
    deployment, result = make_deployment(good=2, bad=0, capacity=50.0, duration=8.0)
    # Demand (2 clients x 2 req/s) is far below capacity: nobody should pay.
    assert result.good_fraction_served == pytest.approx(1.0, abs=0.02)
    assert result.mean_price_by_class.get("good", 0.0) == pytest.approx(0.0, abs=1.0)
    assert deployment.thinner.stats.free_admissions > 0


def test_auction_gives_good_clients_roughly_proportional_share():
    _deployment, with_speakup = make_deployment(good=3, bad=3, capacity=12.0,
                                                duration=15.0, defense="speakup")
    _deployment2, without = make_deployment(good=3, bad=3, capacity=12.0,
                                            duration=15.0, defense="none")
    assert with_speakup.good_allocation > 2.5 * without.good_allocation
    assert with_speakup.good_allocation == pytest.approx(0.5, abs=0.15)
    assert without.good_allocation < 0.25


def test_auction_prices_do_not_exceed_upper_bound_on_average():
    _deployment, result = make_deployment(good=3, bad=3, capacity=12.0, duration=15.0)
    upper = result.price_upper_bound_bytes
    assert 0 < result.mean_price_by_class["good"] <= upper * 1.1
    assert 0 < result.mean_price_by_class["bad"] <= upper * 1.1


def test_overprovisioned_server_serves_everyone_cheaply():
    _deployment, result = make_deployment(good=3, bad=3, capacity=150.0, duration=12.0)
    assert result.good_fraction_served == pytest.approx(1.0, abs=0.02)
    # Prices collapse when the server is not the bottleneck (Figure 5, c=200).
    assert result.mean_price_by_class.get("good", 0.0) < result.price_upper_bound_bytes * 0.3


def test_retry_variant_also_restores_good_share():
    _deployment, result = make_deployment(good=3, bad=3, capacity=12.0,
                                          duration=15.0, defense="retry")
    assert result.good_allocation == pytest.approx(0.5, abs=0.18)
    assert result.good_fraction_served > 0.8


def test_no_defense_random_vs_fifo_policies_both_run():
    _d1, random_policy = make_deployment(good=2, bad=2, capacity=8.0, duration=10.0,
                                         defense=DefenseSpec.make("none", policy="random"))
    _d2, fifo_policy = make_deployment(good=2, bad=2, capacity=8.0, duration=10.0,
                                       defense=DefenseSpec.make("none", policy="fifo"))
    for result in (random_policy, fifo_policy):
        assert result.bad_allocation > result.good_allocation


def test_thinner_counters_are_consistent():
    deployment, result = make_deployment(good=3, bad=3, capacity=12.0, duration=12.0)
    stats = deployment.thinner.stats
    assert stats.requests_admitted == deployment.server.stats.served + (1 if deployment.server.busy else 0)
    assert stats.requests_received >= stats.requests_admitted
    assert result.total_served == deployment.server.stats.served
    assert len(deployment.thinner.prices) == stats.requests_admitted


def test_payment_channels_of_winners_are_closed():
    deployment, _result = make_deployment(good=3, bad=3, capacity=12.0, duration=12.0)
    # Any channel still open must belong to a request still contending.
    contending_ids = {c.request.request_id for c in deployment.thinner.contenders()}
    for client in deployment.clients:
        for request_id, channel in client.channels.items():
            if channel.is_open:
                assert request_id in contending_ids


def test_max_contenders_evicts_and_notifies_clients():
    deployment, result = make_deployment(good=2, bad=2, capacity=8.0, duration=10.0,
                                         max_contenders=5)
    assert len(deployment.thinner.contenders()) <= 5
    dropped = sum(client.stats.dropped for client in deployment.clients)
    assert dropped > 0
    assert deployment.thinner.stats.requests_dropped == dropped


def test_quantum_thinner_serves_and_charges_continuously():
    deployment, result = make_deployment(good=3, bad=3, capacity=12.0, duration=12.0,
                                         defense="quantum")
    assert result.total_served > 0
    assert result.good_allocation > 0.2
    # The quantum thinner keeps charging during service, so prices exist.
    assert deployment.thinner.stats.payment_bytes_sunk > 0


def test_quantum_thinner_resists_hard_request_attack():
    """Attackers sending only hard requests gain less server time under the
    per-quantum auction than under the flat admission auction (§5)."""
    from repro.clients.bad import BadClient
    from repro.clients.good import GoodClient
    from repro.core.frontend import Deployment, DeploymentConfig
    from repro.simnet.topology import build_lan, uniform_bandwidths

    def run(defense):
        topology, hosts, thinner_host = build_lan(uniform_bandwidths(6, 2 * MBIT))
        config = DeploymentConfig(server_capacity_rps=15.0, defense=defense, seed=2)
        deployment = Deployment(topology, thinner_host, config)
        for host in hosts[:3]:
            GoodClient(deployment, host)
        for host in hosts[3:]:
            BadClient(deployment, host, rate_rps=10.0, window=6, difficulty=4.0)
        deployment.run(20.0)
        return deployment.results()

    flat = run("speakup")
    quantum = run("quantum")
    flat_bad_time = flat.busy_allocation_by_class.get("bad", 0.0)
    quantum_bad_time = quantum.busy_allocation_by_class.get("bad", 0.0)
    assert quantum_bad_time < flat_bad_time
