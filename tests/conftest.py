"""Shared fixtures for the test suite.

Most tests build tiny deployments (a handful of clients, a few simulated
seconds) so the whole suite stays fast while still exercising the real
machinery end to end.
"""

from __future__ import annotations

import pytest

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.simnet.engine import Engine
from repro.simnet.network import FluidNetwork
from repro.simnet.topology import build_lan, uniform_bandwidths


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: randomized property tests (run with -m slow; excluded from the "
        "fast CI test job)",
    )


@pytest.fixture
def engine() -> Engine:
    """A fresh simulation engine."""
    return Engine()


@pytest.fixture
def small_lan():
    """A 4-client LAN topology: (topology, client_hosts, thinner_host)."""
    return build_lan(uniform_bandwidths(4, 2 * MBIT))


@pytest.fixture
def network(engine, small_lan) -> FluidNetwork:
    """A fluid network over the small LAN."""
    topology, _clients, _thinner = small_lan
    return FluidNetwork(engine, topology)


def add_clients(deployment, hosts, good, bad, **options):
    """``good`` good clients on the first hosts, then ``bad`` bad ones."""
    for host in hosts[:good]:
        GoodClient(deployment, host, **options)
    for host in hosts[good:good + bad]:
        BadClient(deployment, host, **options)


def make_deployment(
    good: int = 3,
    bad: int = 3,
    capacity: float = 12.0,
    defense: str = "speakup",
    duration: float = 10.0,
    seed: int = 0,
    client_bandwidth: float = 2 * MBIT,
    **config_kwargs,
):
    """Build, populate and run a small deployment; returns (deployment, result)."""
    topology, hosts, thinner_host = build_lan(
        uniform_bandwidths(good + bad, client_bandwidth)
    )
    config = DeploymentConfig(
        server_capacity_rps=capacity, defense=defense, seed=seed, **config_kwargs
    )
    deployment = Deployment(topology, thinner_host, config)
    add_clients(deployment, hosts, good, bad)
    deployment.run(duration)
    return deployment, deployment.results()


@pytest.fixture
def small_attack_run():
    """A small speak-up run under attack: (deployment, result)."""
    return make_deployment()
