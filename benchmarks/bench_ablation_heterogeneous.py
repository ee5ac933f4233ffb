"""Ablation A2: heterogeneous requests — flat auction vs per-quantum auction (§5).

Attackers who know which requests are hard send only those.  Charging once
at admission (the flat §3.3 auction) sells them server *time* at a discount;
auctioning every quantum (§5) restores a bandwidth-proportional split of
server time.
"""

from benchmarks.conftest import run_once
from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.metrics.tables import format_table
from repro.simnet.topology import build_lan, uniform_bandwidths

HARD_CHUNKS = 5.0


def _run(defense, scale):
    total = max(6, scale.clients(20))
    good = total // 2
    bad = total - good
    capacity = 2.0 * total  # counted in ordinary requests
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(total, 2 * MBIT))
    deployment = Deployment(
        topology, thinner_host,
        DeploymentConfig(server_capacity_rps=capacity, defense=defense, seed=scale.seed),
    )
    for host in hosts[:good]:
        GoodClient(deployment, host)
    for host in hosts[good:]:
        BadClient(deployment, host, rate_rps=8.0, window=8, difficulty=HARD_CHUNKS)
    deployment.run(scale.duration)
    return deployment.results()


def _compare(scale):
    return {defense: _run(defense, scale) for defense in ("speakup", "quantum")}


def test_bench_heterogeneous_requests(benchmark, bench_scale):
    results = run_once(benchmark, _compare, bench_scale)
    print()
    print(format_table(
        headers=["thinner", "bad share of server time", "good share of server time"],
        rows=[
            (name,
             result.busy_allocation_by_class.get("bad", 0.0),
             result.busy_allocation_by_class.get("good", 0.0))
            for name, result in results.items()
        ],
        title=f"Ablation A2: attackers send only {HARD_CHUNKS:.0f}-chunk requests",
    ))
    assert (results["quantum"].busy_allocation_by_class.get("bad", 0.0)
            < results["speakup"].busy_allocation_by_class.get("bad", 0.0))
