#!/usr/bin/env python
"""Heterogeneous requests: why the thinner auctions every quantum (§5).

The threat model lets attackers send deliberately *hard* requests.  With the
flat auction of §3.3 a request pays once, at admission, no matter how long
it then occupies the server — so an attacker who only sends ten-quantum
requests buys ten times the server time per byte of payment.  The §5
extension keeps charging a request while it runs (one virtual auction per
scheduling quantum, with SUSPEND/RESUME on the server), which restores the
bandwidth-proportional allocation of server *time*.

This example runs the same mixed workload — good clients sending ordinary
requests, attackers sending only hard ones — under both thinners.

Run:  python examples/heterogeneous_requests.py
"""

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.metrics.tables import format_table
from repro.simnet.topology import build_lan, uniform_bandwidths

GOOD_CLIENTS = 8
BAD_CLIENTS = 8
CAPACITY_RPS = 30.0        # capacity counted in ordinary (1-chunk) requests
HARD_REQUEST_CHUNKS = 5.0  # attackers' requests are five times as expensive
DURATION = 40.0
SEED = 3


def run_with(defense: str):
    topology, hosts, thinner_host = build_lan(
        uniform_bandwidths(GOOD_CLIENTS + BAD_CLIENTS, 2 * MBIT)
    )
    config = DeploymentConfig(server_capacity_rps=CAPACITY_RPS, defense=defense, seed=SEED)
    deployment = Deployment(topology, thinner_host, config)
    for host in hosts[:GOOD_CLIENTS]:
        GoodClient(deployment, host, difficulty=1.0)
    # Attackers know which requests are hard and send only those, at a
    # lower rate so their *request* load looks unremarkable.
    for host in hosts[GOOD_CLIENTS:]:
        BadClient(deployment, host, rate_rps=8.0, window=8, difficulty=HARD_REQUEST_CHUNKS)
    deployment.run(DURATION)
    return deployment.results()


def main() -> None:
    rows = []
    for defense, label in (("speakup", "flat auction (charge at admission)"),
                           ("quantum", "quantum auction (charge per quantum)")):
        result = run_with(defense)
        busy_good = result.busy_allocation_by_class.get("good", 0.0)
        busy_bad = result.busy_allocation_by_class.get("bad", 0.0)
        rows.append((label, busy_good, busy_bad, result.good_fraction_served))
    print(
        format_table(
            headers=["thinner", "good share of server time", "bad share of server time",
                     "good served frac"],
            rows=rows,
            title=(
                f"Attackers send only {HARD_REQUEST_CHUNKS:.0f}-chunk requests; "
                "shares are of server busy time"
            ),
        )
    )
    print()
    print("Charging only at admission lets expensive requests buy server time at a")
    print("discount; auctioning every quantum makes attackers pay for every chunk,")
    print("pushing the split of server time back toward bandwidth proportions.")


if __name__ == "__main__":
    main()
