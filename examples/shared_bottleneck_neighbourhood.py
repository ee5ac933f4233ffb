#!/usr/bin/env python
"""Life behind a shared bottleneck when the thinner encourages everyone (§4.2, §7.6).

A neighbourhood of clients reaches the defended site through one shared
cable.  When some of those neighbours are bots, the encouragement to "speak
up" means the cable fills with payment traffic, and the good neighbours'
bids are squeezed before they ever reach the thinner.  The server itself
stays protected — the attacker cannot spend more than the cable — but the
good clients behind the cable get less than their bandwidth-proportional
share, which is exactly what Figure 8 of the paper measures.

This example varies how many of the bottlenecked clients are bots and
reports how the bottlenecked good clients fare, compared with good clients
that reach the thinner directly.

Run:  python examples/shared_bottleneck_neighbourhood.py
"""

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.metrics.tables import format_table
from repro.simnet.topology import build_bottleneck, uniform_bandwidths

BEHIND_BOTTLENECK = 12
DIRECT_GOOD = 4
DIRECT_BAD = 4
BOTTLENECK_BANDWIDTH = 16 * MBIT   # the neighbourhood can generate 24 Mbit/s
CAPACITY_RPS = 25.0
DURATION = 30.0
SEED = 5


def run_split(good_behind: int):
    topology, bottlenecked, direct, thinner_host, _link = build_bottleneck(
        bottlenecked_bandwidths_bps=uniform_bandwidths(BEHIND_BOTTLENECK, 2 * MBIT),
        direct_bandwidths_bps=uniform_bandwidths(DIRECT_GOOD + DIRECT_BAD, 2 * MBIT),
        bottleneck_bandwidth_bps=BOTTLENECK_BANDWIDTH,
    )
    config = DeploymentConfig(server_capacity_rps=CAPACITY_RPS, defense="speakup", seed=SEED)
    deployment = Deployment(topology, thinner_host, config)
    for hosts, good, place in (
        (bottlenecked, good_behind, "behind"),
        (direct, DIRECT_GOOD, "direct"),
    ):
        for host in hosts[:good]:
            GoodClient(deployment, host, category=f"{place}-good")
        for host in hosts[good:]:
            BadClient(deployment, host, category=f"{place}-bad")
    deployment.run(DURATION)
    return deployment.results()


def main() -> None:
    rows = []
    for good_behind in (3, 6, 9):
        result = run_split(good_behind)
        rows.append(
            (
                f"{good_behind}/{BEHIND_BOTTLENECK - good_behind}",
                result.allocation_by_category.get("behind-good", 0.0),
                result.allocation_by_category.get("behind-bad", 0.0),
                result.served_fraction_by_category.get("behind-good", 0.0),
                result.served_fraction_by_category.get("direct-good", 0.0),
            )
        )
    print(
        format_table(
            headers=[
                "good/bad behind cable",
                "server share: behind good",
                "server share: behind bad",
                "served frac: behind good",
                "served frac: direct good",
            ],
            rows=rows,
            title="Sharing a bottleneck with bots while the thinner encourages everyone",
        )
    )
    print()
    print("The server stays protected, but good clients stuck behind the same cable")
    print("as bots lose out to their neighbours' concurrent payment channels — the")
    print("collateral cost the paper quantifies in Figure 8.")


if __name__ == "__main__":
    main()
