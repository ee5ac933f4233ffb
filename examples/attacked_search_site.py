#!/usr/bin/env python
"""A search site under an extortionist application-level attack.

This is the scenario the paper's introduction motivates: a site whose
requests are computationally expensive (database searches), attacked by a
botnet that issues legitimate-looking queries.  We model a modest search
back-end, a clientele of mostly-quiescent good clients, and a botnet an
order of magnitude smaller in count but far more aggressive per host, and
compare three front-ends:

* no defense;
* per-address rate limiting (a detect-and-block baseline), against bots
  smart enough to stay under the rate limit;
* speak-up's virtual auction.

Run:  python examples/attacked_search_site.py
"""

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.defenses import DefenseSpec
from repro.metrics.tables import format_table
from repro.simnet.topology import build_lan, uniform_bandwidths

GOOD_CLIENTS = 12
BAD_CLIENTS = 12
CLIENT_BANDWIDTH = 2 * MBIT
CAPACITY_RPS = 40.0       # the search back-end's sustainable query rate
DURATION = 30.0
SEED = 11

#: Smart bots stay just under a typical per-address rate limit.
SMART_BOT_RATE = 3.5
SMART_BOT_WINDOW = 4
RATE_LIMIT_RPS = 4.0


def run_site(defense_label: str):
    """Run the attack against one front-end configuration."""
    topology, hosts, thinner_host = build_lan(
        uniform_bandwidths(GOOD_CLIENTS + BAD_CLIENTS, CLIENT_BANDWIDTH)
    )
    defense = (
        DefenseSpec.make("ratelimit", allowed_rps=RATE_LIMIT_RPS)
        if defense_label == "ratelimit"
        else defense_label
    )
    config = DeploymentConfig(server_capacity_rps=CAPACITY_RPS, defense=defense, seed=SEED)
    deployment = Deployment(topology, thinner_host, config)

    for host in hosts[:GOOD_CLIENTS]:
        GoodClient(deployment, host)
    # Smart bots: below the rate limit, but still far more active than the
    # legitimate clientele, and they spend their bandwidth when asked.
    for host in hosts[GOOD_CLIENTS:]:
        BadClient(deployment, host, rate_rps=SMART_BOT_RATE, window=SMART_BOT_WINDOW)
    deployment.run(DURATION)
    return deployment.results()


def main() -> None:
    rows = []
    for defense in ("none", "ratelimit", "speakup"):
        result = run_site(defense)
        rows.append(
            (
                defense,
                result.good_allocation,
                result.good_fraction_served,
                result.good.payment_time.mean,
            )
        )
    print(
        format_table(
            headers=["front-end", "good share of server", "good served frac", "mean payment time (s)"],
            rows=rows,
            title="Search site under attack by smart bots (below the rate limit)",
        )
    )
    print()
    print("Rate limiting helps little once bots stay under the per-address limit;")
    print("speak-up does not need to tell good from bad — it charges everyone in")
    print("bandwidth, which the quiescent good clients have to spare.")


if __name__ == "__main__":
    main()
