"""Ablation A4: speak-up vs the taxonomy's other defenses under smart bots.

§8.1 argues that detect-and-block defenses can be fooled by bots that look
legitimate (stay under rate limits / profiles, answer CAPTCHAs via cheap
labour), while currency schemes keep working because they charge everyone.
This ablation runs the same smart-bot attack against each baseline.
"""

from benchmarks.conftest import run_once
from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.defenses import DefenseSpec
from repro.metrics.tables import format_table
from repro.simnet.topology import build_lan, uniform_bandwidths

#: Smart bots: below a 4-req/s rate limit, and they can hire CAPTCHA solvers.
SMART_BOT_RATE = 3.5
SMART_BOT_WINDOW = 4
DEFENSE_SETTINGS = {
    "none": {},
    "ratelimit": {"allowed_rps": 4.0},
    "profiling": {"default_allowed_rps": 4.0},
    "captcha": {"solve_probabilities": {"good": 0.95, "bad": 0.5}},
    "pow": {},
    "speakup": {},
}


def _run(defense_name, scale):
    total = max(8, scale.clients(20))
    good = total // 2
    bad = total - good
    capacity = 1.5 * total  # under-provisioned against the combined demand
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(total, 2 * MBIT))
    defense = DefenseSpec.make(defense_name, **DEFENSE_SETTINGS[defense_name])
    deployment = Deployment(
        topology, thinner_host,
        DeploymentConfig(server_capacity_rps=capacity, defense=defense, seed=scale.seed),
    )
    for host in hosts[:good]:
        GoodClient(deployment, host)
    for host in hosts[good:]:
        BadClient(deployment, host, rate_rps=SMART_BOT_RATE, window=SMART_BOT_WINDOW)
    deployment.run(scale.duration)
    return deployment.results()


def _compare(scale):
    return {name: _run(name, scale) for name in DEFENSE_SETTINGS}


def test_bench_baseline_defenses(benchmark, bench_scale):
    results = run_once(benchmark, _compare, bench_scale)
    print()
    print(format_table(
        headers=["defense", "good share of server", "good served frac"],
        rows=[(name, result.good_allocation, result.good_fraction_served)
              for name, result in results.items()],
        title="Ablation A4: smart-bot attack (bots below the rate limit, solving half the CAPTCHAs)",
    ))
    # Speak-up should do at least as well as the detect-and-block baselines
    # that smart bots evade (generous slack for run-to-run noise).
    speakup = results["speakup"].good_allocation
    for baseline in ("none", "ratelimit", "profiling"):
        assert speakup >= results[baseline].good_allocation - 0.1
