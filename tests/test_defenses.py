"""Tests for the baseline defenses and the defense registry.

``tests/data/defense_pins.json`` holds sha256 fingerprints (plus event
counts and requests served) of standalone screening-defense, proof-of-work
and adaptive-controller runs, on one LAN and on a pooled fleet, captured
before those defenses shared one screening thinner and one server
multiplexer.  The replay test must reproduce them bit for bit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.clients.bad import BadClient
from repro.clients.good import GoodClient
from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.defenses import registry
from repro.defenses.captcha import CaptchaDefense
from repro.defenses.none import NoDefense
from repro.defenses.pow import ProofOfWorkDefense
from repro.defenses.profiling import ProfilingDefense
from repro.defenses.ratelimit import RateLimitDefense, TokenBucket
from repro.defenses.speakup import SpeakUpDefense
from repro.errors import DefenseError
from repro.scenarios.registry import build_scenario
from repro.simnet.topology import build_lan, uniform_bandwidths

DEFENSE_PINS = json.loads(
    (Path(__file__).parent / "data" / "defense_pins.json").read_text()
)


def run_pinned(scenario, defense):
    """Run one pinned configuration; returns (deployment, result)."""
    spec = build_scenario(scenario, defense=defense, **DEFENSE_PINS["configs"][scenario])
    deployment = spec.build()
    deployment.run(spec.duration)
    return deployment, deployment.results()


def run_with_defense(defense, good=2, bad=2, capacity=8.0, duration=10.0, seed=0,
                     bad_rate=40.0, bad_window=20):
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(good + bad, 2 * MBIT))
    config = DeploymentConfig(server_capacity_rps=capacity, seed=seed)
    deployment = Deployment(topology, thinner_host, config,
                            thinner_factory=defense.build_thinner)
    for host in hosts[:good]:
        GoodClient(deployment, host)
    for host in hosts[good:]:
        BadClient(deployment, host, rate_rps=bad_rate, window=bad_window)
    deployment.run(duration)
    return deployment, deployment.results()


def test_registry_knows_all_defenses():
    for name in ("none", "speakup", "ratelimit", "profiling", "pow", "captcha"):
        assert name in registry
    assert isinstance(registry.create("speakup"), SpeakUpDefense)
    with pytest.raises(DefenseError):
        registry.create("unknown-defense")
    with pytest.raises(DefenseError):
        registry.register("none", NoDefense)


def test_defense_describe_strings():
    assert "speak-up" in SpeakUpDefense().describe()
    assert "rate limit" in RateLimitDefense().describe()
    assert "profiling" in ProfilingDefense().describe()
    assert "proof-of-work" in ProofOfWorkDefense().describe()
    assert "captcha" in CaptchaDefense().describe()
    assert "no defense" in NoDefense().describe()


def test_speakup_defense_variant_validation():
    with pytest.raises(DefenseError):
        SpeakUpDefense(variant="bogus")


def test_token_bucket_refills_and_limits():
    bucket = TokenBucket(rate=2.0, burst=2.0, tokens=2.0, last_refill=0.0)
    assert bucket.try_consume(0.0)
    assert bucket.try_consume(0.0)
    assert not bucket.try_consume(0.0)      # burst exhausted
    assert bucket.try_consume(1.0)          # refilled 2 tokens/s for 1 s
    assert bucket.try_consume(1.0)          # second refilled token
    assert not bucket.try_consume(1.0)      # and no more at the same instant


def test_rate_limit_blocks_aggressive_senders():
    deployment, result = run_with_defense(RateLimitDefense(allowed_rps=4.0), duration=12.0)
    assert deployment.thinner.stage.rejected > 0
    # Good clients (2 req/s) stay under the limit while each bad client is
    # capped at 4 req/s.  The bad clients still hold many more requests in
    # the pending queue (their window is 20 vs 1), so the improvement over
    # the undefended ~5% is real but modest — which is exactly the paper's
    # point about rate limiting alone.
    assert result.good_allocation > 0.08


def test_rate_limit_defeated_by_smart_bots_speakup_is_not():
    smart = dict(bad_rate=3.5, bad_window=4, capacity=6.0, duration=15.0)
    _dep1, ratelimited = run_with_defense(RateLimitDefense(allowed_rps=4.0), **smart)
    _dep2, speakup = run_with_defense(SpeakUpDefense(), **smart)
    # Bots below the limit are indistinguishable to the rate limiter, so the
    # good share under speak-up should be at least as large.
    assert speakup.good_allocation >= ratelimited.good_allocation - 0.05


def test_profiling_enforces_learned_baseline():
    defense = ProfilingDefense(default_allowed_rps=4.0, slack_factor=1.0)
    deployment, result = run_with_defense(defense, duration=12.0)
    assert deployment.thinner.stage.rejected > 0
    assert result.good_allocation > 0.08


def test_profiling_with_explicit_profile_and_learning_period():
    defense = ProfilingDefense(
        baseline_profile={"client-000": 2.0}, learning_period=2.0, default_allowed_rps=3.0
    )
    deployment, _result = run_with_defense(defense, duration=10.0)
    thinner = deployment.thinner
    assert thinner.stage.allowed_rate("client-000") == pytest.approx(2.0 * defense.slack_factor)
    assert thinner.stage.allowed_rate("never-seen") == pytest.approx(3.0)


def test_pow_allocates_by_cpu_power():
    defense = ProofOfWorkDefense(puzzle_cost=1.0)
    topology, hosts, thinner_host = build_lan(uniform_bandwidths(4, 2 * MBIT))
    deployment = Deployment(
        topology, thinner_host, DeploymentConfig(server_capacity_rps=8.0, seed=1),
        thinner_factory=defense.build_thinner,
    )
    strong = GoodClient(deployment, hosts[0])
    strong.cpu_power = 4.0
    weak = GoodClient(deployment, hosts[1])
    weak.cpu_power = 1.0
    BadClient(deployment, hosts[2])
    BadClient(deployment, hosts[3])
    deployment.run(15.0)
    # The strong-CPU client should be served at least as much as the weak one.
    assert strong.stats.served >= weak.stats.served


def test_captcha_blocks_most_bots_but_also_good_bots():
    defense = CaptchaDefense(solve_probabilities={"good": 0.8, "bad": 0.05})
    deployment, result = run_with_defense(defense, duration=12.0)
    assert deployment.thinner.stage.rejected > 0
    # Most bot requests never reach the server; most good requests do.
    assert result.bad.served_fraction < 0.2
    assert result.good.served_fraction > 0.6
    # Collateral damage: some good requests are lost to unsolved challenges.
    assert any(client.stats.dropped > 0 for client in deployment.good_clients)


def test_captcha_probability_validation():
    with pytest.raises(DefenseError):
        run_with_defense(CaptchaDefense(solve_probabilities={"good": 1.5}), duration=1.0)


@pytest.mark.parametrize("key", sorted(DEFENSE_PINS["pins"]))
def test_defense_runs_match_their_pins(key):
    scenario, defense = key.split("/", 1)
    deployment, result = run_pinned(scenario, defense)
    digest = hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    pin = DEFENSE_PINS["pins"][key]
    assert digest == pin["sha256"], f"{key} diverged from its pinned run"
    assert deployment.engine.events_processed == pin["events_processed"]
    assert result.total_served == pin["total_served"]


def test_pow_auctions_reach_the_admission_work_counters():
    deployment, result = run_pinned("lan-baseline", "pow")
    counters = deployment.network.counters
    assert counters.auctions_held == result.auctions_held > 0
    # Each puzzle auction scans every contender.
    assert counters.contenders_scanned >= counters.auctions_held
