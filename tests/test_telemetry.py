"""The streaming telemetry plane: specs, collectors, and full-mode parity."""

import json
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.rng import RandomStream
from repro.scenarios import build_scenario
from repro.scenarios.runner import Sweep, SweepRunner
from repro.telemetry import (
    P2Quantile,
    ReservoirSampler,
    StreamAccumulator,
    TelemetrySpec,
    TimeBuckets,
)


def _rng(seed: int = 42) -> RandomStream:
    return RandomStream(seed, "telemetry-test")


def _rollup_spec(**kwargs):
    spec = build_scenario(
        "lan-baseline", good_clients=4, bad_clients=4,
        capacity_rps=20.0, duration=6.0, **kwargs,
    )
    return spec.with_value("telemetry", TelemetrySpec(mode="rollup", reservoir=256))


# ---------------------------------------------------------------------------
# TelemetrySpec
# ---------------------------------------------------------------------------


def test_spec_validates_and_round_trips():
    spec = TelemetrySpec(mode="rollup", reservoir=64, bucket_s=0.5, max_buckets=128)
    spec.validate()
    assert TelemetrySpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ExperimentError):
        TelemetrySpec(mode="wat").validate()
    with pytest.raises(ExperimentError):
        TelemetrySpec(reservoir=0).validate()
    with pytest.raises(ExperimentError):
        TelemetrySpec.from_dict({"mode": "rollup", "nope": 1})


def test_spec_is_omitted_from_scenario_json_when_unset():
    base = build_scenario("lan-baseline", good_clients=2, bad_clients=2)
    assert "telemetry" not in base.to_dict()
    rollup = base.with_value("telemetry", TelemetrySpec())
    stored = rollup.to_dict()
    assert stored["telemetry"]["mode"] == "rollup"
    assert type(base).from_dict(stored).telemetry == TelemetrySpec()


def test_footprint_budget_scales_with_buckets_not_requests():
    spec = TelemetrySpec(reservoir=128, bucket_s=1.0, max_buckets=64)
    short = spec.footprint_budget(duration=10.0)
    long = spec.footprint_budget(duration=1e6)  # capped by max_buckets
    assert short <= long
    assert long == spec.footprint_budget(duration=64.0)


# ---------------------------------------------------------------------------
# Collector primitives
# ---------------------------------------------------------------------------


def test_reservoir_same_seed_same_sample():
    values = [float(i) for i in range(10_000)]
    first = ReservoirSampler(64, _rng())
    second = ReservoirSampler(64, _rng())
    for value in values:
        first.add(value)
        second.add(value)
    assert first.samples == second.samples
    assert len(first) == 64
    assert first.count == 10_000
    assert set(first.samples) <= set(values)


def test_reservoir_keeps_everything_below_capacity():
    sampler = ReservoirSampler(16, _rng())
    for value in (3.0, 1.0, 2.0):
        sampler.add(value)
    assert sampler.samples == [3.0, 1.0, 2.0]


def test_p2_exact_below_five_observations():
    q = P2Quantile(0.5)
    for value in (5.0, 1.0, 3.0):
        q.add(value)
    assert q.value() == 3.0
    assert P2Quantile(0.5).value() == 0.0


def test_p2_converges_on_uniform_stream():
    rng = _rng(7)
    q50, q99 = P2Quantile(0.5), P2Quantile(0.99)
    for _ in range(20_000):
        value = rng.uniform(0.0, 1.0)
        q50.add(value)
        q99.add(value)
    assert q50.value() == pytest.approx(0.5, abs=0.05)
    assert q99.value() == pytest.approx(0.99, abs=0.05)


def test_stream_accumulator_moments_are_exact():
    values = [0.5, 1.5, 2.0, 8.0, 0.25]
    acc = StreamAccumulator(8, _rng())
    for value in values:
        acc.add(value)
    summary = acc.summary()
    assert summary.count == len(values)
    assert summary.mean == pytest.approx(sum(values) / len(values), rel=1e-12)
    assert summary.minimum == min(values)
    assert summary.maximum == max(values)
    # Below capacity the reservoir holds everything: percentiles are exact.
    assert summary.p50 == 1.5
    assert summary.p999 == 8.0
    empty = StreamAccumulator(8, _rng()).summary()
    assert empty.count == 0 and empty.mean == 0.0 and empty.p999 == 0.0


def test_time_buckets_fold_overflow_into_last_bucket():
    buckets = TimeBuckets(bucket_s=1.0, max_buckets=4)
    for now in (0.5, 1.5, 2.5, 3.5, 9.5, 99.5):
        buckets.add(now, 1.0)
    rows = buckets.rows()
    assert len(rows) == 4
    # Everything past the cap folded into the highest open bucket.
    assert rows[-1][1] == 3  # count of the folded bucket
    assert sum(row[1] for row in rows) == 6


# ---------------------------------------------------------------------------
# End-to-end parity
# ---------------------------------------------------------------------------


def test_full_mode_is_byte_identical_to_no_spec():
    base = build_scenario(
        "lan-baseline", good_clients=4, bad_clients=4,
        capacity_rps=20.0, duration=6.0,
    )
    plain = base.run().to_dict()
    full = base.with_value("telemetry", TelemetrySpec(mode="full")).run().to_dict()
    assert json.dumps(plain, sort_keys=True) == json.dumps(full, sort_keys=True)


def test_rollup_matches_full_within_tolerance():
    base = build_scenario(
        "lan-baseline", good_clients=4, bad_clients=4,
        capacity_rps=20.0, duration=6.0,
    )
    full = base.run()
    rollup = _rollup_spec().run()
    for cls in ("good", "bad"):
        f, r = getattr(full, cls), getattr(rollup, cls)
        # Counts are exact: telemetry never changes what was served.
        assert (f.issued, f.served, f.denied) == (r.issued, r.served, r.denied)
        assert r.payment_time.count == f.payment_time.count
        # Moments are exact (Welford vs summation differ only in rounding).
        assert r.payment_time.mean == pytest.approx(f.payment_time.mean, rel=1e-9)
        # Below the reservoir capacity the percentiles are exact too.
        if r.payment_time.count <= 256:
            assert r.payment_time.p50 == f.payment_time.p50
            assert r.payment_time.p99 == f.payment_time.p99
    assert rollup.free_admissions == full.free_admissions
    assert rollup.mean_price_by_class == full.mean_price_by_class
    # The rollup result carries its sketch; the full result does not.
    assert rollup.telemetry is not None and full.telemetry is None
    assert rollup.telemetry.mode == "rollup"
    stored = rollup.to_dict()
    assert "telemetry" in stored
    rebuilt = type(rollup).from_dict(stored)
    assert rebuilt.telemetry.to_dict() == rollup.telemetry.to_dict()


FLEET_PIN_CONFIG = json.loads(
    (Path(__file__).parent / "data" / "failover_pins.json").read_text()
)["configs"]["fleet-lan"]


@pytest.mark.parametrize(
    "scenario, overrides",
    [("fleet-lan", dict(FLEET_PIN_CONFIG, seed=seed)) for seed in range(3)]
    + [("adaptive-pulse", {})],
)
def test_rollup_mean_prices_equal_full_mode(scenario, overrides):
    """The deployment's one price book sums every shard's and both adaptive
    sides' bids in event order, whatever the telemetry mode."""
    full = build_scenario(scenario, **overrides)
    rollup = full.with_value("telemetry", TelemetrySpec(reservoir=64))
    assert rollup.run().mean_price_by_class == full.run().mean_price_by_class


def test_rollup_is_deterministic_across_process_boundaries():
    """Same seed => same reservoir sample, whether run in-process or in a pool."""
    sweep = Sweep(_rollup_spec(), axes={"seed": (1, 2)})
    serial = SweepRunner(jobs=1).run(sweep)
    parallel = SweepRunner(jobs=2).run(sweep)
    for a, b in zip(serial, parallel):
        assert json.dumps(a.result.to_dict(), sort_keys=True) == json.dumps(
            b.result.to_dict(), sort_keys=True
        )


def test_collector_footprint_stays_within_budget_and_gauges_tick():
    spec = _rollup_spec()
    deployment = spec.build()
    deployment.run(spec.duration)
    telemetry = deployment.telemetry
    assert telemetry is not None
    budget = spec.telemetry.footprint_budget(spec.duration)
    assert telemetry.footprint_records() <= budget
    counters = deployment.network.counters
    assert counters.records_emitted == telemetry.samples_recorded > 0
    assert counters.peak_live_events > 0
    snapshot = counters.snapshot()
    assert "records_emitted" in snapshot and "peak_live_events" in snapshot


def test_full_mode_emits_no_rollup_records():
    spec = build_scenario(
        "lan-baseline", good_clients=3, bad_clients=3,
        capacity_rps=15.0, duration=4.0,
    )
    deployment = spec.build()
    deployment.run(spec.duration)
    assert deployment.telemetry is None
    assert deployment.network.counters.records_emitted == 0
    assert deployment.network.counters.peak_live_events > 0


@pytest.mark.slow
def test_mega_rollup_run_stays_within_memory_budget():
    """The acceptance headline at reduced-but-large scale: a 500k-client
    rollup run's collector footprint is O(buckets + reservoir)."""
    spec = build_scenario("rollup-mega", duration=0.02)
    assert spec.total_clients() >= 500_000
    deployment = spec.build()
    deployment.run(spec.duration)
    telemetry = deployment.telemetry
    budget = spec.telemetry.footprint_budget(spec.duration)
    assert telemetry.footprint_records() <= budget
    # The budget is a few thousand records — nothing like 500k clients.
    assert budget < 50_000
