"""Tests for summaries, the run collector, and table rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import collect
from repro.metrics.summary import (
    confidence_interval,
    mean,
    percentile,
    ratio,
    stddev,
    summarise,
)
from repro.metrics.tables import format_row, format_table
from tests.conftest import make_deployment


# -- summary helpers -------------------------------------------------------------

def test_mean_std_percentile_basics():
    values = [1.0, 2.0, 3.0, 4.0]
    assert mean(values) == pytest.approx(2.5)
    assert stddev(values) == pytest.approx(1.29099, rel=1e-4)
    assert percentile(values, 0.5) == 2.0
    assert percentile(values, 1.0) == 4.0
    assert mean([]) == 0.0
    assert stddev([5.0]) == 0.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 2.0)


def test_confidence_interval_and_ratio():
    assert confidence_interval([1.0]) == 0.0
    assert confidence_interval([1.0, 2.0, 3.0]) > 0.0
    assert ratio(1, 2) == 0.5
    assert ratio(1, 0, default=7.0) == 7.0


def test_summarise_fields():
    summary = summarise([3.0, 1.0, 2.0])
    assert summary.count == 3
    assert summary.minimum == 1.0
    assert summary.maximum == 3.0
    assert summary.p50 == 2.0
    assert summary.to_dict()["mean"] == pytest.approx(2.0)
    empty = summarise([])
    assert empty.count == 0 and empty.mean == 0.0


def test_percentile_empty_input_policy():
    # Historical contract: empty input yields 0.0 by default ...
    assert percentile([], 0.999) == 0.0
    # ... and callers that must distinguish "no samples" pass empty=None.
    assert percentile([], 0.999, empty=None) is None
    assert percentile([], 0.5, empty=-1.0) == -1.0
    # Non-empty input ignores the empty policy entirely.
    assert percentile([7.0], 0.5, empty=None) == 7.0


def test_percentile_p999_needs_a_thousand_samples_to_leave_the_max():
    values = [float(i) for i in range(100)]
    # Below 1000 samples nearest-rank p99.9 is pinned to the maximum.
    assert percentile(values, 0.999) == 99.0
    big = [float(i) for i in range(2000)]
    assert percentile(big, 0.999) == 1997.0  # ceil(0.999*2000)-1


def test_summarise_extended_fills_p999():
    summary = summarise([1.0, 2.0, 3.0])
    assert summary.p999 is None
    assert "p999" not in summary.to_dict()
    extended = summarise([1.0, 2.0, 3.0], extended=True)
    assert extended.p999 == 3.0
    assert extended.to_dict()["p999"] == 3.0
    round_tripped = type(extended).from_dict(extended.to_dict())
    assert round_tripped == extended
    assert summarise([], extended=True).p999 == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
def test_percentiles_bracket_the_data(values):
    summary = summarise(values)
    assert summary.minimum <= summary.p50 <= summary.maximum
    assert summary.minimum <= summary.p90 <= summary.maximum
    # The mean is computed by summation, so allow a few ulps of slack.
    slack = 1e-9 * max(1.0, abs(summary.minimum), abs(summary.maximum))
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack


# -- tables ------------------------------------------------------------------------

def test_format_table_alignment_and_types():
    text = format_table(
        headers=["name", "value"],
        rows=[("alpha", 1.23456), ("beta", None), ("gamma", 7)],
        precision=2,
        title="demo",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "1.23" in text and "-" in text and "7" in text


def test_format_row_and_comparison():
    assert "1.500" in format_row([1.5], [8])


# -- collector ----------------------------------------------------------------------

def test_collector_produces_consistent_run_result():
    deployment, result = make_deployment(good=3, bad=3, capacity=12.0, duration=12.0)
    assert result.duration == pytest.approx(12.0)
    assert result.defense == "speakup"
    # Allocations over classes sum to one when anything was served.
    total_allocation = sum(result.allocation_by_class.values())
    assert total_allocation == pytest.approx(1.0)
    # Ideal allocation reflects the 50/50 bandwidth split.
    assert result.ideal_good_allocation == pytest.approx(0.5)
    # Served counts match the server's view.
    assert result.good.served + result.bad.served == result.total_served
    # Utilisation of an overloaded server should be essentially full.
    assert result.server_utilisation > 0.8
    # The flat dictionary exposes the headline numbers.
    flat = result.as_dict()
    assert flat["good_allocation"] == pytest.approx(result.good_allocation)
    assert flat["capacity_rps"] == pytest.approx(12.0)


def test_collector_class_metrics_fields():
    deployment, result = make_deployment(good=2, bad=2, capacity=8.0, duration=10.0)
    good = result.good
    assert good.clients == 2
    assert good.aggregate_bandwidth_bps == deployment.aggregate_bandwidth_bps("good")
    assert 0.0 <= good.served_fraction <= 1.0
    assert good.finished <= good.issued


def test_collector_category_breakdown():
    from repro.clients.good import GoodClient
    from repro.core.frontend import Deployment, DeploymentConfig
    from repro.constants import MBIT
    from repro.simnet.topology import build_lan, uniform_bandwidths

    topology, hosts, thinner_host = build_lan(uniform_bandwidths(4, 2 * MBIT))
    deployment = Deployment(topology, thinner_host,
                            DeploymentConfig(server_capacity_rps=4.0, seed=0))
    for index, host in enumerate(hosts):
        GoodClient(deployment, host, category="odd" if index % 2 else "even")
    deployment.run(10.0)
    result = collect(deployment)
    assert set(result.allocation_by_category) <= {"odd", "even"}
    assert sum(result.allocation_by_category.values()) == pytest.approx(1.0)
    for fraction in result.served_fraction_by_category.values():
        assert 0.0 <= fraction <= 1.0


def test_run_result_round_trips_through_json():
    from repro import quick_demo
    from repro.metrics.collector import RunResult

    result = quick_demo(good_clients=2, bad_clients=2, capacity_rps=8.0,
                        duration=6.0, seed=4)
    restored = RunResult.from_json(result.to_json())
    assert restored.to_dict() == result.to_dict()
    # Derived headline numbers survive the round trip too.
    assert restored.good_allocation == result.good_allocation
    assert restored.good.served_fraction == result.good.served_fraction
    assert restored.good.payment_time.p90 == result.good.payment_time.p90


@pytest.mark.parametrize("path", ["", "good", "shards.0"], ids=["top", "good", "shard"])
def test_a_mistyped_result_key_fails_with_one_line_at_any_depth(path):
    """An unknown key anywhere in a stored result is one ExperimentError line
    naming it, not a silently dropped number."""
    from repro import quick_demo
    from repro.errors import ExperimentError
    from repro.metrics.collector import RunResult

    document = quick_demo(good_clients=1, bad_clients=1, capacity_rps=8.0,
                          duration=2.0).to_dict()
    target = document
    for part in filter(None, path.split(".")):
        target = target[int(part)] if isinstance(target, list) else target[part]
    target["bogus"] = 1
    with pytest.raises(ExperimentError, match="'bogus'") as excinfo:
        RunResult.from_dict(document)
    assert "\n" not in str(excinfo.value)


def test_class_metrics_round_trip_defaults_missing_fields():
    from repro.metrics.collector import ClassMetrics

    metrics = ClassMetrics.from_dict({"client_class": "good"})
    assert metrics.served == 0
    assert metrics.payment_time.count == 0
