"""Tests for the price book and the deployment's one book."""

import pytest

from repro.core.pricing import PriceBook
from repro.scenarios import build_scenario

SMALL = dict(good_clients=6, bad_clients=6, capacity_rps=30.0)


def test_empty_book_defaults():
    book = PriceBook()
    assert len(book) == 0
    assert book.average_by_class() == {}


def test_record_and_averages_by_class():
    book = PriceBook()
    book.record(100.0, "good")
    book.record(300.0, "good")
    book.record(500.0, "bad")
    assert len(book) == 3
    assert book.average_by_class() == {"good": 200.0, "bad": 500.0}


def test_negative_price_rejected():
    book = PriceBook()
    with pytest.raises(ValueError):
        book.record(-1.0, "good")


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("fleet-lan", dict(SMALL, thinner_shards=3, duration=6.0)),
        (
            "fleet-failover",
            dict(SMALL, thinner_shards=3, duration=6.0, kill_at_s=2.0, heal_at_s=4.0),
        ),
        ("adaptive-pulse", dict(SMALL, duration=12.0)),
        ("layered-lan", dict(SMALL, duration=6.0)),
        ("lan-baseline", dict(SMALL, duration=6.0, defense="quantum")),
    ],
)
def test_every_thinner_records_into_the_deployments_one_book(scenario, overrides):
    """Fleet shards, both adaptive sides and a pipeline's admission stage
    all hold the deployment's book, and no admission goes unrecorded."""
    spec = build_scenario(scenario, **overrides)
    deployment = spec.build()
    deployment.run(spec.duration)
    assert all(thinner.prices is deployment.prices for thinner in deployment.thinners)
    # Every admission (an auction win or a quantum grant) records one bid.
    admitted = sum(thinner.stats.requests_admitted for thinner in deployment.thinners)
    assert len(deployment.prices) == admitted > 0
