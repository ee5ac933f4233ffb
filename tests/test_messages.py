"""Tests for request/response message types."""

import pytest

from repro.httpd.messages import (
    PaymentPost,
    Request,
    RequestState,
    Response,
    new_request,
    reset_request_ids,
)


def test_new_request_assigns_unique_ids():
    first = new_request("client-a", issued_at=0.0)
    second = new_request("client-a", issued_at=0.0)
    assert first.request_id != second.request_id


def test_reset_request_ids_restarts_counter():
    reset_request_ids()
    assert new_request("c", issued_at=0.0).request_id == 1
    assert new_request("c", issued_at=0.0).request_id == 2
    reset_request_ids()
    assert new_request("c", issued_at=0.0).request_id == 1


def test_requests_compare_by_identity():
    reset_request_ids()
    a = new_request("c", issued_at=0.0)
    b = new_request("c", issued_at=0.0)
    assert a != b
    assert a == a
    assert len({a, b}) == 2


def test_lifecycle_predicates():
    request = new_request("c", issued_at=1.0)
    assert not request.is_outstanding
    request.state = RequestState.CONTENDING
    assert request.is_outstanding
    request.state = RequestState.SERVED
    assert not request.is_outstanding


def test_timing_helpers():
    request = new_request("c", issued_at=1.0)
    assert request.payment_time() is None
    assert request.response_time() is None
    request.arrived_at = 1.2
    request.encouraged_at = 1.3
    request.admitted_at = 4.3
    request.completed_at = 4.5
    assert request.payment_time() == pytest.approx(3.0)
    assert request.response_time() == pytest.approx(3.5)


def test_response_and_payment_post():
    request = new_request("c", issued_at=0.0)
    response = Response(request=request, produced_at=2.0)
    assert response.request_id == request.request_id
    post = PaymentPost(request_id=request.request_id, sequence=1, size_bytes=1e6, started_at=0.0)
    assert post.in_flight
    post.completed_at = 3.0
    assert not post.in_flight


def test_request_carries_difficulty_and_category():
    request = new_request("c", issued_at=0.0, client_class="bad", category="cat-3", difficulty=4.0)
    assert request.client_class == "bad"
    assert request.category == "cat-3"
    assert request.difficulty == 4.0
