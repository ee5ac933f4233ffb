"""Tests for the emulated server (service times, callbacks, SUSPEND/RESUME/ABORT)."""

import pytest

from repro.errors import ServerError
from repro.httpd.messages import RequestState, new_request
from repro.httpd.server import EmulatedServer, ServerState
from repro.rng import RandomStream
from repro.simnet.engine import Engine


def make_server(capacity=10.0, jitter=0.1, seed=0):
    engine = Engine()
    server = EmulatedServer(engine, capacity, RandomStream(seed, "server"), jitter=jitter)
    return engine, server


def test_capacity_must_be_positive():
    engine = Engine()
    with pytest.raises(ServerError):
        EmulatedServer(engine, 0.0, RandomStream(0, "s"))


def test_serves_one_request_with_jittered_service_time():
    engine, server = make_server(capacity=10.0)
    done = []
    server.on_request_done = lambda request: done.append(engine.now)
    request = new_request("c", issued_at=0.0)
    server.submit(request)
    assert server.busy
    engine.run()
    assert len(done) == 1
    assert 0.09 <= done[0] <= 0.11
    assert request.state == RequestState.SERVED
    assert request.service_time == pytest.approx(done[0])
    assert server.state == ServerState.IDLE


def test_on_ready_fires_after_completion():
    engine, server = make_server()
    order = []
    server.on_request_done = lambda request: order.append("done")
    server.on_ready = lambda: order.append("ready")
    server.submit(new_request("c", issued_at=0.0))
    engine.run()
    assert order == ["done", "ready"]


def test_submit_while_busy_raises():
    engine, server = make_server()
    server.submit(new_request("c", issued_at=0.0))
    with pytest.raises(ServerError):
        server.submit(new_request("c", issued_at=0.0))


def test_difficulty_scales_service_time():
    engine, server = make_server(capacity=10.0, jitter=0.0)
    easy_done = []
    server.on_request_done = lambda request: easy_done.append(engine.now)
    server.submit(new_request("c", issued_at=0.0, difficulty=1.0))
    engine.run()
    engine2, server2 = make_server(capacity=10.0, jitter=0.0)
    hard_done = []
    server2.on_request_done = lambda request: hard_done.append(engine2.now)
    server2.submit(new_request("c", issued_at=0.0, difficulty=5.0))
    engine2.run()
    assert hard_done[0] == pytest.approx(5 * easy_done[0])


def test_suspend_preserves_remaining_work():
    engine, server = make_server(capacity=1.0, jitter=0.0)
    done = []
    server.on_request_done = lambda request: done.append(engine.now)
    request = new_request("c", issued_at=0.0)
    server.submit(request)

    engine.run(until=0.4)
    suspended = server.suspend()
    assert suspended is request
    assert request.state == RequestState.SUSPENDED
    assert request.suspend_count == 1
    assert not server.busy

    # Idle for a while, then resume: total work is still one second.
    engine.run(until=2.0)
    server.resume(request)
    engine.run()
    assert done == [pytest.approx(2.6)]
    assert server.stats.suspensions == 1
    assert server.stats.resumptions == 1


def test_suspend_without_active_request_raises():
    engine, server = make_server()
    with pytest.raises(ServerError):
        server.suspend()


def test_resume_unknown_request_raises():
    engine, server = make_server()
    with pytest.raises(ServerError):
        server.resume(new_request("c", issued_at=0.0))


def test_abort_in_progress_frees_server_and_notifies_ready():
    engine, server = make_server(capacity=1.0, jitter=0.0)
    ready = []
    server.on_ready = lambda: ready.append(engine.now)
    request = new_request("c", issued_at=0.0)
    server.submit(request)
    engine.run(until=0.3)
    server.abort(request)
    assert not server.busy
    assert request.state == RequestState.DROPPED
    assert server.stats.aborted == 1
    assert ready == [pytest.approx(0.3)]
    engine.run()
    assert server.stats.served == 0


def test_stats_track_classes_and_categories():
    engine, server = make_server(capacity=10.0, jitter=0.0)
    server.submit(new_request("good-1", issued_at=0.0, client_class="good", category="cat-1"))
    engine.run()
    server.submit(new_request("bad-1", issued_at=engine.now, client_class="bad", category="cat-2"))
    engine.run()
    allocation = server.stats.allocation_by_class()
    assert allocation == {"good": 0.5, "bad": 0.5}
    assert server.stats.allocation_by_category() == {"cat-1": 0.5, "cat-2": 0.5}
    assert server.stats.busy_time == pytest.approx(0.2)
    assert server.utilisation(engine.now) == pytest.approx(0.2 / engine.now)


def test_utilisation_requires_positive_duration():
    engine, server = make_server()
    with pytest.raises(ServerError):
        server.utilisation(0.0)


def test_mean_service_time():
    engine, server = make_server(capacity=50.0)
    assert server.mean_service_time == pytest.approx(0.02)
