"""Tests of the benchmark harness itself (not of the simulator).

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/tests``.  Workloads here are tiny stand-ins registered for the
test only, so the file runs in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import child, metrics, run, workloads  # noqa: E402
from perfbench.tracer import Tracer, boundary_names, summarise_spans  # noqa: E402
from repro.scenarios import runner as sweep_runner  # noqa: E402
from repro.scenarios.registry import build_scenario  # noqa: E402
from repro.simnet.engine import Engine  # noqa: E402


def tiny_spec(seed):
    return build_scenario("lan-baseline", good_clients=3, bad_clients=3, capacity_rps=10.0, duration=3.0, seed=seed)


def tiny_sweep(seed):
    return sweep_runner.Sweep(tiny_spec(seed), axes={"defense": ("speakup", "none")})


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload("tiny", tiny_spec))
    monkeypatch.setitem(
        workloads.WORKLOADS, "tiny-sweep", workloads.Workload("tiny-sweep", tiny_sweep, sweep=True)
    )


@pytest.mark.parametrize("name, ops", [("tiny", 1), ("tiny-sweep", 2)])
def test_a_wrong_pin_raises_ops_failed(tiny_workloads, tmp_path, name, ops):
    unpinned = workloads.execute(name, 5, str(tmp_path), pins={"seed": 0, "digests": {}})
    assert (unpinned.ops, unpinned.failed, unpinned.problems) == (ops, 0, [])

    right = {"seed": 5, "digests": {name: unpinned.digest}}
    assert workloads.execute(name, 5, str(tmp_path), pins=right).failed == 0

    wrong = {"seed": 5, "digests": {name: "0" * 64}}
    outcome = workloads.execute(name, 5, str(tmp_path), pins=wrong)
    assert outcome.failed == ops
    assert any("does not match the pinned" in problem for problem in outcome.problems)


def test_a_crashing_run_counts_as_failed(monkeypatch, tmp_path):
    def broken(seed):
        return tiny_spec(seed).with_value("duration", -1.0)

    monkeypatch.setitem(workloads.WORKLOADS, "broken", workloads.Workload("broken", broken))
    outcome = workloads.execute("broken", 0, str(tmp_path), pins={"seed": 0, "digests": {}})
    assert (outcome.ops, outcome.failed) == (1, 1)
    assert "duration must be positive" in outcome.problems[0]


def test_the_accounting_check_catches_a_lost_request():
    deployment = tiny_spec(1).build()
    deployment.run(3.0)
    result = deployment.results()
    assert workloads.check_result(result, deployment) == []
    result.good.issued += 1
    assert any("issued" in problem for problem in workloads.check_result(result, deployment))
    # Without the deployment, more outcomes than issued requests still shows.
    result.good.issued = result.good.finished - 1
    assert any("issued" in problem for problem in workloads.check_result(result))


def test_peak_rss_is_measured_per_child():
    def peak_mb(megabytes):
        code = (
            f"from perfbench.child import peak_rss_mb; block = bytearray({megabytes} << 20); "
            "block[::4096] = bytes(len(block[::4096])); print(peak_rss_mb())"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        return float(completed.stdout)

    ballast = bytearray(100 << 20)  # a large parent, as a long test session is
    ballast[::4096] = bytes(len(ballast[::4096]))
    big, small = peak_mb(80), peak_mb(5)
    assert big > 80
    # Neither the earlier big child nor the parent's pages count for the small one.
    assert small < 60
    del ballast


def test_self_time_arithmetic_on_a_synthetic_tree():
    names = ["root", "child", "leaf"]
    #            0 root      1 child      2 leaf       3 child      4 root
    name = np.array([0, 1, 2, 1, 0])
    start = np.array([0.0, 1.0, 1.5, 4.0, 10.0])
    end = np.array([5.0, 3.0, 2.0, 4.5, 11.0])
    parent = np.array([-1, 0, 1, 0, -1])
    summary = summarise_spans(names, name, start, end, parent, wall_s=12.0)
    boundaries = summary["boundaries"]
    assert boundaries["root"] == {"calls": 2, "self_s": pytest.approx((5.0 - 2.0 - 0.5) + 1.0)}
    assert boundaries["child"] == {"calls": 2, "self_s": pytest.approx((2.0 - 0.5) + 0.5)}
    assert boundaries["leaf"] == {"calls": 1, "self_s": pytest.approx(0.5)}
    assert summary["unattributed_s"] == pytest.approx(12.0 - 6.0)
    total = sum(item["self_s"] for item in boundaries.values()) + summary["unattributed_s"]
    assert total == pytest.approx(12.0)


def test_nested_calls_of_one_boundary_are_one_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer:
        engine = Engine()
        engine.call_soon(lambda: None)  # call_soon -> schedule_at: one span
        engine.run()
    summary = tracer.summary(wall_s=100.0)["boundaries"]
    assert summary["engine.schedule"]["calls"] == 1
    assert summary["engine.dispatch"]["calls"] == 1
    assert tracer.arrays()["parent"].tolist() == [-1, -1]


@pytest.mark.parametrize("name", ["tiny", "tiny-sweep"])
def test_traced_and_untraced_digests_are_equal(tiny_workloads, tmp_path, name):
    originals = (Engine.run, Engine.schedule_at, sweep_runner.save_results)
    pins = {"seed": 0, "digests": {}}
    untraced = workloads.execute(name, 3, str(tmp_path), pins)
    tracer = Tracer()
    with tracer:
        traced = workloads.execute(name, 3, str(tmp_path), pins)
    assert (Engine.run, Engine.schedule_at, sweep_runner.save_results) == originals
    assert traced.digest == untraced.digest and traced.failed == untraced.failed == 0

    summary = tracer.summary(traced.wall_s)
    calls = {boundary: item["calls"] for boundary, item in summary["boundaries"].items()}
    assert set(calls) == set(boundary_names())
    assert calls["scenarios.build"] == untraced.ops == len(tracer.deployments)
    assert calls["engine.dispatch"] == untraced.ops
    assert calls["runner.sweep"] == (1 if name == "tiny-sweep" else 0)
    total = sum(item["self_s"] for item in summary["boundaries"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(traced.wall_s)

    # The counters of the traced deployments are those of an untraced run.
    deployment = tiny_spec(3).build()
    deployment.run(3.0)
    if name == "tiny":
        assert child.deployment_counters(tracer.deployments) == child.deployment_counters([deployment])


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(item["name"], item["unit"]) for item in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(item["name"], item["unit"]) for item in spec["per_layer"]] == metrics.per_layer_units()
    assert {item["name"] for item in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(name for name in workloads.WORKLOADS if not name.startswith("tiny"))


def test_the_harness_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "auction-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
