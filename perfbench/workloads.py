"""The benchmark's workloads: a seed in, a checked simulator output out.

Each workload is a function of the seed alone.  The generator here builds
the :class:`~repro.scenarios.spec.ScenarioSpec` (or, for ``fig2-sweep``, the
:class:`~repro.scenarios.runner.Sweep`) and the program only ever receives
that spec, through its public API.  Every setting not named below stays at
the program's shipped default (``vectorized``, ``pause_gc_during_run``,
slow start, ...).

Running a workload (:func:`execute`) times it from spec to checked result
and verifies the output:

* on the pinned seed (:data:`PINS_PATH`), the output digest must equal the
  pinned one: the ``RunResult`` JSON for single runs, the bytes
  ``save_results`` wrote for ``fig2-sweep``;
* on every seed, seed-independent invariants: per-class accounting
  (issued = served + denied + dropped + still in flight), allocation
  fractions within [0, 1], and a run that did work.

A run that raises or fails a check counts toward ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.constants import MBIT
from repro.scenarios import runner as sweep_runner
from repro.scenarios.registry import build_scenario

#: Pinned output digests, one per workload, on the seed the file names (0).
#: Seed 7919 is held out: it was not used while tuning the benchmark, and a
#: claimed gain must also hold on it.
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: Figure 2: the good clients' share of the 50 clients (and so of the
#: aggregate bandwidth), each run with and without speak-up.
FIG2_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG2_CLIENTS = 50
FIG2_DEFENSES = ("speakup", "none")
FIG2_DURATION_S = 3.0


def fig2_sweep(seed: int) -> sweep_runner.Sweep:
    """The Figure 2 grid at the paper's 50-client LAN, c = 100 requests/s."""
    splits = [
        (round(fraction * FIG2_CLIENTS), FIG2_CLIENTS - round(fraction * FIG2_CLIENTS))
        for fraction in FIG2_FRACTIONS
    ]
    base = build_scenario(
        "lan-baseline",
        good_clients=splits[0][0],
        bad_clients=splits[0][1],
        capacity_rps=100.0,
        duration=FIG2_DURATION_S,
        seed=seed,
    )
    return sweep_runner.Sweep(
        base,
        axes={("groups.0.count", "groups.1.count"): splits, "defense": FIG2_DEFENSES},
    )


def auction_dense(seed: int):
    """``thinner-mega`` at 6.6k clients: one thinner, admission-bound."""
    return build_scenario(
        "thinner-mega",
        good_clients=6336,
        flash_clients=132,
        bad_clients=132,
        capacity_rps=2112.0,
        seed=seed,
    )


def fabric_wide(seed: int):
    """``fabric-mega`` at 1,320 clients on a non-blocking leaf-spine core.

    Leaf-spine, 8 shards, power-of-two dispatch and cross traffic as in
    ``fabric-mega``.  The core is not oversubscribed: with the factory's 4:1
    core, flows touched per run vary by 14-60% (interquartile range over ten
    seeds) with the seed at every size tried, which no affordable run length
    averages out; with a 1:1 core they vary by under 2%.
    """
    return build_scenario(
        "fabric-mega",
        good_clients=1200,
        bad_clients=120,
        capacity_rps=450.0,
        oversubscription=1.0,
        duration=1.0,
        seed=seed,
    )


def population_rollup(seed: int):
    """``rollup-mega`` at 20k clients on a 400 Mbit payment sink."""
    return build_scenario(
        "rollup-mega",
        good_clients=19500,
        bad_clients=500,
        thinner_bandwidth_bps=400 * MBIT,
        seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> ScenarioSpec (single run) or Sweep (``sweep`` is True).
    generate: Callable[[int], object]
    sweep: bool = False


#: Why each workload is in the benchmark is in ``perfbench/README.md``.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig2-sweep", fig2_sweep, sweep=True),
        Workload("auction-dense", auction_dense),
        Workload("fabric-wide", fabric_wide),
        Workload("population-rollup", population_rollup),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load_pins(path: str = PINS_PATH) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pinned_digest(workload: str, seed: int, pins: Dict[str, object]) -> Optional[str]:
    """The digest pinned for ``workload`` on ``seed``, or None if unpinned."""
    if seed != pins.get("seed"):
        return None
    return pins.get("digests", {}).get(workload)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def check_result(result, deployment=None) -> List[str]:
    """Seed-independent invariants of one ``RunResult``.

    With the ``deployment`` at hand, requests still in flight are counted
    from the clients, so the accounting identity is checked exactly, and the
    engine must have fired events.  A result alone (``fig2-sweep``, whose
    deployments stay inside ``SweepRunner``) is checked with in-flight
    requests taken as ``issued - finished``, which must not be negative, and
    a server that served requests.
    """
    problems: List[str] = []
    for metrics in (result.good, result.bad):
        counts = (metrics.issued, metrics.served, metrics.denied, metrics.dropped)
        if min(counts) < 0:
            problems.append(f"{metrics.client_class}: negative request count {counts}")
        in_flight = metrics.issued - metrics.finished
        if deployment is not None:
            in_flight = sum(
                client.outstanding + len(client.backlog)
                for client in deployment.clients_of_class(metrics.client_class)
            )
        if metrics.issued != metrics.finished + in_flight or in_flight < 0:
            problems.append(
                f"{metrics.client_class}: issued {metrics.issued} != served "
                f"{metrics.served} + denied {metrics.denied} + dropped "
                f"{metrics.dropped} + in flight {in_flight}"
            )
    fractions = dict(result.allocation_by_class)
    fractions.update({f"busy:{k}": v for k, v in result.busy_allocation_by_class.items()})
    fractions.update({f"category:{k}": v for k, v in result.allocation_by_category.items()})
    fractions["good_allocation"] = result.good_allocation
    for name, value in fractions.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"allocation {name} = {value} outside [0, 1]")
    if sum(result.allocation_by_class.values()) > 1.0 + 1e-9:
        problems.append(f"class allocations sum to {sum(result.allocation_by_class.values())}")
    if result.total_served <= 0:
        problems.append("the server served no request")
    if deployment is not None and deployment.engine.events_processed <= 0:
        problems.append("the engine fired no event")
    return problems


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one execution of a workload measured and found."""

    workload: str
    seed: int
    ops: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "ops": self.ops,
            "failed": self.failed,
            "problems": self.problems,
            "digest": self.digest,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
        }


def execute(name: str, seed: int, out_dir: str, pins: Optional[Dict[str, object]] = None) -> Outcome:
    """Run one workload once, timed from spec to checked result.

    ``wall_s`` covers build, run, results collection, serialisation and the
    output check.  ``setup_s`` is the time spent inside
    ``ScenarioSpec.build()``; for ``fig2-sweep``, whose builds happen inside
    ``SweepRunner``, it is left at 0 here and measured separately by
    :func:`sweep_setup_s`.
    """
    workload = WORKLOADS[name]
    pins = load_pins() if pins is None else pins
    pin = pinned_digest(name, seed, pins)
    generated = workload.generate(seed)
    if workload.sweep:
        return _execute_sweep(name, seed, generated, pin, out_dir)
    return _execute_single(name, seed, generated, pin)


def _pin_problem(found: str, pin: Optional[str]) -> List[str]:
    if pin is None or found == pin:
        return []
    return [f"digest {found} does not match the pinned {pin}"]


def _execute_single(name: str, seed: int, spec, pin: Optional[str]) -> Outcome:
    outcome = Outcome(workload=name, seed=seed, ops=1)
    start = time.perf_counter()
    try:
        deployment = spec.build()
        outcome.setup_s = time.perf_counter() - start
        deployment.run(spec.duration)
        result = deployment.results()
        outcome.digest = digest(json.dumps(result.to_dict(), sort_keys=True).encode("utf-8"))
        outcome.problems = check_result(result, deployment) + _pin_problem(outcome.digest, pin)
    except Exception:  # a crashed run is a failed operation, not a crashed benchmark
        outcome.problems = [traceback.format_exc()]
    outcome.wall_s = time.perf_counter() - start
    outcome.failed = 1 if outcome.problems else 0
    return outcome


def _execute_sweep(name: str, seed: int, sweep, pin: Optional[str], out_dir: str) -> Outcome:
    outcome = Outcome(workload=name, seed=seed, ops=sweep.point_count())
    path = os.path.join(out_dir, f"{name}-{os.getpid()}.json")
    start = time.perf_counter()
    try:
        records = sweep_runner.SweepRunner(jobs=1).run(sweep)
        sweep_runner.save_results(records, path)
        with open(path, "rb") as handle:
            outcome.digest = digest(handle.read())
        failed_points = set()
        for record in records:
            problems = check_result(record.result)
            outcome.problems.extend(f"point {record.index}: {problem}" for problem in problems)
            if problems:
                failed_points.add(record.index)
        pin_problems = _pin_problem(outcome.digest, pin)
        outcome.problems.extend(pin_problems)
        outcome.failed = outcome.ops if pin_problems else len(failed_points)
    except Exception:  # a crashed sweep fails every point it held
        outcome.problems = [traceback.format_exc()]
        outcome.failed = outcome.ops
    outcome.wall_s = time.perf_counter() - start
    if os.path.exists(path):
        os.remove(path)
    return outcome


def sweep_setup_s(name: str, seed: int) -> float:
    """Seconds inside ``ScenarioSpec.build()`` over every point of a sweep.

    ``SweepRunner`` builds each point internally, so the builds are timed
    here, on the same point specs, after the timed sweep has finished.
    """
    total = 0.0
    for point in WORKLOADS[name].generate(seed).points():
        start = time.perf_counter()
        point.spec.build()
        total += time.perf_counter() - start
    return total
