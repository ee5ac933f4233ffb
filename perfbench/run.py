"""Benchmark harness: fresh-process runs of the simulator's workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each measurement runs one workload in its own child interpreter
(:mod:`perfbench.child`), so its time and peak RSS are its own.  The harness repeats measurements
until ``S`` seconds per workload are used, interleaving workloads round-robin
when several run, and reports medians.  ``--trace 1`` alternates untraced and
traced children and reports the per-layer metrics of the traced run.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import metrics  # noqa: E402

#: Names the workloads without importing the simulator into this process.
#: ``BENCHMARK.json`` gates on the steadiest two; all four run by hand.
WORKLOAD_NAMES = ("fig2-sweep", "auction-dense", "fabric-wide", "population-rollup")

#: Untraced measurements every workload gets, however short ``--seconds``.
MIN_ROUNDS = 3

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: Scratch space for child output, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """Run one measurement in a fresh interpreter and return its report."""
    stem = os.path.join(OUT_DIR, f"{workload}-{'traced' if trace else 'plain'}")
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--out-dir", OUT_DIR,
    ]
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        try:
            completed = subprocess.run(
                command, cwd=ROOT, env=child_env(), stdout=out, stderr=err, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{workload}: child ran over {CHILD_TIMEOUT_S:.0f} s") from None
    with open(stem + ".out", "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if completed.returncode != 0 or not lines:
        with open(stem + ".err", "r", encoding="utf-8", errors="replace") as handle:
            sys.stderr.write(handle.read()[-4000:])
        raise HarnessError(f"{workload}: child exited with code {completed.returncode}")
    return json.loads(lines[-1])


def measure(workloads: List[str], seed: int, seconds: float, trace: bool) -> Dict[str, Dict[str, list]]:
    """Round-robin over ``workloads`` until ``seconds`` each are used."""
    reports: Dict[str, Dict[str, list]] = {name: {"plain": [], "traced": []} for name in workloads}
    budget = seconds * len(workloads)
    start = time.monotonic()
    rounds = 0
    while True:
        for name in workloads:
            reports[name]["plain"].append(run_child(name, seed, trace=False))
            if trace:
                reports[name]["traced"].append(run_child(name, seed, trace=True))
        rounds += 1
        elapsed = time.monotonic() - start
        enough = rounds >= (1 if trace else MIN_ROUNDS)
        if enough and elapsed + elapsed / rounds > budget:
            return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the simulator benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    try:
        reports = measure(workloads, args.seed, args.seconds, bool(args.trace))
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    results = {
        name: metrics.summarise(runs["plain"], runs["traced"], bool(args.trace))
        for name, runs in reports.items()
    }
    for name, result in results.items():
        for line in metrics.describe(name, result, reports[name]["plain"], bool(args.trace)):
            print(line)
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = metrics.combine(results)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
