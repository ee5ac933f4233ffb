"""Shared experiment machinery: :class:`ExperimentScale`.

The paper's experiments run 50 clients for 600 seconds on Emulab.  A pure
Python simulation reproduces the same *proportions* at smaller scale, so the
harness is parameterised by an :class:`ExperimentScale`:

* ``ExperimentScale.test()`` — a few clients, a few seconds; used by tests;
* ``ExperimentScale.default()`` — half the paper's client count, 60 seconds;
  used by the benchmark harness (override with the ``REPRO_BENCH_DURATION``
  and ``REPRO_BENCH_CLIENT_SCALE`` environment variables);
* ``ExperimentScale.paper()`` — the full 50 clients / 600 seconds.

Client counts and the server capacity are scaled together, which keeps every
ratio the paper cares about (demand vs. capacity, G vs. B) unchanged.  The
experiments build their runs from the scenario registry (the §7.2 LAN mix is
``build_scenario("lan-baseline", ...)``) and run them through a
:class:`~repro.scenarios.runner.SweepRunner`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.constants import PAPER_EXPERIMENT_DURATION

#: Environment variables the benchmark harness reads.
ENV_DURATION = "REPRO_BENCH_DURATION"
ENV_CLIENT_SCALE = "REPRO_BENCH_CLIENT_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """How big a run to perform relative to the paper's setup."""

    duration: float = 60.0
    client_scale: float = 0.5
    seed: int = 0

    @classmethod
    def test(cls, seed: int = 0) -> "ExperimentScale":
        """Tiny runs for the unit/integration test suite."""
        return cls(duration=12.0, client_scale=0.2, seed=seed)

    @classmethod
    def default(cls, seed: int = 0) -> "ExperimentScale":
        """The benchmark default (overridable through the environment)."""
        duration = float(os.environ.get(ENV_DURATION, 60.0))
        client_scale = float(os.environ.get(ENV_CLIENT_SCALE, 0.5))
        return cls(duration=duration, client_scale=client_scale, seed=seed)

    @classmethod
    def paper(cls, seed: int = 0) -> "ExperimentScale":
        """The paper's full scale: 50 clients, 600 seconds."""
        return cls(duration=PAPER_EXPERIMENT_DURATION, client_scale=1.0, seed=seed)

    def clients(self, paper_count: int) -> int:
        """Scale a client count from the paper's setup (at least 1 if nonzero)."""
        if paper_count == 0:
            return 0
        return max(1, round(paper_count * self.client_scale))

    def capacity(self, paper_capacity: float, paper_clients: int, scaled_clients: int) -> float:
        """Scale the server capacity to keep load/capacity ratios unchanged."""
        if paper_clients == 0:
            return paper_capacity
        return paper_capacity * scaled_clients / paper_clients

    def with_seed(self, seed: int) -> "ExperimentScale":
        """The same scale with a different seed."""
        return replace(self, seed=seed)
