"""Hot-path instrumentation counters for the fluid simulator.

:class:`SimCounters` is a leaf data type (stdlib only, no repro imports) so
the bottom :mod:`repro.simnet` layer can depend on it without creating a
cycle.  The network increments these counters on its rate-reallocation path;
the bench harness (:mod:`repro.perf.bench`) snapshots them per run and writes
them next to wall-clock throughput in ``BENCH_speakup.json``, which is what
turns "the hot path got faster" from a claim into a tracked trajectory:

* ``reallocations``    — how many flow-set changes requested a rate update;
* ``flushes``          — how many batched recomputations actually ran (with
  the dirty-set scheme many reallocations collapse into one flush);
* ``waterfill_calls``  — progressive-filling invocations;
* ``flows_touched``    — total flows handed to waterfill (the per-recompute
  component size is ``flows_touched / waterfill_calls``);
* ``cache_hits`` / ``cache_misses`` — component-signature rate-cache traffic.

The speak-up admission path adds three more (incremented by the thinner
layer, which shares the network's counter object):

* ``auctions_held``        — winner selections run by the thinner (virtual
  auctions, quantum grants, retry lotteries);
* ``contenders_scanned``   — contender entries examined across those
  selections.  ``contenders_scanned / auctions_held`` is the
  machine-independent cost of one admission decision: O(n) with a linear
  scan, O(log n) with the kinetic bid index;
* ``bid_index_refreshes``  — bid-index entries re-keyed because the fluid
  allocator changed a payment flow's rate (the push half of the kinetic
  scheme; zero while rates are quiescent).

The composable admission-policy layer adds three more:

* ``filter_screened`` / ``filter_rejected`` — pipeline front-stage work:
  requests examined by screening stages and how many they dropped before
  the admission thinner ever saw them (per-stage attribution lives in
  :class:`~repro.metrics.collector.StageMetrics`);
* ``engagement_switches`` — adaptive-defense transitions (engage +
  disengage events) across the run; zero for static policies.

The measurement plane adds two gauges (machine-independent, surfaced in
``bench --check`` output but not gated):

* ``peak_live_events``  — high-water mark of live (non-cancelled) events,
  sampled at every rate flush, with each pending flow completion counted
  as one event (the network's single completion timer is not counted
  itself); the simulator's own memory pressure, independent of wall clock.
  Client arrivals parked past the run horizon are not events and are not
  counted; the park's one wake-up event is;
* ``records_emitted``   — telemetry samples routed into the rollup
  collector (zero in full mode, where per-request lists are kept
  instead).
"""

from __future__ import annotations

from typing import Dict


class SimCounters:
    """Cheap mutable counters incremented on the simulator's hot path."""

    __slots__ = (
        "reallocations",
        "flushes",
        "waterfill_calls",
        "flows_touched",
        "cache_hits",
        "cache_misses",
        "auctions_held",
        "contenders_scanned",
        "bid_index_refreshes",
        "filter_screened",
        "filter_rejected",
        "engagement_switches",
        "peak_live_events",
        "records_emitted",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.reallocations = 0
        self.flushes = 0
        self.waterfill_calls = 0
        self.flows_touched = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.auctions_held = 0
        self.contenders_scanned = 0
        self.bid_index_refreshes = 0
        self.filter_screened = 0
        self.filter_rejected = 0
        self.engagement_switches = 0
        self.peak_live_events = 0
        self.records_emitted = 0

    def snapshot(self) -> Dict[str, int]:
        """The counters as a plain dict (JSON-ready)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"SimCounters({fields})"
