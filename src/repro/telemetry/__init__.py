"""Memory-bounded measurement plane.

Two collection modes, selected per scenario by a
:class:`~repro.telemetry.spec.TelemetrySpec` on the scenario spec:

* ``full`` (the default, and the behaviour when no spec is set) keeps the
  historical per-request lists and is byte-identical to the collector the
  repo has always had;
* ``rollup`` replaces every unbounded list with fixed-size reservoir
  samplers plus time-bucketed aggregates, so a run's measurement footprint
  is O(buckets + reservoir) regardless of how many requests it serves.

The collector classes are re-exported lazily (PEP 562): the spec must stay
importable from the bottom ``core`` layer without dragging in
:mod:`repro.telemetry.collector` (which itself imports the ``metrics`` layer).
"""

from repro.telemetry.spec import TelemetrySpec

_COLLECTOR_EXPORTS = (
    "P2Quantile",
    "ReservoirSampler",
    "StreamAccumulator",
    "TelemetryCollector",
    "TelemetryMetrics",
    "TimeBuckets",
)

__all__ = ["TelemetrySpec", *_COLLECTOR_EXPORTS]


def __getattr__(name: str):
    if name in _COLLECTOR_EXPORTS:
        from repro.telemetry import collector

        return getattr(collector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
