"""Declarative telemetry configuration.

:class:`TelemetrySpec` rides on :class:`~repro.scenarios.spec.ScenarioSpec`
exactly like the other optional sub-specs (``fault_plan``, ``retry_policy``,
``health_probe``): frozen, serialised through :mod:`repro.codec`, and
sweepable through ``with_value`` paths such as ``telemetry.reservoir``.  The
scenario writes no ``telemetry`` key while the field is unset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import codec
from repro.errors import ExperimentError, check_positive

TELEMETRY_MODES = ("full", "rollup")

#: Bounded per-bucket state: count, sum, min, max plus two P² sketches of
#: five markers each (height + position + desired-position + increment per
#: marker, and the sketch's own count).  Used by ``footprint_budget`` so the
#: budget is an audited constant, not a hand-wave.
BUCKET_SLOTS = 4 + 2 * (4 * 5 + 1)


@dataclass(frozen=True)
class TelemetrySpec:
    """How a run measures itself.

    ``mode``
        ``"full"`` keeps the historical unbounded per-request lists and is
        byte-identical to a run with no telemetry spec at all; ``"rollup"``
        switches every per-request list to bounded streaming state.
    ``reservoir``
        Capacity of each fixed-size reservoir sampler (Algorithm R, seeded
        off the dedicated ``"telemetry"`` RNG stream).  With ``count <=
        reservoir`` the reservoir holds every sample, so small runs report
        exact percentiles.
    ``bucket_s``
        Width of the time-bucketed rollup aggregates, in simulated seconds.
    ``max_buckets``
        Hard cap on buckets per series; samples past the cap fold into the
        last bucket so a runaway duration cannot grow memory.
    """

    mode: str = "rollup"
    reservoir: int = 512
    bucket_s: float = 1.0
    max_buckets: int = 4096

    def validate(self) -> None:
        if self.mode not in TELEMETRY_MODES:
            raise ExperimentError(
                f"telemetry mode must be one of {TELEMETRY_MODES}, got {self.mode!r}"
            )
        if self.reservoir < 1:
            raise ExperimentError(f"telemetry reservoir must be >= 1, got {self.reservoir}")
        check_positive("telemetry.bucket_s", self.bucket_s)
        if self.max_buckets < 1:
            raise ExperimentError(f"telemetry max_buckets must be >= 1, got {self.max_buckets}")

    def buckets_for(self, duration: float) -> int:
        """How many buckets a ``duration``-second run can populate."""
        if duration <= 0:
            return 1
        return min(self.max_buckets, int(math.ceil(duration / self.bucket_s)) + 1)

    def footprint_budget(self, duration: float) -> int:
        """Upper bound on retained measurement slots for one run.

        The budget is O(buckets + reservoir) and independent of request
        count: per class (good/bad) the collector keeps three stream
        accumulators (payment, response, price), each a reservoir plus
        O(1) moments, plus two bucketed series.  Tests assert
        ``collector.footprint_records() <= spec.footprint_budget(...)``.
        """
        classes = 2
        streams_per_class = 3
        accumulator_slots = classes * streams_per_class * (self.reservoir + 8)
        bucket_series = classes * 2
        bucket_slots = bucket_series * self.buckets_for(duration) * BUCKET_SLOTS
        return accumulator_slots + bucket_slots

    to_dict = codec.to_dict

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySpec":
        """Read a spec back through the codec, then :meth:`validate` it."""
        spec = codec.from_dict(cls, data)
        spec.validate()
        return spec
