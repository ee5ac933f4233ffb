"""Small statistics helpers used by the metrics collector and experiments.

Kept dependency-free (no numpy) so the core library stays importable
anywhere; the benchmark harness is free to use numpy on top of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import codec


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((value - mu) ** 2 for value in values) / (len(values) - 1))


def percentile(
    values: Sequence[float],
    fraction: float,
    empty: Optional[float] = 0.0,
) -> Optional[float]:
    """Nearest-rank percentile (``fraction`` in [0, 1]).

    Empty-input policy: an empty sample set returns ``empty``, which
    defaults to ``0.0`` (the historical contract, kept so serialised
    summaries stay byte-compatible).  Callers that need to distinguish
    "no samples" from "all samples were zero" — the rollup telemetry
    sketches feeding p99.9 at scale do — pass ``empty=None`` and get
    ``None`` back.  Non-empty input always returns an element of
    ``values``, including for extreme fractions such as 0.999 (p99.9):
    nearest-rank needs >= 1000 samples before p99.9 can differ from the
    maximum.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not values:
        return empty
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def confidence_interval(values: Sequence[float], z: float = 1.96) -> float:
    """Half-width of the normal-approximation confidence interval of the mean."""
    if len(values) < 2:
        return 0.0
    return z * stddev(values) / math.sqrt(len(values))


@dataclass(frozen=True)
class Summary:
    """Mean / deviation / percentiles of one sample set.

    ``p999`` (p99.9) is optional: ``None`` on summaries built by the
    historical full-mode collector, populated by the rollup telemetry
    path (and by ``summarise(..., extended=True)``).  It is serialised only
    when set, and ``minimum``/``maximum`` are written as ``min``/``max``.
    """

    count: int
    mean: float
    stddev: float
    minimum: float = field(metadata=codec.key("min"))
    maximum: float = field(metadata=codec.key("max"))
    p50: float
    p90: float
    p99: float
    p999: Optional[float] = field(default=None, metadata=codec.OMIT_DEFAULT)

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


def summarise(values: Sequence[float], extended: bool = False) -> Summary:
    """Full summary of a sample set (empty sets produce all-zero summaries).

    ``extended=True`` also fills the tail percentile ``p999``; the
    default leaves it ``None`` so existing serialised output is
    unchanged.
    """
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, p999=0.0 if extended else None)
    return Summary(
        count=len(values),
        mean=mean(values),
        stddev=stddev(values),
        minimum=min(values),
        maximum=max(values),
        p50=percentile(values, 0.50),
        p90=percentile(values, 0.90),
        p99=percentile(values, 0.99),
        p999=percentile(values, 0.999) if extended else None,
    )


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """A safe division used all over the allocation metrics."""
    if denominator == 0:
        return default
    return numerator / denominator
