"""Streaming, memory-bounded collectors for the rollup telemetry mode.

Everything in this module holds O(1) or O(reservoir + buckets) state no
matter how many samples flow through it:

* :class:`ReservoirSampler` — Vitter's Algorithm R over the dedicated
  ``"telemetry"`` RNG stream, so the retained sample is a deterministic
  function of (seed, sample order) and identical across process boundaries;
* :class:`P2Quantile` — the Jain/Chlamtac P² streaming quantile estimator
  (five markers, no RNG, exact below five observations);
* :class:`StreamAccumulator` — exact count/sum/min/max + Welford variance,
  reservoir-backed percentiles, rendered as a
  :class:`~repro.metrics.summary.Summary` (with p99.9);
* :class:`TimeBuckets` — per-bucket count/sum/min/max plus P² sketches,
  folding past ``max_buckets`` into the last bucket;
* :class:`TelemetryCollector` — the per-deployment façade the client layer
  records into instead of appending to ``ClientStats`` lists.

Winning bids need no streaming counterpart: the deployment's one
:class:`~repro.core.pricing.PriceBook` already holds only exact per-class
sums and counts, in either mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import codec
from repro.metrics.summary import Summary, percentile

CLIENT_CLASSES = ("good", "bad")
STREAM_NAMES = ("payment", "response", "price")
BUCKET_METRICS = ("payment", "response")


class ReservoirSampler:
    """Fixed-size uniform sample of an unbounded stream (Algorithm R)."""

    __slots__ = ("capacity", "rng", "count", "_samples")

    def __init__(self, capacity: int, rng) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = rng
        self.count = 0
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self.rng.randint(0, self.count - 1)
        if slot < self.capacity:
            self._samples[slot] = value

    @property
    def samples(self) -> List[float]:
        """The retained sample, in retention order (a copy)."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


class P2Quantile:
    """Jain/Chlamtac P² single-quantile estimator.

    Deterministic (no RNG): five markers track the running quantile with
    parabolic interpolation.  Below five observations the estimate is the
    exact nearest-rank percentile of what has been seen.
    """

    __slots__ = ("fraction", "count", "_initial", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, fraction: float) -> None:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        self.fraction = fraction
        self.count = 0
        self._initial: Optional[List[float]] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._rates: List[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        if self._initial is not None:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._heights = sorted(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.fraction
                self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
                self._rates = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
                self._initial = None
            return

        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._rates[index]
        for index in (1, 2, 3):
            delta = self._desired[index] - positions[index]
            if (delta >= 1.0 and positions[index + 1] - positions[index] > 1.0) or (
                delta <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        span = positions[index + 1] - positions[index - 1]
        upper = (positions[index] - positions[index - 1] + step) * (
            heights[index + 1] - heights[index]
        ) / (positions[index + 1] - positions[index])
        lower = (positions[index + 1] - positions[index] - step) * (
            heights[index] - heights[index - 1]
        ) / (positions[index] - positions[index - 1])
        return heights[index] + (step / span) * (upper + lower)

    def _linear(self, index: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        neighbour = index + int(step)
        return heights[index] + step * (heights[neighbour] - heights[index]) / (
            positions[neighbour] - positions[index]
        )

    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        if self._initial is not None:
            if not self._initial:
                return 0.0
            return percentile(self._initial, self.fraction)
        return self._heights[2]


class StreamAccumulator:
    """Exact moments + reservoir percentiles for one sample stream."""

    __slots__ = ("count", "total", "minimum", "maximum", "_m2", "_mean", "reservoir")

    def __init__(self, capacity: int, rng) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0
        self.reservoir = ReservoirSampler(capacity, rng)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.reservoir.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    def summary(self) -> Summary:
        """A :class:`Summary` with exact moments and reservoir percentiles.

        With ``count <= capacity`` the reservoir holds every sample and the
        percentiles are exact; past capacity they are the uniform-sample
        estimate (documented tolerance, not byte-identity).
        """
        if not self.count:
            return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, p999=0.0)
        ordered = sorted(self.reservoir.samples)
        return Summary(
            count=self.count,
            mean=self.mean,
            stddev=self.stddev,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=percentile(ordered, 0.50),
            p90=percentile(ordered, 0.90),
            p99=percentile(ordered, 0.99),
            p999=percentile(ordered, 0.999),
        )

    def footprint_records(self) -> int:
        return len(self.reservoir) + 8


class TimeBuckets:
    """Time-bucketed rollup aggregates for one sample stream."""

    __slots__ = ("bucket_s", "max_buckets", "_buckets")

    def __init__(self, bucket_s: float, max_buckets: int) -> None:
        self.bucket_s = bucket_s
        self.max_buckets = max_buckets
        # bucket index -> [count, total, minimum, maximum, p50 sketch, p99 sketch]
        self._buckets: Dict[int, list] = {}

    def add(self, now: float, value: float) -> None:
        index = int(now // self.bucket_s)
        if index not in self._buckets and len(self._buckets) >= self.max_buckets:
            index = max(self._buckets)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = [0, 0.0, math.inf, -math.inf, P2Quantile(0.50), P2Quantile(0.99)]
            self._buckets[index] = bucket
        bucket[0] += 1
        bucket[1] += value
        if value < bucket[2]:
            bucket[2] = value
        if value > bucket[3]:
            bucket[3] = value
        bucket[4].add(value)
        bucket[5].add(value)

    def rows(self) -> List[List[float]]:
        """Sorted ``[start_s, count, total, min, max, p50, p99]`` rows."""
        out = []
        for index in sorted(self._buckets):
            count, total, minimum, maximum, p50, p99 = self._buckets[index]
            out.append(
                [index * self.bucket_s, count, total, minimum, maximum, p50.value(), p99.value()]
            )
        return out

    def __len__(self) -> int:
        return len(self._buckets)

    def footprint_records(self) -> int:
        from repro.telemetry.spec import BUCKET_SLOTS

        return len(self._buckets) * BUCKET_SLOTS


@dataclass(frozen=True)
class TelemetryMetrics:
    """The serialisable footprint-bounded measurement result of one run.

    Attached to :class:`~repro.metrics.collector.RunResult` in rollup mode
    only; a full-mode result carries no ``telemetry`` key.
    """

    mode: str
    reservoir: int
    bucket_s: float
    samples: int
    retained: int
    buckets: Dict[str, Dict[str, List[List[float]]]] = field(default_factory=dict)

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


class TelemetryCollector:
    """The rollup-mode measurement plane of one deployment.

    The client layer calls :meth:`record_served` once per served request
    instead of appending to the per-client ``ClientStats`` lists; the
    metrics collector reads :meth:`class_summaries` instead of summarising
    those lists.  All state is bounded by
    ``spec.footprint_budget(duration)``.
    """

    def __init__(self, spec, rng, counters=None) -> None:
        self.spec = spec
        self.rng = rng
        self.counters = counters
        self.samples_recorded = 0
        self._accumulators: Dict[Tuple[str, str], StreamAccumulator] = {}
        self._buckets: Dict[Tuple[str, str], TimeBuckets] = {}
        for client_class in CLIENT_CLASSES:
            for stream in STREAM_NAMES:
                self._accumulators[(client_class, stream)] = StreamAccumulator(
                    spec.reservoir, rng
                )
            for metric in BUCKET_METRICS:
                self._buckets[(client_class, metric)] = TimeBuckets(
                    spec.bucket_s, spec.max_buckets
                )

    def record_served(
        self,
        client_class: str,
        now: float,
        payment_time: Optional[float],
        response_time: Optional[float],
        price: float,
    ) -> None:
        """Fold one served request into the bounded state."""
        self.samples_recorded += 1
        if self.counters is not None:
            self.counters.records_emitted += 1
        self._accumulators[(client_class, "price")].add(price)
        if payment_time is not None:
            self._accumulators[(client_class, "payment")].add(payment_time)
            self._buckets[(client_class, "payment")].add(now, payment_time)
        if response_time is not None:
            self._accumulators[(client_class, "response")].add(response_time)
            self._buckets[(client_class, "response")].add(now, response_time)

    def class_summaries(self, client_class: str) -> Tuple[Summary, Summary, float]:
        """(payment-time summary, response-time summary, mean price)."""
        payment = self._accumulators[(client_class, "payment")].summary()
        response = self._accumulators[(client_class, "response")].summary()
        price = self._accumulators[(client_class, "price")]
        return payment, response, price.mean

    def footprint_records(self) -> int:
        """Retained measurement slots — the quantity the budget tests pin."""
        total = 0
        for accumulator in self._accumulators.values():
            total += accumulator.footprint_records()
        for buckets in self._buckets.values():
            total += buckets.footprint_records()
        return total

    def metrics(self) -> TelemetryMetrics:
        buckets: Dict[str, Dict[str, List[List[float]]]] = {}
        for client_class in CLIENT_CLASSES:
            per_class: Dict[str, List[List[float]]] = {}
            for metric in BUCKET_METRICS:
                rows = self._buckets[(client_class, metric)].rows()
                if rows:
                    per_class[metric] = rows
            if per_class:
                buckets[client_class] = per_class
        return TelemetryMetrics(
            mode=self.spec.mode,
            reservoir=self.spec.reservoir,
            bucket_s=self.spec.bucket_s,
            samples=self.samples_recorded,
            retained=self.footprint_records(),
            buckets=buckets,
        )
