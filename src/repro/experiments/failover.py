"""§4.3's failure story, measured: good-client service through a shard kill.

The paper's scale-out sketch (§4.3) distributes the thinner behind DNS and
asserts the usual front-end tricks handle front-end failure; it never
measures one.  This experiment runs the ``fleet-failover`` scenario — the
§7.2 LAN mix on a sharded fleet with a mid-run kill/heal pulse injected by
the fault layer — and reduces the injector's cumulative good-service samples
to the three numbers that summarise a failover:

* **pre-kill rate** — good requests served per second over the settled
  window before the kill (the second half of the pre-kill period, so
  start-up transients don't pollute the baseline);
* **dip rate** — the worst windowed rate between kill and heal, while the
  dead shard's clients sit out their DNS-TTL re-pin lags;
* **post-heal rate** — the rate over the tail of the run, after the heal
  plus a settling window.

``recovery_ratio`` is post-heal over pre-kill; the fleet passes when it is
at least :data:`RECOVERY_TARGET` (pooled admission keeps the server's full
capacity reachable by the survivors, so service should return to its
pre-kill level once every orphaned client has re-pinned).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.base import ExperimentScale
from repro.faults.spec import FaultPlan
from repro.metrics.tables import format_table
from repro.scenarios.registry import build_scenario

#: Paper-scale population behind the fleet (the §7.2 LAN mix).
PAPER_CLIENT_COUNT = 50

#: Post-heal service must reach this fraction of the pre-kill rate.
RECOVERY_TARGET = 0.95


@dataclass(frozen=True)
class FailoverOutcome:
    """One kill/heal pulse reduced to its service-rate story."""

    shards: int
    admission_mode: str
    kill_at_s: float
    heal_at_s: float
    repin_ttl_s: float
    kills: int
    heals: int
    repinned_clients: int
    orphaned_requests: int
    pre_kill_rate_rps: float
    dip_rate_rps: float
    post_heal_rate_rps: float
    #: Windowed good-service rates for plotting: ``(start, end, rate)``.
    windows: Tuple[Tuple[float, float, float], ...] = field(default=())

    @property
    def recovery_ratio(self) -> float:
        """Post-heal service rate as a fraction of the pre-kill rate."""
        if self.pre_kill_rate_rps == 0:
            return 0.0
        return self.post_heal_rate_rps / self.pre_kill_rate_rps

    @property
    def recovered(self) -> bool:
        return self.recovery_ratio >= RECOVERY_TARGET


class _ServiceCurve:
    """Cumulative good-served samples as a queryable step function."""

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        if len(samples) < 2:
            raise ExperimentError(
                "failover run produced fewer than two service samples; "
                "increase the duration or lower sample_interval_s"
            )
        self.times = [float(time) for time, _served in samples]
        self.served = [int(served) for _time, served in samples]

    def at(self, time: float) -> int:
        """Cumulative served at ``time`` (last sample at or before it)."""
        index = bisect_right(self.times, time) - 1
        return self.served[max(index, 0)]

    def rate(self, start: float, end: float) -> float:
        """Mean served/s over ``[start, end]``."""
        if end <= start:
            return 0.0
        return (self.at(end) - self.at(start)) / (end - start)


def failover_pulse(
    scale: ExperimentScale,
    shards: int = 4,
    shard_policy: str = "hash",
    admission_mode: str = "pooled",
    paper_capacity: float = 100.0,
    kill_shard: int = 1,
    kill_at_s: Optional[float] = None,
    heal_at_s: Optional[float] = None,
    repin_ttl_s: float = 2.0,
    window_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> FailoverOutcome:
    """Run one kill/heal pulse and summarise the good-service curve.

    The kill lands a third of the way into the run and the heal two thirds
    in (unless given explicitly), so every phase — settle, outage, recovery
    — gets a comparable share of the duration at any ``scale``.

    An explicit ``fault_plan`` (e.g. loaded from a JSON file via
    ``repro.cli failover --fault-plan``) replaces the scenario's generated
    kill/heal pulse entirely; pass matching ``kill_at_s``/``heal_at_s`` so
    the pre/dip/post windows line up with the plan's events.
    """
    duration = scale.duration
    kill_at = duration / 3.0 if kill_at_s is None else kill_at_s
    heal_at = 2.0 * duration / 3.0 if heal_at_s is None else heal_at_s
    if not 0.0 < kill_at < heal_at < duration:
        raise ExperimentError(
            f"need 0 < kill_at ({kill_at:g}) < heal_at ({heal_at:g}) "
            f"< duration ({duration:g})"
        )
    window = max(duration / 30.0, 0.5) if window_s is None else window_s

    total_clients = scale.clients(PAPER_CLIENT_COUNT)
    good = total_clients // 2
    bad = total_clients - good
    capacity = scale.capacity(paper_capacity, PAPER_CLIENT_COUNT, total_clients)

    spec = build_scenario(
        "fleet-failover",
        good_clients=good,
        bad_clients=bad,
        thinner_shards=shards,
        shard_policy=shard_policy,
        admission_mode=admission_mode,
        capacity_rps=capacity,
        kill_shard=kill_shard,
        kill_at_s=kill_at,
        heal_at_s=heal_at,
        repin_ttl_s=repin_ttl_s,
        duration=duration,
        seed=scale.seed,
    )
    if fault_plan is not None:
        fault_plan.validate(shards=shards, horizon_s=duration)
        spec = replace(spec, fault_plan=fault_plan)
    result = spec.run()
    failover = result.failover
    if failover is None:
        raise ExperimentError("fleet-failover run returned no failover metrics")

    curve = _ServiceCurve(failover.service_samples)

    # Baseline: the settled second half of the pre-kill period.
    pre_kill = curve.rate(kill_at / 2.0, kill_at)
    # Dip: the worst window while the shard is dark.
    dip = min(
        curve.rate(start, min(start + window, heal_at))
        for start in _window_starts(kill_at, heal_at, window)
    )
    # Recovery: the tail, once the heal plus one settling window has passed.
    tail_start = min(heal_at + window, duration - window)
    post_heal = curve.rate(tail_start, duration)

    windows = tuple(
        (start, min(start + window, duration), curve.rate(start, min(start + window, duration)))
        for start in _window_starts(0.0, duration, window)
    )

    return FailoverOutcome(
        shards=shards,
        admission_mode=admission_mode,
        kill_at_s=kill_at,
        heal_at_s=heal_at,
        repin_ttl_s=repin_ttl_s,
        kills=failover.kills,
        heals=failover.heals,
        repinned_clients=failover.repinned_clients,
        orphaned_requests=failover.orphaned_requests,
        pre_kill_rate_rps=pre_kill,
        dip_rate_rps=dip,
        post_heal_rate_rps=post_heal,
        windows=windows,
    )


def _window_starts(start: float, end: float, window: float) -> List[float]:
    starts: List[float] = []
    current = start
    while current < end - 1e-9:
        starts.append(current)
        current += window
    return starts or [start]


def _phase(start: float, end: float, outcome: FailoverOutcome) -> str:
    if start <= outcome.kill_at_s < end:
        return "<- kill"
    if start <= outcome.heal_at_s < end:
        return "<- heal"
    if end <= outcome.kill_at_s:
        return ""
    if start >= outcome.heal_at_s:
        return "healed"
    return "shard dark"


def format_failover(outcome: FailoverOutcome) -> str:
    """Render the pulse as a windowed service plot plus the summary table."""
    timeline = format_table(
        headers=["window (s)", "good served/s", "", "phase"],
        rows=[
            (
                f"{start:6.1f}-{end:6.1f}",
                f"{rate:7.2f}",
                "#" * _bar(rate, outcome.windows),
                _phase(start, end, outcome),
            )
            for start, end, rate in outcome.windows
        ],
        title=(
            "Section 4.3: good-client service through a shard kill/heal pulse "
            f"({outcome.shards} shards, {outcome.admission_mode} admission)"
        ),
    )
    verdict = "yes" if outcome.recovered else "NO"
    summary = format_table(
        headers=["metric", "value"],
        rows=[
            ("kill at (s)", f"{outcome.kill_at_s:g}"),
            ("heal at (s)", f"{outcome.heal_at_s:g}"),
            ("re-pin TTL (s)", f"{outcome.repin_ttl_s:g}"),
            ("kills / heals", f"{outcome.kills} / {outcome.heals}"),
            ("clients re-pinned", outcome.repinned_clients),
            ("requests orphaned", outcome.orphaned_requests),
            ("pre-kill rate (req/s)", f"{outcome.pre_kill_rate_rps:.2f}"),
            ("dip rate (req/s)", f"{outcome.dip_rate_rps:.2f}"),
            ("post-heal rate (req/s)", f"{outcome.post_heal_rate_rps:.2f}"),
            ("recovery ratio", f"{outcome.recovery_ratio:.3f}"),
            (f"recovered (>= {RECOVERY_TARGET:g})", verdict),
        ],
        title="Failover summary",
    )
    return timeline + "\n\n" + summary


def _bar(rate: float, windows: Sequence[Tuple[float, float, float]]) -> int:
    peak = max((r for _s, _e, r in windows), default=0.0)
    if peak <= 0:
        return 0
    return max(0, round(24 * rate / peak))
