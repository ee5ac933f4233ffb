"""Fault plans: scheduled shard kill/heal/gray-failure events, as frozen data.

A :class:`FaultPlan` is to failover what a
:class:`~repro.scenarios.spec.ScenarioSpec` is to a run: a frozen,
JSON-round-trippable description that can be stored in sweep records,
compared across runs, and swept over.  The plan itself does nothing — a
:class:`~repro.faults.injector.FaultInjector` executes it against a live
deployment off the simulation engine clock.

Beyond the fail-stop pair (``kill``/``heal``), three gray-failure pairs
model shards that misbehave while still answering health checks:

* ``degrade``/``restore`` — scale the shard's access-link capacity by
  ``factor`` while ``Link.is_up`` stays true (a browned-out front-end);
* ``lossy``/``lossless`` — drop each completed upload at the thinner with
  probability ``loss_p``, drawn from the dedicated ``"fault-loss"`` stream;
* ``stall``/``resume`` — the shard stops granting admission but keeps
  accepting payment bytes (the classic gray failure).

The compatibility contract, enforced by the empty-plan pin tests: a
deployment configured with ``FaultPlan()`` (no events) builds no injector,
creates no random streams, schedules no events, and is therefore
byte-identical to a deployment with no fault plan at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import codec
from repro.errors import FaultError, check_non_negative, check_positive

#: Everything that can happen to a shard mid-run: the fail-stop pair plus
#: the three gray-failure start/stop pairs.
FAULT_ACTIONS = (
    "kill",
    "heal",
    "degrade",
    "restore",
    "lossy",
    "lossless",
    "stall",
    "resume",
)

#: Stop actions and the start action each one undoes (used by the optional
#: strict horizon validation: a stop for a shard that never started is
#: almost always a typo in a hand-written plan).
STOP_ACTIONS = {
    "heal": "kill",
    "restore": "degrade",
    "lossless": "lossy",
    "resume": "stall",
}

#: Default DNS-TTL analogue: a failed-over client re-pins after a lag drawn
#: uniformly from ``[0, repin_ttl_s]`` — its cached resolution is uniformly
#: aged when the front-end dies, so expiries spread over one TTL.
DEFAULT_REPIN_TTL = 2.0

#: Default cadence of the injector's good-client service samples, which the
#: failover experiment turns into a service-through-the-pulse time series.
DEFAULT_SAMPLE_INTERVAL = 0.25


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled shard fault.

    ``factor`` is required by (and only valid for) ``degrade``: the shard's
    access-link capacity becomes ``factor * base`` in both directions.
    ``loss_p`` is required by (and only valid for) ``lossy``: each upload
    that completes toward the shard is dropped with this probability.
    """

    at_s: float
    action: str
    shard: int
    factor: Optional[float] = field(default=None, metadata=codec.OMIT_DEFAULT)
    loss_p: Optional[float] = field(default=None, metadata=codec.OMIT_DEFAULT)

    def validate(self, shards: Optional[int] = None, path: str = "event") -> None:
        """Raise :class:`~repro.errors.FaultError` naming the field, as ``path.field``."""
        check_non_negative(f"{path}.at_s", self.at_s, FaultError)
        if self.action not in FAULT_ACTIONS:
            raise FaultError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.shard < 0:
            raise FaultError(f"fault event shard must be non-negative, got {self.shard}")
        if shards is not None and self.shard >= shards:
            raise FaultError(
                f"fault event targets shard {self.shard} but the fleet has "
                f"only {shards} shard(s)"
            )
        if self.action == "degrade":
            if self.factor is None or not 0.0 < self.factor <= 1.0:
                raise FaultError(
                    f"degrade needs a capacity factor in (0, 1], got {self.factor}"
                )
        elif self.factor is not None:
            raise FaultError(f"{self.action!r} events take no capacity factor")
        if self.action == "lossy":
            if self.loss_p is None or not 0.0 <= self.loss_p <= 1.0:
                raise FaultError(
                    f"lossy needs a drop probability in [0, 1], got {self.loss_p}"
                )
        elif self.loss_p is not None:
            raise FaultError(f"{self.action!r} events take no drop probability")

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)

    def describe(self) -> str:
        """A compact one-line rendering for validation error messages."""
        extra = ""
        if self.factor is not None:
            extra = f" factor={self.factor:g}"
        if self.loss_p is not None:
            extra = f" loss_p={self.loss_p:g}"
        return f"{self.action}@{self.at_s:g}s shard={self.shard}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """A schedule of shard fault events plus the re-pin lag model.

    ``events`` may arrive in any order; the injector executes them in
    ``(at_s, declaration order)`` order.  Stop actions with nothing to stop
    (healing a live shard, restoring an undegraded one, ...) are no-ops, so
    randomly generated schedules (the property tests') need no cross-event
    consistency.  Pass ``horizon_s`` to :meth:`validate` for the strict
    check hand-written plans want: events past the run horizon and orphan
    stop events become errors listing every offender.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: Re-pin lag TTL: each affected client re-resolves to a surviving shard
    #: after a per-client lag drawn uniformly from ``[0, repin_ttl_s]`` (the
    #: dedicated ``"fault-repin"`` stream of the deployment seed).
    repin_ttl_s: float = DEFAULT_REPIN_TTL
    #: Cadence of the injector's cumulative good-client service samples.
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL

    def __post_init__(self) -> None:
        # Tolerate lists for ergonomic construction; freeze to a tuple.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def validate(
        self, shards: Optional[int] = None, horizon_s: Optional[float] = None
    ) -> None:
        """Raise :class:`~repro.errors.FaultError` on a nonsensical plan.

        With ``horizon_s`` the check turns strict: events scheduled beyond
        the horizon and stop events for shards that never started (a heal
        for a never-killed shard, ...) raise one error listing them all.
        """
        check_non_negative("fault_plan.repin_ttl_s", self.repin_ttl_s, FaultError)
        check_positive("fault_plan.sample_interval_s", self.sample_interval_s, FaultError)
        for index, event in enumerate(self.events):
            event.validate(shards, f"fault_plan.events.{index}")
        if horizon_s is not None:
            self._validate_strict(horizon_s)

    def _validate_strict(self, horizon_s: float) -> None:
        problems: List[str] = []
        for event in self.events:
            if event.at_s > horizon_s:
                problems.append(
                    f"{event.describe()} is beyond the {horizon_s:g}s run horizon"
                )
        started: Dict[str, set] = {start: set() for start in STOP_ACTIONS.values()}
        for event in self.ordered_events():
            if event.at_s > horizon_s:
                continue
            if event.action in started:
                started[event.action].add(event.shard)
            elif event.action in STOP_ACTIONS:
                start = STOP_ACTIONS[event.action]
                if event.shard not in started[start]:
                    problems.append(
                        f"{event.describe()} stops a shard no earlier "
                        f"{start!r} event started"
                    )
                else:
                    started[start].discard(event.shard)
        if problems:
            raise FaultError(
                f"invalid fault plan ({len(problems)} problem(s)): "
                + "; ".join(problems)
            )

    def ordered_events(self) -> Tuple[FaultEvent, ...]:
        """Events in execution order: by time, declaration order on ties."""
        return tuple(sorted(self.events, key=lambda event: event.at_s))

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)
    to_json = codec.to_json
    from_json = classmethod(codec.from_json)


def kill_heal_pulse(
    shard: int,
    kill_at_s: float,
    heal_at_s: float,
    repin_ttl_s: float = DEFAULT_REPIN_TTL,
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL,
) -> FaultPlan:
    """The canonical single-shard outage: kill at ``kill_at_s``, heal later."""
    if heal_at_s <= kill_at_s:
        raise FaultError(
            f"heal_at_s ({heal_at_s}) must come after kill_at_s ({kill_at_s})"
        )
    return FaultPlan(
        events=(
            FaultEvent(at_s=kill_at_s, action="kill", shard=shard),
            FaultEvent(at_s=heal_at_s, action="heal", shard=shard),
        ),
        repin_ttl_s=repin_ttl_s,
        sample_interval_s=sample_interval_s,
    )


def gray_pulse(
    shards: Tuple[int, ...],
    start_at_s: float,
    end_at_s: float,
    factor: Optional[float] = None,
    loss_p: Optional[float] = None,
    stall: bool = False,
    repin_ttl_s: float = DEFAULT_REPIN_TTL,
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL,
) -> FaultPlan:
    """One gray-failure pulse over ``shards``: start every selected axis at
    ``start_at_s`` and stop it at ``end_at_s``.

    Pass ``factor`` for a capacity degrade, ``loss_p`` for upload loss,
    ``stall=True`` for an admission stall; axes compose on the same pulse.
    """
    if end_at_s <= start_at_s:
        raise FaultError(
            f"end_at_s ({end_at_s}) must come after start_at_s ({start_at_s})"
        )
    if factor is None and loss_p is None and not stall:
        raise FaultError("gray_pulse needs at least one of factor, loss_p, stall")
    events: List[FaultEvent] = []
    for shard in shards:
        if factor is not None:
            events.append(
                FaultEvent(at_s=start_at_s, action="degrade", shard=shard, factor=factor)
            )
            events.append(FaultEvent(at_s=end_at_s, action="restore", shard=shard))
        if loss_p is not None:
            events.append(
                FaultEvent(at_s=start_at_s, action="lossy", shard=shard, loss_p=loss_p)
            )
            events.append(FaultEvent(at_s=end_at_s, action="lossless", shard=shard))
        if stall:
            events.append(FaultEvent(at_s=start_at_s, action="stall", shard=shard))
            events.append(FaultEvent(at_s=end_at_s, action="resume", shard=shard))
    return FaultPlan(
        events=tuple(events),
        repin_ttl_s=repin_ttl_s,
        sample_interval_s=sample_interval_s,
    )
