"""Discrete-event simulation engine.

The engine maintains a priority queue of events keyed by simulated time and
a monotonically increasing sequence number (so that events scheduled for the
same instant fire in scheduling order, which keeps runs deterministic).
Everything else in the package — auctions firing, clients issuing requests,
servers finishing work — is expressed as engine events.  Flow completions
are the exception: a fluid network re-rates every flow on a shared link
whenever one of them starts or ends, so it keeps each flow's completion time
in its struct-of-arrays store and holds one engine event of its own, at the
earliest of them (see :mod:`repro.simnet.network`).

Two hot-path design points:

* The heap stores ``(time, seq, event)`` tuples rather than bare
  :class:`Event` objects, so every sift comparison is a C-level tuple
  compare of two floats/ints instead of a Python-level ``Event.__lt__``
  call (which would also allocate two tuples per comparison).
* Cancellation is lazy: :meth:`Event.cancel` only flags the event, and the
  engine skips flagged entries when they surface.  When cancelled events
  outnumber live ones (heap-compaction), the queue is rebuilt in place —
  see :attr:`Engine.COMPACT_MIN_QUEUE` for the exact policy.

Reserved slots (:meth:`Engine.reserve_seq`, :meth:`Engine.schedule_reserved`)
let a caller claim a sequence number now and push the event later, or never.
Two callers do.  The network claims one for every completion time it
computes — exactly where a per-flow event would have taken its seq — and
pushes its single timer at the earliest claimed ``(time, seq)``.  A client
whose next arrival lies past the run horizon claims one where its arrival
event would have, and parks the arrival in its deployment's
:class:`~repro.clients.base.ArrivalPark`, which pushes one event at the
earliest parked ``(time, seq)`` and, when that fires, each arrival the new
horizon covers at its own.  So completions and arrivals fire in the order
their own events would have, and every other event keeps its seq.

The engine also hosts the *flush hook* protocol used by the fluid network's
deferred rate recomputation: components register a callback via
:meth:`Engine.add_flush_callback` and arm it with :meth:`Engine.request_flush`
whenever they have deferred work; the engine guarantees every armed flush
runs before the simulated clock next advances (before each event fires and
before a ``run(until=...)`` fast-forwards an idle clock), which is exactly
the window in which deferred rate updates are still exact.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.errors import SchedulingError


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Engine.schedule_at` and
    :meth:`Engine.schedule_after` so the caller can cancel them later.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "_engine")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple,
                 kwargs: Optional[dict], engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        #: ``None`` (not ``{}``) when the callback takes no keyword arguments;
        #: the common case then skips the ``**`` unpacking entirely.
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            # Compact the heap once it is mostly dead.
            engine._cancelled_in_queue += 1
            if (
                len(engine._queue) >= engine.COMPACT_MIN_QUEUE
                and engine._cancelled_in_queue * 2 > len(engine._queue)
            ):
                engine._compact()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class Engine:
    """A deterministic discrete-event engine with a simulated clock."""

    #: Compact the queue when cancelled events outnumber live ones (and the
    #: queue is big enough for a rebuild to be worth the heapify).
    COMPACT_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        #: Heap of ``(time, seq, Event)`` entries; see the module docstring.
        self._queue: list = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._needs_flush = False
        self._flush_callbacks: List[Callable[[], None]] = []
        #: The ``until`` of the current/most recent :meth:`run`, or ``None``.
        #: Purely advisory — workload generators (the clients' batched
        #: arrival pregeneration) use it to avoid pregenerating events far
        #: past the end of the run.
        self.run_horizon: Optional[float] = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still in the queue.

        A fluid network's pending completions count as one event, its timer,
        and so do the arrivals parked in a client park, its wake-up event.
        """
        return len(self._queue) - self._cancelled_in_queue

    # -- deferred-work flushing -------------------------------------------------

    def add_flush_callback(self, callback: Callable[[], None]) -> None:
        """Register a callback to run before the clock next advances.

        The callback fires only after :meth:`request_flush` arms it, and the
        engine disarms before calling, so a callback that defers new work
        re-arms naturally.  Used by
        :class:`~repro.simnet.network.FluidNetwork` to batch rate
        recomputation; see that class for the dirty-set protocol.
        """
        self._flush_callbacks.append(callback)

    def request_flush(self) -> None:
        """Arm the registered flush callbacks (idempotent, O(1))."""
        self._needs_flush = True

    def _flush(self) -> None:
        self._needs_flush = False
        for callback in self._flush_callbacks:
            callback()

    # -- cancellation bookkeeping ----------------------------------------------

    def _compact(self) -> None:
        """Drop cancelled events and rebuild the heap in place.

        In place matters: the run loop holds a reference to the queue list,
        so compaction must mutate it (slice assignment) rather than rebind
        ``self._queue``.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    # -- scheduling ------------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback(*args, **kwargs)`` at absolute simulated ``time``."""
        if not time >= self._now:  # also refuses NaN, for which ``<`` is false
            raise SchedulingError(
                f"cannot schedule event at t={time:.6f}, which is before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, kwargs or None, engine=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_after(self, delay: float, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if not delay >= 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        # ``schedule_at(self._now + delay, ...)``, inlined.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, kwargs or None, engine=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def call_soon(self, callback: Callable, *args, **kwargs) -> Event:
        """Schedule ``callback`` at the current simulated time."""
        return self.schedule_at(self._now, callback, *args, **kwargs)

    def reserve_seq(self, count: int = 1) -> int:
        """Claim the next ``count`` sequence numbers; return the first.

        An event later pushed at a claimed seq (:meth:`schedule_reserved`)
        orders among same-instant events as if it had been scheduled now.
        """
        seq = self._seq
        self._seq = seq + count
        return seq

    def schedule_reserved(self, time: float, seq: int, callback: Callable, *args) -> Event:
        """Schedule ``callback(*args)`` at ``time`` under a claimed ``seq``."""
        if not time >= self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time:.6f}, which is before now={self._now:.6f}"
            )
        event = Event(time, seq, callback, args, None, engine=self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    # -- execution -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run stopped.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier, so back-to-back ``run`` calls compose naturally.
        A NaN ``until`` is refused: no event time is ever past it, so the run
        would never end.
        """
        if until is not None and until != until:
            raise SchedulingError(f"cannot run until t={until}")
        self._running = True
        self.run_horizon = until
        queue = self._queue
        try:
            while True:
                if self._needs_flush:
                    # Re-evaluate every exit condition after flushing: the
                    # flush may itself schedule events within the horizon
                    # (or re-arm the flag), and every break below must be
                    # taken on settled state — otherwise the final clock
                    # advance could strand an event in the past.
                    self._flush()
                    continue
                if not queue:
                    break
                entry = queue[0]
                event = entry[2]
                if event.cancelled:
                    heapq.heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                self._now = time
                event.fired = True
                self._events_processed += 1
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    # -- periodic helpers --------------------------------------------------------

    def schedule_every(
        self, interval: float, callback: Callable, *args, **kwargs
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until cancelled."""
        if not interval > 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, args, kwargs)
        task._arm(interval)
        return task


class PeriodicTask:
    """A repeating event created by :meth:`Engine.schedule_every`."""

    def __init__(self, engine: Engine, interval: float, callback: Callable, args: tuple, kwargs: dict):
        self._engine = engine
        self.interval = interval
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        self._event: Optional[Event] = None
        self.cancelled = False
        self.fire_count = 0

    def _arm(self, delay: float) -> None:
        self._event = self._engine.schedule_after(delay, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fire_count += 1
        self._callback(*self._args, **self._kwargs)
        if not self.cancelled:
            self._arm(self.interval)

    def cancel(self) -> None:
        """Stop the periodic task."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
