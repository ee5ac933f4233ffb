"""The base workload client used for both good and bad populations.

A client generates requests from a Poisson process, keeps at most ``window``
of them outstanding, parks the rest in a backlog queue with a ten-second
service-denial timeout, sends each outstanding request to the thinner as a
small flow, opens a payment channel when encouraged, and records per-request
metrics when responses (or drops) come back.

Arrival generation is *batched*: instead of scheduling one engine event per
candidate arrival (and, for modulated demand, burning an event on every
thinned-away candidate), each client pregenerates a chunk of accepted
arrival times per refill — :data:`ARRIVAL_BATCH` inter-arrival draws per
RNG call — and holds at most one pending arrival.  Thinning for
non-homogeneous demand happens inside the refill loop, so a mostly-idle
client (a flash crowd before its flash, a pulsed attacker between pulses)
costs one *refill* event per :data:`MAX_CANDIDATES_PER_REFILL` rejected
candidates instead of one engine event per candidate.  A next arrival
inside the run horizon is an engine event; one past it waits in the
deployment's :class:`ArrivalPark`, which holds a single engine event for all
of them, so an idle client holds no engine event at all.

Determinism contract: the refill loop consumes the client's random stream in
exactly the order the historical one-event-per-candidate scheduler did
(``gap, [accept], gap, [accept], ...``), and candidate times chain through
the same float expression (``t_next = t_prev + gap``), so runs are
bit-identical under a fixed seed.  The one exception is a *callable*
``difficulty`` spec: its draws must interleave with the arrival draws at
arrival time, so those clients keep the legacy per-event path.

Footprint: an idle client costs only its identity.  Clients and their stats
use ``__slots__``.  Every client starts on one shared idle
:class:`ClientStats` and gets its own at its first arrival, which comes
before any other stats write.  The backlog, the pending arrivals and the
three sample lists are the shared empty tuple, and the channel and upload
maps a shared empty mapping, until their first write; the upload map goes
back to the shared empty when a shard kill clears it, and the pending
arrivals whenever the last one is taken.  The retry state is one slot,
``None`` unless the client has a :class:`RetryPolicy`.  The client's random
stream is its own and not registered with the deployment's stream factory.
Its Mersenne Twister (about 2.9 KB), which every pinned output depends on,
is resident only while the client has draws left in the run: a refill whose
next successor lies past the run horizon parks the stream, and the next
draw replays it exactly.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Union

from repro import codec
from repro.constants import REQUEST_BYTES, REQUEST_TIMEOUT
from repro.errors import ClientError, check_non_negative
from repro.core.frontend import Deployment
from repro.core.payment import PaymentChannel
from repro.httpd.messages import Request, RequestState, Response, new_request
from repro.rng import RandomStream
from repro.simnet.host import Host

#: A request difficulty is either a constant or a draw from the client's RNG.
DifficultySpec = Union[float, Callable[["BaseClient"], float]]

#: A rate modulator maps simulated time to a demand multiplier in [0, 1];
#: ``rate_rps`` is then the client's *peak* rate and arrivals follow a
#: non-homogeneous Poisson process realised by thinning.  Modulators must be
#: *pure functions of the time argument* (every ArrivalSpec shape is): the
#: batched refill evaluates them at pre-computed future candidate times, so
#: one that read mutable simulation state or drew randomness would observe
#: it earlier than the legacy per-event scheduler did.
RateModulator = Callable[[float], float]

#: Accepted arrivals pregenerated per refill of a client's arrival queue.
ARRIVAL_BATCH = 64

#: Bound on candidate draws per refill call.  A modulated client whose
#: multiplier sits at zero for a long stretch would otherwise pregenerate
#: (and buffer) arbitrarily far past the run horizon in one call; after this
#: many candidates the refill yields and resumes from an engine event at the
#: last candidate's time, preserving the engine's lazy time horizon.
MAX_CANDIDATES_PER_REFILL = 512


@dataclass(frozen=True)
class RetryPolicy:
    """How a client re-sends a request whose upload was aborted or dropped.

    Without a policy (the default), a dropped request is simply finalised
    as ``dropped`` — exactly the pre-retry behaviour, bit for bit.  With
    one, each drop may be retried after an exponential backoff with
    *decorrelated jitter* (``sleep = min(cap, uniform(base, prev * 3))``),
    subject to a per-request attempt cap and an optional per-client retry
    *budget*: a token bucket holding ``budget`` tokens that refills at
    ``refill_per_s``, each retry spending one token.  Budget-suppressed
    retries are counted in ``ClientStats.retries_suppressed`` — the knob
    the brownout experiment sweeps to show retry-storm mitigation.

    Frozen and JSON-round-trippable so scenario specs can carry and sweep
    it like any other field.
    """

    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    max_attempts: int = 4
    budget: Optional[float] = None
    refill_per_s: float = 0.0

    def validate(self, path: str = "retry_policy") -> None:
        """Raise :class:`ClientError` naming the field, as ``path.field``."""
        check_non_negative(f"{path}.base_backoff_s", self.base_backoff_s, ClientError)
        check_non_negative(f"{path}.max_backoff_s", self.max_backoff_s, ClientError)
        if self.max_attempts < 0:
            raise ClientError(
                f"{path}.max_attempts must be non-negative, got {self.max_attempts}"
            )
        if self.budget is not None:
            check_non_negative(f"{path}.budget", self.budget, ClientError)
        check_non_negative(f"{path}.refill_per_s", self.refill_per_s, ClientError)

    def backoff_delay(self, prev_s: float, rng) -> float:
        """The next backoff, by decorrelated jitter from the previous one.

        A zero ``max_backoff_s`` short-circuits to an immediate retry
        without consuming a random draw, so the naive policy stays cheap.
        """
        if self.max_backoff_s <= 0.0:
            return 0.0
        prev = prev_s if prev_s > 0.0 else self.base_backoff_s
        high = prev * 3.0
        if high < self.base_backoff_s:
            high = self.base_backoff_s
        return min(self.max_backoff_s, rng.uniform(self.base_backoff_s, high))

    # -- presets ---------------------------------------------------------------

    @classmethod
    def naive(cls, max_attempts: int = 8) -> "RetryPolicy":
        """Immediate unbudgeted retries: the retry-storm failure mode."""
        return cls(
            base_backoff_s=0.0,
            max_backoff_s=0.0,
            max_attempts=max_attempts,
            budget=None,
            refill_per_s=0.0,
        )

    @classmethod
    def budgeted(
        cls,
        budget: float = 1.0,
        refill_per_s: float = 0.05,
        max_attempts: int = 4,
    ) -> "RetryPolicy":
        """Jittered backoff with a token-bucket retry budget (the mitigation)."""
        return cls(
            base_backoff_s=0.05,
            max_backoff_s=2.0,
            max_attempts=max_attempts,
            budget=budget,
            refill_per_s=refill_per_s,
        )

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)
    to_json = codec.to_json
    from_json = classmethod(codec.from_json)


#: What a client holds in place of a sequence or a map it has never written:
#: its backlog, pending arrivals and samples, and its channel and upload maps.
_NO_ITEMS: tuple = ()
_NO_ENTRIES: Mapping = MappingProxyType({})


@dataclass(slots=True)
class ClientStats:
    """Counters and per-served-request samples for one client."""

    issued: int = 0
    sent: int = 0
    served: int = 0
    denied: int = 0            # backlog timeouts: the paper's "service denials"
    dropped: int = 0           # dropped/aborted by the thinner or server
    backlogged: int = 0
    retries_attempted: int = 0   # re-sends scheduled by the retry policy
    retries_suppressed: int = 0  # retries the token-bucket budget refused
    bytes_paid: float = 0.0
    #: Full-mode samples: the shared empty tuple until the first served
    #: request makes all three lists (rollup mode never does).
    payment_times: Sequence[float] = _NO_ITEMS
    response_times: Sequence[float] = _NO_ITEMS
    prices: Sequence[float] = _NO_ITEMS

    @property
    def finished(self) -> int:
        """Requests with a final outcome."""
        return self.served + self.denied + self.dropped

    @property
    def served_fraction(self) -> float:
        """Fraction of finished requests that were served."""
        if self.finished == 0:
            return 0.0
        return self.served / self.finished


#: The stats a client holds until its first arrival gives it its own.  It is
#: never written, so it always equals ``ClientStats()``.
_IDLE_STATS = ClientStats()


@dataclass(slots=True)
class _Retries:
    """What a client keeps to retry with; made only under a :class:`RetryPolicy`."""

    policy: RetryPolicy
    #: The ``retry:<host>`` stream the backoff jitter draws from.
    rng: RandomStream
    #: Tokens left in the budget as of ``refill_time``.
    tokens: float
    refill_time: float = 0.0
    #: request_id -> (attempts so far, previous backoff) while a request is
    #: being retried.
    attempts: Dict[int, tuple] = field(default_factory=dict)
    #: request_id -> (request, timer event) while one is waiting out a
    #: backoff (still counted ``outstanding``).
    pending: Dict[int, tuple] = field(default_factory=dict)

    def refill(self, now: float) -> None:
        """Credit the budget with what it refilled since the last call."""
        policy = self.policy
        elapsed = now - self.refill_time
        if elapsed > 0.0 and policy.refill_per_s > 0.0:
            self.tokens = min(policy.budget, self.tokens + elapsed * policy.refill_per_s)
        self.refill_time = now


class ArrivalPark:
    """Accepted arrivals past the run horizon, held off the engine heap.

    Most clients of a large population are idle, and an idle client's next
    arrival lies past the end of the run.  Instead of pushing an engine event
    for it, the client claims the seq that event would have taken
    (:meth:`~repro.simnet.engine.Engine.reserve_seq`) and parks
    ``(due, seq, client)`` here.  The park holds one engine event of its own,
    pushed with :meth:`~repro.simnet.engine.Engine.schedule_reserved` at the
    earliest parked ``(due, seq)``, as the fluid network holds one completion
    timer.  That event fires only in a run whose horizon covers it.  Firing
    pushes every parked arrival the horizon covers at its own ``(due, seq)``,
    re-parks the rest (re-pointing the event past the horizon), and runs the
    earliest arrival in place: one pass over the park per run, and every
    arrival fires at the time and in the order its own event would have.
    """

    __slots__ = ("engine", "_dues", "_seqs", "_clients", "_event")

    def __init__(self, engine) -> None:
        self.engine = engine
        # Three columns rather than a tuple per entry: 24 bytes a client.
        self._dues = array("d")
        self._seqs = array("q")
        self._clients: List["BaseClient"] = []
        #: The engine event at the earliest parked ``(due, seq)``, or None.
        self._event = None

    def park(self, due: float, seq: int, client: "BaseClient") -> None:
        """Hold ``client``'s arrival at ``due`` under its claimed ``seq``."""
        self._dues.append(due)
        self._seqs.append(seq)
        self._clients.append(client)
        event = self._event
        if event is None or (due, seq) < (event.time, event.seq):
            if event is not None:
                event.cancel()
            self._event = self.engine.schedule_reserved(due, seq, self._wake)

    def _wake(self) -> None:
        engine = self.engine
        horizon = engine.run_horizon
        first = self._event.seq
        self._event = None
        dues, seqs, clients = self._dues, self._seqs, self._clients
        self._dues, self._seqs, self._clients = array("d"), array("q"), []
        for due, seq, client in zip(dues, seqs, clients):
            if seq == first:
                woken = client
            elif horizon is None or due <= horizon:
                engine.schedule_reserved(due, seq, client._arrival)
            else:
                self.park(due, seq, client)
        woken._arrival()


class BaseClient:
    """One workload client attached to a :class:`~repro.core.frontend.Deployment`."""

    __slots__ = (
        "deployment", "engine", "network", "shard", "thinner", "thinner_host",
        "host", "rate_rps", "window", "client_class", "category", "difficulty",
        "rate_modulator", "cpu_power", "rng", "stats", "outstanding", "backlog",
        "channels", "_started", "_sweep_event", "_inflight", "_shard_down",
        "_retry", "_pending_arrivals", "_gen_time", "_batched_arrivals",
    )

    def __init__(
        self,
        deployment: Deployment,
        host: Host,
        rate_rps: float,
        window: int,
        client_class: str = "good",
        category: Optional[str] = None,
        difficulty: DifficultySpec = 1.0,
        rate_modulator: Optional[RateModulator] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if rate_rps <= 0:
            raise ClientError(f"rate_rps must be positive, got {rate_rps}")
        if window < 1:
            raise ClientError(f"window must be at least 1, got {window}")
        self.deployment = deployment
        self.engine = deployment.engine
        self.network = deployment.network
        #: The thinner shard serving this client (always 0 outside fleet
        #: deployments); requests, payment channels, and responses all flow
        #: through the shard's own thinner host.
        self.shard = deployment.assign_shard(host)
        self.thinner = deployment.thinners[self.shard]
        self.thinner_host = deployment.thinner_hosts[self.shard]
        self.host = host
        self.rate_rps = float(rate_rps)
        self.window = int(window)
        self.client_class = client_class
        self.category = category
        self.difficulty = difficulty
        self.rate_modulator = rate_modulator
        #: Puzzle units solved per second under proof-of-work
        #: (:mod:`repro.defenses.pow`); no other defense reads it.
        self.cpu_power = 1.0
        self.rng = deployment.client_stream(host.name)
        self.stats = _IDLE_STATS

        self.outstanding = 0
        self.backlog: Union[tuple, Deque[Request]] = _NO_ITEMS
        self.channels: Mapping[int, PaymentChannel] = _NO_ENTRIES
        self._started = False
        self._sweep_event = None
        #: Request uploads still on the wire (request_id -> (request, flow)),
        #: so a shard kill can abort them with correct accounting.
        self._inflight: Mapping[int, tuple] = _NO_ENTRIES
        #: True between the pinned shard's kill and this client's re-pin;
        #: while set, new arrivals back up in the backlog (and may be denied
        #: by the normal sweep) instead of being sent to a dead front-end.
        self._shard_down = False

        #: Retry discipline for aborted/dropped uploads.  ``None`` without a
        #: policy (the default) preserves the pre-retry behaviour bit for
        #: bit: no extra random stream is created, no state is kept, drops
        #: finalise immediately.
        self._retry: Optional[_Retries] = None
        if retry_policy is not None:
            retry_policy.validate()
            budget = retry_policy.budget
            self._retry = _Retries(
                retry_policy,
                RandomStream(deployment.streams.root_seed, f"retry:{host.name}"),
                tokens=budget if budget is not None else 0.0,
            )

        #: Pregenerated accepted arrival times, newest first; ``pop()``
        #: takes the oldest.
        self._pending_arrivals: Union[tuple, List[float]] = _NO_ITEMS
        #: Simulated time of the last *candidate* drawn (accepted or thinned);
        #: the next refill chains its first gap from here.
        self._gen_time = 0.0
        #: Callable difficulty draws must interleave with arrival draws, so
        #: those clients keep the legacy one-event-per-candidate scheduler
        #: (see the module docstring's determinism contract).
        self._batched_arrivals = not callable(difficulty)

        deployment.register_client(self)

    # -- identity ----------------------------------------------------------------

    @property
    def name(self) -> str:
        """The client's name (its host's name)."""
        return self.host.name

    @property
    def upload_bandwidth_bps(self) -> float:
        """The client's access uplink capacity — its speak-up wealth."""
        return self.host.upload_capacity_bps

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin generating requests (idempotent; called by ``Deployment.run``)."""
        if self._started:
            return
        self._started = True
        self._gen_time = self.engine.now
        self._schedule_next_arrival()

    # -- batched arrival pregeneration ---------------------------------------------

    def _refill_arrivals(self) -> List[float]:
        """Pregenerate accepted arrival times, up to :data:`ARRIVAL_BATCH` of them.

        Draw order and float arithmetic replicate the legacy per-event
        scheduler exactly: each candidate time is ``previous + gap`` with
        ``gap`` exponential at the peak rate, immediately followed (for
        modulated demand) by the thinning accept draw at that candidate time.
        Pregeneration also stops once it crosses the engine's advisory run
        horizon — draws the legacy scheduler would only have made in a later
        ``run()`` are deferred to a later refill, so a short run never pays
        for (or buffers) a long batch of post-horizon arrivals.  Stopping
        early at *any* prefix is exact: the stream is consumed in the same
        order either way.  Returns a fresh queue, filled oldest first and
        then reversed, so each arrival pops off its end.  When the next
        refill cannot come before the horizon, the stream is parked
        (:meth:`repro.rng.RandomStream.park`) until it draws again.
        """
        rng = self.rng
        rate = self.rate_rps
        modulator = self.rate_modulator
        pending: List[float] = []
        horizon = self.engine.run_horizon
        t = self._gen_time
        if modulator is None:
            batch = ARRIVAL_BATCH
            # Under a horizon, draw chunks of 1, 2, 4, then 8 gaps, so a
            # client whose first gap already crosses it draws only that one
            # (chained gaps already drawn stay valid arrival times for a
            # later run).
            chunk = batch if horizon is None else 1
            while True:
                for gap in rng.exponentials(rate, min(chunk, batch - len(pending))):
                    t = t + gap
                    pending.append(t)
                if len(pending) >= batch or (horizon is not None and t > horizon):
                    break
                if chunk < 8:
                    chunk += chunk
        else:
            exponential = rng.exponential
            bernoulli = rng.bernoulli
            accepted = 0
            for _ in range(MAX_CANDIDATES_PER_REFILL):
                t = t + exponential(rate)
                # Thinning (Lewis & Shedler): draw candidates at the peak
                # rate and accept each with probability equal to the
                # multiplier at the candidate's (pre-computed) arrival time.
                multiplier = min(1.0, max(0.0, modulator(t)))
                if bernoulli(multiplier):
                    pending.append(t)
                    accepted += 1
                    if accepted >= ARRIVAL_BATCH:
                        break
                if horizon is not None and t > horizon:
                    break
        pending.reverse()
        self._gen_time = t
        # The next refill comes when the newest arrival fires, or at ``t``
        # if every candidate was thinned away.
        if horizon is not None and (pending[0] if pending else t) > horizon:
            rng.park()
        return pending

    def _schedule_next_arrival(self) -> None:
        engine = self.engine
        if not self._batched_arrivals:
            gap = self.rng.exponential(self.rate_rps)
            engine.schedule_after(gap, self._legacy_arrival)
            return
        pending = self._pending_arrivals or self._refill_arrivals()
        if not pending:
            # Every candidate in the refill was thinned away (deep idle):
            # resume generation when the clock reaches the last candidate,
            # one event per MAX_CANDIDATES_PER_REFILL candidates.
            engine.schedule_at(self._gen_time, self._schedule_next_arrival)
            return
        due = pending.pop()
        self._pending_arrivals = pending or _NO_ITEMS
        horizon = engine.run_horizon
        if horizon is None or due <= horizon:
            engine.schedule_at(due, self._arrival)
            return
        # Past the horizon: claim the seq ``schedule_at`` would have, and park.
        deployment = self.deployment
        park = deployment.arrival_park
        if park is None:
            park = deployment.arrival_park = ArrivalPark(engine)
        park.park(due, engine.reserve_seq(), self)

    def _arrival(self) -> None:
        request = new_request(
            client_id=self.name,
            issued_at=self.engine.now,
            client_class=self.client_class,
            category=self.category,
            difficulty=self._draw_difficulty(),
            size_bytes=REQUEST_BYTES,
        )
        # Every other stats write follows an arrival, so this is where a
        # client trades the shared idle stats for its own.
        stats = self.stats
        if stats is _IDLE_STATS:
            stats = self.stats = ClientStats()
        stats.issued += 1
        if self.outstanding < self.window and not self._shard_down:
            self._issue(request)
        else:
            request.state = RequestState.BACKLOGGED
            if self.backlog is _NO_ITEMS:
                self.backlog = deque()
            self.backlog.append(request)
            stats.backlogged += 1
            self._ensure_sweep()
        self._schedule_next_arrival()

    def _legacy_arrival(self) -> None:
        """One-event-per-candidate arrival (callable-difficulty clients only)."""
        if self.rate_modulator is not None:
            multiplier = min(1.0, max(0.0, self.rate_modulator(self.engine.now)))
            if not self.rng.bernoulli(multiplier):
                self._schedule_next_arrival()
                return
        self._arrival()

    def _draw_difficulty(self) -> float:
        if callable(self.difficulty):
            return float(self.difficulty(self))
        return float(self.difficulty)

    # -- sending a request ---------------------------------------------------------

    def _issue(self, request: Request) -> None:
        self.outstanding += 1
        self._send_upload(request)

    def _send_upload(self, request: Request) -> None:
        """One upload attempt: ``_issue`` for fresh requests, re-entered by
        the retry machinery for backed-off ones (already outstanding)."""
        self.stats.sent += 1
        request.state = RequestState.SENT
        request.sent_at = self.engine.now
        flow = self.network.send(
            self.host,
            self.thinner_host,
            size_bytes=request.size_bytes,
            label=f"request:{request.request_id}",
            on_complete=lambda _flow: self._request_delivered(request),
        )
        if self._inflight is _NO_ENTRIES:
            self._inflight = {}
        self._inflight[request.request_id] = (request, flow)

    def _request_delivered(self, request: Request) -> None:
        if self._inflight:
            self._inflight.pop(request.request_id, None)
        injector = self.deployment.fault_injector
        if injector is not None and injector.upload_lost(self.shard):
            # The ``lossy`` gray failure: the upload completed but the
            # shard lost it.  The client learns via the usual drop path
            # (connection reset after one propagation delay), where the
            # retry policy, if any, takes over.
            request.state = RequestState.DROPPED
            request.drop_reason = "fault-loss"
            delay = self.network.topology.one_way_delay(self.thinner_host, self.host)
            self.engine.schedule_after(delay, self.on_dropped, request, "fault-loss")
            return
        self.thinner.receive_request(request, self)

    # -- thinner callbacks ------------------------------------------------------------

    def on_encouraged(self, request: Request) -> None:
        """The thinner asked for payment: open a payment channel."""
        if request.request_id in self.channels:
            return
        channel = self.deployment.payment_channel(
            self.host, request, thinner_host=self.thinner_host
        )
        if self.channels is _NO_ENTRIES:
            self.channels = {}
        self.channels[request.request_id] = channel
        channel.open()
        self.thinner.register_payment(request, channel)

    def on_response(self, request: Request, response: Response) -> None:
        """The server finished the request."""
        self._forget_channel(request)
        self.outstanding -= 1
        self.stats.served += 1
        self.stats.bytes_paid += request.bytes_paid
        payment_time = request.payment_time()
        response_time = request.response_time()
        telemetry = getattr(self.deployment, "telemetry", None)
        if telemetry is None:
            # Full mode: the historical unbounded per-request lists, kept
            # byte-identical for every pinned figure/sweep fingerprint.
            stats = self.stats
            if stats.prices is _NO_ITEMS:
                stats.prices, stats.payment_times, stats.response_times = [], [], []
            stats.prices.append(request.price_paid)
            if payment_time is not None:
                stats.payment_times.append(payment_time)
            if response_time is not None:
                stats.response_times.append(response_time)
        else:
            telemetry.record_served(
                self.client_class,
                self.engine.now,
                payment_time,
                response_time,
                request.price_paid,
            )
        if self._retry is not None:
            self._retry.attempts.pop(request.request_id, None)
        self._drain_backlog()

    def on_dropped(self, request: Request, reason: str) -> None:
        """The thinner or server abandoned the request."""
        self._forget_channel(request)
        if self._maybe_retry(request):
            return  # still outstanding; a backoff timer owns it now
        self.outstanding -= 1
        self.stats.dropped += 1
        self.stats.bytes_paid += request.bytes_paid
        if self._retry is not None:
            self._retry.attempts.pop(request.request_id, None)
        self._drain_backlog()

    # -- retry machinery (active only with a RetryPolicy) ---------------------------

    def _maybe_retry(self, request: Request) -> bool:
        """Schedule a re-send of a dropped request if the policy allows one.

        Returns True when a backoff timer was armed — the request stays
        ``outstanding`` throughout, so the accounting identity (issued ==
        served + denied + dropped + outstanding + backlog) is untouched.
        """
        retry = self._retry
        if retry is None or self._shard_down:
            return False
        policy = retry.policy
        attempts, prev_backoff = retry.attempts.get(request.request_id, (0, 0.0))
        if attempts >= policy.max_attempts:
            return False
        if policy.budget is not None:
            retry.refill(self.engine.now)
            if retry.tokens < 1.0:
                self.stats.retries_suppressed += 1
                return False
            retry.tokens -= 1.0
        delay = policy.backoff_delay(prev_backoff, retry.rng)
        retry.attempts[request.request_id] = (attempts + 1, delay)
        self.stats.retries_attempted += 1
        # Bank this attempt's payment now; the next attempt's channel close
        # overwrites request.bytes_paid, so without this the earlier
        # attempt's spend would vanish from the client's accounting.
        self.stats.bytes_paid += request.bytes_paid
        request.bytes_paid = 0.0
        event = self.engine.schedule_after(delay, self._retry_fire, request)
        retry.pending[request.request_id] = (request, event)
        return True

    def _retry_fire(self, request: Request) -> None:
        retry = self._retry
        retry.pending.pop(request.request_id, None)
        if self._shard_down:
            # The shard died while this request waited out its backoff and
            # the kill path could not see it; finalise it as dropped here.
            self.outstanding -= 1
            self.stats.dropped += 1
            self.stats.bytes_paid += request.bytes_paid
            retry.attempts.pop(request.request_id, None)
            return
        self._send_upload(request)

    # -- backlog management --------------------------------------------------------------
    #
    # Backlogged requests time out ``REQUEST_TIMEOUT`` seconds after they were
    # issued (the paper's 10-second service denial).  Rather than one timer per
    # request — bad clients would schedule a thousand timers a second — each
    # client keeps a single sweep event armed for the head of its backlog; the
    # backlog is FIFO so heads expire in order.

    def _ensure_sweep(self) -> None:
        if self._sweep_event is not None and self._sweep_event.pending:
            return
        if not self.backlog:
            return
        head = self.backlog[0]
        deadline = head.issued_at + REQUEST_TIMEOUT
        delay = max(0.0, deadline - self.engine.now)
        self._sweep_event = self.engine.schedule_after(delay, self._sweep_backlog)

    def _sweep_backlog(self) -> None:
        self._sweep_event = None
        now = self.engine.now
        # The expiry test must use exactly the same expression as the re-arm
        # delay below (issued_at + timeout vs. now); mixing the algebraically
        # equivalent "now - issued_at >= timeout" can disagree with it in the
        # last floating-point bit and re-arm a zero-delay sweep forever.
        while self.backlog and self.backlog[0].issued_at + REQUEST_TIMEOUT <= now:
            request = self.backlog.popleft()
            self._deny(request)
        self._ensure_sweep()

    def _deny(self, request: Request) -> None:
        # A request that already reached a terminal state (e.g. aborted by a
        # shard kill landing exactly on this deadline tick) was counted once
        # under that outcome; denying it again would double-count it and
        # break the accounting identity, so the deny is a no-op.
        if request.state in (RequestState.DROPPED, RequestState.DENIED):
            return
        request.state = RequestState.DENIED
        request.denied_at = self.engine.now
        self.stats.denied += 1

    def _drain_backlog(self) -> None:
        if self._shard_down:
            return  # nothing to send to until the re-pin lands
        while self.backlog and self.outstanding < self.window:
            request = self.backlog.popleft()
            if request.issued_at + REQUEST_TIMEOUT <= self.engine.now:
                self._deny(request)
                continue
            self._issue(request)

    def _forget_channel(self, request: Request) -> None:
        if not self.channels:
            return
        channel = self.channels.pop(request.request_id, None)
        if channel is not None and channel.is_open:
            channel.close()

    # -- failover (driven by the fault injector) -------------------------------------

    def shard_failed(self) -> int:
        """The pinned shard's front-end died: abort in-flight uploads.

        Request uploads still on the wire are stopped (the connection
        resets), counted as dropped, and reported back as orphans; requests
        already contending at the thinner are dropped by the thinner itself,
        so this method must not touch them.  The client stops issuing until
        :meth:`repin` retargets it.
        """
        self._shard_down = True
        orphaned = 0
        for request, flow in self._inflight.values():
            self.network.stop_flow(flow)
            request.state = RequestState.DROPPED
            request.drop_reason = "shard-killed"
            self.outstanding -= 1
            self.stats.dropped += 1
            orphaned += 1
        self._inflight = _NO_ENTRIES
        # Requests waiting out a retry backoff are equally orphaned: cancel
        # their timers and finalise them, or they would re-send to the dead
        # shard (or leak from ``outstanding``) after the re-pin.
        retry = self._retry
        if retry is not None:
            for request, event in retry.pending.values():
                event.cancel()
                request.state = RequestState.DROPPED
                request.drop_reason = "shard-killed"
                self.outstanding -= 1
                self.stats.dropped += 1
                orphaned += 1
            retry.pending.clear()
            retry.attempts.clear()
        return orphaned

    def repin(self, shard: int) -> None:
        """Re-resolve to a surviving shard and resume issuing.

        Called by the fault injector once this client's DNS-TTL re-pin lag
        expires.  Backlogged arrivals drain immediately (minus any the
        10-second denial sweep already expired).
        """
        self.shard = shard
        self.thinner = self.deployment.thinners[shard]
        self.thinner_host = self.deployment.thinner_hosts[shard]
        self._shard_down = False
        self._drain_backlog()

    # -- end-of-run accounting ---------------------------------------------------------------

    def open_payment_bytes(self) -> float:
        """Bytes delivered on channels still open (work in progress at run end)."""
        return sum(channel.total_paid() for channel in self.channels.values())

    def total_bytes_spent(self) -> float:
        """All payment bytes this client delivered during the run."""
        return self.stats.bytes_paid + self.open_payment_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name}, class={self.client_class}, "
            f"rate={self.rate_rps}/s, window={self.window})"
        )
