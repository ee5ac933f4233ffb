"""Scaling the thinner out to a sharded fleet (§4.3).

The paper's condition C1 says the thinner must be provisioned to absorb a
full attack's inflated traffic, and §4.3 sketches how: "this defense scales
...  one can deploy many thinners behind a load balancer" — each front-end
absorbs a slice of the payment traffic, and the aggregate fleet bandwidth is
what must cover ``G + B``.  This module supplies the pieces a
:class:`~repro.core.frontend.Deployment` uses when
``DeploymentConfig.thinner_shards > 1``:

* :class:`~repro.core.routing.ShardRouter` — the dispatch strategy that
  pins each client to one front-end shard (the moral equivalent of DNS
  round-robin or a consistent-hashing load balancer; clients stick to their
  shard for the whole run, as browsers stick to a resolved address).  The
  strategy registry in :mod:`repro.core.routing` supplies the legacy
  hash/least-loaded/random policies plus power-of-two-choices,
  weighted-by-measured-sink-rate, and sticky-with-spill;
* :class:`ServerMux` / :class:`ServerView` — the shared-server
  coordination used by the ``"pooled"`` admission mode, where every live
  shard can claim any freed server slot; the mux reads the router's
  liveness mask, so a killed shard sits out the offers until it heals (the
  adaptive controller shares one shard's server between its two sides with
  the same pair, and no mask);
* ``"partitioned"`` admission needs no coordinator: the deployment gives
  each shard its own :class:`~repro.httpd.server.EmulatedServer` running at
  ``c / shards``, so a shard's auctions only ever fill its own slots.  A
  one-shard deployment is one such partition, of all of ``c``.

The two admission modes bracket how a real fleet shares the back-end:

* **partitioned** — each front-end owns a fixed ``1/N`` slice of the
  server's capacity (e.g. a dedicated worker pool per front-end).  Shards
  are fully independent, so every thinner variant — including the
  suspend/resume quantum thinner of §5 — works unchanged.
* **pooled** — all front-ends feed one shared server, and a freed slot goes
  to the next shard (round-robin among shards with waiting contenders).
  Payments never compare across shards — each shard auctions only its own
  contenders, exactly like independent thinners behind a load balancer.
  The quantum thinner is not supported in this mode: it suspends and
  resumes "the" active request, which is ill-defined when another shard's
  request may hold the shared slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import codec
from repro.core.routing import ShardRouter
from repro.errors import ThinnerError, check_non_negative, check_positive
from repro.httpd.messages import Request
from repro.httpd.server import EmulatedServer

#: How the fleet shares the protected server's capacity.
ADMISSION_MODES = ("partitioned", "pooled")

#: Drop reason recorded when the health prober drains an ejected shard.
EJECT_REASON = "health-ejected"


class ServerView:
    """One thinner's view of a server shared through a :class:`ServerMux`.

    Thinners drive their server through a narrow surface — ``busy``,
    ``submit``/``resume``/``suspend``/``abort``,
    ``capacity_rps``/``mean_service_time``/``stats``, and the
    ``on_request_done``/``on_ready`` callbacks.  The view forwards all of
    it to the shared server, records itself as the owner of every request
    it submits or resumes, and receives the callbacks through the mux, so
    each thinner believes it owns a (frequently busy) server of the full
    capacity ``c``.
    """

    def __init__(self, mux: "ServerMux", index: int) -> None:
        self._mux = mux
        self._server = mux.server
        self.index = index
        #: Set by :class:`~repro.core.thinner.ThinnerBase` at construction.
        self.on_request_done: Optional[Callable[[Request], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None

    # -- queries forwarded to the shared server --------------------------------

    @property
    def busy(self) -> bool:
        return self._server.busy

    @property
    def capacity_rps(self) -> float:
        return self._server.capacity_rps

    @property
    def mean_service_time(self) -> float:
        return self._server.mean_service_time

    @property
    def stats(self):
        return self._server.stats

    # -- mutations forwarded with ownership bookkeeping -------------------------

    def submit(self, request: Request) -> None:
        """Claim the shared slot for one of this view's requests."""
        self._mux.note_owner(request, self.index)
        self._server.submit(request)

    def resume(self, request: Request) -> None:
        # The quantum thinner resumes the requests it suspended.
        self._mux.note_owner(request, self.index)
        self._server.resume(request)

    def suspend(self) -> Request:
        return self._server.suspend()

    def abort(self, request: Request) -> None:
        self._server.abort(request)


class ServerMux:
    """Shares one server's slot among the thinners behind its server views.

    The mux owns the real server's callbacks.  A finished request's
    response is routed back to the view that submitted it.  A freed slot is
    *offered* to the live views in turn, starting at ``next_offer``, and the
    first view whose thinner submits a request keeps it; a thinner with no
    contenders declines by marking itself idle, exactly as a lone thinner
    does.  The caller picks the offer order:

    * ``rotate=True`` (the pooled fleet, §4.3): after a shard takes the
      slot, the next offer starts at its successor — round-robin fairness
      across shards;
    * ``rotate=False`` (the adaptive controller): every offer starts at
      ``next_offer``, which the controller points at its active side.

    ``alive`` is the liveness mask the offers read, one flag per view: the
    pooled fleet hands in its router's mask, so a shard the fault injector
    killed sits out the offers until it heals.  Without one every view is
    offered every freed slot, as the adaptive controller's two sides are.
    """

    def __init__(
        self, server: EmulatedServer, rotate: bool, alive: Optional[Sequence[bool]] = None
    ) -> None:
        self.server = server
        self.rotate = rotate
        self.alive = alive
        self.views: List[ServerView] = []
        #: Which view (by index) submitted each in-slot request.
        self._owner_by_request: Dict[int, int] = {}
        #: The view offered a freed slot first.
        self.next_offer = 0
        server.on_request_done = self._request_done
        server.on_ready = self._slot_freed

    def view(self) -> ServerView:
        """Create the server view for the next thinner."""
        view = ServerView(self, len(self.views))
        self.views.append(view)
        return view

    def note_owner(self, request: Request, index: int) -> None:
        self._owner_by_request[request.request_id] = index

    # -- failover hook (driven by the fault injector) ----------------------------

    def reclaim(self, index: int) -> Optional[Request]:
        """Take back the shared slot if view ``index`` currently holds it.

        Returns the in-flight request (for the caller to abort and account)
        or ``None`` when the slot is free or another view's.  The owner
        entry is dropped so a later completion can never route to the dead
        shard's view.
        """
        current = self.server.current
        if current is None:
            return None
        if self._owner_by_request.get(current.request_id) != index:
            return None
        del self._owner_by_request[current.request_id]
        return current

    # -- callback routing -------------------------------------------------------

    def _request_done(self, request: Request) -> None:
        owner = self._owner_by_request.pop(request.request_id, None)
        if owner is None:  # pragma: no cover - defensive
            return
        view = self.views[owner]
        if view.on_request_done is not None:
            view.on_request_done(request)

    def _slot_freed(self) -> None:
        count = len(self.views)
        alive = self.alive
        for step in range(count):
            index = (self.next_offer + step) % count
            if alive is not None and not alive[index]:
                continue  # dead shards sit out the rotation until healed
            view = self.views[index]
            if view.on_ready is not None:
                view.on_ready()
            if self.server.busy:
                if self.rotate:
                    self.next_offer = (index + 1) % count
                return
        # Nobody had a contender: every thinner has marked itself idle and
        # the next arrival anywhere is admitted for free.


@dataclass(frozen=True)
class HealthProbeSpec:
    """Configuration for the fleet's gray-failure health prober.

    A fail-stop kill is visible (the access link goes down); a gray failure
    is not — a degraded, lossy, or stalled shard still answers probes, so a
    liveness mask never catches it.  The prober instead watches each shard's
    *work rates* — admission grants per second and payment bytes sunk per
    second — and ejects outliers that fall below ``eject_fraction`` of the
    fleet median on either signal.

    All fields are JSON-round-trippable so scenario specs can carry a probe
    configuration through serialization and sweeps.
    """

    #: Seconds between probe ticks.
    interval_s: float = 0.5
    #: EWMA smoothing weight applied to each new per-tick rate sample.
    alpha: float = 0.3
    #: Eject a shard whose smoothed rate drops below this fraction of the
    #: fleet median (on either the admission or the payment-sink signal).
    eject_fraction: float = 0.3
    #: Seconds an ejected shard sits out before probation readmits it.
    holddown_s: float = 3.0
    #: Probe ticks observed before a shard becomes eligible for ejection.
    min_samples: int = 3

    def validate(self) -> None:
        check_positive("health_probe.interval_s", self.interval_s, ThinnerError)
        if not 0.0 < self.alpha <= 1.0:
            raise ThinnerError(f"probe alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.eject_fraction < 1.0:
            raise ThinnerError(
                f"probe eject_fraction must be in (0, 1), got {self.eject_fraction}"
            )
        check_non_negative("health_probe.holddown_s", self.holddown_s, ThinnerError)
        if self.min_samples < 1:
            raise ThinnerError(f"probe min_samples must be at least 1, got {self.min_samples}")

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


class HealthProber:
    """Ejects gray-failing shards from dispatch based on observed work rates.

    State machine per shard::

        healthy --(rate < fraction x median, min_samples seen)--> ejected
        ejected --(holddown_s elapses)--> probation (readmitted, stats reset)
        probation --(new pins + healthy rates)--> healthy

    Every ``interval_s`` the prober differentiates each live shard's
    cumulative admission-grant count and cumulative payment-byte *arrivals*
    (bytes already sunk plus the open contenders' current balances, peeked
    without touching flow state — sunk bytes alone lag a capacity collapse
    by however much stock the open channels accumulated beforehand) into
    per-second rates and folds them into per-shard EWMAs.  A shard is ejected when
    either EWMA falls below ``eject_fraction`` of the fleet median (taken
    over live, non-ejected shards), provided it has been observed for
    ``min_samples`` ticks, still has clients pinned to it, and at least one
    other routable shard would remain.  Ejection re-pins the shard's clients
    immediately (the operator's load balancer flips, not a DNS TTL) via the
    same sticky :meth:`~repro.core.routing.ShardRouter.reassign` path the
    fault injector uses.

    After ``holddown_s`` the shard is readmitted on probation: its EWMAs and
    sample counts reset, and because re-pinned clients never migrate back,
    the ``counts[shard] > 0`` eligibility guard keeps an idle readmitted
    shard from being re-ejected for serving nobody.

    Each ejection and readmission appends ``(time, "eject"|"readmit",
    shard)`` to the deployment's ``timeline``.
    """

    def __init__(self, deployment, spec: HealthProbeSpec) -> None:
        self.deployment = deployment
        self.spec = spec
        self.engine = deployment.engine
        shards = deployment.config.thinner_shards
        self.shards = shards
        self._admit_last: List[int] = [0] * shards
        self._sink_last: List[float] = [0.0] * shards
        self._admit_ewma: List[float] = [0.0] * shards
        self._sink_ewma: List[float] = [0.0] * shards
        self._samples: List[int] = [0] * shards
        #: Absolute readmission deadline per ejected shard (None = healthy).
        self._probation_until: List[Optional[float]] = [None] * shards
        self._task = None

        # -- the FailoverMetrics surface beyond the deployment's timeline ----
        self.repinned_clients = 0
        self.probe_samples = 0

    def arm(self) -> None:
        """Start the periodic probe loop (idempotent per deployment run)."""
        now = self.engine.now
        self._admit_last = [
            t.stats.requests_admitted for t in self.deployment.thinners
        ]
        self._sink_last = [
            self._payment_arrived(shard, now) for shard in range(self.shards)
        ]
        self._task = self.engine.schedule_every(self.spec.interval_s, self._tick)

    def _payment_arrived(self, shard: int, now: float) -> float:
        """Cumulative payment bytes that reached ``shard`` (sunk + open bids)."""
        thinner = self.deployment.thinners[shard]
        total = thinner.stats.payment_bytes_sunk
        for contender in thinner.contenders():
            total += contender.peek_bid(now)
        return total

    # -- probe loop -------------------------------------------------------------

    def _tick(self) -> None:
        now = self.engine.now
        router = self.deployment._router
        self._expire_probations(now, router)
        spec = self.spec
        for shard in range(self.shards):
            if not router.alive[shard]:
                # Killed shards are the fault injector's problem; forget any
                # smoothed history so a heal starts from a clean slate.
                self._reset_shard(shard)
                continue
            stats = self.deployment.thinners[shard].stats
            arrived = self._payment_arrived(shard, now)
            admit_rate = (stats.requests_admitted - self._admit_last[shard]) / spec.interval_s
            sink_rate = (arrived - self._sink_last[shard]) / spec.interval_s
            self._admit_last[shard] = stats.requests_admitted
            self._sink_last[shard] = arrived
            if self._samples[shard] == 0:
                self._admit_ewma[shard] = admit_rate
                self._sink_ewma[shard] = sink_rate
            else:
                self._admit_ewma[shard] = (
                    spec.alpha * admit_rate + (1.0 - spec.alpha) * self._admit_ewma[shard]
                )
                self._sink_ewma[shard] = (
                    spec.alpha * sink_rate + (1.0 - spec.alpha) * self._sink_ewma[shard]
                )
            self._samples[shard] += 1
            self.probe_samples += 1
        self._maybe_eject(now, router)

    def _expire_probations(self, now: float, router: ShardRouter) -> None:
        for shard in range(self.shards):
            until = self._probation_until[shard]
            if until is not None and now >= until:
                self._probation_until[shard] = None
                router.set_ejected(shard, False)
                self._reset_shard(shard)
                self.deployment.timeline.append((now, "readmit", shard))

    def _reset_shard(self, shard: int) -> None:
        stats = self.deployment.thinners[shard].stats
        self._admit_last[shard] = stats.requests_admitted
        self._sink_last[shard] = self._payment_arrived(shard, self.engine.now)
        self._admit_ewma[shard] = 0.0
        self._sink_ewma[shard] = 0.0
        self._samples[shard] = 0

    def _maybe_eject(self, now: float, router: ShardRouter) -> None:
        spec = self.spec
        fleet = router.routable_shards()
        if len(fleet) < 2:
            return
        # Imported here: only a prober needs it, and it loads ``decimal``
        # and ``fractions`` into every process that imports it.
        from statistics import median

        admit_median = median(self._admit_ewma[shard] for shard in fleet)
        sink_median = median(self._sink_ewma[shard] for shard in fleet)
        for shard in fleet:
            if self._samples[shard] < spec.min_samples:
                continue
            if router.counts[shard] <= 0:
                # Nobody is pinned here (fresh off probation): zero rates
                # reflect an empty shard, not a sick one.
                continue
            starved_admit = (
                admit_median > 0.0
                and self._admit_ewma[shard] < spec.eject_fraction * admit_median
            )
            starved_sink = (
                sink_median > 0.0
                and self._sink_ewma[shard] < spec.eject_fraction * sink_median
            )
            if not (starved_admit or starved_sink):
                continue
            if len(router.routable_shards()) < 2:
                return  # never eject the last routable shard
            self._eject(now, router, shard)

    def _eject(self, now: float, router: ShardRouter, shard: int) -> None:
        router.set_ejected(shard, True)
        self.deployment.timeline.append((now, "eject", shard))
        if self.spec.holddown_s > 0:
            self._probation_until[shard] = now + self.spec.holddown_s
        # Drain the sick front-end: evict its contenders (channels close,
        # owners get ordinary drop notifications and can retry against their
        # new shard) exactly as the kill path does — a moved client cannot
        # leave a request contending on a shard it no longer pays.
        thinner = self.deployment.thinners[shard]
        for contender in thinner.contenders():
            thinner._drop(contender.request, EJECT_REASON)
        # Move the shard's clients off it now.  Aborting their in-flight
        # uploads mirrors the kill path (a client cannot keep a request on
        # shard A while its channel state migrates to shard B), but unlike a
        # kill the re-pin is immediate: the operator flipped the balancer,
        # no DNS cache has to expire.
        for client in self.deployment.clients_of_shard(shard):
            client.shard_failed()
            new_shard = router.reassign(client.name, client.shard)
            client.repin(new_shard)
            self.repinned_clients += 1
