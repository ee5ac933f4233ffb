"""Attack-triggered engagement: speak-up only when the server needs it.

The paper's design point: speak-up is *not* meant to run in peacetime —
"when the server is not attacked, the thinner does nothing" and the defense
only charges clients bandwidth while the server is actually overloaded.
:class:`AdaptiveDefense` turns that into a runnable policy: the deployment
starts in **passthrough** (the undefended baseline — no encouragement, no
payments), a load watcher samples server utilisation every
``check_interval`` seconds, and when utilisation crosses the top of a
hysteresis band the controller **engages** an inner defense (speak-up by
default), migrating the waiting contenders into it.  When utilisation falls
back below the bottom of the band the inner defense **disengages** and the
deployment returns to passthrough.

Structure: both the passthrough thinner and the engaged thinner are real,
fully-wired thinners, each driving its own
:class:`~repro.core.fleet.ServerView` of the shard's server — the same
view/mux pair the pooled fleet shares its server with.  The
:class:`~repro.core.fleet.ServerMux` owns the real server callbacks, routes
``on_request_done`` to whichever thinner submitted the request, and offers
a freed slot to the currently-active thinner first (the controller points
the mux's ``next_offer`` at it; the mux does not rotate).  Switching
migrates the inactive side's contenders (closing any open payment channels
on disengage — the clients stop paying, exactly as the paper promises for
peacetime) and appends a transition to the engagement log, which the
metrics collector surfaces as
:class:`~repro.metrics.collector.EngagementMetrics`.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.errors import DefenseError
from repro.core.admission import NoDefenseThinner
from repro.core.fleet import ServerMux
from repro.core.thinner import ClientProtocol, ThinnerBase, ThinnerStats
from repro.defenses.base import Defense, registry
from repro.defenses.spec import DefenseSpec, normalise_defense
from repro.httpd.messages import Request

#: Default hysteresis band and sampling cadence of the load watcher.
DEFAULT_ENGAGE_THRESHOLD = 0.9
DEFAULT_DISENGAGE_THRESHOLD = 0.6
DEFAULT_CHECK_INTERVAL = 1.0


class AdaptiveThinner:
    """The engagement controller: passthrough until the watcher trips it.

    A proxy over two fully-built thinners — the undefended baseline and the
    inner defense's — of which exactly one is *active* (receives new
    requests and freed server slots).  The load watcher runs on the engine
    every ``check_interval`` seconds and compares the interval's server
    utilisation against the hysteresis band.
    """

    def __init__(
        self,
        deployment,
        shard: int,
        inner_defense: Defense,
        engage_threshold: float = DEFAULT_ENGAGE_THRESHOLD,
        disengage_threshold: float = DEFAULT_DISENGAGE_THRESHOLD,
        check_interval: float = DEFAULT_CHECK_INTERVAL,
        server=None,
    ) -> None:
        if not 0.0 < disengage_threshold < engage_threshold <= 1.0:
            raise DefenseError(
                "adaptive engagement needs 0 < disengage_threshold < "
                f"engage_threshold <= 1, got ({disengage_threshold}, {engage_threshold})"
            )
        if check_interval <= 0:
            raise DefenseError("check_interval must be positive")
        self.engine = deployment.engine
        self.engage_threshold = engage_threshold
        self.disengage_threshold = disengage_threshold
        self.check_interval = check_interval

        real_server = server if server is not None else deployment.shard_server(shard)
        # View 0 is the passthrough side, view 1 the engaged side.  A freed
        # slot goes to the active side first (``next_offer``); if it has
        # nothing waiting, the other side, which may still hold contenders
        # admitted-in-flight around a switch, gets the offer.
        self._mux = ServerMux(real_server, rotate=False)
        self._passthrough: ThinnerBase = NoDefenseThinner(
            rng=deployment.shard_stream("adaptive-admission", shard),
            policy=deployment.config.admission_policy,
            **inner_defense.thinner_kwargs(deployment, shard, server=self._mux.view()),
        )
        self._engaged: ThinnerBase = inner_defense.build_thinner(
            deployment, shard, server=self._mux.view()
        )
        self.engaged = False
        #: Both sides record into the deployment's book.
        self.prices = deployment.prices

        #: (time, engaged) transitions, in order; starts disengaged at t=0.
        self.engagement_log: List[Tuple[float, bool]] = []
        self.counters = self._passthrough.counters
        self._busy_mark = real_server.stats.busy_time
        self._watcher = self.engine.schedule_every(check_interval, self._check_load)

    # -- the active/idle pair -------------------------------------------------------

    @property
    def active(self) -> ThinnerBase:
        return self._engaged if self.engaged else self._passthrough

    @property
    def idle_side(self) -> ThinnerBase:
        return self._passthrough if self.engaged else self._engaged

    # -- client-facing surface (what BaseClient and the collector touch) -------------

    def receive_request(self, request: Request, client: ClientProtocol) -> None:
        self.active.receive_request(request, client)

    def register_payment(self, request: Request, channel) -> None:
        # Route to whichever side holds the contender (a switch may have
        # migrated it between encouragement and registration).
        for thinner in (self._engaged, self._passthrough):
            if request.request_id in thinner._contenders:
                thinner.register_payment(request, channel)
                return
        # Won or dropped while the registration was in flight.
        channel.close()

    @property
    def contending_count(self) -> int:
        return self._passthrough.contending_count + self._engaged.contending_count

    def contenders(self):
        return self._passthrough.contenders() + self._engaged.contenders()

    # -- failover protocol (what the fault injector drives) ----------------------

    def _drop(self, request: Request, reason: str) -> None:
        """Route a drop to whichever side holds the contender."""
        for side in (self._passthrough, self._engaged):
            if request.request_id in side._contenders:
                side._drop(request, reason)
                return

    def _pop_owner(self, request_id: int):
        """Detach the owning client from whichever side tracked the request."""
        for side in (self._passthrough, self._engaged):
            client = side._owners.pop(request_id, None)
            if client is not None:
                return client
        return None

    @property
    def stats(self) -> ThinnerStats:
        """Both sides' counters, merged on read."""
        merged = ThinnerStats()
        for side in (self._passthrough, self._engaged):
            stats = side.stats
            merged.requests_received += stats.requests_received
            merged.requests_admitted += stats.requests_admitted
            merged.requests_served += stats.requests_served
            merged.requests_dropped += stats.requests_dropped
            merged.free_admissions += stats.free_admissions
            merged.auctions_held += stats.auctions_held
            merged.payment_bytes_sunk += stats.payment_bytes_sunk
            for key, value in stats.received_by_class.items():
                merged.received_by_class[key] = merged.received_by_class.get(key, 0) + value
            for key, value in stats.served_by_class.items():
                merged.served_by_class[key] = merged.served_by_class.get(key, 0) + value
        return merged

    @property
    def stage_metrics(self):
        """Forward the engaged side's pipeline stage attribution (if any)."""
        return getattr(self._engaged, "stage_metrics", None)

    @property
    def server(self):
        return self._mux.server

    @property
    def host(self):
        return self.active.host

    def shutdown(self) -> None:
        for side in (self._passthrough, self._engaged):
            shutdown = getattr(side, "shutdown", None)
            if callable(shutdown):
                shutdown()

    # -- the load watcher --------------------------------------------------------------

    def utilisation_sample(self) -> float:
        """Server utilisation over the current (partial) check interval."""
        busy = self._mux.server.stats.busy_time
        return max(0.0, busy - self._busy_mark) / self.check_interval

    def _check_load(self) -> None:
        utilisation = self.utilisation_sample()
        self._busy_mark = self._mux.server.stats.busy_time
        if not self.engaged and utilisation >= self.engage_threshold:
            self._switch(True)
        elif self.engaged and utilisation <= self.disengage_threshold:
            self._switch(False)

    # -- engagement transitions ----------------------------------------------------------

    def _switch(self, engage: bool) -> None:
        source = self.active
        self.engaged = engage
        target = self.active
        self._mux.next_offer = 1 if engage else 0
        self.engagement_log.append((self.engine.now, engage))
        self.counters.engagement_switches += 1
        self._migrate(source, target)

    @staticmethod
    def _migrate(source: ThinnerBase, target: ThinnerBase) -> None:
        """Move every waiting contender from ``source`` to ``target``.

        Open payment channels are closed (their bytes stay accounted to the
        source side, like an admission would have) — on disengage this is
        what makes the clients stop paying.  The requests then re-enter the
        target's arrival handling, which re-encourages them if the target
        is a paying defense.
        """
        for contender in source.contenders():
            request = contender.request
            source._remove_contender(request.request_id)
            client = source._owners.pop(request.request_id, None)
            if contender.channel is not None:
                paid = contender.channel.close()
                request.bytes_paid = paid
                source.stats.payment_bytes_sunk += paid
            if client is None:  # pragma: no cover - defensive
                continue
            target._owners[request.request_id] = client
            target._handle_arrival(request, client)


class AdaptiveDefense(Defense):
    """Engage an inner defense only while the server is under attack."""

    name = "adaptive"

    def __init__(
        self,
        inner: Union[str, dict, DefenseSpec] = "speakup",
        engage_threshold: float = DEFAULT_ENGAGE_THRESHOLD,
        disengage_threshold: float = DEFAULT_DISENGAGE_THRESHOLD,
        check_interval: float = DEFAULT_CHECK_INTERVAL,
    ) -> None:
        self.inner_spec = normalise_defense(inner)
        if self.inner_spec.name == self.name:
            raise DefenseError("adaptive defenses do not nest")
        self.inner = self.inner_spec.create()
        self.engage_threshold = engage_threshold
        self.disengage_threshold = disengage_threshold
        self.check_interval = check_interval
        # Fail on a bad band at spec-validation time, not mid-deployment.
        if not 0.0 < disengage_threshold < engage_threshold <= 1.0:
            raise DefenseError(
                "adaptive engagement needs 0 < disengage_threshold < "
                f"engage_threshold <= 1, got ({disengage_threshold}, {engage_threshold})"
            )
        if check_interval <= 0:
            raise DefenseError("check_interval must be positive")

    def build_thinner(self, deployment, shard: int = 0, server=None) -> AdaptiveThinner:
        return AdaptiveThinner(
            deployment,
            shard,
            inner_defense=self.inner,
            engage_threshold=self.engage_threshold,
            disengage_threshold=self.disengage_threshold,
            check_interval=self.check_interval,
            server=server,
        )

    def supports_pooled_admission(self) -> bool:
        return self.inner.supports_pooled_admission()

    def supports_fault_injection(self) -> bool:
        return self.inner.supports_fault_injection()

    def describe(self) -> str:
        return (
            f"adaptive {self.inner_spec.label()} (on ≥{self.engage_threshold:.0%}, "
            f"off ≤{self.disengage_threshold:.0%} util, every {self.check_interval:g}s)"
        )


registry.register(AdaptiveDefense.name, AdaptiveDefense)
