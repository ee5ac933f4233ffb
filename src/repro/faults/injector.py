"""Execute a :class:`~repro.faults.spec.FaultPlan` against a live fleet.

The injector is the runtime half of the fault layer.  It is built by the
:class:`~repro.core.frontend.Deployment` only when the configured plan has
events — an empty plan wires nothing, schedules nothing, and draws nothing,
keeping fault-free runs byte-identical to deployments with no plan at all.

What a **kill** does, in order (all within one engine event):

1. the shard is marked dead in the
   :class:`~repro.core.routing.ShardRouter`'s liveness mask, the fleet's
   one record of which shards are up, so it leaves every dispatch candidate
   set: the re-pin candidates and, in pooled admission, the
   :class:`~repro.core.fleet.ServerMux` offer rotation, which reads the same
   mask;
2. the shard's thinner evicts its contenders: payment channels close (their
   POST flows stop), owners are dropped with reason ``"shard-killed"``, and
   the clients hear about it after one propagation delay — exactly the
   book-keeping of any other thinner drop, so client accounting stays
   conserved;
3. the request the shard holds in its server slot (its own ``c/N``
   partition, or the shared pooled slot) is aborted and the slot reclaimed —
   in pooled mode the freed slot is immediately re-offered to the surviving
   shards;
4. each client pinned to the shard aborts its in-flight request uploads
   (connection reset; counted as orphaned) and stops issuing — new arrivals
   back up in its backlog, subject to the normal 10-second denial sweep;
5. the shard host's access link is swept of any residual flows;
6. every affected client schedules a re-pin after a per-client lag drawn
   uniformly from ``[0, repin_ttl_s]`` off the dedicated ``"fault-repin"``
   stream (a DNS cache expiring somewhere inside one TTL).  At re-pin time
   the client is reassigned among the shards alive *then*; if none are, it
   waits for the next heal.

A **heal** restores the shard in the router's mask (so it rejoins the re-pin
candidates and the pooled rotation) and re-pins any clients whose lag
expired while the whole fleet was dark.  Clients that already failed over
elsewhere do not migrate back — their cached resolution is fine — matching
§4.3's sticky-pinning model.

The three **gray failures** never touch the dispatch masks — the point is
that the fleet keeps routing to a misbehaving shard until the health prober
(if configured) notices.  Each moves one per-shard level, and an event that
leaves its level as it found it is a no-op:

* ``degrade``/``restore`` — the capacity factor: scale the shard's
  access-link capacity through
  :meth:`~repro.simnet.link.Link.set_capacity_factor` (both directions,
  through the live network so every crossing flow is re-allocated);
* ``lossy``/``lossless`` — the shard's upload-loss probability; each
  completed request upload is then dropped with that probability, drawn
  from the dedicated ``"fault-loss"`` stream (created only when the plan
  has lossy events, preserving the empty-plan bit-identity contract);
* ``stall``/``resume`` — the stall flag, which gates the shard's thinner
  admission (:meth:`~repro.core.thinner.ThinnerBase.set_stalled`): it keeps
  receiving requests and sinking payment bytes but stops granting admission.

Every transition that takes effect (a no-op kill of a dead shard does not)
appends ``(time, action, shard)`` to the deployment's ``timeline``, which
:class:`~repro.metrics.collector.FailoverMetrics` takes its timeline and
transition counts from.  The injector keeps only what that list cannot say:
re-pins, orphaned requests, lossy uploads, and the cumulative good-client
service (and, for the retry-amplification analysis, good-client
sends/retries/suppressions) it samples on a fixed cadence while armed, so
experiments can plot service through the pulse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.faults.spec import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frontend import Deployment

#: Drop reason recorded on every request a shard kill orphans.
KILL_REASON = "shard-killed"


class FaultInjector:
    """Drives a fault plan off the deployment's engine clock."""

    def __init__(self, deployment: "Deployment", plan: FaultPlan) -> None:
        shards = deployment.config.thinner_shards
        self.deployment = deployment
        self.plan = plan
        self.engine = deployment.engine
        self._router = deployment._router
        #: Per-client re-pin lags come from their own named stream so arming
        #: the injector never perturbs any existing consumer's draws.
        self._repin_rng = deployment.streams.stream("fault-repin")
        #: Clients whose re-pin lag expired while no shard was alive.
        self._stranded: List = []

        # -- gray-failure state --------------------------------------------
        #: Current capacity factor per shard (1.0 = undegraded).
        self.capacity_factor: List[float] = [1.0] * shards
        #: Current upload-loss probability per shard (0.0 = lossless).
        self.loss_p: List[float] = [0.0] * shards
        #: Admission-stall flag per shard.
        self.stalled: List[bool] = [False] * shards
        #: The loss stream exists only when the plan can need it, so plans
        #: without lossy events stay draw-identical to pre-gray main.
        self._loss_rng = (
            deployment.streams.stream("fault-loss")
            if any(event.action == "lossy" for event in plan.events)
            else None
        )

        # -- the FailoverMetrics surface beyond the deployment's timeline ----
        self.repinned_clients = 0
        self.orphaned_requests = 0
        #: Uploads the ``lossy`` fault actually dropped.
        self.lossy_uploads = 0
        #: Cumulative good-client served samples: ``(time, served)``.
        self.service_samples: List[Tuple[float, int]] = []
        #: Cumulative good-client retry samples:
        #: ``(time, sent, retries_attempted, retries_suppressed)``.
        self.retry_samples: List[Tuple[float, int, int, int]] = []

    def arm(self) -> None:
        """Schedule the plan's events (called once, at deployment build)."""
        for event in self.plan.ordered_events():
            self.engine.schedule_at(event.at_s, self._execute, event)
        self._sample()
        self.engine.schedule_every(self.plan.sample_interval_s, self._sample)

    # -- event execution -----------------------------------------------------

    def _execute(self, event: FaultEvent) -> None:
        action, shard = event.action, event.shard
        if action == "kill":
            self._kill(shard)
        elif action == "heal":
            self._heal(shard)
        elif action in ("degrade", "restore"):
            factor = event.factor if action == "degrade" else 1.0
            if self._set_level(self.capacity_factor, action, shard, factor):
                host = self.deployment.thinner_hosts[shard]
                for link in (host.access.up, host.access.down):
                    link.set_capacity_factor(factor, network=self.deployment.network)
        elif action in ("lossy", "lossless"):
            loss_p = event.loss_p if action == "lossy" else 0.0
            self._set_level(self.loss_p, action, shard, loss_p)
        elif self._set_level(self.stalled, action, shard, action == "stall"):
            self.deployment.thinners[shard].set_stalled(action == "stall")

    def _set_level(self, levels: List, action: str, shard: int, level) -> bool:
        """Move ``shard``'s gray-fault level to ``level``; True if it moved.

        An event that leaves the level as it found it (restoring an
        undegraded shard, stalling a stalled one, ...) is a no-op and is not
        recorded, so random schedules compose.
        """
        if levels[shard] == level:
            return False
        levels[shard] = level
        self._record(action, shard)
        return True

    def _kill(self, shard: int) -> None:
        router = self._router
        if not router.alive[shard]:
            return  # already dead: a no-op, so random schedules compose
        router.set_alive(shard, False)
        self._record("kill", shard)

        # Evict the thinner's contenders: channels close (stopping their
        # payment flows), owners drop, clients are notified after one
        # propagation delay — ordinary drop book-keeping.
        deployment = self.deployment
        thinner = deployment.thinners[shard]
        for contender in thinner.contenders():
            thinner._drop(contender.request, KILL_REASON)
            self.orphaned_requests += 1

        # Reclaim the server slot the shard holds, if any.  Aborting fires
        # the slot's on_ready: the dead thinner idles (its contenders are
        # gone), and a pooled slot is re-offered to the surviving shards.
        self._reclaim_slot(shard, thinner)

        # Clients pinned here abort their in-flight uploads, stop issuing,
        # and schedule a DNS-TTL-style re-pin to whatever is alive then.
        host = deployment.thinner_hosts[shard]
        for client in deployment.clients_of_shard(shard):
            self.orphaned_requests += client.shard_failed()
            lag = self._repin_rng.uniform(0.0, self.plan.repin_ttl_s)
            self.engine.schedule_after(lag, self._repin, client)

        # Sweep any residual flows off the shard's access link (the drops
        # above already stopped everything a well-formed run sends here).
        network = deployment.network
        for link in (host.access.up, host.access.down):
            for flow in network.flows_on(link):
                network.stop_flow(flow)

    def _heal(self, shard: int) -> None:
        router = self._router
        if router.alive[shard]:
            return  # healing a live shard is a no-op
        router.set_alive(shard, True)
        self._record("heal", shard)

        # Clients whose lag expired during a fleet-wide blackout re-resolve
        # as soon as anything is alive again.
        stranded, self._stranded = self._stranded, []
        for client in stranded:
            self._repin_now(client)

    def upload_lost(self, shard: int) -> bool:
        """Bernoulli drop decision for one completed upload toward ``shard``.

        Returns False without consuming a draw while the shard is lossless,
        so runs whose plans never turn loss on stay draw-identical.
        """
        p = self.loss_p[shard]
        if p <= 0.0:
            return False
        if self._loss_rng.bernoulli(p):
            self.lossy_uploads += 1
            return True
        return False

    # -- re-pinning ------------------------------------------------------------

    def _repin(self, client) -> None:
        if not client._shard_down:  # pragma: no cover - defensive
            return
        if not any(self._router.alive):
            self._stranded.append(client)
            return
        self._repin_now(client)

    def _repin_now(self, client) -> None:
        new_shard = self._router.reassign(client.name, client.shard)
        client.repin(new_shard)
        self.repinned_clients += 1

    # -- service sampling ------------------------------------------------------

    def _sample(self) -> None:
        served = sent = retried = suppressed = 0
        for client in self.deployment.clients:
            if client.client_class != "good":
                continue
            stats = client.stats
            served += stats.served
            sent += stats.sent
            retried += stats.retries_attempted
            suppressed += stats.retries_suppressed
        now = self.engine.now
        self.service_samples.append((now, served))
        self.retry_samples.append((now, sent, retried, suppressed))

    # -- internals -------------------------------------------------------------

    def _record(self, action: str, shard: int) -> None:
        self.deployment.timeline.append((self.engine.now, action, shard))

    def _reclaim_slot(self, shard: int, thinner) -> None:
        deployment = self.deployment
        if deployment._pool is not None:
            request = deployment._pool.reclaim(shard)
            server = deployment.server
        else:
            server = deployment.servers[shard]
            request = server.current
        if request is None:
            return
        owner = thinner._pop_owner(request.request_id)
        server.abort(request)
        request.drop_reason = KILL_REASON
        self.orphaned_requests += 1
        if owner is not None:
            shard_host = deployment.thinner_hosts[shard]
            delay = deployment.network.topology.one_way_delay(shard_host, owner.host)
            self.engine.schedule_after(delay, owner.on_dropped, request, KILL_REASON)
