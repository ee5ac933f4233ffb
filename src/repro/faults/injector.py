"""Execute a :class:`~repro.faults.spec.FaultPlan` against a live fleet.

The injector is the runtime half of the fault layer.  It is built by the
:class:`~repro.core.frontend.Deployment` only when the configured plan has
events — an empty plan wires nothing, schedules nothing, and draws nothing,
keeping fault-free runs byte-identical to deployments with no plan at all.

What a **kill** does, in order (all within one engine event):

1. the shard leaves every dispatch candidate set — the
   :class:`~repro.core.routing.ShardRouter` liveness mask and, in pooled
   admission, the :class:`~repro.core.fleet.ServerMux` offer rotation;
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
5. the shard host's access link is marked down and swept of any residual
   flows;
6. every affected client schedules a re-pin after a per-client lag drawn
   uniformly from ``[0, repin_ttl_s]`` off the dedicated ``"fault-repin"``
   stream (a DNS cache expiring somewhere inside one TTL).  At re-pin time
   the client is reassigned among the shards alive *then*; if none are, it
   waits for the next heal.

A **heal** marks the shard alive again (router mask, pooled rotation, access
link) and re-pins any clients whose lag expired while the whole fleet was
dark.  Clients that already failed over elsewhere do not migrate back —
their cached resolution is fine — matching §4.3's sticky-pinning model.

The three **gray failures** never touch the dispatch masks — the point is
that the fleet keeps routing to a misbehaving shard until the health prober
(if configured) notices:

* ``degrade``/``restore`` — scale the shard's access-link capacity through
  :meth:`~repro.simnet.link.Link.set_capacity_factor` (both directions,
  through the live network so every crossing flow is re-allocated) while
  ``is_up`` stays true;
* ``lossy``/``lossless`` — set the shard's upload-loss probability; each
  completed request upload is then dropped with that probability, drawn
  from the dedicated ``"fault-loss"`` stream (created only when the plan
  has lossy events, preserving the empty-plan bit-identity contract);
* ``stall``/``resume`` — gate the shard's thinner admission
  (:meth:`~repro.core.thinner.ThinnerBase.set_stalled`): it keeps receiving
  requests and sinking payment bytes but stops granting admission.

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

from repro.errors import FaultError
from repro.faults.spec import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frontend import Deployment

#: Drop reason recorded on every request a shard kill orphans.
KILL_REASON = "shard-killed"


class FaultInjector:
    """Drives a fault plan off the deployment's engine clock."""

    def __init__(self, deployment: "Deployment", plan: FaultPlan) -> None:
        shards = deployment.config.thinner_shards
        if shards < 2:
            raise FaultError(
                "fault injection needs a sharded fleet (thinner_shards > 1); "
                "a single-thinner deployment has nothing to fail over to"
            )
        plan.validate(shards)
        self.deployment = deployment
        self.plan = plan
        self.engine = deployment.engine
        self.alive: List[bool] = [True] * shards
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
        action = event.action
        if action == "kill":
            self._kill(event.shard)
        elif action == "heal":
            self._heal(event.shard)
        elif action == "degrade":
            self._degrade(event.shard, event.factor)
        elif action == "restore":
            self._restore(event.shard)
        elif action == "lossy":
            self._lossy(event.shard, event.loss_p)
        elif action == "lossless":
            self._lossless(event.shard)
        elif action == "stall":
            self._stall(event.shard)
        elif action == "resume":
            self._resume(event.shard)

    def _kill(self, shard: int) -> None:
        if not self.alive[shard]:
            return  # already dead: a no-op, so random schedules compose
        self.alive[shard] = False
        self._record("kill", shard)

        deployment = self.deployment
        deployment._router.set_alive(shard, False)
        if deployment._pool is not None:
            deployment._pool.set_alive(shard, False)

        # Evict the thinner's contenders: channels close (stopping their
        # payment flows), owners drop, clients are notified after one
        # propagation delay — ordinary drop book-keeping.
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

        # Take the access link down and sweep any residual flows (the drops
        # above already stopped everything a well-formed run sends here).
        network = deployment.network
        for link in (host.access.up, host.access.down):
            link.is_up = False
            for flow in network.flows_on(link):
                network.stop_flow(flow)

    def _heal(self, shard: int) -> None:
        if self.alive[shard]:
            return  # healing a live shard is a no-op
        self.alive[shard] = True
        self._record("heal", shard)

        deployment = self.deployment
        deployment._router.set_alive(shard, True)
        if deployment._pool is not None:
            deployment._pool.set_alive(shard, True)
        host = deployment.thinner_hosts[shard]
        host.access.up.is_up = True
        host.access.down.is_up = True

        # Clients whose lag expired during a fleet-wide blackout re-resolve
        # as soon as anything is alive again.
        stranded, self._stranded = self._stranded, []
        for client in stranded:
            self._repin_now(client)

    # -- gray failures ---------------------------------------------------------

    def _degrade(self, shard: int, factor: float) -> None:
        if self.capacity_factor[shard] == factor:
            return  # re-degrading at the same factor is a no-op
        self.capacity_factor[shard] = factor
        self._record("degrade", shard)
        self._apply_capacity_factor(shard, factor)

    def _restore(self, shard: int) -> None:
        if self.capacity_factor[shard] == 1.0:
            return  # restoring an undegraded shard is a no-op
        self.capacity_factor[shard] = 1.0
        self._record("restore", shard)
        self._apply_capacity_factor(shard, 1.0)

    def _apply_capacity_factor(self, shard: int, factor: float) -> None:
        deployment = self.deployment
        host = deployment.thinner_hosts[shard]
        network = deployment.network
        for link in (host.access.up, host.access.down):
            link.set_capacity_factor(factor, network=network)

    def _lossy(self, shard: int, loss_p: float) -> None:
        if self.loss_p[shard] == loss_p:
            return
        self.loss_p[shard] = loss_p
        self._record("lossy", shard)

    def _lossless(self, shard: int) -> None:
        if self.loss_p[shard] == 0.0:
            return
        self.loss_p[shard] = 0.0
        self._record("lossless", shard)

    def _stall(self, shard: int) -> None:
        if self.stalled[shard]:
            return
        self.stalled[shard] = True
        self._record("stall", shard)
        self.deployment.thinners[shard].set_stalled(True)

    def _resume(self, shard: int) -> None:
        if not self.stalled[shard]:
            return
        self.stalled[shard] = False
        self._record("resume", shard)
        self.deployment.thinners[shard].set_stalled(False)

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
        if not any(self.alive):
            self._stranded.append(client)
            return
        self._repin_now(client)

    def _repin_now(self, client) -> None:
        new_shard = self.deployment._router.reassign(client.name, client.shard)
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
