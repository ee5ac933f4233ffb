"""Per-quantum auctions for heterogeneous requests (§5).

When requests cause unequal amounts of work and attackers deliberately send
the hard ones, charging a single admission price lets them buy
disproportionate amounts of server time.  The fix in §5: view each request
as a sequence of equal-sized chunks, one per scheduling quantum, and auction
every quantum.  Payment channels are not torn down at admission — the
thinner keeps extracting payment until the request completes — and every
``tau`` seconds it runs:

1. let ``v`` be the currently-active request and ``u`` the contending
   request that has paid the most;
2. if ``u`` has paid more than ``v``, SUSPEND ``v``, admit (or RESUME)
   ``u``, and zero ``u``'s payment;
3. otherwise let ``v`` continue but zero its payment (it has not yet paid
   for the next quantum);
4. ABORT any request that has been suspended longer than a timeout.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.constants import SUSPEND_ABORT_TIMEOUT
from repro.errors import ThinnerError
from repro.core.thinner import ClientProtocol, Contender, ThinnerBase
from repro.httpd.messages import Request, RequestState


class QuantumAuctionThinner(ThinnerBase):
    """The heterogeneous-request extension: auction every server quantum."""

    def __init__(
        self,
        *args,
        quantum_seconds: Optional[float] = None,
        suspend_abort_timeout: float = SUSPEND_ABORT_TIMEOUT,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if quantum_seconds is not None and quantum_seconds <= 0:
            raise ThinnerError("quantum_seconds must be positive")
        if suspend_abort_timeout <= 0:
            raise ThinnerError("suspend_abort_timeout must be positive")
        #: Quantum length tau; defaults to the server's mean service time, so a
        #: request of difficulty 1 is roughly one chunk.
        self.quantum_seconds = (
            quantum_seconds if quantum_seconds is not None else self.server.mean_service_time
        )
        self.suspend_abort_timeout = suspend_abort_timeout
        self._active: Optional[Contender] = None
        self._suspended_at: Dict[int, float] = {}
        self._scheduler = self.engine.schedule_every(self.quantum_seconds, self._quantum_tick)

    # -- arrival -------------------------------------------------------------------

    def _handle_arrival(self, request: Request, client: ClientProtocol) -> None:
        contender = self._add_contender(request, client)
        if self._active is None and not self.server.busy and not self._suspended_at:
            self._grant(contender, price_bytes=0.0)
            return
        self._encourage(contender)

    # -- the per-quantum procedure ------------------------------------------------------

    def _quantum_tick(self) -> None:
        self._abort_stale_suspensions()
        challenger = self._top_contender()
        active = self._active
        now = self.engine.now

        if active is None:
            if challenger is not None:
                self._count_auction()
                self._grant(challenger, price_bytes=challenger.peek_bid(now))
            return

        if challenger is None:
            self._charge_active(active)
            return

        self._count_auction()
        if challenger.peek_bid(now) > active.peek_bid(now):
            self._preempt(active)
            self._grant(challenger, price_bytes=challenger.peek_bid(now))
        else:
            self._charge_active(active)

    def _server_ready(self) -> None:
        # A request just completed (or was aborted): immediately give the
        # quantum to the best contender rather than waiting for the next tick.
        challenger = self._top_contender()
        if challenger is None:
            self._server_idle = True
            return
        self._count_auction()
        self._grant(challenger, price_bytes=challenger.peek_bid(self.engine.now))

    # -- grant / pre-empt / charge ----------------------------------------------------------

    def _top_contender(self) -> Optional[Contender]:
        """The challenger that has paid the most (via the kinetic bid index)."""
        return self._best_contender()

    def _grant(self, contender: Contender, price_bytes: float) -> None:
        """Give the next quantum to ``contender`` and consume its payment."""
        request = contender.request
        self._remove_contender(request.request_id)
        self._suspended_at.pop(request.request_id, None)

        consumed = contender.channel.consume() if contender.channel is not None else 0.0
        charge = max(price_bytes, consumed)
        request.price_paid += charge
        self.stats.payment_bytes_sunk += charge
        self.prices.record(charge, request.client_class)
        if charge == 0.0:
            self.stats.free_admissions += 1

        self._active = contender
        self._server_idle = False
        self.stats.requests_admitted += 1
        if request.state == RequestState.SUSPENDED:
            self.server.resume(request)
        else:
            self.server.submit(request)

    def _preempt(self, contender: Contender) -> None:
        """SUSPEND the active request; it keeps contending (and paying)."""
        request = self.server.suspend()
        if request is not contender.request:  # pragma: no cover - defensive
            raise ThinnerError("suspended request does not match the active contender")
        self._active = None
        self._reinsert_contender(contender)
        self._suspended_at[request.request_id] = self.engine.now

    def _charge_active(self, contender: Contender) -> None:
        """The active request keeps the server: zero its payment for the quantum."""
        if contender.channel is None:
            return
        consumed = contender.channel.consume()
        if consumed > 0.0:
            contender.request.price_paid += consumed
            self.stats.payment_bytes_sunk += consumed

    def _abort_stale_suspensions(self) -> None:
        now = self.engine.now
        stale = [
            request_id
            for request_id, suspended_at in self._suspended_at.items()
            if now - suspended_at > self.suspend_abort_timeout
        ]
        for request_id in stale:
            contender = self._contenders.get(request_id)
            self._suspended_at.pop(request_id, None)
            if contender is None:
                continue
            self.server.abort(contender.request)
            self._drop(contender.request, "suspend-timeout")

    # -- completion -----------------------------------------------------------------------

    def _request_done(self, request: Request) -> None:
        if self._active is not None and self._active.request is request:
            if self._active.channel is not None:
                total = self._active.channel.close()
                request.bytes_paid = total
            self._active = None
        super()._request_done(request)

    def shutdown(self) -> None:
        """Stop the periodic quantum scheduler (used when a run ends)."""
        self._scheduler.cancel()
