"""Adversaries that game the auction's *timing* (§3.4).

Theorem 3.1 bounds how much an adversary can gain by choosing *when* its
bytes arrive rather than how many it sends: a client delivering an epsilon
fraction of the bandwidth always gets at least epsilon/2 of the service.
These client strategies exercise that bound empirically
(``benchmarks/bench_ablation_theorem31.py``):

* :class:`FocusedCheater` concentrates its whole uplink on one contending
  request at a time instead of spreading it across its window, hoping to win
  auctions sooner and recycle requests faster.
* :class:`LurkingCheater` delays the start of each payment channel, trying
  to pay only "at the last minute" and free-ride on periods when the going
  rate is low.
"""

from __future__ import annotations

from typing import List, Optional

from repro.constants import BAD_CLIENT_RATE, BAD_CLIENT_WINDOW
from repro.errors import ClientError
from repro.clients.base import BaseClient
from repro.core.frontend import Deployment
from repro.httpd.messages import Request, Response
from repro.simnet.host import Host


class FocusedCheater(BaseClient):
    """Pays for one request at a time with its full uplink."""

    __slots__ = ("_pending_encouragements", "_focused")

    def __init__(
        self,
        deployment: Deployment,
        host: Host,
        rate_rps: float = BAD_CLIENT_RATE,
        window: int = BAD_CLIENT_WINDOW,
        **kwargs,
    ) -> None:
        super().__init__(
            deployment,
            host,
            rate_rps=rate_rps,
            window=window,
            client_class="bad",
            **kwargs,
        )
        self._pending_encouragements: List[Request] = []
        self._focused: Optional[int] = None

    def on_encouraged(self, request: Request) -> None:
        if self._focused is None:
            self._focus(request)
        else:
            self._pending_encouragements.append(request)

    def _focus(self, request: Request) -> None:
        self._focused = request.request_id
        super().on_encouraged(request)

    def _refocus(self, finished: Request) -> None:
        if self._focused == finished.request_id:
            self._focused = None
            while self._pending_encouragements:
                candidate = self._pending_encouragements.pop(0)
                if candidate.is_outstanding:
                    self._focus(candidate)
                    break

    def on_response(self, request: Request, response: Response) -> None:
        super().on_response(request, response)
        self._refocus(request)

    def on_dropped(self, request: Request, reason: str) -> None:
        super().on_dropped(request, reason)
        self._refocus(request)


class LurkingCheater(BaseClient):
    """Waits ``lurk_delay`` seconds after each encouragement before paying."""

    __slots__ = ("lurk_delay",)

    def __init__(
        self,
        deployment: Deployment,
        host: Host,
        lurk_delay: float = 1.0,
        rate_rps: float = BAD_CLIENT_RATE,
        window: int = BAD_CLIENT_WINDOW,
        **kwargs,
    ) -> None:
        if lurk_delay < 0:
            raise ClientError("lurk_delay must be non-negative")
        super().__init__(
            deployment,
            host,
            rate_rps=rate_rps,
            window=window,
            client_class="bad",
            **kwargs,
        )
        self.lurk_delay = lurk_delay

    def on_encouraged(self, request: Request) -> None:
        if self.lurk_delay == 0:
            super().on_encouraged(request)
            return
        self.engine.schedule_after(self.lurk_delay, self._pay_if_still_waiting, request)

    def _pay_if_still_waiting(self, request: Request) -> None:
        if not request.is_outstanding or request.request_id in self.channels:
            return
        super().on_encouraged(request)
