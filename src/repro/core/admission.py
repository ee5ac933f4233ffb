"""The undefended baseline: no encouragement, overload handled by dropping.

The paper's "without speak-up" runs (the OFF bars of Figures 2 and 3) model a
server that, when overloaded, serves what it can and randomly drops the
excess.  Clients are never asked to pay; the thinner simply keeps a pool of
pending requests and, whenever the server frees up, picks one at random
(or the oldest, with the FIFO policy).  Because bad clients issue requests
at twenty times the rate of good ones and keep twenty outstanding, the pool
— and therefore the server — is dominated by them.
"""

from __future__ import annotations

from typing import Optional

from repro.core.thinner import ClientProtocol, Contender, ThinnerBase
from repro.httpd.messages import Request
from repro.rng import RandomStream

#: Admission policies the undefended baseline supports; the ``none``
#: defense checks its ``policy`` setting against them.
POLICIES = ("random", "fifo")


class NoDefenseThinner(ThinnerBase):
    """Pass-through front-end: no payment, drop/queue on overload."""

    def __init__(
        self,
        *args,
        rng: RandomStream,
        policy: str = "random",
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.rng = rng
        self.policy = policy

    def _handle_arrival(self, request: Request, client: ClientProtocol) -> None:
        if self._server_idle and not self.server.busy:
            contender = Contender(request=request, client=client, arrived_at=self.engine.now)
            self._admit(contender, price_bytes=0.0)
            return
        self._add_contender(request, client)

    def _server_ready(self) -> None:
        contender = self._pick()
        if contender is None:
            self._server_idle = True
            return
        self._admit(contender, price_bytes=0.0)

    def _pick(self) -> Optional[Contender]:
        if not self._contenders:
            return None
        if self.policy == "fifo":
            # Insertion order is arrival order, so the FIFO head is O(1).
            return self._oldest_contender()
        return self.rng.choice(list(self._contenders.values()))
