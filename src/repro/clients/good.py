"""Good clients: the legitimate clientele.

§7.1: good clients issue requests from a Poisson process of rate
``lambda = 2`` per second and keep at most one request outstanding.  Because
they spend most of their time quiescent, they have plenty of spare upload
bandwidth — which is exactly the asymmetry speak-up exploits.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import GOOD_CLIENT_RATE, GOOD_CLIENT_WINDOW
from repro.clients.base import BaseClient, DifficultySpec
from repro.core.frontend import Deployment
from repro.simnet.host import Host


class GoodClient(BaseClient):
    """A legitimate client (defaults: ``lambda = 2`` req/s, window 1)."""

    __slots__ = ()

    def __init__(
        self,
        deployment: Deployment,
        host: Host,
        rate_rps: float = GOOD_CLIENT_RATE,
        window: int = GOOD_CLIENT_WINDOW,
        category: Optional[str] = None,
        difficulty: DifficultySpec = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(
            deployment,
            host,
            rate_rps=rate_rps,
            window=window,
            client_class="good",
            category=category,
            difficulty=difficulty,
            **kwargs,
        )
