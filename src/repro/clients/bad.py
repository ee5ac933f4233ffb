"""Bad clients: the attacking population.

§7.1: "A bad client, by definition, tries to capture more than its fair
share.  We model this intent as follows: bad clients send requests faster
than good clients, and bad clients send requests concurrently.  Specifically
we choose lambda = 40, w = 20 for bad clients."  Keeping twenty requests
outstanding means twenty concurrent payment channels, so a bad client's
uplink never goes quiescent — the empirical source of the (bounded)
adversarial advantage measured in §7.4.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import BAD_CLIENT_RATE, BAD_CLIENT_WINDOW
from repro.clients.base import BaseClient, DifficultySpec
from repro.core.frontend import Deployment
from repro.simnet.host import Host


class BadClient(BaseClient):
    """An attacker-controlled client (defaults: ``lambda = 40`` req/s, window 20)."""

    __slots__ = ()

    def __init__(
        self,
        deployment: Deployment,
        host: Host,
        rate_rps: float = BAD_CLIENT_RATE,
        window: int = BAD_CLIENT_WINDOW,
        category: Optional[str] = None,
        difficulty: DifficultySpec = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(
            deployment,
            host,
            rate_rps=rate_rps,
            window=window,
            client_class="bad",
            category=category,
            difficulty=difficulty,
            **kwargs,
        )
