"""Per-address rate limiting (a detect-and-block baseline).

§1 calls rate limiting "a special case of profiling in which the acceptable
request rate is the same for all clients".  The defense keeps a token bucket
per observed client identity and drops requests that exceed it.  Its known
failure modes (per §8.1) are NAT — many legitimate clients behind one
address share one bucket — and spoofing — one attacker presenting many
identities gets many buckets.  The ablation benchmark exercises the latter
with a spoofing bad client.

The policy is one screening stage, :class:`RateLimitFilter`.  Standalone it
runs in a :class:`~repro.defenses.base.ScreeningThinner` (FIFO admission
for whatever passes); the ``pipeline`` composite puts the same stage in
front of another admission policy to model the paper's point that speak-up
composes with detect-and-block front-filters — the bucket check screens
contenders before they ever enter the auction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import DefenseError, check_positive
from repro.core.thinner import ClientProtocol
from repro.defenses.base import Defense, FilterStage, registry
from repro.httpd.messages import Request


def observed_identity(request: Request) -> str:
    """The identity a detect-and-block defense can see.

    Spoofers override ``spoofed_id``; everyone else is their client id.
    """
    spoofed = getattr(request, "spoofed_id", None)
    if spoofed:
        return spoofed
    return request.client_id


@dataclass
class TokenBucket:
    """A standard token bucket: ``rate`` tokens/s, capacity ``burst``."""

    rate: float
    burst: float
    tokens: float
    last_refill: float

    def try_consume(self, now: float, amount: float = 1.0) -> bool:
        """Refill for elapsed time and consume ``amount`` tokens if available."""
        elapsed = now - self.last_refill
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.last_refill = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class RateLimitFilter(FilterStage):
    """Screen requests against per-identity token buckets."""

    name = "ratelimit"

    def __init__(self, settings: "RateLimitDefense") -> None:
        super().__init__()
        self.allowed_rps = settings.allowed_rps
        self.burst = max(1.0, settings.allowed_rps) if settings.burst is None else settings.burst
        self._buckets: Dict[str, TokenBucket] = {}

    def screen(
        self, request: Request, client: ClientProtocol, now: float
    ) -> Optional[str]:
        identity = observed_identity(request)
        bucket = self._buckets.get(identity)
        if bucket is None:
            bucket = TokenBucket(
                rate=self.allowed_rps,
                burst=self.burst,
                tokens=self.burst,
                last_refill=now,
            )
            self._buckets[identity] = bucket
        if bucket.try_consume(now):
            return None
        return "rate-limited"


@dataclass
class RateLimitDefense(Defense):
    """Factory for :class:`RateLimitFilter` (standalone or pipeline stage).

    ``burst`` is the bucket size; unset, it is ``max(1, allowed_rps)``.  A
    request costs one token, so a bucket smaller than one admits nobody.
    """

    name = "ratelimit"

    allowed_rps: float = 4.0
    burst: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("allowed_rps", self.allowed_rps, DefenseError)
        if self.burst is not None and not 1.0 <= self.burst < math.inf:
            raise DefenseError(f"burst must be at least 1 and finite, got {self.burst}")

    def build_filter(self, deployment, shard: int = 0) -> RateLimitFilter:
        return RateLimitFilter(self)

    def describe(self) -> str:
        return f"rate limit ({self.allowed_rps:g} req/s per address)"


registry.register(RateLimitDefense.name, RateLimitDefense)
