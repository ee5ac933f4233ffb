"""Historical profiling (the most commonly deployed detect-and-block defense).

§8.1: profiling products "build a historical profile of the defended
server's clientele and, when the server is attacked, block traffic violating
the profile".  We model the profile as a per-identity allowed request rate:
either supplied explicitly (what the operator learned before the attack) or
learned during the first ``learning_period`` seconds of the run.  The known
weakness the paper emphasises — bots smart enough to fly under the profiling
radar, or that built up a profile before attacking — corresponds here to bad
clients whose request rate stays at or below the learned baseline.

Profiling is exactly the front-filter the paper imagines layering *ahead* of
speak-up ("a profiling defense might run in front of the thinner, blocking
clients that violate the profile while the auction prices the rest").  The
policy is one screening stage, :class:`ProfilingFilter`: the ``pipeline``
composite puts it in front of another admission policy, and standalone it
runs in a :class:`~repro.defenses.base.ScreeningThinner` (FIFO admission).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import DefenseError
from repro.core.thinner import ClientProtocol
from repro.defenses.base import Defense, FilterStage, registry
from repro.defenses.ratelimit import TokenBucket, observed_identity
from repro.httpd.messages import Request


class ProfilingFilter(FilterStage):
    """Enforce a learned (or given) per-identity demand profile."""

    name = "profiling"

    def __init__(
        self,
        baseline_profile: Optional[Dict[str, float]] = None,
        default_allowed_rps: float = 4.0,
        learning_period: float = 0.0,
        slack_factor: float = 1.5,
    ) -> None:
        super().__init__()
        if default_allowed_rps <= 0:
            raise DefenseError("default_allowed_rps must be positive")
        if slack_factor < 1.0:
            raise DefenseError("slack_factor must be at least 1.0")
        self.baseline_profile = dict(baseline_profile or {})
        self.default_allowed_rps = default_allowed_rps
        self.learning_period = learning_period
        self.slack_factor = slack_factor
        self._observed: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}

    def allowed_rate(self, identity: str) -> float:
        """The request rate the profile permits for ``identity``."""
        if identity in self.baseline_profile:
            return self.baseline_profile[identity] * self.slack_factor
        if self.learning_period > 0 and identity in self._observed:
            learned = self._observed[identity] / self.learning_period
            return max(learned, 0.1) * self.slack_factor
        return self.default_allowed_rps

    def screen(
        self, request: Request, client: ClientProtocol, now: float
    ) -> Optional[str]:
        identity = observed_identity(request)
        if now < self.learning_period:
            # Still learning: count the identity's demand and pass it.
            self._observed[identity] = self._observed.get(identity, 0) + 1
            return None
        bucket = self._buckets.get(identity)
        if bucket is None:
            rate = self.allowed_rate(identity)
            bucket = TokenBucket(rate=rate, burst=max(1.0, rate), tokens=max(1.0, rate),
                                 last_refill=now)
            self._buckets[identity] = bucket
        if bucket.try_consume(now):
            return None
        return "profile-violation"


class ProfilingDefense(Defense):
    """Factory for :class:`ProfilingFilter` (standalone or pipeline stage)."""

    name = "profiling"

    def __init__(
        self,
        baseline_profile: Optional[Dict[str, float]] = None,
        default_allowed_rps: float = 4.0,
        learning_period: float = 0.0,
        slack_factor: float = 1.5,
    ) -> None:
        self.baseline_profile = baseline_profile
        self.default_allowed_rps = default_allowed_rps
        self.learning_period = learning_period
        self.slack_factor = slack_factor

    def build_filter(self, deployment, shard: int = 0) -> ProfilingFilter:
        return ProfilingFilter(
            baseline_profile=self.baseline_profile,
            default_allowed_rps=self.default_allowed_rps,
            learning_period=self.learning_period,
            slack_factor=self.slack_factor,
        )

    def describe(self) -> str:
        return f"profiling (default {self.default_allowed_rps:g} req/s, slack {self.slack_factor:g}x)"


registry.register(ProfilingDefense.name, ProfilingDefense)
