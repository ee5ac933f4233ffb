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

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import DefenseError, check_non_negative, check_positive
from repro.core.thinner import ClientProtocol
from repro.defenses.base import Defense, FilterStage, registry
from repro.defenses.ratelimit import TokenBucket, observed_identity
from repro.httpd.messages import Request


class ProfilingFilter(FilterStage):
    """Enforce a learned (or given) per-identity demand profile."""

    name = "profiling"

    def __init__(self, settings: "ProfilingDefense") -> None:
        super().__init__()
        self.settings = settings
        self._observed: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}

    def allowed_rate(self, identity: str) -> float:
        """The request rate the profile permits for ``identity``."""
        settings = self.settings
        baseline = settings.baseline_profile or {}
        if identity in baseline:
            return baseline[identity] * settings.slack_factor
        if settings.learning_period > 0 and identity in self._observed:
            learned = self._observed[identity] / settings.learning_period
            return max(learned, 0.1) * settings.slack_factor
        return settings.default_allowed_rps

    def screen(
        self, request: Request, client: ClientProtocol, now: float
    ) -> Optional[str]:
        identity = observed_identity(request)
        if now < self.settings.learning_period:
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


@dataclass
class ProfilingDefense(Defense):
    """Factory for :class:`ProfilingFilter` (standalone or pipeline stage)."""

    name = "profiling"

    baseline_profile: Optional[Dict[str, float]] = None
    default_allowed_rps: float = 4.0
    learning_period: float = 0.0
    slack_factor: float = 1.5

    def __post_init__(self) -> None:
        for identity, rate in (self.baseline_profile or {}).items():
            check_non_negative(f"baseline_profile[{identity!r}]", rate, DefenseError)
        check_positive("default_allowed_rps", self.default_allowed_rps, DefenseError)
        check_non_negative("learning_period", self.learning_period, DefenseError)
        if not 1.0 <= self.slack_factor < math.inf:
            raise DefenseError(f"slack_factor must be at least 1 and finite, got {self.slack_factor}")

    def build_filter(self, deployment, shard: int = 0) -> ProfilingFilter:
        return ProfilingFilter(self)

    def describe(self) -> str:
        return f"profiling (default {self.default_allowed_rps:g} req/s, slack {self.slack_factor:g}x)"


registry.register(ProfilingDefense.name, ProfilingDefense)
