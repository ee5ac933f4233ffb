"""No defense: the overloaded server drops excess requests.

:class:`NoDefense` is the one home of the undefended baseline's drop policy:
``DefenseSpec.make("none", policy="fifo")`` selects FIFO admission, and the
plain ``"none"`` string means the default random drop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import POLICIES, NoDefenseThinner
from repro.core.thinner import ThinnerBase
from repro.defenses.base import Defense, registry
from repro.errors import DefenseError


@dataclass
class NoDefense(Defense):
    """The undefended baseline (the paper's "without speak-up" runs).

    ``policy`` picks which waiting request a freed server slot goes to:
    ``"random"`` (the paper's random drop) or ``"fifo"`` (the oldest).
    """

    name = "none"

    policy: str = "random"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise DefenseError(f"policy must be one of {POLICIES}, got {self.policy!r}")

    def build_thinner(self, deployment, shard: int = 0, server=None) -> ThinnerBase:
        return NoDefenseThinner(
            rng=deployment.shard_stream("admission", shard),
            policy=self.policy,
            **self.thinner_kwargs(deployment, shard, server=server),
        )

    def describe(self) -> str:
        return f"no defense ({self.policy} drop on overload)"


registry.register(NoDefense.name, NoDefense)
