"""Speak-up packaged as a Defense (the paper's contribution).

:class:`SpeakUpDefense` is the one home of its variant's settings: the
quantum variant's quantum length is ``DefenseSpec.make("speakup",
variant="quantum", quantum_seconds=...)``; its suspended-request abort
timeout is :class:`~repro.core.quantum.QuantumAuctionThinner`'s own default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.auction import VirtualAuctionThinner
from repro.core.quantum import QuantumAuctionThinner
from repro.core.retry import RandomDropThinner
from repro.core.thinner import ThinnerBase
from repro.defenses.base import Defense, registry
from repro.errors import DefenseError, check_positive

#: The three speak-up encouragement/allocation mechanisms.
VARIANTS = ("auction", "retry", "quantum")


@dataclass
class SpeakUpDefense(Defense):
    """Bandwidth-as-currency defense; variant selects the mechanism.

    ``quantum_seconds`` applies to the ``"quantum"`` variant only; left
    unset, a quantum is the server's mean service time.
    """

    name = "speakup"

    variant: str = "auction"
    quantum_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DefenseError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.quantum_seconds is not None:
            check_positive("quantum_seconds", self.quantum_seconds, DefenseError)

    def build_thinner(self, deployment, shard: int = 0, server=None) -> ThinnerBase:
        common = self.thinner_kwargs(deployment, shard, server=server)
        if self.variant == "auction":
            return VirtualAuctionThinner(**common)
        if self.variant == "retry":
            return RandomDropThinner(
                rng=deployment.shard_stream("retry-lottery", shard), **common
            )
        return QuantumAuctionThinner(quantum_seconds=self.quantum_seconds, **common)

    def supports_pooled_admission(self) -> bool:
        # The quantum variant suspends/resumes the active request, which is
        # ill-defined on a pooled slot another shard may hold.
        return self.variant != "quantum"

    def supports_fault_injection(self) -> bool:
        # A shard kill would strand the quantum variant's suspended slices.
        return self.variant != "quantum"

    def describe(self) -> str:
        return f"speak-up ({self.variant})"


registry.register(SpeakUpDefense.name, SpeakUpDefense)
