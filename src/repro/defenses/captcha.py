"""CAPTCHA / proof-of-humanity admission (a detect-and-block baseline).

§8.1: CAPTCHA defenses preferentially admit humans, but "can be thwarted by
bad humans ... or good bots (legitimate, non-human clientele or humans who
do not answer CAPTCHAs)".  We model each client class with a probability of
solving the challenge; requests whose challenge goes unsolved are dropped.
Setting a non-trivial solve probability for bad clients models hired
CAPTCHA farms; setting a sub-1.0 probability for good clients models
legitimate automated clientele (condition C4) that simply cannot answer.

As with the other detect-and-block defenses, the policy is one screening
stage, :class:`CaptchaFilter`.  Standalone it runs in a
:class:`~repro.defenses.base.ScreeningThinner` (FIFO admission for whoever
answers); in a pipeline it screens contenders ahead of another admission
policy, e.g. ``"captcha>speakup"``: humans-only first,
bandwidth-proportional pricing for whoever passes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import DefenseError
from repro.core.thinner import ClientProtocol
from repro.defenses.base import Defense, FilterStage, registry
from repro.httpd.messages import Request
from repro.rng import RandomStream

#: Default solve probabilities per client class.
DEFAULT_SOLVE_PROBABILITIES = {"good": 0.95, "bad": 0.05}


def _merged_probabilities(overrides: Optional[Dict[str, float]]) -> Dict[str, float]:
    probabilities = dict(DEFAULT_SOLVE_PROBABILITIES)
    if overrides:
        probabilities.update(overrides)
    for cls, probability in probabilities.items():
        if not 0.0 <= probability <= 1.0:
            raise DefenseError(f"solve probability for {cls!r} must be in [0, 1]")
    return probabilities


class CaptchaFilter(FilterStage):
    """Screen requests by a per-class challenge-solve probability."""

    name = "captcha"

    def __init__(
        self,
        rng: RandomStream,
        solve_probabilities: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__()
        self.rng = rng
        self.solve_probabilities = _merged_probabilities(solve_probabilities)

    def screen(
        self, request: Request, client: ClientProtocol, now: float
    ) -> Optional[str]:
        probability = self.solve_probabilities.get(request.client_class, 1.0)
        if self.rng.bernoulli(probability):
            return None
        return "captcha-failed"


class CaptchaDefense(Defense):
    """Factory for :class:`CaptchaFilter` (standalone or pipeline stage)."""

    name = "captcha"

    def __init__(self, solve_probabilities: Optional[Dict[str, float]] = None) -> None:
        self.solve_probabilities = solve_probabilities

    def build_filter(self, deployment, shard: int = 0) -> CaptchaFilter:
        return CaptchaFilter(
            rng=deployment.shard_stream("captcha", shard),
            solve_probabilities=self.solve_probabilities,
        )

    def describe(self) -> str:
        return "captcha (proof of humanity)"


registry.register(CaptchaDefense.name, CaptchaDefense)
