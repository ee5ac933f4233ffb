"""Admission policies: speak-up, its baselines, and composable layers.

§1 and §8 of the paper place speak-up in a taxonomy: massive
over-provisioning, detect-and-block (profiling, rate-limiting, CAPTCHAs,
capabilities), and currency schemes (proof-of-work, money, and — speak-up's
contribution — bandwidth).  This subpackage implements simplified but
functional versions of the detect-and-block and proof-of-work baselines so
the ablation benchmarks (``benchmarks/bench_ablation_baselines.py``) can
compare them against speak-up under the threat model the paper assumes
(spoofing, smart bots, unequal requests).

Defense selection is data: a frozen :class:`~repro.defenses.spec.DefenseSpec`
names a registered defense plus its factory kwargs, and two composites build
bigger policies out of smaller ones —

* :class:`~repro.defenses.pipeline.PipelineDefense` layers screening stages
  (ratelimit/profiling/captcha) in front of an admission defense
  (``defense="ratelimit>speakup"``), the paper's "speak-up composes with
  other defenses" point;
* :class:`~repro.defenses.adaptive.AdaptiveDefense` starts undefended and
  engages an inner defense only while a load watcher sees the server under
  attack — the paper's "the thinner does nothing in peacetime" design point.

Each screening defense is written once, as a
:class:`~repro.defenses.base.FilterStage`: a pipeline runs it as a front
stage, and standalone it runs in the generic
:class:`~repro.defenses.base.ScreeningThinner` (FIFO admission).

Attach a defense to a deployment declaratively::

    DeploymentConfig(defense=DefenseSpec.make("ratelimit", allowed_rps=4.0))

or with the historical string sugar (``defense="speakup"``), or — for
hand-built setups — via the factory hook::

    Deployment(topology, thinner_host, config,
               thinner_factory=RateLimitDefense(allowed_rps=4.0).build_thinner)
"""

from repro.defenses.base import (
    Defense,
    DefenseRegistry,
    FilterStage,
    ScreeningThinner,
    registry,
)
from repro.defenses.spec import DefenseSpec, normalise_defense
from repro.defenses.none import NoDefense
from repro.defenses.speakup import SpeakUpDefense
from repro.defenses.ratelimit import RateLimitDefense, RateLimitFilter
from repro.defenses.profiling import ProfilingDefense, ProfilingFilter
from repro.defenses.pow import ProofOfWorkDefense, ProofOfWorkThinner
from repro.defenses.captcha import CaptchaDefense, CaptchaFilter
from repro.defenses.pipeline import PipelineDefense, PipelineThinner
from repro.defenses.adaptive import AdaptiveDefense, AdaptiveThinner

__all__ = [
    "Defense",
    "DefenseRegistry",
    "DefenseSpec",
    "FilterStage",
    "ScreeningThinner",
    "normalise_defense",
    "registry",
    "NoDefense",
    "SpeakUpDefense",
    "RateLimitDefense",
    "RateLimitFilter",
    "ProfilingDefense",
    "ProfilingFilter",
    "ProofOfWorkDefense",
    "ProofOfWorkThinner",
    "CaptchaDefense",
    "CaptchaFilter",
    "PipelineDefense",
    "PipelineThinner",
    "AdaptiveDefense",
    "AdaptiveThinner",
]
