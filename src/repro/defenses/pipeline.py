"""Layered admission: screening stages in front of an admission thinner.

The paper is explicit that speak-up is *compatible with other defenses*: a
profiling or blacklisting product can run in front of the thinner, blocking
the clients it can identify, while the auction prices whatever slips
through (§1's taxonomy, §8.1).  :class:`PipelineDefense` makes that layering
a first-class, declarative policy::

    DefenseSpec("pipeline", kwargs=(("stages", (
        DefenseSpec("ratelimit", (("allowed_rps", 8.0),)),
        DefenseSpec("speakup"),
    )),))

or, as CLI/scenario sugar, just ``defense="ratelimit>speakup"``.  Every
stage but the last must be a screening defense (one that implements
:meth:`~repro.defenses.base.Defense.build_filter` — rate limiting,
profiling, CAPTCHAs); the final stage is the admission policy that owns the
server.  A rejected request is dropped with a stage-qualified reason
(``"ratelimit:rate-limited"``), each stage keeps its own screened/rejected
counts (surfaced per shard as
:class:`~repro.metrics.collector.StageMetrics`), and the shared
:class:`~repro.perf.counters.SimCounters` track aggregate filter work
(``filter_screened`` / ``filter_rejected``) next to the auction counters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import DefenseError
from repro.core.thinner import ClientProtocol, ThinnerBase
from repro.defenses.base import Defense, FilterStage, registry
from repro.defenses.spec import DefenseSpec, normalise_defense
from repro.httpd.messages import Request, RequestState


class PipelineThinner:
    """Front-filter stages wrapped around an inner admission thinner.

    A thin proxy: requests rejected by a stage are dropped (attributed to
    that stage); everything else — contender bookkeeping, auctions, server
    callbacks, stats — is the inner thinner's, to which all other attribute
    access delegates.
    """

    def __init__(self, inner: ThinnerBase, stages: Sequence[FilterStage]) -> None:
        self.inner = inner
        self.stages: Tuple[FilterStage, ...] = tuple(stages)

    # -- the one intercepted entry point -----------------------------------------

    def receive_request(self, request: Request, client: ClientProtocol) -> None:
        """Screen the request through every stage, then hand it inward."""
        inner = self.inner
        now = inner.engine.now
        counters = inner.counters
        for stage in self.stages:
            stage.screened += 1
            counters.filter_screened += 1
            reason = stage.screen(request, client, now)
            if reason is not None:
                stage.rejected += 1
                counters.filter_rejected += 1
                # Mirror ThinnerBase.receive_request's bookkeeping so the
                # rejection counts as received-then-dropped, like the
                # standalone ScreeningThinner does.  An adaptive admission
                # stage is a proxy; its currently-active side owns the
                # bookkeeping.
                sink = getattr(inner, "active", inner)
                request.arrived_at = now
                request.state = RequestState.CONTENDING
                sink.stats.record_received(request)
                sink._owners[request.request_id] = client
                sink._drop(request, f"{stage.name}:{reason}")
                return
        inner.receive_request(request, client)

    # -- explicit delegations (the hot client-facing surface) ---------------------

    def register_payment(self, request: Request, channel) -> None:
        self.inner.register_payment(request, channel)

    @property
    def stage_metrics(self) -> List[Tuple[str, int, int]]:
        """Per-stage (name, screened, rejected) triples, pipeline order."""
        return [(stage.name, stage.screened, stage.rejected) for stage in self.stages]

    def __getattr__(self, item):
        # Everything else (stats, prices, contenders, engine, shutdown, ...)
        # belongs to the inner admission thinner.
        return getattr(self.inner, item)


StageSpec = Union[str, dict, DefenseSpec]


class PipelineDefense(Defense):
    """Compose screening defenses in front of an admission defense."""

    name = "pipeline"

    def __init__(self, stages: Optional[Sequence[StageSpec]] = None) -> None:
        if stages is None:
            stages = (DefenseSpec("ratelimit"), DefenseSpec("speakup"))
        self.stages: Tuple[DefenseSpec, ...] = tuple(
            normalise_defense(stage) for stage in stages
        )
        if not self.stages:
            raise DefenseError("a pipeline defense needs at least one stage")
        for spec in self.stages:
            if spec.name == self.name:
                raise DefenseError("pipelines do not nest; flatten the stages")
        self._admission = self.stages[-1].create()
        # Instantiating the front defenses here makes a non-screening stage
        # (one that does not override Defense.build_filter) fail at spec
        # validation time, not mid-deployment-construction.
        self._front_defenses = [spec.create() for spec in self.stages[:-1]]
        for front in self._front_defenses:
            if type(front).build_filter is Defense.build_filter:
                raise DefenseError(
                    f"defense {front.name!r} cannot run as a pipeline filter "
                    f"stage; only screening defenses (ratelimit, profiling, "
                    f"captcha) can front a pipeline"
                )

    def build_thinner(self, deployment, shard: int = 0, server=None):
        inner = self._admission.build_thinner(deployment, shard, server=server)
        fronts = [
            front.build_filter(deployment, shard) for front in self._front_defenses
        ]
        if not fronts:
            return inner
        return PipelineThinner(inner, fronts)

    def supports_pooled_admission(self) -> bool:
        return self._admission.supports_pooled_admission()

    def supports_fault_injection(self) -> bool:
        return self._admission.supports_fault_injection()

    def describe(self) -> str:
        return "pipeline (" + " > ".join(spec.label() for spec in self.stages) + ")"


registry.register(PipelineDefense.name, PipelineDefense)
