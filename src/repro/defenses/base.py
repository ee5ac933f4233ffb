"""The Defense interface and registry.

A :class:`Defense` is a named factory that builds a thinner for a
deployment.  The registry lets experiments and the CLI select defenses by
name ("speakup", "ratelimit", "pow", ...) without importing each module.

Since the admission-policy redesign a defense is instantiated from a
:class:`~repro.defenses.spec.DefenseSpec` (name + typed kwargs) and builds
one thinner *per front-end shard*: :meth:`Defense.build_thinner` takes the
shard index so a §4.3 fleet gets independent per-shard policy state (own
token buckets, own engagement controller, own bid index), with the shard's
host, server, and stream-name suffix looked up through the deployment's
``shard_*`` helpers.  Defenses that can also run as a screening stage in
front of another admission policy (rate limiting, profiling, CAPTCHAs — the
paper's "other defenses" speak-up is compatible with) implement only
:meth:`Defense.build_filter`: the ``pipeline`` composite uses that stage
for its front stages, and standalone the same stage runs inside a
:class:`ScreeningThinner`, so each screening policy is written once.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import DefenseError
from repro.core.thinner import ClientProtocol, Contender, ThinnerBase
from repro.httpd.messages import Request


class FilterStage:
    """One screening stage of a pipeline defense (drop-or-pass, stateful).

    A stage sees every arriving request *before* the admission thinner does
    and either passes it through (``None``) or names a drop reason.  Stages
    keep their own screened/rejected counts so a run can attribute drops per
    stage (see :class:`~repro.metrics.collector.StageMetrics`).
    """

    #: Short identifier, normally the owning defense's registry name.
    name: str = "filter"

    def __init__(self) -> None:
        self.screened = 0
        self.rejected = 0

    def screen(
        self, request: Request, client: ClientProtocol, now: float
    ) -> Optional[str]:
        """Return a drop reason to reject ``request``, or None to pass it."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"screened={self.screened}, rejected={self.rejected})"
        )


class ScreeningThinner(ThinnerBase):
    """A screening defense run standalone: its filter stage, then FIFO.

    Every arrival goes through the defense's own :class:`FilterStage`.  A
    rejected request is dropped with the stage's bare reason
    (``"rate-limited"``); a passed one is admitted free while the server is
    idle and otherwise waits, oldest first, for the next free slot.  The
    stage keeps its screened/rejected counts, but unlike a pipeline front
    stage it reports no ``stage_metrics`` and no ``filter_*`` counters.
    """

    def __init__(self, *args, stage: FilterStage, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stage = stage

    def _handle_arrival(self, request: Request, client: ClientProtocol) -> None:
        stage = self.stage
        stage.screened += 1
        reason = stage.screen(request, client, self.engine.now)
        if reason is not None:
            stage.rejected += 1
            self._drop(request, reason)
            return
        if self._server_idle and not self.server.busy:
            contender = Contender(request=request, client=client, arrived_at=self.engine.now)
            self._admit(contender, price_bytes=0.0)
            return
        self._add_contender(request, client)

    def _server_ready(self) -> None:
        if not self._contenders:
            self._server_idle = True
            return
        self._admit(self._oldest_contender(), price_bytes=0.0)


class Defense:
    """A named strategy for protecting the server."""

    #: Short identifier used by the registry, the CLI, and benchmark tables.
    name: str = "defense"

    def build_thinner(self, deployment, shard: int = 0, server=None) -> ThinnerBase:
        """Construct this defense's thinner for one front-end shard.

        ``shard`` is 0 for the (overwhelmingly common) single-thinner
        deployments; fleets call this once per shard and every call must
        return an independent thinner.  ``server`` overrides the shard's
        server (composite defenses interpose multiplexer views).  A
        screening defense runs its :meth:`build_filter` stage in a
        :class:`ScreeningThinner`; every other defense overrides this.
        """
        return ScreeningThinner(
            stage=self.build_filter(deployment, shard),
            **self.thinner_kwargs(deployment, shard, server=server),
        )

    def build_filter(self, deployment, shard: int = 0) -> FilterStage:
        """Construct this defense as a screening stage.

        The stage fronts a pipeline, or runs standalone in a
        :class:`ScreeningThinner`.  Only detect-and-block defenses that can
        decide drop-or-pass at arrival time (rate limiting, profiling,
        CAPTCHAs) support this; everything else refuses with a one-line
        error.
        """
        raise DefenseError(
            f"defense {self.name!r} cannot run as a pipeline filter stage; "
            f"only screening defenses (ratelimit, profiling, captcha) can"
        )

    def supports_pooled_admission(self) -> bool:
        """Whether this defense works under the fleet's "pooled" mode.

        The quantum thinner suspends/resumes "the" active request, which is
        ill-defined on a shared slot another shard may hold, so the speak-up
        quantum variant (and any composite delegating to it) returns False.
        """
        return True

    def supports_fault_injection(self) -> bool:
        """Whether this defense's thinner survives a mid-run shard kill.

        Killing a shard evicts contenders and aborts the in-slot request —
        bookkeeping every thinner shares.  The quantum variant additionally
        parks *suspended* request slices on the server, which a kill would
        strand, so it (and any composite delegating to it) returns False.
        """
        return True

    def thinner_kwargs(self, deployment, shard: int = 0, server=None) -> dict:
        """The constructor kwargs every :class:`ThinnerBase` variant shares.

        ``server`` overrides the shard's server (composites such as the
        adaptive controller interpose a multiplexer view).  Every thinner
        built from these kwargs records into the deployment's one
        :class:`~repro.core.pricing.PriceBook`.
        """
        return dict(
            engine=deployment.engine,
            network=deployment.network,
            server=server if server is not None else deployment.shard_server(shard),
            host=deployment.thinner_hosts[shard],
            encouragement_delay=deployment.config.encouragement_delay,
            payment_timeout=deployment.config.payment_timeout,
            max_contenders=deployment.config.max_contenders,
            prices=deployment.prices,
        )

    def describe(self) -> str:
        """One-line human description (shown in benchmark output)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _close_matches_note(name: str, candidates) -> str:
    """A ``did you mean`` suffix for one-line errors (empty if nothing close)."""
    matches = difflib.get_close_matches(name, list(candidates), n=2, cutoff=0.6)
    if not matches:
        return ""
    quoted = " or ".join(repr(match) for match in matches)
    return f" (did you mean {quoted}?)"


class DefenseRegistry:
    """Name-to-factory registry of available defenses."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., Defense]] = {}

    def register(self, name: str, factory: Callable[..., Defense]) -> None:
        """Register a defense factory under ``name``."""
        if name in self._factories:
            raise DefenseError(f"defense {name!r} is already registered")
        self._factories[name] = factory

    def create(self, name: str, **kwargs) -> Defense:
        """Instantiate the defense registered under ``name``.

        Unknown names and unknown factory keyword arguments both raise a
        one-line :class:`~repro.errors.DefenseError` listing the valid
        choices, with ``difflib`` close-match suggestions.
        """
        try:
            factory = self._factories[name]
        except KeyError:
            known = self.names()
            raise DefenseError(
                f"unknown defense {name!r}; expected one of {known}"
                + _close_matches_note(name, known)
            ) from None
        self._check_kwargs(name, factory, kwargs)
        return factory(**kwargs)

    @staticmethod
    def _check_kwargs(name: str, factory: Callable[..., Defense], kwargs: dict) -> None:
        parameters = inspect.signature(factory).parameters
        if any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        ):
            return
        accepted = sorted(p for p in parameters if p != "self")
        for key in kwargs:
            if key not in parameters:
                raise DefenseError(
                    f"unknown parameter {key!r} for defense {name!r}; "
                    f"expected one of {accepted}"
                    + _close_matches_note(key, accepted)
                )

    def parameters(self, name: str) -> List[Tuple[str, object]]:
        """The factory's (parameter, default) pairs, in signature order."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise DefenseError(
                f"unknown defense {name!r}; expected one of {self.names()}"
            ) from None
        return [
            (
                parameter.name,
                None
                if parameter.default is inspect.Parameter.empty
                else parameter.default,
            )
            for parameter in inspect.signature(factory).parameters.values()
            if parameter.name != "self"
        ]

    def names(self) -> list[str]:
        """All registered defense names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._factories))


#: The process-wide registry; defense modules register themselves on import.
registry = DefenseRegistry()
