"""Population builders for the standard experiment setups.

Every experiment in §7 uses some mix of good and bad clients over a list of
hosts built by a topology helper; these functions pair hosts with client
objects so the experiment modules stay short and declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.constants import (
    BAD_CLIENT_RATE,
    BAD_CLIENT_WINDOW,
    GOOD_CLIENT_RATE,
    GOOD_CLIENT_WINDOW,
)
from repro.errors import ClientError
from repro.clients.bad import BadClient
from repro.clients.base import BaseClient, DifficultySpec, RateModulator, RetryPolicy
from repro.clients.good import GoodClient
from repro.core.frontend import Deployment
from repro.simnet.host import Host


@dataclass
class PopulationSpec:
    """Parameters for one homogeneous group of clients."""

    count: int
    client_class: str = "good"          # "good" or "bad"
    rate_rps: Optional[float] = None     # defaults per class
    window: Optional[int] = None         # defaults per class
    category: Optional[str] = None
    difficulty: DifficultySpec = 1.0
    rate_modulator: Optional[RateModulator] = None
    #: Cohort-level retry discipline for dropped uploads (``None`` keeps the
    #: historical fire-and-forget behaviour, bit for bit).
    retry_policy: Optional[RetryPolicy] = None

    def resolved_rate(self) -> float:
        if self.rate_rps is not None:
            return self.rate_rps
        return GOOD_CLIENT_RATE if self.client_class == "good" else BAD_CLIENT_RATE

    def resolved_window(self) -> int:
        if self.window is not None:
            return self.window
        return GOOD_CLIENT_WINDOW if self.client_class == "good" else BAD_CLIENT_WINDOW


def build_population(
    deployment: Deployment,
    hosts: Sequence[Host],
    specs: Sequence[PopulationSpec],
) -> List[BaseClient]:
    """Instantiate clients over ``hosts`` according to ``specs`` (in order).

    The total count across specs must equal the number of hosts.
    """
    total = sum(spec.count for spec in specs)
    if total != len(hosts):
        raise ClientError(
            f"specs ask for {total} clients but {len(hosts)} hosts were provided"
        )
    clients: List[BaseClient] = []
    host_iter = iter(hosts)
    for spec in specs:
        if spec.client_class == "good":
            factory = GoodClient
        elif spec.client_class == "bad":
            factory = BadClient
        else:
            raise ClientError(f"unknown client class {spec.client_class!r}")
        kwargs = dict(
            rate_rps=spec.resolved_rate(),
            window=spec.resolved_window(),
            category=spec.category,
            difficulty=spec.difficulty,
            rate_modulator=spec.rate_modulator,
            retry_policy=spec.retry_policy,
        )
        for _ in range(spec.count):
            host = next(host_iter)
            clients.append(factory(deployment, host, **kwargs))
    return clients


def build_mixed_population(
    deployment: Deployment,
    hosts: Sequence[Host],
    good_count: int,
    bad_count: int,
    good_rate: float = GOOD_CLIENT_RATE,
    good_window: int = GOOD_CLIENT_WINDOW,
    bad_rate: float = BAD_CLIENT_RATE,
    bad_window: int = BAD_CLIENT_WINDOW,
    good_category: Optional[str] = None,
    bad_category: Optional[str] = None,
) -> List[BaseClient]:
    """The common case: ``good_count`` good clients then ``bad_count`` bad ones."""
    specs = []
    if good_count:
        specs.append(
            PopulationSpec(
                count=good_count,
                client_class="good",
                rate_rps=good_rate,
                window=good_window,
                category=good_category,
            )
        )
    if bad_count:
        specs.append(
            PopulationSpec(
                count=bad_count,
                client_class="bad",
                rate_rps=bad_rate,
                window=bad_window,
                category=bad_category,
            )
        )
    return build_population(deployment, hosts, specs)
