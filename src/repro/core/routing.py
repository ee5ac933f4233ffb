"""Pluggable client→shard dispatch strategies for the thinner fleet (§4.3).

Dispatch is a **strategy registry**: each strategy is a small stateless
object that picks a shard for a client, reading whatever router state (pin
counts) or live measurements (probe signals) it needs.  The three original
policies (``hash`` / ``least-loaded`` / ``random``) come first, and three
load-aware strategies join them:

* ``power-of-two``  — two uniform draws, keep the better-probing one.  The
  classic result: almost all the balance of least-loaded at a fraction of
  the information cost.  With no probe signal it degrades to a single
  uniform draw — literally the ``random`` policy.
* ``weighted-sink`` — roulette-wheel draw weighted by a measured signal,
  intended for the ``sink-rate`` probe (shards sinking payment bytes faster
  attract proportionally more clients).
* ``sticky-spill``  — consistent hashing (the ``hash`` policy) until the
  primary shard exceeds ``spill_factor`` times its fair share of pins, then
  spill to the least-loaded shard.  Sticky in the common case, bounded skew
  in the worst case.

Strategy configuration is a frozen, JSON-round-trippable :class:`RouterSpec`,
carried by the one ``shard_policy`` field of ``DeploymentConfig`` and
``ScenarioSpec``.  A plain strategy name there stands for that strategy's
default spec (:func:`as_router_spec`), so ``"hash"`` and
``RouterSpec(name="hash")`` are the same setting.  Spec fields are sweepable
(``shard_policy.probe_window_s``), and strategies compose with the
fault-injection and health-probing layers, which only ever talk to the
router through ``set_alive`` / ``set_ejected`` / ``reassign``.

Probe signals (how a load-aware strategy observes a shard):

* ``pins``       — clients currently pinned (the router's own counts);
* ``contenders`` — open payment contenders at the shard's thinner;
* ``sink-rate``  — payment bytes/s the shard's thinner sank over the last
  ``probe_window_s`` window (a :class:`SinkRateProbe`);
* ``none``       — no signal (exercises the degraded paths).

``pins``/``contenders`` are *load* signals (lower is better); ``sink-rate``
is a *rate* signal (higher is better).  Probes only read state — they never
schedule events or touch flow state — so attaching one cannot perturb a
run's event sequence.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import codec
from repro.errors import ThinnerError
from repro.rng import RandomStream

#: Probe signals a load-aware strategy may consume.
PROBE_SIGNALS = ("pins", "contenders", "sink-rate", "none")


@dataclass(frozen=True)
class RouterSpec:
    """A JSON-round-trippable dispatch-strategy configuration.

    ``name`` selects a registered strategy; ``probe`` selects the signal the
    load-aware strategies observe; ``probe_window_s`` sizes the
    ``sink-rate`` measurement window; ``spill_factor`` bounds
    ``sticky-spill``'s per-shard skew (a shard may hold at most
    ``spill_factor`` times its fair share of pins before spilling).
    """

    name: str = "hash"
    probe: str = "pins"
    probe_window_s: float = 0.5
    spill_factor: float = 1.25

    def validate(self) -> None:
        if self.name not in ROUTER_STRATEGIES:
            raise ThinnerError(
                f"unknown router strategy {self.name!r}; "
                f"expected one of {ROUTER_STRATEGY_NAMES}"
            )
        if self.probe not in PROBE_SIGNALS:
            raise ThinnerError(
                f"unknown router probe {self.probe!r}; expected one of {PROBE_SIGNALS}"
            )
        if self.probe_window_s <= 0:
            raise ThinnerError(
                f"router probe_window_s must be positive, got {self.probe_window_s}"
            )
        if self.spill_factor < 1.0:
            raise ThinnerError(
                f"router spill_factor must be at least 1.0, got {self.spill_factor}"
            )

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


class Probe:
    """A per-shard measurement with a direction: ``load`` (lower is better)
    or ``rate`` (higher is better)."""

    def __init__(self, fn: Callable[["ShardRouter", int], float], kind: str) -> None:
        if kind not in ("load", "rate"):
            raise ThinnerError(f"probe kind must be 'load' or 'rate', got {kind!r}")
        self._fn = fn
        self.kind = kind

    def __call__(self, router: "ShardRouter", shard: int) -> float:
        return self._fn(router, shard)


class SinkRateProbe(Probe):
    """Payment bytes/s each shard's thinner sank over the last window.

    Snapshots ``thinner.stats.payment_bytes_sunk`` at most once per
    ``window_s`` of simulated time and differentiates against the previous
    snapshot.  Purely observational: no events are scheduled, so the probe
    cannot perturb the run it measures.
    """

    def __init__(self, deployment, window_s: float) -> None:
        super().__init__(self._rate, "rate")
        self.deployment = deployment
        self.window_s = window_s
        self._snapshot_at: Optional[float] = None
        self._snapshot: List[float] = []
        self._rates: List[float] = []

    def _roll(self, now: float) -> None:
        current = [t.stats.payment_bytes_sunk for t in self.deployment.thinners]
        if self._snapshot_at is None:
            self._rates = [0.0] * len(current)
        else:
            elapsed = now - self._snapshot_at
            self._rates = [
                (new - old) / elapsed if elapsed > 0 else 0.0
                for new, old in zip(current, self._snapshot)
            ]
        self._snapshot = current
        self._snapshot_at = now

    def _rate(self, router: "ShardRouter", shard: int) -> float:
        now = self.deployment.engine.now
        if self._snapshot_at is None or now - self._snapshot_at >= self.window_s:
            self._roll(now)
        return self._rates[shard]


def build_probe(deployment, spec: RouterSpec) -> Optional[Probe]:
    """The probe callable a :class:`ShardRouter` should observe, or ``None``."""
    if spec.probe == "none":
        return None
    if spec.probe == "pins":
        return Probe(lambda router, shard: float(router.counts[shard]), "load")
    if spec.probe == "contenders":
        return Probe(
            lambda router, shard: float(len(deployment.thinners[shard]._contenders)),
            "load",
        )
    return SinkRateProbe(deployment, spec.probe_window_s)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _hash_index(client_name: str, buckets: int) -> int:
    return zlib.crc32(client_name.encode("utf-8")) % buckets


def _probe_prefers(probe: Probe, router: "ShardRouter", b: int, a: int) -> bool:
    """True when the probe says shard ``b`` is strictly better than ``a``."""
    if probe.kind == "load":
        return probe(router, b) < probe(router, a)
    return probe(router, b) > probe(router, a)


class _HashStrategy:
    """Stable CRC32 of the client host name — consistent hashing."""

    name = "hash"
    needs_rng = False

    def assign(self, router: "ShardRouter", client_name: str) -> int:
        return _hash_index(client_name, router.shards)

    def reassign(self, router: "ShardRouter", client_name: str, live: List[int]) -> int:
        return live[_hash_index(client_name, len(live))]


class _LeastLoadedStrategy:
    """The shard with the fewest pinned clients (ties to the lowest index)."""

    name = "least-loaded"
    needs_rng = False

    def assign(self, router: "ShardRouter", client_name: str) -> int:
        return min(range(router.shards), key=lambda i: (router.counts[i], i))

    def reassign(self, router: "ShardRouter", client_name: str, live: List[int]) -> int:
        return min(live, key=lambda i: (router.counts[i], i))


class _RandomStrategy:
    """One uniform draw per client from the seeded dispatch stream."""

    name = "random"
    needs_rng = True

    def assign(self, router: "ShardRouter", client_name: str) -> int:
        return router.rng.randint(0, router.shards - 1)

    def reassign(self, router: "ShardRouter", client_name: str, live: List[int]) -> int:
        return live[router.rng.randint(0, len(live) - 1)]


class _PowerOfTwoStrategy:
    """Two uniform draws, keep the one the probe prefers.

    With no probe signal the second draw carries no information, so the
    strategy performs exactly one uniform draw — byte-identical to the
    ``random`` policy (the regression tests pin this degradation).
    """

    name = "power-of-two"
    needs_rng = True

    def assign(self, router: "ShardRouter", client_name: str) -> int:
        probe = router.probe
        if probe is None:
            return router.rng.randint(0, router.shards - 1)
        a = router.rng.randint(0, router.shards - 1)
        b = router.rng.randint(0, router.shards - 1)
        return b if _probe_prefers(probe, router, b, a) else a

    def reassign(self, router: "ShardRouter", client_name: str, live: List[int]) -> int:
        probe = router.probe
        if probe is None:
            return live[router.rng.randint(0, len(live) - 1)]
        a = live[router.rng.randint(0, len(live) - 1)]
        b = live[router.rng.randint(0, len(live) - 1)]
        return b if _probe_prefers(probe, router, b, a) else a


class _WeightedSinkStrategy:
    """Roulette-wheel draw weighted by the probe signal.

    ``rate`` probes weight shards directly (faster sink, more clients);
    ``load`` probes weight by ``1 / (1 + load)``.  With no signal — probe
    absent, or every weight zero — the draw falls back to uniform.
    """

    name = "weighted-sink"
    needs_rng = True

    def _pick(self, router: "ShardRouter", candidates: List[int]) -> int:
        probe = router.probe
        if probe is None:
            return candidates[router.rng.randint(0, len(candidates) - 1)]
        if probe.kind == "rate":
            weights = [max(probe(router, i), 0.0) for i in candidates]
        else:
            weights = [1.0 / (1.0 + max(probe(router, i), 0.0)) for i in candidates]
        total = sum(weights)
        if total <= 0.0:
            return candidates[router.rng.randint(0, len(candidates) - 1)]
        target = router.rng.random() * total
        acc = 0.0
        for index, weight in zip(candidates, weights):
            acc += weight
            if target < acc:
                return index
        return candidates[-1]

    def assign(self, router: "ShardRouter", client_name: str) -> int:
        return self._pick(router, list(range(router.shards)))

    def reassign(self, router: "ShardRouter", client_name: str, live: List[int]) -> int:
        return self._pick(router, live)


class _StickySpillStrategy:
    """Consistent hashing with a bounded-skew escape hatch.

    Each client's primary shard is its CRC32 bucket (identical to ``hash``).
    The primary is used unless accepting the client would push its pin count
    past ``spill_factor`` times the fair share, in which case the client
    spills to the least-loaded shard.
    """

    name = "sticky-spill"
    needs_rng = False

    def _pick(self, router: "ShardRouter", primary: int, candidates: List[int]) -> int:
        assigned = sum(router.counts[i] for i in candidates)
        # Floor the threshold at one pin: at low occupancy the fair share is
        # below a single client, and spilling a lone client would reduce the
        # strategy to least-loaded exactly when stickiness is cheapest.
        limit = max(
            1.0, router.spec.spill_factor * (assigned + 1) / len(candidates)
        )
        if router.counts[primary] + 1 <= limit:
            return primary
        return min(candidates, key=lambda i: (router.counts[i], i))

    def assign(self, router: "ShardRouter", client_name: str) -> int:
        primary = _hash_index(client_name, router.shards)
        return self._pick(router, primary, list(range(router.shards)))

    def reassign(self, router: "ShardRouter", client_name: str, live: List[int]) -> int:
        primary = live[_hash_index(client_name, len(live))]
        return self._pick(router, primary, live)


#: The strategy registry: name → stateless strategy object.  All per-router
#: state (counts, masks, rng, probe) lives on the :class:`ShardRouter`.
ROUTER_STRATEGIES: Dict[str, Any] = {}


def register_strategy(strategy) -> None:
    """Register a dispatch strategy (``name``/``needs_rng``/``assign``/``reassign``)."""
    ROUTER_STRATEGIES[strategy.name] = strategy


for _strategy in (
    _HashStrategy(),
    _LeastLoadedStrategy(),
    _RandomStrategy(),
    _PowerOfTwoStrategy(),
    _WeightedSinkStrategy(),
    _StickySpillStrategy(),
):
    register_strategy(_strategy)

#: Every registered strategy name, the original three policies first.
ROUTER_STRATEGY_NAMES: Tuple[str, ...] = tuple(ROUTER_STRATEGIES)


def as_router_spec(policy: Union[str, RouterSpec]) -> RouterSpec:
    """A ``shard_policy`` value as a validated :class:`RouterSpec`.

    A spec is returned as is; a registered strategy's name stands for that
    strategy's default spec.  Raises a one-line :class:`ThinnerError` for
    anything else.
    """
    if isinstance(policy, str):
        policy = RouterSpec(name=policy)
    elif not isinstance(policy, RouterSpec):
        raise ThinnerError(
            f"a shard policy is a strategy name or a RouterSpec, got {policy!r}"
        )
    policy.validate()
    return policy


def strategy_needs_rng(name: str) -> bool:
    """Whether the named strategy draws from the dispatch stream."""
    if name not in ROUTER_STRATEGIES:
        raise ThinnerError(
            f"unknown router strategy {name!r}; expected one of {ROUTER_STRATEGY_NAMES}"
        )
    return ROUTER_STRATEGIES[name].needs_rng


class ShardRouter:
    """Assigns each client to one thinner shard, deterministically.

    ``policy`` is a :class:`RouterSpec` or the name of any registered
    strategy (see :func:`as_router_spec`):

    * ``hash``          — stable hash of the client's host name (CRC32), the
      consistent-hashing analogue: the same client lands on the same shard
      in every run and regardless of registration order;
    * ``least-loaded``  — the shard with the fewest assigned clients so far
      (ties to the lowest index), i.e. a perfectly informed balancer;
    * ``random``        — a uniform draw per client from the deployment's
      seeded ``"shard-dispatch"`` stream, i.e. naive DNS round-robin with
      client-side caching;
    * ``power-of-two``  — two uniform draws, keep the better-probing one;
    * ``weighted-sink`` — roulette-wheel draw weighted by the probe signal;
    * ``sticky-spill``  — hash until the primary exceeds ``spill_factor``
      times its fair share, then spill to the least-loaded shard.

    Assignments are made once, at client registration, and never migrate on
    their own — matching §4.3's sketch, where a client resolves to one
    front-end and keeps paying it.  The exception is failover: the fault
    injector marks killed shards dead in the router's liveness mask
    (:meth:`set_alive`) and :meth:`reassign`\\ s each affected client to a
    surviving shard once its DNS-TTL re-pin lag expires.
    """

    def __init__(
        self,
        shards: int,
        policy: Union[str, RouterSpec] = "hash",
        rng: Optional[RandomStream] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        if shards < 1:
            raise ThinnerError(f"shards must be at least 1, got {shards}")
        spec = as_router_spec(policy)
        strategy = ROUTER_STRATEGIES[spec.name]
        if strategy.needs_rng and shards > 1 and rng is None:
            raise ThinnerError(f"the {spec.name!r} shard policy needs a seeded stream")
        self.shards = shards
        self.spec = spec
        self.policy = spec.name
        self.rng = rng
        self.probe = probe
        self._strategy = strategy
        #: Clients currently pinned to each shard (drives ``least-loaded``).
        self.counts: List[int] = [0] * shards
        #: Liveness mask maintained by the fault injector; initial
        #: assignment ignores it (every shard is alive before the run), but
        #: :meth:`reassign` only ever lands on live shards.
        self.alive: List[bool] = [True] * shards
        #: Ejection mask maintained by the :class:`HealthProber`: an ejected
        #: shard is up but judged sick, so :meth:`reassign` routes around it
        #: while the fault injector's liveness mask is left untouched.
        self.ejected: List[bool] = [False] * shards

    def set_alive(self, shard: int, alive: bool) -> None:
        """Mark ``shard`` dead or alive in the dispatch candidate set."""
        if not 0 <= shard < self.shards:
            raise ThinnerError(f"shard {shard} out of range for {self.shards} shard(s)")
        self.alive[shard] = alive

    def set_ejected(self, shard: int, ejected: bool) -> None:
        """Mark ``shard`` health-ejected (routed around) or readmitted."""
        if not 0 <= shard < self.shards:
            raise ThinnerError(f"shard {shard} out of range for {self.shards} shard(s)")
        self.ejected[shard] = ejected

    def live_shards(self) -> List[int]:
        """Indices of the shards currently in the candidate set."""
        return [index for index, alive in enumerate(self.alive) if alive]

    def routable_shards(self) -> List[int]:
        """Live shards that are not health-ejected (the re-pin candidates)."""
        return [
            index
            for index, alive in enumerate(self.alive)
            if alive and not self.ejected[index]
        ]

    def reassign(self, client_name: str, from_shard: int) -> int:
        """Re-pin a failed-over client to a live shard, policy-consistently.

        ``hash`` rehashes over the live shards (consistent hashing after a
        node leaves the ring), ``least-loaded`` picks the live shard with the
        fewest current pins, and ``random`` redraws from the same seeded
        stream as initial dispatch; the load-aware strategies re-run their
        pick over the live candidate set.  The old pin's count is released so
        pin-counting strategies track live populations, not history.  Ejected
        shards are avoided while any non-ejected live shard remains; when
        the prober has ejected everything that is still up, liveness wins
        (a sick front-end beats no front-end).
        """
        live = self.routable_shards()
        if not live:
            live = self.live_shards()
        if not live:
            raise ThinnerError("cannot reassign: no live shards")
        self.counts[from_shard] -= 1
        if len(live) == 1:
            index = live[0]
        else:
            index = self._strategy.reassign(self, client_name, live)
        self.counts[index] += 1
        return index

    def assign(self, client_name: str) -> int:
        """The shard index for ``client_name`` (counts it as assigned)."""
        if self.shards == 1:
            # Single-thinner deployments take this path for every client;
            # keep it free of hashing and RNG draws.
            self.counts[0] += 1
            return 0
        index = self._strategy.assign(self, client_name)
        self.counts[index] += 1
        return index
