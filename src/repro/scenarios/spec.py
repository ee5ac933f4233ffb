"""Scenarios as data: frozen, JSON-serialisable descriptions of a whole run.

A :class:`ScenarioSpec` captures everything a run needs — topology, client
population, defense, deployment knobs, duration, and seed — as plain frozen
dataclasses, so a scenario can be hashed, pickled to a worker process,
written to a results file, and rebuilt from JSON bit-for-bit.  ``build()``
turns the spec into a ready :class:`~repro.core.frontend.Deployment`;
``run()`` executes it and returns the :class:`~repro.metrics.collector.RunResult`.

Non-steady demand (flash crowds, pulsed attackers, diurnal load) is part of
the data model too: each client group carries an :class:`ArrivalSpec` whose
multiplier shapes the group's non-homogeneous Poisson arrival process.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.constants import DEFAULT_CLIENT_BANDWIDTH
from repro.errors import ClientError, ExperimentError
from repro.clients.base import RetryPolicy
from repro.clients.population import PopulationSpec, build_population
from repro.core.fleet import HealthProbeSpec
from repro.core.frontend import CrossTrafficDriver, Deployment, DeploymentConfig
from repro.core.routing import RouterSpec
from repro.defenses.spec import DefenseSpec
from repro.faults.spec import FaultPlan
from repro.metrics.collector import RunResult
from repro.telemetry.spec import TelemetrySpec
from repro.simnet.topology import (
    DEFAULT_LAN_DELAY,
    DEFAULT_THINNER_BANDWIDTH,
    build_bottleneck,
    build_dumbbell,
    build_fat_tree,
    build_fleet,
    build_lan,
    build_leaf_spine,
)

#: Topology shapes a spec can describe: the paper's three Emulab setups plus
#: the datacenter fabrics the §4.3 fleet scales into.
TOPOLOGY_KINDS = ("lan", "bottleneck", "dumbbell", "fat-tree", "leaf-spine")

#: The hierarchical datacenter fabric kinds (multi-tier, ECMP-routed).
FABRIC_KINDS = ("fat-tree", "leaf-spine")

#: Arrival-process shapes a client group can follow.
ARRIVAL_KINDS = ("steady", "onoff", "flash", "diurnal")


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSpec:
    """How a group's demand varies over the run.

    ``rate_rps`` on the group is the *peak* Poisson rate; the modulator maps
    simulated time to a multiplier in [0, 1] and arrivals are realised by
    thinning, so runs stay deterministic under a fixed seed.

    * ``steady``  — the paper's workload: a constant-rate Poisson process.
    * ``onoff``   — pulsed demand: full rate for ``on_s`` seconds out of every
      ``period_s`` (shifted by ``phase_s``), ``floor`` otherwise.  Models
      on-off/pulsed attackers.
    * ``flash``   — ``floor`` until ``start_s``, then a linear ramp over
      ``ramp_s`` seconds up to the full rate.  Models a flash crowd.
    * ``diurnal`` — a raised-cosine day: trough ``floor`` at ``phase_s``
      offsets of the ``period_s``-second "day", peak mid-period.
    """

    kind: str = "steady"
    period_s: float = 0.0
    on_s: float = 0.0
    phase_s: float = 0.0
    start_s: float = 0.0
    ramp_s: float = 0.0
    floor: float = 0.0

    def validate(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ExperimentError(
                f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}"
            )
        if not 0.0 <= self.floor <= 1.0:
            raise ExperimentError(f"arrival floor must be in [0, 1], got {self.floor}")
        if self.kind == "onoff":
            if self.period_s <= 0:
                raise ExperimentError("onoff arrivals need a positive period_s")
            if not 0 < self.on_s <= self.period_s:
                raise ExperimentError("onoff arrivals need 0 < on_s <= period_s")
        if self.kind == "diurnal" and self.period_s <= 0:
            raise ExperimentError("diurnal arrivals need a positive period_s")
        if self.kind == "flash" and (self.start_s < 0 or self.ramp_s < 0):
            raise ExperimentError("flash arrivals need non-negative start_s and ramp_s")

    def modulator(self) -> Optional[Callable[[float], float]]:
        """The multiplier function, or None for a steady process."""
        self.validate()
        if self.kind == "steady":
            return None
        if self.kind == "onoff":
            period, on, phase, floor = self.period_s, self.on_s, self.phase_s, self.floor

            def onoff(now: float) -> float:
                return 1.0 if ((now + phase) % period) < on else floor

            return onoff
        if self.kind == "flash":
            start, ramp, floor = self.start_s, self.ramp_s, self.floor

            def flash(now: float) -> float:
                if now < start:
                    return floor
                if ramp <= 0 or now >= start + ramp:
                    return 1.0
                return floor + (1.0 - floor) * (now - start) / ramp

            return flash
        period, phase, floor = self.period_s, self.phase_s, self.floor

        def diurnal(now: float) -> float:
            cycle = ((now + phase) % period) / period
            return floor + (1.0 - floor) * 0.5 * (1.0 - math.cos(2.0 * math.pi * cycle))

        return diurnal

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArrivalSpec":
        return cls(**data)


# ---------------------------------------------------------------------------
# Population groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """One homogeneous group of clients in a scenario.

    ``rate_rps``/``window`` default per class (the paper's §7.1 parameters).
    ``behind_bottleneck`` places the group behind the shared cable in
    ``bottleneck`` topologies; ``extra_delay_s`` adds one-way host delay in
    ``lan`` topologies (the Figure 7 RTT knob).
    """

    count: int
    client_class: str = "good"
    bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH
    rate_rps: Optional[float] = None
    window: Optional[int] = None
    category: Optional[str] = None
    extra_delay_s: float = 0.0
    behind_bottleneck: bool = False
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: Per-group retry discipline; overrides the scenario-level
    #: :attr:`ScenarioSpec.retry_policy` when set.
    retry_policy: Optional[RetryPolicy] = None

    def validate(self) -> None:
        if self.count < 0:
            raise ExperimentError(f"group count must be non-negative, got {self.count}")
        if self.client_class not in ("good", "bad"):
            raise ExperimentError(f"unknown client class {self.client_class!r}")
        if self.bandwidth_bps <= 0:
            raise ExperimentError("group bandwidth_bps must be positive")
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ExperimentError("group rate_rps must be positive when given")
        if self.window is not None and self.window < 1:
            raise ExperimentError("group window must be at least 1 when given")
        if self.extra_delay_s < 0:
            raise ExperimentError("group extra_delay_s must be non-negative")
        self.arrival.validate()
        if self.retry_policy is not None:
            try:
                self.retry_policy.validate()
            except ClientError as error:
                raise ExperimentError(str(error)) from None

    def population_spec(
        self, default_retry_policy: Optional[RetryPolicy] = None
    ) -> PopulationSpec:
        """The runtime population entry this group expands to."""
        policy = self.retry_policy if self.retry_policy is not None else default_retry_policy
        return PopulationSpec(
            count=self.count,
            client_class=self.client_class,
            rate_rps=self.rate_rps,
            window=self.window,
            category=self.category,
            rate_modulator=self.arrival.modulator(),
            retry_policy=policy,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GroupSpec":
        payload = dict(data)
        arrival = payload.pop("arrival", None)
        if isinstance(arrival, dict):
            payload["arrival"] = ArrivalSpec.from_dict(arrival)
        elif isinstance(arrival, ArrivalSpec):
            payload["arrival"] = arrival
        retry_policy = payload.get("retry_policy")
        if isinstance(retry_policy, dict):
            payload["retry_policy"] = RetryPolicy.from_dict(retry_policy)
        return cls(**payload)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """Which of the paper's topology shapes to build, and its link parameters.

    * ``lan`` (§7.2–§7.5): every client and the thinner on one switch;
    * ``bottleneck`` (§7.6): groups flagged ``behind_bottleneck`` reach the
      core through a shared cable of ``bottleneck_bandwidth_bps``;
    * ``dumbbell`` (§7.7): all clients plus a victim host ``H`` behind the
      shared cable, the thinner and a web server ``S`` on the far side;
    * ``fat-tree`` / ``leaf-spine``: hierarchical datacenter fabrics hosting
      the §4.3 thinner fleet — clients and shards spread round-robin across
      edge switches, ECMP hashed path selection at every fan-out point,
      ``oversubscription`` thinning the core tier, and
      ``cross_traffic_pairs`` bystander flows occupying core links.
    """

    kind: str = "lan"
    lan_delay_s: float = DEFAULT_LAN_DELAY
    thinner_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH
    bottleneck_bandwidth_bps: float = 0.0
    bottleneck_delay_s: float = DEFAULT_LAN_DELAY
    web_server_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH
    #: Fat-tree arity (k pods, (k/2)^2 cores); fabric kinds only.
    fabric_k: int = 4
    #: Leaf and spine switch counts; ``leaf-spine`` only.
    leaves: int = 4
    spines: int = 2
    #: Core-tier capacity divisor: 1.0 is nonblocking for the aggregate
    #: client upload bandwidth, above 1.0 the core genuinely contends.
    oversubscription: float = 1.0
    #: One-way delay of each switch-to-switch fabric cable.
    fabric_delay_s: float = DEFAULT_LAN_DELAY
    #: Unbounded bystander flows crossing the fabric (endpoint pairs).
    cross_traffic_pairs: int = 0
    #: Access bandwidth of each cross-traffic endpoint (0 = the mean client
    #: access bandwidth).
    cross_traffic_bandwidth_bps: float = 0.0

    def validate(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ExperimentError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )
        if self.lan_delay_s < 0 or self.bottleneck_delay_s < 0 or self.fabric_delay_s < 0:
            raise ExperimentError("topology delays must be non-negative")
        if self.thinner_bandwidth_bps <= 0 or self.web_server_bandwidth_bps <= 0:
            raise ExperimentError("topology bandwidths must be positive")
        if self.kind in ("bottleneck", "dumbbell") and self.bottleneck_bandwidth_bps <= 0:
            raise ExperimentError(
                f"{self.kind!r} topologies need a positive bottleneck_bandwidth_bps"
            )
        if self.kind == "fat-tree" and (self.fabric_k < 2 or self.fabric_k % 2 != 0):
            raise ExperimentError(
                f"fat-tree topologies need an even fabric_k >= 2, got {self.fabric_k}"
            )
        if self.kind == "leaf-spine" and (self.leaves < 1 or self.spines < 1):
            raise ExperimentError(
                "leaf-spine topologies need at least one leaf and one spine"
            )
        if self.kind in FABRIC_KINDS:
            if self.oversubscription <= 0:
                raise ExperimentError(
                    f"oversubscription must be positive, got {self.oversubscription}"
                )
            if self.cross_traffic_pairs < 0:
                raise ExperimentError(
                    f"cross_traffic_pairs must be non-negative, got {self.cross_traffic_pairs}"
                )
            if self.cross_traffic_bandwidth_bps < 0:
                raise ExperimentError("cross_traffic_bandwidth_bps must be non-negative")
        elif self.cross_traffic_pairs:
            raise ExperimentError(
                "cross_traffic_pairs needs a fabric topology (fat-tree or leaf-spine)"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologySpec":
        return cls(**data)


#: The fabric-only ``TopologySpec`` fields, stripped from serialisations at
#: their default values so legacy (star/bottleneck/dumbbell) spec JSON stays
#: byte-identical to releases that predate fabrics.
_FABRIC_FIELDS = (
    "fabric_k",
    "leaves",
    "spines",
    "oversubscription",
    "fabric_delay_s",
    "cross_traffic_pairs",
    "cross_traffic_bandwidth_bps",
)

_TOPOLOGY_DEFAULTS = TopologySpec()


def _topology_dict(topology: TopologySpec) -> Dict[str, Any]:
    payload = asdict(topology)
    for name in _FABRIC_FIELDS:
        if payload.get(name) == getattr(_TOPOLOGY_DEFAULTS, name):
            payload.pop(name, None)
    return payload


# ---------------------------------------------------------------------------
# The scenario itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable description of one simulation run.

    ``config_overrides`` holds extra :class:`DeploymentConfig` keyword
    arguments as a sorted tuple of (name, value) pairs, which keeps the spec
    hashable; :meth:`from_dict` accepts either that form or a plain mapping.
    """

    name: str = "scenario"
    topology: TopologySpec = field(default_factory=TopologySpec)
    groups: Tuple[GroupSpec, ...] = ()
    capacity_rps: float = 100.0
    #: Admission policy as a string (legacy names, any registered defense,
    #: or the ``"filter>admission"`` pipeline shorthand).  Ignored when
    #: :attr:`defense_spec` is set.
    defense: str = "speakup"
    #: Parameterised admission policy; overrides :attr:`defense` when set.
    #: Sweepable down to individual factory kwargs — a grid path like
    #: ``"defense_spec.check_interval"`` replaces one kwarg of the spec.
    defense_spec: Optional[DefenseSpec] = None
    duration: float = 60.0
    seed: int = 0
    encouragement_delay: float = 0.0
    #: Thinner front-end shards (§4.3 scale-out); above 1 a ``lan`` topology
    #: becomes a :func:`~repro.simnet.topology.build_fleet` star-of-stars
    #: with ``topology.thinner_bandwidth_bps`` split evenly across shards.
    thinner_shards: int = 1
    #: Client→shard dispatch: "hash", "least-loaded", or "random".
    shard_policy: str = "hash"
    #: Full dispatch-strategy configuration (see
    #: :class:`~repro.core.routing.RouterSpec`): any registered strategy —
    #: the legacy three plus ``power-of-two``, ``weighted-sink``, and
    #: ``sticky-spill`` — with its probe signal.  Overrides
    #: :attr:`shard_policy` when set; ``None`` keeps the legacy string path
    #: byte-identical.  Sweepable (``"router_spec.probe_window_s"``).
    router_spec: Optional[RouterSpec] = None
    #: Server-slot sharing across shards: "partitioned" or "pooled".
    admission_mode: str = "partitioned"
    #: Scheduled shard kill/heal events (§4.3 failover); ``None`` — or an
    #: empty :class:`~repro.faults.spec.FaultPlan` — runs fault-free and
    #: byte-identical to a spec without the field.  Sweepable down to plan
    #: fields (``"fault_plan.repin_ttl_s"``) and individual events
    #: (``"fault_plan.events.0.at_s"``).
    fault_plan: Optional[FaultPlan] = None
    #: Default retry discipline for every group (per-group ``retry_policy``
    #: overrides win).  ``None`` keeps clients fire-and-forget, bit for bit.
    #: Sweepable down to policy fields (``"retry_policy.budget"``).
    retry_policy: Optional[RetryPolicy] = None
    #: Health-driven shard ejection (see
    #: :class:`~repro.core.fleet.HealthProber`); needs ``thinner_shards > 1``.
    #: ``None`` builds no prober and stays byte-identical to a spec without
    #: the field.  Sweepable (``"health_probe.eject_fraction"``).
    health_probe: Optional[HealthProbeSpec] = None
    #: How the run measures itself (see :mod:`repro.telemetry`).  ``None``
    #: keeps the historical full collector byte for byte; ``"rollup"`` mode
    #: bounds the measurement footprint to O(buckets + reservoir) — the
    #: regime for >=500k-client runs.  Sweepable (``"telemetry.reservoir"``).
    telemetry: Optional[TelemetrySpec] = None
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ExperimentError` if the spec cannot build.

        The scenario checks what only it owns — topology, groups, duration,
        retry policy and ``config_overrides`` keys — and hands every
        deployment setting to :meth:`DeploymentConfig.validate`, the same
        check :class:`~repro.core.frontend.Deployment` runs.
        """
        self._validate_scenario()
        self.deployment_config().validate()

    def _validate_scenario(self) -> None:
        self.topology.validate()
        for group in self.groups:
            group.validate()
        if self.duration <= 0:
            raise ExperimentError("duration must be positive")
        if self.thinner_shards > 1 and self.topology.kind not in ("lan",) + FABRIC_KINDS:
            raise ExperimentError(
                "thinner fleets (thinner_shards > 1) need a 'lan' or fabric topology"
            )
        if self.retry_policy is not None:
            try:
                self.retry_policy.validate()
            except ClientError as error:
                raise ExperimentError(str(error)) from None
        config_fields = {item.name for item in fields(DeploymentConfig)}
        spec_owned = self._spec_config()
        for key, _value in self.config_overrides:
            if key not in config_fields:
                raise ExperimentError(
                    f"unknown config_overrides key {key!r} "
                    f"(not a DeploymentConfig field)"
                )
            if key in spec_owned:
                raise ExperimentError(
                    f"config_overrides key {key!r} is set by the scenario itself; "
                    f"use the scenario's own field instead"
                )
        if self.total_clients() == 0 and self.topology.kind != "dumbbell":
            raise ExperimentError("scenario needs at least one client")
        if self.topology.kind != "lan" and any(g.extra_delay_s for g in self.groups):
            raise ExperimentError("extra_delay_s is only supported on lan topologies")
        if self.topology.kind != "bottleneck" and any(
            g.behind_bottleneck for g in self.groups
        ):
            raise ExperimentError(
                "behind_bottleneck groups need a 'bottleneck' topology"
            )
        if self.topology.kind == "bottleneck" and not any(
            g.behind_bottleneck and g.count for g in self.groups
        ):
            raise ExperimentError(
                "'bottleneck' topologies need at least one behind_bottleneck client"
            )

    # -- derived views ----------------------------------------------------------

    def total_clients(self) -> int:
        return sum(group.count for group in self.groups)

    def clients_of_class(self, client_class: str) -> int:
        return sum(g.count for g in self.groups if g.client_class == client_class)

    # -- functional updates -------------------------------------------------------

    def with_value(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with the (possibly nested) field at ``path`` replaced.

        Paths use dots; numeric components index into ``groups``, e.g.
        ``"capacity_rps"``, ``"groups.1.window"``, or
        ``"topology.bottleneck_bandwidth_bps"``.
        """
        return _replace_path(self, path.split("."), value, path)

    def with_values(self, assignments: Dict[str, Any]) -> "ScenarioSpec":
        """A copy with several :meth:`with_value` updates applied in order."""
        spec = self
        for path, value in assignments.items():
            spec = spec.with_value(path, value)
        return spec

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same scenario under a different root seed."""
        return replace(self, seed=seed)

    # -- building and running ------------------------------------------------------

    def _spec_config(self) -> Dict[str, Any]:
        """The :class:`DeploymentConfig` fields the scenario sets itself."""
        return dict(
            server_capacity_rps=self.capacity_rps,
            defense=self.defense_spec if self.defense_spec is not None else self.defense,
            seed=self.seed,
            encouragement_delay=self.encouragement_delay,
            thinner_shards=self.thinner_shards,
            shard_policy=self.shard_policy,
            router_spec=self.router_spec,
            admission_mode=self.admission_mode,
            fault_plan=self.fault_plan,
            health_probe=self.health_probe,
            telemetry=self.telemetry,
        )

    def deployment_config(self) -> DeploymentConfig:
        return DeploymentConfig(**self._spec_config(), **dict(self.config_overrides))

    def build(self) -> Deployment:
        """Materialise the scenario: topology, deployment, and population.

        The deployment settings are checked once, by the
        :class:`~repro.core.frontend.Deployment` this builds.
        """
        self._validate_scenario()
        config = self.deployment_config()

        if self.topology.kind == "lan":
            ordered = self.groups
            bandwidths: List[float] = []
            delays: List[float] = []
            for group in ordered:
                bandwidths.extend([group.bandwidth_bps] * group.count)
                delays.extend([group.extra_delay_s] * group.count)
            if self.thinner_shards > 1:
                topology, hosts, thinner_host = build_fleet(
                    bandwidths,
                    thinner_shards=self.thinner_shards,
                    client_delays_s=delays if any(delays) else None,
                    fleet_bandwidth_bps=self.topology.thinner_bandwidth_bps,
                    lan_delay_s=self.topology.lan_delay_s,
                    name=self.name,
                )
            else:
                topology, hosts, thinner_host = build_lan(
                    bandwidths,
                    client_delays_s=delays if any(delays) else None,
                    thinner_bandwidth_bps=self.topology.thinner_bandwidth_bps,
                    lan_delay_s=self.topology.lan_delay_s,
                    name=self.name,
                )
        elif self.topology.kind == "bottleneck":
            behind = tuple(g for g in self.groups if g.behind_bottleneck)
            direct = tuple(g for g in self.groups if not g.behind_bottleneck)
            ordered = behind + direct
            behind_bw = [g.bandwidth_bps for g in behind for _ in range(g.count)]
            direct_bw = [g.bandwidth_bps for g in direct for _ in range(g.count)]
            topology, behind_hosts, direct_hosts, thinner_host, _link = build_bottleneck(
                bottlenecked_bandwidths_bps=behind_bw,
                direct_bandwidths_bps=direct_bw,
                bottleneck_bandwidth_bps=self.topology.bottleneck_bandwidth_bps,
                bottleneck_delay_s=self.topology.bottleneck_delay_s,
                thinner_bandwidth_bps=self.topology.thinner_bandwidth_bps,
                lan_delay_s=self.topology.lan_delay_s,
                name=self.name,
            )
            hosts = list(behind_hosts) + list(direct_hosts)
        elif self.topology.kind in FABRIC_KINDS:
            ordered = self.groups
            bandwidths = [g.bandwidth_bps for g in ordered for _ in range(g.count)]
            fabric_kwargs = dict(
                thinner_shards=self.thinner_shards,
                oversubscription=self.topology.oversubscription,
                fleet_bandwidth_bps=self.topology.thinner_bandwidth_bps,
                lan_delay_s=self.topology.lan_delay_s,
                fabric_delay_s=self.topology.fabric_delay_s,
                cross_traffic_pairs=self.topology.cross_traffic_pairs,
                cross_traffic_bandwidth_bps=(
                    self.topology.cross_traffic_bandwidth_bps or None
                ),
                ecmp_seed=self.seed,
                name=self.name,
            )
            if self.topology.kind == "fat-tree":
                topology, hosts, thinner_host = build_fat_tree(
                    bandwidths, k=self.topology.fabric_k, **fabric_kwargs
                )
            else:
                topology, hosts, thinner_host = build_leaf_spine(
                    bandwidths,
                    leaves=self.topology.leaves,
                    spines=self.topology.spines,
                    **fabric_kwargs,
                )
        else:  # dumbbell
            ordered = self.groups
            bandwidths = [g.bandwidth_bps for g in ordered for _ in range(g.count)]
            topology, hosts, _victim, thinner_host, _web, _link = build_dumbbell(
                left_bandwidths_bps=bandwidths,
                bottleneck_bandwidth_bps=self.topology.bottleneck_bandwidth_bps,
                bottleneck_delay_s=self.topology.bottleneck_delay_s,
                thinner_bandwidth_bps=self.topology.thinner_bandwidth_bps,
                web_server_bandwidth_bps=self.topology.web_server_bandwidth_bps,
                lan_delay_s=self.topology.lan_delay_s,
                name=self.name,
            )

        deployment = Deployment(topology, thinner_host, config)
        for cross_src, cross_dst in getattr(topology, "cross_pairs", ()):
            # Cross-traffic generators ride as auxiliaries: their unbounded
            # flows occupy fabric links but never enter client metrics.
            CrossTrafficDriver(deployment, cross_src, cross_dst)
        build_population(
            deployment,
            hosts,
            [group.population_spec(self.retry_policy) for group in ordered],
        )
        return deployment

    def run(self) -> RunResult:
        """Build the scenario, run it for ``duration`` seconds, collect metrics."""
        deployment = self.build()
        deployment.run(self.duration)
        return deployment.results()

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dictionary that :meth:`from_dict` rebuilds exactly.

        The ``defense_spec`` key is emitted only when set, which keeps the
        serialised schema (and every stored sweep JSON) byte-identical to
        earlier releases for string-defense scenarios.
        """
        payload = {
            "name": self.name,
            "topology": _topology_dict(self.topology),
            "groups": [_group_dict(group) for group in self.groups],
            "capacity_rps": self.capacity_rps,
            "defense": self.defense,
            "duration": self.duration,
            "seed": self.seed,
            "encouragement_delay": self.encouragement_delay,
            "thinner_shards": self.thinner_shards,
            "shard_policy": self.shard_policy,
            "admission_mode": self.admission_mode,
            "config_overrides": {key: value for key, value in self.config_overrides},
        }
        if self.defense_spec is not None:
            payload["defense_spec"] = self.defense_spec.to_dict()
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        if self.retry_policy is not None:
            payload["retry_policy"] = self.retry_policy.to_dict()
        if self.health_probe is not None:
            payload["health_probe"] = self.health_probe.to_dict()
        if self.router_spec is not None:
            payload["router_spec"] = self.router_spec.to_dict()
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.to_dict()
        return payload

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        payload = dict(data)
        topology = payload.pop("topology", None)
        if isinstance(topology, dict):
            payload["topology"] = TopologySpec.from_dict(topology)
        elif isinstance(topology, TopologySpec):
            payload["topology"] = topology
        groups = payload.pop("groups", ())
        payload["groups"] = tuple(
            group if isinstance(group, GroupSpec) else GroupSpec.from_dict(group)
            for group in groups
        )
        defense_spec = payload.get("defense_spec")
        if isinstance(defense_spec, dict):
            payload["defense_spec"] = DefenseSpec.from_dict(defense_spec)
        fault_plan = payload.get("fault_plan")
        if isinstance(fault_plan, dict):
            payload["fault_plan"] = FaultPlan.from_dict(fault_plan)
        retry_policy = payload.get("retry_policy")
        if isinstance(retry_policy, dict):
            payload["retry_policy"] = RetryPolicy.from_dict(retry_policy)
        health_probe = payload.get("health_probe")
        if isinstance(health_probe, dict):
            payload["health_probe"] = HealthProbeSpec.from_dict(health_probe)
        router_spec = payload.get("router_spec")
        if isinstance(router_spec, dict):
            payload["router_spec"] = RouterSpec.from_dict(router_spec)
        telemetry = payload.get("telemetry")
        if isinstance(telemetry, dict):
            payload["telemetry"] = TelemetrySpec.from_dict(telemetry)
        payload["config_overrides"] = freeze_overrides(
            payload.get("config_overrides", ())
        )
        return cls(**payload)

    @classmethod
    def from_json(cls, document: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(document))


def _group_dict(group: GroupSpec) -> Dict[str, Any]:
    """``asdict`` with the ``retry_policy`` key stripped when unset.

    Keeps policy-free group serialisations byte-identical to releases that
    predate client retry policies.
    """
    payload = asdict(group)
    if payload.get("retry_policy") is None:
        payload.pop("retry_policy", None)
    return payload


def freeze_overrides(overrides: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise config overrides (mapping or pair sequence) to a sorted tuple."""
    if overrides is None:
        return ()
    if isinstance(overrides, dict):
        pairs = [tuple(pair) for pair in overrides.items()]
    else:
        if isinstance(overrides, str) or not hasattr(overrides, "__iter__"):
            raise ExperimentError(
                f"config_overrides must be a mapping or (name, value) pairs, "
                f"got {overrides!r}"
            )
        pairs = []
        for entry in overrides:
            if isinstance(entry, str) or not hasattr(entry, "__iter__"):
                raise ExperimentError(
                    f"config_overrides entries must be (name, value) pairs, "
                    f"got {entry!r}"
                )
            pair = tuple(entry)
            if len(pair) != 2:
                raise ExperimentError(
                    f"config_overrides entries must be (name, value) pairs, "
                    f"got {entry!r}"
                )
            pairs.append(pair)
    return tuple(sorted((str(key), value) for key, value in pairs))


# ---------------------------------------------------------------------------
# Dotted-path replacement over nested frozen dataclasses
# ---------------------------------------------------------------------------


def _replace_path(obj: Any, parts: Sequence[str], value: Any, full_path: str) -> Any:
    head, rest = parts[0], parts[1:]
    if isinstance(obj, DefenseSpec):
        # Path components below ``defense_spec`` address the defense's
        # factory kwargs (``defense_spec.check_interval``), so sweeps can
        # grid over defense parameters; ``defense_spec.name`` swaps the
        # defense itself (clearing the kwargs, which belong to the old one).
        if rest:
            raise ExperimentError(
                f"defense spec paths go at most one level deep in {full_path!r}"
            )
        if head == "name":
            return DefenseSpec(name=value)
        return obj.with_kwarg(head, value)
    if isinstance(obj, tuple):
        try:
            index = int(head)
        except ValueError:
            raise ExperimentError(
                f"expected a group index at {head!r} in path {full_path!r}"
            ) from None
        if not 0 <= index < len(obj):
            raise ExperimentError(
                f"index {index} out of range in path {full_path!r} "
                f"(have {len(obj)} entries)"
            )
        items = list(obj)
        items[index] = value if not rest else _replace_path(
            items[index], rest, value, full_path
        )
        return tuple(items)
    if obj is None:
        raise ExperimentError(
            f"cannot descend into unset field at {head!r} in path {full_path!r} "
            f"(set the parent field first, e.g. a defense_spec)"
        )
    known = {f.name for f in fields(obj)}
    if head not in known:
        raise ExperimentError(
            f"unknown field {head!r} in path {full_path!r} on {type(obj).__name__} "
            f"(known: {', '.join(sorted(known))})"
        )
    if not rest:
        return replace(obj, **{head: value})
    return replace(obj, **{head: _replace_path(getattr(obj, head), rest, value, full_path)})
