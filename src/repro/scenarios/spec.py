"""Scenarios as data: frozen, JSON-serialisable descriptions of a whole run.

A :class:`ScenarioSpec` captures everything a run needs — topology, client
population, defense, deployment knobs, duration, and seed — as plain frozen
dataclasses, so a scenario can be pickled to a worker process, written to a
results file, and rebuilt from JSON bit-for-bit.  ``build()`` turns the spec
into a ready :class:`~repro.core.frontend.Deployment`; ``run()`` executes it
and returns the :class:`~repro.metrics.collector.RunResult`.

Non-steady demand (flash crowds, pulsed attackers, diurnal load) is part of
the data model too: each client group carries an :class:`ArrivalSpec` whose
multiplier shapes the group's non-homogeneous Poisson arrival process.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import codec
from repro.constants import DEFAULT_CLIENT_BANDWIDTH
from repro.errors import ClientError, ExperimentError, check_non_negative, check_positive
from repro.clients.bad import BadClient
from repro.clients.base import RetryPolicy
from repro.clients.good import GoodClient
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

    def validate(self, path: str = "arrival") -> None:
        """Raise :class:`ExperimentError` naming the field, as ``path.field``."""
        if self.kind not in ARRIVAL_KINDS:
            raise ExperimentError(
                f"unknown arrival kind {self.kind!r}; expected one of {ARRIVAL_KINDS}"
            )
        if not 0.0 <= self.floor <= 1.0:
            raise ExperimentError(f"{path}.floor must be in [0, 1], got {self.floor}")
        if not math.isfinite(self.phase_s):
            raise ExperimentError(f"{path}.phase_s must be finite, got {self.phase_s}")
        if self.kind in ("onoff", "diurnal"):
            check_positive(f"{path}.period_s", self.period_s)
        if self.kind == "onoff" and not 0 < self.on_s <= self.period_s:
            raise ExperimentError(
                f"{path}.on_s must be in (0, period_s], got {self.on_s}"
            )
        if self.kind == "flash":
            check_non_negative(f"{path}.start_s", self.start_s)
            check_non_negative(f"{path}.ramp_s", self.ramp_s)

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

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


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
    retry_policy: Optional[RetryPolicy] = field(default=None, metadata=codec.OMIT_DEFAULT)

    def validate(self, path: str = "group") -> None:
        """Raise :class:`ExperimentError` naming the field, as ``path.field``."""
        if self.count < 0:
            raise ExperimentError(f"{path}.count must be non-negative, got {self.count}")
        if self.client_class not in ("good", "bad"):
            raise ExperimentError(f"unknown client class {self.client_class!r}")
        check_positive(f"{path}.bandwidth_bps", self.bandwidth_bps)
        if self.rate_rps is not None:
            check_positive(f"{path}.rate_rps", self.rate_rps)
        if self.window is not None and self.window < 1:
            raise ExperimentError(f"{path}.window must be at least 1 when given")
        check_non_negative(f"{path}.extra_delay_s", self.extra_delay_s)
        self.arrival.validate(f"{path}.arrival")
        if self.retry_policy is not None:
            try:
                self.retry_policy.validate(f"{path}.retry_policy")
            except ClientError as error:
                raise ExperimentError(str(error)) from None

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


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

    The seven fabric fields are written only away from their defaults, so a
    star, bottleneck or dumbbell spec serialises as it did before fabrics.
    """

    kind: str = "lan"
    lan_delay_s: float = DEFAULT_LAN_DELAY
    thinner_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH
    bottleneck_bandwidth_bps: float = 0.0
    bottleneck_delay_s: float = DEFAULT_LAN_DELAY
    web_server_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH
    #: Fat-tree arity (k pods, (k/2)^2 cores); fabric kinds only.
    fabric_k: int = field(default=4, metadata=codec.OMIT_DEFAULT)
    #: Leaf and spine switch counts; ``leaf-spine`` only.
    leaves: int = field(default=4, metadata=codec.OMIT_DEFAULT)
    spines: int = field(default=2, metadata=codec.OMIT_DEFAULT)
    #: Core-tier capacity divisor: 1.0 is nonblocking for the aggregate
    #: client upload bandwidth, above 1.0 the core genuinely contends.
    oversubscription: float = field(default=1.0, metadata=codec.OMIT_DEFAULT)
    #: One-way delay of each switch-to-switch fabric cable.
    fabric_delay_s: float = field(default=DEFAULT_LAN_DELAY, metadata=codec.OMIT_DEFAULT)
    #: Unbounded bystander flows crossing the fabric (endpoint pairs).
    cross_traffic_pairs: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    #: Access bandwidth of each cross-traffic endpoint (0 = the mean client
    #: access bandwidth).
    cross_traffic_bandwidth_bps: float = field(default=0.0, metadata=codec.OMIT_DEFAULT)

    def validate(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ExperimentError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )
        for name in ("lan_delay_s", "bottleneck_delay_s", "fabric_delay_s"):
            check_non_negative(f"topology.{name}", getattr(self, name))
        for name in ("thinner_bandwidth_bps", "web_server_bandwidth_bps"):
            check_positive(f"topology.{name}", getattr(self, name))
        if self.kind in ("bottleneck", "dumbbell"):
            check_positive("topology.bottleneck_bandwidth_bps", self.bottleneck_bandwidth_bps)
        if self.kind == "fat-tree" and (self.fabric_k < 2 or self.fabric_k % 2 != 0):
            raise ExperimentError(
                f"fat-tree topologies need an even fabric_k >= 2, got {self.fabric_k}"
            )
        if self.kind == "leaf-spine" and (self.leaves < 1 or self.spines < 1):
            raise ExperimentError(
                "leaf-spine topologies need at least one leaf and one spine"
            )
        if self.kind in FABRIC_KINDS:
            check_positive("topology.oversubscription", self.oversubscription)
            if self.cross_traffic_pairs < 0:
                raise ExperimentError(
                    f"cross_traffic_pairs must be non-negative, got {self.cross_traffic_pairs}"
                )
            check_non_negative(
                "topology.cross_traffic_bandwidth_bps", self.cross_traffic_bandwidth_bps
            )
        elif self.cross_traffic_pairs:
            raise ExperimentError(
                "cross_traffic_pairs needs a fabric topology (fat-tree or leaf-spine)"
            )

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


# ---------------------------------------------------------------------------
# The scenario itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigOverrides:
    """The :class:`DeploymentConfig` settings a scenario has no field for.

    The scenario's own fields set every other deployment setting.  An unset
    override keeps the deployment's default and is not written, so an empty
    one writes ``{}``.
    """

    #: Bound on concurrent contenders (connection descriptors, §6).
    max_contenders: Optional[int] = field(default=None, metadata=codec.OMIT_DEFAULT)

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable description of one simulation run.

    Every field, ``defense`` and its settings and ``config_overrides``
    included, is read and written by :mod:`repro.codec`.  The spec is
    hashable unless its defense holds a dict-valued setting (see
    :class:`~repro.defenses.spec.DefenseSpec`).
    """

    name: str = "scenario"
    topology: TopologySpec = field(default_factory=TopologySpec)
    groups: Tuple[GroupSpec, ...] = ()
    capacity_rps: float = 100.0
    #: Admission policy: a :class:`~repro.defenses.spec.DefenseSpec`, or a
    #: string (``"speakup"``, ``"retry"``, ``"quantum"``, ``"none"``, any
    #: registered defense, or the ``"filter>admission"`` pipeline
    #: shorthand).  A spec is sweepable down to individual settings —
    #: ``"defense.check_interval"`` replaces one setting, ``"defense.name"``
    #: swaps the defense.
    defense: Union[str, DefenseSpec] = "speakup"
    duration: float = 60.0
    seed: int = 0
    encouragement_delay: float = 0.0
    #: Thinner front-end shards (§4.3 scale-out); above 1 a ``lan`` topology
    #: becomes a :func:`~repro.simnet.topology.build_fleet` star-of-stars
    #: with ``topology.thinner_bandwidth_bps`` split evenly across shards.
    thinner_shards: int = 1
    #: Client→shard dispatch: a :class:`~repro.core.routing.RouterSpec`
    #: (any registered strategy with its probe signal), or a strategy name
    #: standing for that strategy's default spec.  A spec is sweepable
    #: (``"shard_policy.name"``, ``"shard_policy.probe_window_s"``).
    shard_policy: Union[str, RouterSpec] = "hash"
    #: Server-slot sharing across shards: "partitioned" or "pooled".
    admission_mode: str = "partitioned"
    #: Scheduled shard kill/heal events (§4.3 failover); ``None`` — or an
    #: empty :class:`~repro.faults.spec.FaultPlan` — runs fault-free and
    #: byte-identical to a spec without the field.  Sweepable down to plan
    #: fields (``"fault_plan.repin_ttl_s"``) and individual events
    #: (``"fault_plan.events.0.at_s"``).
    fault_plan: Optional[FaultPlan] = field(default=None, metadata=codec.OMIT_DEFAULT)
    #: Default retry discipline for every group (per-group ``retry_policy``
    #: overrides win).  ``None`` keeps clients fire-and-forget, bit for bit.
    #: Sweepable down to policy fields (``"retry_policy.budget"``).
    retry_policy: Optional[RetryPolicy] = field(default=None, metadata=codec.OMIT_DEFAULT)
    #: Health-driven shard ejection (see
    #: :class:`~repro.core.fleet.HealthProber`); needs ``thinner_shards > 1``.
    #: ``None`` builds no prober and stays byte-identical to a spec without
    #: the field.  Sweepable (``"health_probe.eject_fraction"``).
    health_probe: Optional[HealthProbeSpec] = field(default=None, metadata=codec.OMIT_DEFAULT)
    #: How the run measures itself (see :mod:`repro.telemetry`).  ``None``
    #: keeps the historical full collector byte for byte; ``"rollup"`` mode
    #: bounds the measurement footprint to O(buckets + reservoir) — the
    #: regime for >=500k-client runs.  Sweepable (``"telemetry.reservoir"``).
    telemetry: Optional[TelemetrySpec] = field(default=None, metadata=codec.OMIT_DEFAULT)
    #: Deployment settings the scenario has no field for
    #: (``"config_overrides.max_contenders"``).
    config_overrides: ConfigOverrides = field(default_factory=ConfigOverrides)

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ExperimentError` if the spec cannot build.

        The scenario checks what only it owns — topology, groups, duration
        and retry policy — and hands every deployment setting, the defense's
        included, to :meth:`DeploymentConfig.validate`, the same check
        :class:`~repro.core.frontend.Deployment` runs.
        """
        self._validate_scenario()
        self.deployment_config().validate()

    def _validate_scenario(self) -> None:
        self.topology.validate()
        for index, group in enumerate(self.groups):
            group.validate(f"groups.{index}")
        check_positive("duration", self.duration)
        if self.thinner_shards > 1 and self.topology.kind not in ("lan",) + FABRIC_KINDS:
            raise ExperimentError(
                "thinner fleets (thinner_shards > 1) need a 'lan' or fabric topology"
            )
        if self.retry_policy is not None:
            try:
                self.retry_policy.validate()
            except ClientError as error:
                raise ExperimentError(str(error)) from None
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

    def deployment_config(self) -> DeploymentConfig:
        """The :class:`DeploymentConfig` this scenario deploys."""
        return DeploymentConfig(
            server_capacity_rps=self.capacity_rps,
            defense=self.defense,
            seed=self.seed,
            encouragement_delay=self.encouragement_delay,
            max_contenders=self.config_overrides.max_contenders,
            thinner_shards=self.thinner_shards,
            shard_policy=self.shard_policy,
            admission_mode=self.admission_mode,
            fault_plan=self.fault_plan,
            health_probe=self.health_probe,
            telemetry=self.telemetry,
        )

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
        host_iter = iter(hosts)
        for group in ordered:
            client_class = GoodClient if group.client_class == "good" else BadClient
            # Unset rate and window keep the class's §7.1 defaults.
            options = dict(
                category=group.category,
                rate_modulator=group.arrival.modulator(),
                retry_policy=(
                    self.retry_policy if group.retry_policy is None else group.retry_policy
                ),
            )
            if group.rate_rps is not None:
                options["rate_rps"] = group.rate_rps
            if group.window is not None:
                options["window"] = group.window
            for host in islice(host_iter, group.count):
                client_class(deployment, host, **options)
        return deployment

    def run(self) -> RunResult:
        """Build the scenario, run it for ``duration`` seconds, collect metrics.

        Sweeps (serial and pooled), campaign workers and the CLI all run
        their points here.  A finished deployment is one large reference
        cycle, and :meth:`Deployment.run` pauses the cyclic collector, so
        this method keeps no reference to its deployment and collects once
        before returning: a sweep holds one deployment at a time.
        """
        result = self.build().run(self.duration).results()
        gc.collect()
        return result

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)
    to_json = codec.to_json
    from_json = classmethod(codec.from_json)


# ---------------------------------------------------------------------------
# Dotted-path replacement over nested frozen dataclasses
# ---------------------------------------------------------------------------


def _replace_path(obj: Any, parts: Sequence[str], value: Any, full_path: str) -> Any:
    head, rest = parts[0], parts[1:]
    if isinstance(obj, DefenseSpec):
        # Path components below a spec-valued ``defense`` address the
        # defense's settings (``defense.check_interval``), so sweeps can grid
        # over them; ``defense.name`` swaps the defense itself (clearing the
        # settings, which belong to the old one).
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
            f"(set the parent field first, e.g. a fault_plan)"
        )
    if not is_dataclass(obj):
        raise ExperimentError(
            f"cannot descend into the plain value {obj!r} at {head!r} in path "
            f"{full_path!r} (only a spec has fields; set the parent field to one first)"
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
