"""Deployment: compose a protected site out of the pieces.

A :class:`Deployment` owns the simulation engine, the fluid network over a
topology, the emulated server, and the thinner front-end(s), and it keeps
track of the clients that register with it.  Experiments, examples and tests
all talk to this object rather than wiring the parts by hand.

Which admission policy fronts the server is data, not code:
``DeploymentConfig.defense`` takes either a
:class:`~repro.defenses.spec.DefenseSpec` (a registered defense name plus
typed factory kwargs, arbitrarily composable — pipelines of screening
stages, the adaptive engagement controller) or, as sugar, one of the
historical strings (``"speakup"``, ``"retry"``, ``"quantum"``, ``"none"``,
any registered defense name, or the ``"filter>admission"`` pipeline
shorthand).  The deployment normalises the selector once, instantiates the
:class:`~repro.defenses.base.Defense` through the registry, and asks it to
:meth:`~repro.defenses.base.Defense.build_thinner` per shard — there is no
defense-name dispatch here.

A deployment normally runs **one** thinner (the paper's evaluation setup);
setting ``DeploymentConfig.thinner_shards`` above 1 deploys a sharded
*fleet* of independent thinner front-ends instead (the §4.3 scale-out
sketch) — see :mod:`repro.core.routing` for the dispatch policies and
:mod:`repro.core.fleet` for the partitioned/pooled admission modes.  With
``thinner_shards=1`` the wiring is byte-for-byte the historical
single-thinner construction.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.constants import (
    DEFAULT_POST_BYTES,
    PAYMENT_CHANNEL_TIMEOUT,
    SERVICE_TIME_JITTER,
    SUSPEND_ABORT_TIMEOUT,
)
from repro.errors import DefenseError, ExperimentError, FaultError, ThinnerError
from repro.core.fleet import ADMISSION_MODES, HealthProbeSpec, HealthProber, ServerMux
from repro.core.routing import (
    SHARD_POLICIES,
    RouterSpec,
    ShardRouter,
    build_probe,
    strategy_needs_rng,
)
from repro.core.payment import PaymentChannel
from repro.core.pricing import PriceBook
from repro.core.thinner import ThinnerBase
from repro.httpd.messages import Request
from repro.httpd.server import EmulatedServer
from repro.rng import StreamFactory
from repro.simnet.engine import Engine
from repro.simnet.host import Host
from repro.simnet.network import FluidNetwork
from repro.simnet.tcp import SlowStartRamp
from repro.simnet.topology import Topology
from repro.simnet.trace import Tracer
from repro.telemetry.spec import TelemetrySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.defenses.base import Defense
    from repro.defenses.spec import DefenseSpec
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import FaultPlan

#: Names of the built-in core thinner variants (the historical string
#: vocabulary; any registered defense name is accepted too).
DEFENSES = ("speakup", "retry", "quantum", "none")


def _normalise(defense) -> "DefenseSpec":
    """String/spec → :class:`DefenseSpec`, re-raised as a config error."""
    # Imported lazily: the defenses layer sits above core/ and registers
    # itself on import; pulling it in at call time keeps the module layering
    # acyclic while letting the deployment resolve names through it.
    from repro.defenses.spec import normalise_defense

    try:
        return normalise_defense(defense)
    except DefenseError as error:
        raise ExperimentError(str(error)) from None


@dataclass
class DeploymentConfig:
    """Tunable knobs of a protected site."""

    #: Server capacity ``c`` in requests per second.
    server_capacity_rps: float = 100.0
    #: Which admission policy to deploy: a
    #: :class:`~repro.defenses.spec.DefenseSpec`, or a string — one of the
    #: historical :data:`DEFENSES`, any registered defense name, or the
    #: ``"filter>admission"`` pipeline shorthand.
    defense: Union[str, "DefenseSpec"] = "speakup"
    #: Admission policy of the undefended baseline ("random" or "fifo").
    admission_policy: str = "random"
    #: Size of one payment POST (the prototype uses 1 MByte, §6).
    post_bytes: float = DEFAULT_POST_BYTES
    #: Size of a request message on the wire.
    request_bytes: float = 1500.0
    #: Thinner-side processing/backlog delay added to each encouragement.
    encouragement_delay: float = 0.0
    #: How long the thinner keeps an idle payment channel before evicting it.
    payment_timeout: float = PAYMENT_CHANNEL_TIMEOUT
    #: Quantum length for the heterogeneous-request thinner (None = 1/c).
    quantum_seconds: Optional[float] = None
    #: Abort a suspended request after this long (§5).
    suspend_abort_timeout: float = SUSPEND_ABORT_TIMEOUT
    #: Service time jitter delta (service times are uniform in [(1±delta)/c]).
    service_jitter: float = SERVICE_TIME_JITTER
    #: Root seed for every random stream in the deployment.
    seed: int = 0
    #: Collect a :class:`~repro.simnet.trace.Tracer` of flow/auction events.
    enable_tracing: bool = False
    #: Bound on concurrent contenders (connection descriptors, §6); None = unbounded.
    max_contenders: Optional[int] = None
    #: Number of thinner front-end shards (§4.3 scale-out).  1 deploys the
    #: paper's single thinner; above 1 the deployment needs one thinner host
    #: per shard (see :func:`repro.simnet.topology.build_fleet`) and builds
    #: one independent thinner — own contender set, own
    #: :class:`~repro.core.bidindex.KineticBidIndex`, own payment channels —
    #: in front of the shared server per shard.
    thinner_shards: int = 1
    #: How clients are pinned to shards when ``thinner_shards > 1``:
    #: ``"hash"`` (stable CRC32 of the client name — consistent hashing),
    #: ``"least-loaded"`` (fewest assigned clients), or ``"random"`` (a
    #: seeded uniform draw per client).  See :class:`repro.core.routing.ShardRouter`.
    shard_policy: str = "hash"
    #: Full dispatch-strategy configuration (see
    #: :class:`repro.core.routing.RouterSpec`).  ``None`` (the default) uses
    #: the legacy ``shard_policy`` string path, byte-identical to the
    #: historical wiring; a spec unlocks the registry's load-aware
    #: strategies (``power-of-two``, ``weighted-sink``, ``sticky-spill``)
    #: and their probe signals, and takes precedence over ``shard_policy``.
    router_spec: Optional[RouterSpec] = None
    #: How the fleet shares the server's admission slots:
    #: ``"partitioned"`` gives each shard a dedicated ``c / shards`` slice
    #: (fully independent shards; every defense works), ``"pooled"`` lets
    #: any shard claim any freed slot of the one shared server (round-robin
    #: offers; the quantum thinner is not supported).  Ignored when
    #: ``thinner_shards == 1``.  See :mod:`repro.core.fleet`.
    admission_mode: str = "partitioned"
    #: Scheduled shard kill/heal events (see :mod:`repro.faults`).  ``None``
    #: or an empty :class:`~repro.faults.spec.FaultPlan` builds no injector
    #: and keeps the run byte-identical to a fault-free deployment; a plan
    #: with events needs ``thinner_shards > 1`` and a defense whose thinner
    #: survives shard death (the quantum variant does not).
    fault_plan: Optional["FaultPlan"] = None
    #: Health-driven shard ejection (see :class:`repro.core.fleet.HealthProber`).
    #: ``None`` (the default) builds no prober and keeps the run byte-identical
    #: to a prober-free deployment; a spec needs ``thinner_shards > 1`` (a
    #: single shard has no fleet median to compare against).
    health_probe: Optional[HealthProbeSpec] = None
    #: How the run measures itself (see :mod:`repro.telemetry`).  ``None``
    #: or a spec in ``"full"`` mode keeps the historical per-request lists
    #: and is byte-identical to every stored result; ``"rollup"`` mode
    #: bounds the measurement footprint to O(buckets + reservoir) — the
    #: regime that makes >=500k-client runs fit in memory.
    telemetry: Optional[TelemetrySpec] = None
    #: Model TCP slow start on payment POSTs (disable for speed in huge sweeps).
    model_slow_start: bool = True

    def defense_spec(self) -> "DefenseSpec":
        """The configured defense as a normalised :class:`DefenseSpec`."""
        return _normalise(self.defense)

    @property
    def defense_label(self) -> str:
        """The defense as recorded in results: strings verbatim, specs labelled."""
        if isinstance(self.defense, str):
            return self.defense
        return _normalise(self.defense).label()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ExperimentError` on nonsensical settings."""
        if self.server_capacity_rps <= 0:
            raise ExperimentError("server_capacity_rps must be positive")
        spec = self.defense_spec()
        try:
            defense = spec.create()
        except DefenseError as error:
            raise ExperimentError(str(error)) from None
        if self.post_bytes <= 0:
            raise ExperimentError("post_bytes must be positive")
        if self.request_bytes <= 0:
            raise ExperimentError("request_bytes must be positive")
        if self.encouragement_delay < 0:
            raise ExperimentError("encouragement_delay must be non-negative")
        if self.thinner_shards < 1:
            raise ExperimentError("thinner_shards must be at least 1")
        if self.shard_policy not in SHARD_POLICIES:
            raise ExperimentError(
                f"unknown shard_policy {self.shard_policy!r}; "
                f"expected one of {SHARD_POLICIES}"
            )
        if self.router_spec is not None:
            try:
                self.router_spec.validate()
            except ThinnerError as error:
                raise ExperimentError(str(error)) from None
        if self.admission_mode not in ADMISSION_MODES:
            raise ExperimentError(
                f"unknown admission_mode {self.admission_mode!r}; "
                f"expected one of {ADMISSION_MODES}"
            )
        if (
            self.thinner_shards > 1
            and self.admission_mode == "pooled"
            and not defense.supports_pooled_admission()
        ):
            raise ExperimentError(
                "the quantum thinner needs 'partitioned' admission "
                "(pooled mode cannot suspend/resume a shared slot another "
                f"shard may hold); offending defense spec: {spec.to_dict()}"
            )
        if self.fault_plan is not None:
            if self.fault_plan.events:
                if self.thinner_shards < 2:
                    raise ExperimentError(
                        "a fault_plan with events needs thinner_shards > 1 "
                        "(a single-thinner deployment has nothing to fail over to)"
                    )
                if not defense.supports_fault_injection():
                    raise ExperimentError(
                        "this defense does not support fault injection (the "
                        "quantum thinner's suspended request slices cannot "
                        "survive a shard kill); drop the fault_plan or pick "
                        f"another defense; offending defense spec: {spec.to_dict()}"
                    )
            try:
                self.fault_plan.validate(self.thinner_shards)
            except FaultError as error:
                raise ExperimentError(str(error)) from None
        if self.health_probe is not None:
            if self.thinner_shards < 2:
                raise ExperimentError(
                    "health_probe needs thinner_shards > 1 (ejection compares "
                    "each shard against the fleet median)"
                )
            try:
                self.health_probe.validate()
            except ThinnerError as error:
                raise ExperimentError(str(error)) from None
        if self.telemetry is not None:
            self.telemetry.validate()


class Deployment:
    """A protected site: engine + network + server + thinner (+ clients)."""

    def __init__(
        self,
        topology: Topology,
        thinner_host: Union[Host, Sequence[Host]],
        config: Optional[DeploymentConfig] = None,
        thinner_factory: Optional[Callable[["Deployment"], ThinnerBase]] = None,
    ) -> None:
        self.config = config or DeploymentConfig()
        self.config.validate()
        self.topology = topology
        hosts = [thinner_host] if isinstance(thinner_host, Host) else list(thinner_host)
        if not hosts:
            raise ExperimentError("a deployment needs at least one thinner host")
        shards = self.config.thinner_shards
        if len(hosts) != shards:
            raise ExperimentError(
                f"thinner_shards={shards} needs exactly {shards} thinner "
                f"host(s), got {len(hosts)} (build the topology with "
                f"repro.simnet.topology.build_fleet)"
            )
        if thinner_factory is not None and shards > 1:
            raise ExperimentError(
                "custom thinner factories support a single shard; "
                "use thinner_shards=1"
            )
        #: One thinner host per shard; ``thinner_host`` stays shard 0 for
        #: the (overwhelmingly common) single-thinner deployments.
        self.thinner_hosts = hosts
        self.thinner_host = hosts[0]

        self.engine = Engine()
        self.streams = StreamFactory(self.config.seed)
        self.tracer = Tracer() if self.config.enable_tracing else None
        self.network = FluidNetwork(self.engine, topology, tracer=self.tracer)
        self.slow_start = SlowStartRamp(self.network) if self.config.model_slow_start else None

        #: The rollup telemetry collector, or ``None`` in full mode.  Full
        #: mode (and an unset spec) is the byte-identity baseline: no
        #: ``"telemetry"`` stream is created and the client layer keeps its
        #: per-request lists.
        self.telemetry = None
        telemetry_spec = self.config.telemetry
        if telemetry_spec is not None and telemetry_spec.mode == "rollup":
            # Imported lazily for the same layering reason as the defenses.
            from repro.telemetry.collector import TelemetryCollector

            self.telemetry = TelemetryCollector(
                telemetry_spec,
                self.streams.stream("telemetry"),
                counters=self.network.counters,
            )
        #: The one price book every thinner a defense builds records its
        #: winning bids into, across shards and engagement sides alike.
        self.prices = PriceBook()

        #: The back-end server(s).  A single-thinner or pooled-fleet
        #: deployment has exactly one; a partitioned fleet has one
        #: ``c / shards`` server per shard.  ``server`` stays the shard-0 /
        #: shared instance for existing callers.
        self.servers: List[EmulatedServer] = []
        self._pool: Optional[ServerMux] = None
        pooled = shards > 1 and self.config.admission_mode == "pooled"
        if shards == 1 or pooled:
            self.servers.append(self._build_server(0, self.config.server_capacity_rps))
            if pooled:
                self._pool = ServerMux(self.servers[0], rotate=True)
        else:
            per_shard_capacity = self.config.server_capacity_rps / shards
            for shard in range(shards):
                self.servers.append(self._build_server(shard, per_shard_capacity))
        self.server = self.servers[0]

        #: What each shard's thinner drives as "its" server: the one real
        #: server, the shard's ``c / N`` partition, or its pooled view.
        if pooled:
            self._shard_servers: List = [self._pool.view() for _ in range(shards)]
        elif shards == 1:
            self._shard_servers = [self.servers[0]]
        else:
            self._shard_servers = list(self.servers)

        #: The admission policy, instantiated from the normalised spec via
        #: the defense registry (None when a custom ``thinner_factory`` is
        #: in charge).
        self.defense_spec: Optional["DefenseSpec"] = None
        self.defense: Optional["Defense"] = None

        #: One independent thinner per shard; ``thinner`` stays shard 0.
        self.thinners: List[ThinnerBase] = []
        if thinner_factory is not None:
            self.thinners.append(thinner_factory(self))
        else:
            self.defense_spec = self.config.defense_spec()
            self.defense = self.defense_spec.create()
            for shard in range(shards):
                self.thinners.append(self.defense.build_thinner(self, shard))
        self.thinner = self.thinners[0]

        router_spec = self.config.router_spec
        if router_spec is not None:
            dispatch_rng = (
                self.streams.stream("shard-dispatch")
                if shards > 1 and strategy_needs_rng(router_spec.name)
                else None
            )
            probe = build_probe(self, router_spec) if shards > 1 else None
            self._router = ShardRouter(
                shards, router_spec, rng=dispatch_rng, probe=probe
            )
        else:
            dispatch_rng = (
                self.streams.stream("shard-dispatch")
                if shards > 1 and self.config.shard_policy == "random"
                else None
            )
            self._router = ShardRouter(shards, self.config.shard_policy, rng=dispatch_rng)

        self.clients: List = []
        #: Non-client traffic drivers (cross-traffic generators and the
        #: like): started alongside the clients by :meth:`run`, but never
        #: registered as clients, so they stay out of the served/allocation
        #: metrics and the aggregate-bandwidth accounting.
        self.auxiliaries: List = []
        self.duration: Optional[float] = None

        #: The fault injector, or ``None`` for fault-free runs.  Only a plan
        #: *with events* builds one: an empty plan must add no streams, no
        #: engine events and no metrics keys (the byte-identity contract the
        #: empty-plan pin tests enforce).
        self.fault_injector: Optional["FaultInjector"] = None
        plan = self.config.fault_plan
        if plan is not None and plan.events:
            # Imported lazily for the same layering reason as the defenses.
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(self, plan)
            self.fault_injector.arm()

        #: The health prober, or ``None`` when no probe spec is configured.
        #: Like the injector, its absence is the byte-identity baseline: no
        #: spec means no periodic events and no new metrics keys.
        self.health_prober: Optional[HealthProber] = None
        if self.config.health_probe is not None:
            self.health_prober = HealthProber(self, self.config.health_probe)
            self.health_prober.arm()

    # -- construction helpers -----------------------------------------------------

    def _build_server(self, shard: int, capacity_rps: float) -> EmulatedServer:
        # Shard 0 keeps the historical "server" stream name so a one-shard
        # fleet draws the exact service times of a single-thinner run.
        name = "server" if shard == 0 else f"server:{shard}"
        return EmulatedServer(
            self.engine,
            capacity_rps,
            rng=self.streams.stream(name),
            jitter=self.config.service_jitter,
        )

    # -- per-shard lookups (what Defense.build_thinner builds against) ------------

    def shard_suffix(self, shard: int) -> str:
        """Stream-name suffix of a shard ("" for shard 0 — the historical names)."""
        return "" if shard == 0 else f":{shard}"

    def shard_server(self, shard: int):
        """The server (or pooled view) thinner shard ``shard`` admits into."""
        return self._shard_servers[shard]

    def shard_stream(self, name: str, shard: int):
        """A per-shard random stream (shard 0 keeps the unsuffixed name)."""
        return self.streams.stream(f"{name}{self.shard_suffix(shard)}")

    @property
    def defense_label(self) -> str:
        """The defense name results are recorded under."""
        return self.config.defense_label

    # -- client-facing API --------------------------------------------------------------

    def register_client(self, client) -> None:
        """Called by client constructors so the deployment can enumerate them."""
        self.clients.append(client)

    def register_auxiliary(self, driver) -> None:
        """Register a non-client traffic driver (started by :meth:`run`)."""
        self.auxiliaries.append(driver)

    def assign_shard(self, client_host: Host) -> int:
        """The shard index serving ``client_host`` (stable for the whole run)."""
        return self._router.assign(client_host.name)

    def payment_channel(
        self,
        client_host: Host,
        request: Request,
        thinner_host: Optional[Host] = None,
    ) -> PaymentChannel:
        """Build the payment channel a client opens when encouraged.

        ``thinner_host`` is the client's assigned shard; it defaults to
        shard 0 (the only shard of a single-thinner deployment).
        """
        return PaymentChannel(
            network=self.network,
            client_host=client_host,
            thinner_host=thinner_host if thinner_host is not None else self.thinner_host,
            request_id=request.request_id,
            post_bytes=self.config.post_bytes,
            slow_start=self.slow_start,
        )

    def client_stream(self, name: str):
        """A per-client random stream derived from the deployment seed."""
        return self.streams.stream(f"client:{name}")

    # -- running ------------------------------------------------------------------------------

    def run(self, duration: float) -> "Deployment":
        """Run the simulation for ``duration`` simulated seconds."""
        if duration <= 0:
            raise ExperimentError("duration must be positive")
        until = self.engine.now + duration
        # Publish the horizon before starting clients so their initial
        # arrival pregeneration does not draw a whole batch past run end.
        self.engine.run_horizon = until
        for auxiliary in self.auxiliaries:
            start = getattr(auxiliary, "start", None)
            if callable(start):
                start()
        for client in self.clients:
            start = getattr(client, "start", None)
            if callable(start):
                start()
        # The loop allocates almost entirely acyclically (reference counting
        # frees it; the few true cycles are broken on completion), so the
        # cyclic collector's full-heap scans are pure overhead — ~40% of
        # wall-clock at the 50k-client bench scale.  Pause it for the loop;
        # re-enable (never force-collect) on the way out.
        pause_gc = gc.isenabled()
        if pause_gc:
            gc.disable()
        try:
            self.engine.run(until=until)
        finally:
            if pause_gc:
                gc.enable()
        self.duration = duration if self.duration is None else self.duration + duration
        for thinner in self.thinners:
            shutdown = getattr(thinner, "shutdown", None)
            if callable(shutdown):
                shutdown()
        return self

    def results(self):
        """Collect the run's metrics (see :mod:`repro.metrics.collector`)."""
        from repro.metrics.collector import collect

        if self.duration is None:
            raise ExperimentError("run() must be called before results()")
        return collect(self)

    # -- convenience views ----------------------------------------------------------------------

    def clients_of_class(self, client_class: str) -> List:
        """All registered clients of one class ("good" or "bad")."""
        return [client for client in self.clients if client.client_class == client_class]

    def clients_of_shard(self, shard: int) -> List:
        """All registered clients assigned to thinner shard ``shard``.

        Clients that never went through :meth:`assign_shard` (hand-built
        test doubles) count as shard 0.
        """
        return [
            client for client in self.clients if getattr(client, "shard", 0) == shard
        ]

    @property
    def good_clients(self) -> List:
        return self.clients_of_class("good")

    @property
    def bad_clients(self) -> List:
        return self.clients_of_class("bad")

    def aggregate_bandwidth_bps(self, client_class: Optional[str] = None) -> float:
        """Aggregate access bandwidth of the registered clients (G, B, or G+B)."""
        total = 0.0
        for client in self.clients:
            if client_class is None or client.client_class == client_class:
                total += client.host.upload_capacity_bps
        return total


class CrossTrafficDriver:
    """A bystander flow occupying fabric links for a whole run.

    The driver opens one unbounded, optionally rate-capped flow between a
    cross-traffic endpoint pair (see
    :attr:`repro.simnet.topology.FabricTopology.cross_pairs`) when the
    deployment starts and leaves it running: the fluid network's max-min
    waterfill then shares every fabric link the pair crosses between the
    bystander and whatever payment traffic rides the same core.  Registered
    as a deployment *auxiliary*, not a client, so it never appears in
    served/allocation metrics.
    """

    def __init__(
        self,
        deployment: Deployment,
        src: Host,
        dst: Host,
        rate_cap_bps: Optional[float] = None,
        label: str = "cross-traffic",
    ) -> None:
        self.deployment = deployment
        self.src = src
        self.dst = dst
        self.rate_cap_bps = rate_cap_bps
        self.label = label
        self.flow = None
        deployment.register_auxiliary(self)

    def start(self) -> None:
        self.flow = self.deployment.network.send(
            self.src,
            self.dst,
            size_bytes=None,
            rate_cap_bps=self.rate_cap_bps,
            label=self.label,
        )

    @property
    def delivered_bytes(self) -> float:
        """Bytes the bystander flow has pushed so far (0 before start)."""
        return 0.0 if self.flow is None else self.flow.delivered_bytes
