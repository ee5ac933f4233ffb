"""Named scenario factories: the paper's setups plus new workloads.

Every factory returns a :class:`~repro.scenarios.spec.ScenarioSpec` and takes
only JSON-friendly keyword arguments, so the registry is the vocabulary of
the sweep CLI (``speakup-repro sweep --scenario NAME``) as well as of the
experiment modules.  Counts and capacities default to the paper's §7 scale;
callers (tests, benchmarks) shrink them via the factory arguments.

Paper setups: ``lan-baseline`` (§7.2–§7.4), ``bandwidth-tiers`` (Figure 6),
``rtt-tiers`` (Figure 7), ``shared-bottleneck`` (Figure 8), ``cross-traffic``
(Figure 9).  New workloads: ``flash-crowd``, ``pulsed-attack``,
``diurnal-demand``, ``uplink-tiers``, the composable-admission scenarios
``adaptive-pulse`` (attack-triggered engagement) and ``layered-lan``
(rate-limit filter in front of the auction), the sharded-fleet scenarios
``fleet-lan``, ``fleet-mega`` (§4.3 scale-out), ``fleet-failover``
(a mid-run shard kill/heal pulse) and ``fleet-brownout`` (a gray-failure
pulse — degraded, lossy or stalled shards — with optional client retry
policies and health-driven ejection), the datacenter-fabric scenario
``fabric-mega`` (the fleet on a leaf-spine or fat-tree fabric with an
oversubscribed core, cross-traffic, and any registered dispatch strategy),
and the perf-harness workloads ``stress-mega`` (allocator-bound),
``thinner-mega`` (auction-bound, ≥50k clients), ``soa-mega``
(array-bound, ≥200k clients through the struct-of-arrays vectorized
allocator path) and ``rollup-mega`` (≥500k clients under streaming
rollup telemetry, pinning the collector's memory footprint to
O(buckets + reservoir) instead of O(requests)).
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.constants import (
    DEFAULT_CLIENT_BANDWIDTH,
    MBIT,
    milliseconds,
)
from repro.core.routing import RouterSpec, as_router_spec
from repro.defenses.spec import DefenseSpec, normalise_defense
from repro.errors import ExperimentError
from repro.simnet.topology import DEFAULT_THINNER_BANDWIDTH
from repro.telemetry.spec import TelemetrySpec
from repro.scenarios.spec import (
    ArrivalSpec,
    GroupSpec,
    ScenarioSpec,
    TopologySpec,
)

_REGISTRY: Dict[str, Callable[..., ScenarioSpec]] = {}


def register(name: str) -> Callable[[Callable[..., ScenarioSpec]], Callable[..., ScenarioSpec]]:
    """Class-level decorator registering a factory under ``name``."""

    def decorator(factory: Callable[..., ScenarioSpec]) -> Callable[..., ScenarioSpec]:
        if name in _REGISTRY:
            raise ExperimentError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_description(name: str) -> str:
    """First line of the factory's docstring (for CLI listings)."""
    factory = _factory(name)
    doc = (factory.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def build_scenario(name: str, **overrides) -> ScenarioSpec:
    """Build the named scenario, passing ``overrides`` to its factory."""
    factory = _factory(name)
    try:
        return factory(**overrides)
    except TypeError as exc:
        raise ExperimentError(f"bad arguments for scenario {name!r}: {exc}") from None


def _factory(name: str) -> Callable[..., ScenarioSpec]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; known scenarios: {', '.join(scenario_names())}"
        ) from None


def _group(count: int, client_class: str, **fields) -> Tuple[GroupSpec, ...]:
    """One group of ``count`` clients to add to ``groups``, or ``()`` when 0."""
    return (GroupSpec(count=count, client_class=client_class, **fields),) if count else ()


# ---------------------------------------------------------------------------
# The generated scenario gallery (docs/SCENARIOS.md)
# ---------------------------------------------------------------------------


def _format_bandwidth(bps: float) -> str:
    return f"{bps / MBIT:g} Mbit/s"


def _format_default(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_format_default(v) for v in value) + ")"
    return repr(value) if isinstance(value, str) else str(value)


def scenario_markdown() -> str:
    """The scenario gallery as markdown (``speakup-repro scenarios --doc``).

    Rendered entirely from the registry — each scenario's docstring, its
    factory knobs with their defaults, and the topology/client mix of the
    spec the factory builds at those defaults — so ``docs/SCENARIOS.md`` can
    be regenerated (and is tested to be regenerable) from the code alone.
    """
    lines: List[str] = [
        "# Scenario gallery",
        "",
        "All named scenarios in the registry (`repro.scenarios.registry`), with",
        "their topology, client mix, and factory knobs at default values.",
        "",
        "> Auto-generated — do not edit by hand.  Regenerate with:",
        ">",
        "> ```sh",
        "> PYTHONPATH=src python -m repro.cli scenarios --doc > docs/SCENARIOS.md",
        "> ```",
        "",
        "Run any scenario with `speakup-repro sweep --scenario NAME`; every knob",
        "below is a `--set KEY=VALUE` argument.",
        "",
    ]
    for name in scenario_names():
        factory = _REGISTRY[name]
        spec = factory()
        doc = inspect.getdoc(factory) or ""
        lines.append(f"## `{name}`")
        lines.append("")
        if doc:
            lines.extend(doc.splitlines())
            lines.append("")

        topology = spec.topology
        topo_bits = [f"kind `{topology.kind}`"]
        if topology.kind in ("bottleneck", "dumbbell"):
            topo_bits.append(
                f"shared cable {_format_bandwidth(topology.bottleneck_bandwidth_bps)}"
                f" / {topology.bottleneck_delay_s * 1e3:g} ms"
            )
        if topology.kind == "leaf-spine":
            topo_bits.append(
                f"{topology.leaves} leaves × {topology.spines} spines, "
                f"{topology.oversubscription:g}:1 oversubscribed"
            )
        elif topology.kind == "fat-tree":
            topo_bits.append(
                f"k={topology.fabric_k} fat-tree, "
                f"{topology.oversubscription:g}:1 oversubscribed"
            )
        if topology.cross_traffic_pairs:
            topo_bits.append(f"{topology.cross_traffic_pairs} cross-traffic pair(s)")
        if spec.thinner_shards > 1:
            topo_bits.append(
                f"thinner fleet of {spec.thinner_shards} shards "
                f"(`{as_router_spec(spec.shard_policy).name}` dispatch, "
                f"`{spec.admission_mode}` admission)"
            )
        lines.append(f"**Topology:** {', '.join(topo_bits)}.")
        lines.append("")

        if isinstance(spec.defense, DefenseSpec):
            lines.append(f"**Defense:** `{spec.defense.label()}` (a composed")
            lines.append("`DefenseSpec`; its kwargs are sweepable via")
            lines.append("`--grid defense.KWARG=...`).")
            lines.append("")

        lines.append("**Client mix (at defaults):**")
        lines.append("")
        lines.append("| count | class | bandwidth | rate (rps) | window | arrival | category |")
        lines.append("|---|---|---|---|---|---|---|")
        for group in spec.groups:
            lines.append(
                "| {count} | {cls} | {bw} | {rate} | {window} | {arrival} | {cat} |".format(
                    count=group.count,
                    cls=group.client_class,
                    bw=_format_bandwidth(group.bandwidth_bps),
                    rate="class default" if group.rate_rps is None else f"{group.rate_rps:g}",
                    window="class default" if group.window is None else group.window,
                    arrival=group.arrival.kind,
                    cat=group.category or "-",
                )
            )
        lines.append("")

        lines.append("**Knobs:**")
        lines.append("")
        lines.append("| knob | default |")
        lines.append("|---|---|")
        for parameter in inspect.signature(factory).parameters.values():
            default = (
                "required"
                if parameter.default is inspect.Parameter.empty
                else f"`{_format_default(parameter.default)}`"
            )
            lines.append(f"| `{parameter.name}` | {default} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# The paper's setups
# ---------------------------------------------------------------------------


@register("lan-baseline")
def lan_baseline(
    good_clients: int = 25,
    bad_clients: int = 25,
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    good_rate: Optional[float] = None,
    good_window: Optional[int] = None,
    bad_rate: Optional[float] = None,
    bad_window: Optional[int] = None,
    duration: float = 60.0,
    seed: int = 0,
    encouragement_delay: float = 0.0,
) -> ScenarioSpec:
    """Good and bad clients on one LAN (the §7.2-§7.4 workhorse)."""
    groups = _group(
        good_clients,
        "good",
        bandwidth_bps=client_bandwidth_bps,
        rate_rps=good_rate,
        window=good_window,
    ) + _group(
        bad_clients,
        "bad",
        bandwidth_bps=client_bandwidth_bps,
        rate_rps=bad_rate,
        window=bad_window,
    )
    return ScenarioSpec(
        name="lan-baseline",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
        encouragement_delay=encouragement_delay,
    )


@register("bandwidth-tiers")
def bandwidth_tiers(
    clients_per_category: int = 10,
    categories: int = 5,
    capacity_rps: float = 10.0,
    client_class: str = "good",
    base_bandwidth_bps: float = 0.5 * MBIT,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Figure 6: bandwidth category ``i`` uploads at ``i`` x the base rate."""
    groups: Tuple[GroupSpec, ...] = ()
    for index in range(categories):
        groups += _group(
            clients_per_category,
            client_class,
            bandwidth_bps=base_bandwidth_bps * (index + 1),
            category=f"cat-{index + 1}",
        )
    return ScenarioSpec(
        name="bandwidth-tiers",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        duration=duration,
        seed=seed,
    )


@register("rtt-tiers")
def rtt_tiers(
    clients_per_category: int = 10,
    categories: int = 5,
    capacity_rps: float = 10.0,
    client_class: str = "good",
    rtt_step_ms: float = 100.0,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Figure 7: RTT category ``i`` sits ``i * rtt_step_ms`` ms from the thinner."""
    groups: Tuple[GroupSpec, ...] = ()
    for index in range(categories):
        groups += _group(
            clients_per_category,
            client_class,
            bandwidth_bps=client_bandwidth_bps,
            category=f"cat-{index + 1}",
            # Host-attributed one-way delay supplies half the RTT contribution.
            extra_delay_s=milliseconds(rtt_step_ms * (index + 1)) / 2.0,
        )
    return ScenarioSpec(
        name="rtt-tiers",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        duration=duration,
        seed=seed,
    )


@register("shared-bottleneck")
def shared_bottleneck(
    good_behind: int = 15,
    bad_behind: int = 15,
    direct_good: int = 10,
    direct_bad: int = 10,
    bottleneck_bandwidth_bps: float = 40 * MBIT,
    capacity_rps: float = 50.0,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Figure 8: a good/bad mix reaches the thinner through shared cable ``l``."""
    groups: Tuple[GroupSpec, ...] = ()
    for count, client_class, category, behind in (
        (good_behind, "good", "bottleneck-good", True),
        (bad_behind, "bad", "bottleneck-bad", True),
        (direct_good, "good", "direct-good", False),
        (direct_bad, "bad", "direct-bad", False),
    ):
        groups += _group(
            count,
            client_class,
            bandwidth_bps=client_bandwidth_bps,
            category=category,
            behind_bottleneck=behind,
        )
    return ScenarioSpec(
        name="shared-bottleneck",
        topology=TopologySpec(
            kind="bottleneck", bottleneck_bandwidth_bps=bottleneck_bandwidth_bps
        ),
        groups=groups,
        capacity_rps=capacity_rps,
        duration=duration,
        seed=seed,
    )


@register("cross-traffic")
def cross_traffic(
    speakup_clients: int = 10,
    capacity_rps: float = 2.0,
    bottleneck_bandwidth_bps: float = 1 * MBIT,
    bottleneck_delay_s: float = milliseconds(100.0),
    client_bandwidth_bps: float = 2 * MBIT,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Figure 9: speak-up clients share dumbbell cable ``m`` with bystander ``H``."""
    groups = _group(speakup_clients, "good", bandwidth_bps=client_bandwidth_bps)
    return ScenarioSpec(
        name="cross-traffic",
        topology=TopologySpec(
            kind="dumbbell",
            bottleneck_bandwidth_bps=bottleneck_bandwidth_bps,
            bottleneck_delay_s=bottleneck_delay_s,
        ),
        groups=groups,
        capacity_rps=capacity_rps,
        duration=duration,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# New workloads beyond the paper
# ---------------------------------------------------------------------------


@register("flash-crowd")
def flash_crowd(
    good_clients: int = 25,
    bad_clients: int = 25,
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    flash_start_s: Optional[float] = None,
    flash_ramp_s: Optional[float] = None,
    baseline_fraction: float = 0.1,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """A legitimate flash crowd arrives mid-attack and ramps to full demand.

    Good demand idles at ``baseline_fraction`` of its peak until
    ``flash_start_s`` (default: a third of the run), then ramps linearly over
    ``flash_ramp_s`` (default: a tenth of the run) to the full §7.1 rate while
    the attackers fire steadily throughout.
    """
    start = duration / 3.0 if flash_start_s is None else flash_start_s
    ramp = duration / 10.0 if flash_ramp_s is None else flash_ramp_s
    groups = _group(
        good_clients,
        "good",
        arrival=ArrivalSpec(kind="flash", start_s=start, ramp_s=ramp, floor=baseline_fraction),
    ) + _group(bad_clients, "bad")
    return ScenarioSpec(
        name="flash-crowd",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("pulsed-attack")
def pulsed_attack(
    good_clients: int = 25,
    bad_clients: int = 25,
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    pulse_period_s: float = 10.0,
    pulse_on_s: float = 5.0,
    pulse_floor: float = 0.0,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """On-off attackers pulse at full rate for ``pulse_on_s`` of every period.

    Models the classic pulsed/shrew-style attacker that alternates between
    silence and full-rate request floods while good demand stays steady.
    """
    groups = _group(good_clients, "good") + _group(
        bad_clients,
        "bad",
        arrival=ArrivalSpec(
            kind="onoff", period_s=pulse_period_s, on_s=pulse_on_s, floor=pulse_floor
        ),
    )
    return ScenarioSpec(
        name="pulsed-attack",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("diurnal-demand")
def diurnal_demand(
    good_clients: int = 25,
    bad_clients: int = 25,
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    day_length_s: Optional[float] = None,
    trough_fraction: float = 0.2,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Good demand follows a compressed diurnal curve; the attack never sleeps.

    The "day" defaults to the run duration, so one run covers one trough-to-
    trough cycle with the demand peak mid-run.
    """
    day = duration if day_length_s is None else day_length_s
    groups = _group(
        good_clients,
        "good",
        arrival=ArrivalSpec(kind="diurnal", period_s=day, floor=trough_fraction),
    ) + _group(bad_clients, "bad")
    return ScenarioSpec(
        name="diurnal-demand",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("uplink-tiers")
def uplink_tiers(
    clients_per_tier: int = 6,
    tier_bandwidths_mbit: Sequence[float] = (0.5, 2.0, 10.0, 50.0),
    bad_fraction: float = 0.5,
    capacity_rps: float = 50.0,
    defense: str = "speakup",
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Good and bad clients spread across realistic access-uplink tiers.

    Each tier (DSL through fibre) holds ``clients_per_tier`` clients of which
    ``bad_fraction`` are attackers, probing how speak-up's bandwidth-
    proportional allocation treats a heterogeneous clientele under attack.
    """
    if not 0.0 <= bad_fraction <= 1.0:
        raise ExperimentError(f"bad_fraction must be in [0, 1], got {bad_fraction}")
    bad = round(clients_per_tier * bad_fraction)
    good = clients_per_tier - bad
    groups: Tuple[GroupSpec, ...] = ()
    for index, mbit in enumerate(tier_bandwidths_mbit):
        tier = dict(bandwidth_bps=mbit * MBIT, category=f"tier-{index + 1}")
        groups += _group(good, "good", **tier) + _group(bad, "bad", **tier)
    return ScenarioSpec(
        name="uplink-tiers",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("adaptive-pulse")
def adaptive_pulse(
    good_clients: int = 25,
    bad_clients: int = 25,
    capacity_rps: float = 100.0,
    inner_defense: str = "speakup",
    pulse_start_s: Optional[float] = None,
    pulse_length_s: Optional[float] = None,
    engage_threshold: float = 0.9,
    disengage_threshold: float = 0.6,
    check_interval_s: float = 1.0,
    bad_rate: Optional[float] = None,
    bad_window: Optional[int] = None,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """One attack pulse against an adaptive thinner that engages speak-up on load.

    The paper's "the thinner does nothing in peacetime" design point as a
    runnable experiment: good demand is steady and modest, the attackers
    fire a single full-rate pulse from ``pulse_start_s`` (default: a quarter
    of the run) for ``pulse_length_s`` (default: a quarter of the run), and
    the :class:`~repro.defenses.adaptive.AdaptiveDefense` load watcher —
    sampling utilisation every ``check_interval_s`` against the
    ``engage_threshold``/``disengage_threshold`` hysteresis band — should
    leave the inner defense off before the pulse, engage it during, and
    disengage after the backlog drains.
    """
    start = duration / 4.0 if pulse_start_s is None else pulse_start_s
    length = duration / 4.0 if pulse_length_s is None else pulse_length_s
    if not 0.0 <= start < duration:
        raise ExperimentError(f"pulse_start_s must be within the run, got {start}")
    if not 0.0 < length <= duration:
        raise ExperimentError(f"pulse_length_s must be positive, got {length}")
    groups = _group(good_clients, "good") + _group(
        bad_clients,
        "bad",
        rate_rps=bad_rate,
        window=bad_window,
        # One on-window per run: the period is the whole duration and the
        # phase lines the window's start up with the pulse.
        arrival=ArrivalSpec(
            kind="onoff", period_s=duration, on_s=length, phase_s=duration - start, floor=0.0
        ),
    )
    return ScenarioSpec(
        name="adaptive-pulse",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=DefenseSpec.make(
            "adaptive",
            inner=normalise_defense(inner_defense),
            engage_threshold=engage_threshold,
            disengage_threshold=disengage_threshold,
            check_interval=check_interval_s,
        ),
        duration=duration,
        seed=seed,
    )


@register("layered-lan")
def layered_lan(
    good_clients: int = 25,
    bad_clients: int = 25,
    capacity_rps: float = 100.0,
    allowed_rps: float = 8.0,
    admission_defense: str = "speakup",
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """The §7.2 LAN mix behind a layered defense: rate-limit filter, then auction.

    The paper's compatibility claim ("speak-up composes with other
    defenses") as a scenario: a per-identity rate-limit stage screens
    contenders at ``allowed_rps`` before they enter the
    ``admission_defense`` thinner, so crude floods are cut by the filter
    while the auction prices whatever stays under the radar.  Per-stage
    drop attribution lands in ``RunResult.stages``.
    """
    groups = _group(good_clients, "good") + _group(bad_clients, "bad")
    return ScenarioSpec(
        name="layered-lan",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=DefenseSpec.make(
            "pipeline",
            stages=(
                DefenseSpec.make("ratelimit", allowed_rps=allowed_rps),
                normalise_defense(admission_defense),
            ),
        ),
        duration=duration,
        seed=seed,
    )


@register("fleet-lan")
def fleet_lan(
    good_clients: int = 25,
    bad_clients: int = 25,
    thinner_shards: int = 4,
    shard_policy: str = "hash",
    admission_mode: str = "partitioned",
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    fleet_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    bad_window: Optional[int] = None,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """The §7.2 workload in front of a sharded thinner fleet (§4.3).

    The lan-baseline population, but the single thinner is replaced by
    ``thinner_shards`` independent front-ends, each on its own access link
    carrying an even split of ``fleet_bandwidth_bps``.  ``shard_policy``
    picks how clients are pinned to shards and ``admission_mode`` how the
    shards share the server's slots — the two knobs §4.3's scale-out sketch
    leaves open.
    """
    groups = _group(good_clients, "good", bandwidth_bps=client_bandwidth_bps) + _group(
        bad_clients, "bad", bandwidth_bps=client_bandwidth_bps, window=bad_window
    )
    return ScenarioSpec(
        name="fleet-lan",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=fleet_bandwidth_bps),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
        thinner_shards=thinner_shards,
        shard_policy=shard_policy,
        admission_mode=admission_mode,
    )


@register("fleet-failover")
def fleet_failover(
    good_clients: int = 25,
    bad_clients: int = 25,
    thinner_shards: int = 4,
    shard_policy: str = "hash",
    admission_mode: str = "pooled",
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    kill_shard: int = 1,
    kill_at_s: float = 20.0,
    heal_at_s: float = 40.0,
    repin_ttl_s: float = 2.0,
    sample_interval_s: float = 0.25,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    fleet_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """The fleet-lan workload through a mid-run shard kill/heal pulse.

    Exercises the failover dynamics §4.3 leaves open: at ``kill_at_s`` shard
    ``kill_shard`` drops dead — its access link goes down, its contenders
    and in-flight requests are orphaned — and its clients re-resolve to the
    survivors after a DNS-TTL-style lag drawn from ``[0, repin_ttl_s]``.
    At ``heal_at_s`` the shard rejoins the candidate set (already-re-pinned
    clients stay where they are — cached resolutions are sticky).  Pooled
    admission is the default so the server's full capacity survives the
    kill and good-client service can recover to its pre-kill level; with
    ``partitioned`` the dead shard's ``c/N`` slice idles instead.  The
    injector samples cumulative good service every ``sample_interval_s``;
    ``repro.cli failover`` plots the dip and recovery.
    """
    from repro.faults.spec import kill_heal_pulse

    groups = _group(good_clients, "good", bandwidth_bps=client_bandwidth_bps) + _group(
        bad_clients, "bad", bandwidth_bps=client_bandwidth_bps
    )
    return ScenarioSpec(
        name="fleet-failover",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=fleet_bandwidth_bps),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
        thinner_shards=thinner_shards,
        shard_policy=shard_policy,
        admission_mode=admission_mode,
        fault_plan=kill_heal_pulse(
            kill_shard,
            kill_at_s,
            heal_at_s,
            repin_ttl_s=repin_ttl_s,
            sample_interval_s=sample_interval_s,
        ),
    )


@register("fleet-brownout")
def fleet_brownout(
    good_clients: int = 25,
    bad_clients: int = 25,
    thinner_shards: int = 4,
    shard_policy: str = "hash",
    admission_mode: str = "pooled",
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    fault: str = "stall",
    fault_shard: int = 1,
    degrade_factor: float = 0.05,
    loss_p: float = 0.6,
    loss_scope: str = "fleet",
    start_at_s: Optional[float] = None,
    end_at_s: Optional[float] = None,
    retry: str = "none",
    health_probe: bool = False,
    probe_interval_s: float = 0.5,
    eject_fraction: float = 0.3,
    holddown_s: float = 3.0,
    sample_interval_s: float = 0.25,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    provisioning_headroom: float = 2.0,
    duration: float = 60.0,
    seed: int = 0,
) -> ScenarioSpec:
    """The fleet-lan workload through a mid-run gray-failure (brownout) pulse.

    Unlike ``fleet-failover``'s fail-stop kill, the faulted shard *stays up*
    — ``fault`` picks how it misbehaves between ``start_at_s`` (default: a
    third of the run) and ``end_at_s`` (default: two thirds):

    * ``"degrade"`` — the shard's access link drops to ``degrade_factor``
      of its capacity (payments trickle; admission keeps running);
    * ``"lossy"`` — completed uploads are dropped with probability
      ``loss_p``, on ``fault_shard`` only (``loss_scope="shard"``) or on
      every shard (``"fleet"``, the retry-amplification workload);
    * ``"stall"`` — the shard stops granting admission but keeps accepting
      bytes, starving its pinned clients (the ejection workload).

    ``retry`` arms the clients' upload retry discipline: ``"none"`` (the
    historical fire-and-forget), ``"naive"`` (immediate unbudgeted retries —
    measure the amplification), or ``"budgeted"`` (token-bucket budget plus
    decorrelated-jitter backoff).  ``health_probe`` arms the fleet's
    :class:`~repro.core.fleet.HealthProber`, which should eject the faulted
    shard and route its clients around the brownout.  Shard links split
    ``provisioning_headroom`` times the aggregate client bandwidth, so a
    degraded link actually bites.  ``repro.cli brownout`` runs the
    retry-amplification and ejection comparisons at this scenario's knobs.
    """
    from repro.clients.base import RetryPolicy
    from repro.core.fleet import HealthProbeSpec
    from repro.faults.spec import gray_pulse

    if fault not in ("degrade", "lossy", "stall"):
        raise ExperimentError(
            f"unknown fault {fault!r}; expected 'degrade', 'lossy' or 'stall'"
        )
    if loss_scope not in ("shard", "fleet"):
        raise ExperimentError(
            f"unknown loss_scope {loss_scope!r}; expected 'shard' or 'fleet'"
        )
    if retry not in ("none", "naive", "budgeted"):
        raise ExperimentError(
            f"unknown retry preset {retry!r}; expected 'none', 'naive' or 'budgeted'"
        )
    start = duration / 3.0 if start_at_s is None else start_at_s
    end = 2.0 * duration / 3.0 if end_at_s is None else end_at_s
    if fault == "lossy" and loss_scope == "fleet":
        fault_shards = tuple(range(thinner_shards))
    else:
        fault_shards = (fault_shard,)
    plan = gray_pulse(
        fault_shards,
        start,
        end,
        factor=degrade_factor if fault == "degrade" else None,
        loss_p=loss_p if fault == "lossy" else None,
        stall=fault == "stall",
        sample_interval_s=sample_interval_s,
    )
    retry_policy = {
        "none": None,
        "naive": RetryPolicy.naive(),
        "budgeted": RetryPolicy.budgeted(),
    }[retry]
    total = good_clients + bad_clients
    fleet_bandwidth = total * client_bandwidth_bps * provisioning_headroom
    groups = _group(good_clients, "good", bandwidth_bps=client_bandwidth_bps) + _group(
        bad_clients, "bad", bandwidth_bps=client_bandwidth_bps
    )
    return ScenarioSpec(
        name="fleet-brownout",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=fleet_bandwidth),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
        thinner_shards=thinner_shards,
        shard_policy=shard_policy,
        admission_mode=admission_mode,
        fault_plan=plan,
        retry_policy=retry_policy,
        health_probe=(
            HealthProbeSpec(
                interval_s=probe_interval_s,
                eject_fraction=eject_fraction,
                holddown_s=holddown_s,
            )
            if health_probe
            else None
        ),
    )


@register("fleet-mega")
def fleet_mega(
    good_clients: int = 16000,
    bad_clients: int = 1600,
    thinner_shards: int = 8,
    shard_policy: str = "hash",
    admission_mode: str = "partitioned",
    capacity_rps: float = 6000.0,
    defense: str = "speakup",
    good_rate: float = 1.0,
    bad_rate: float = 40.0,
    bad_window: int = 20,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    provisioning_headroom: float = 1.25,
    duration: float = 0.5,
    seed: int = 0,
) -> ScenarioSpec:
    """Perf-harness fleet workload: ≥17k clients spread over 8 front-ends.

    Not a paper figure — the ``repro.cli bench`` *fleet* mega scale,
    complementing ``thinner-mega`` (one thinner absorbing everything).  The
    same over-demanded auction-bound regime, but the population is hashed
    across ``thinner_shards`` independent thinners whose per-shard access
    links split an aggregate provisioned at ``provisioning_headroom`` times
    the total client bandwidth (condition C1 of §4.3).  Each shard runs its
    own kinetic bid index over ~1/N of the contenders, so the case
    benchmarks how admission cost and payment-sink load divide across a
    scale-out fleet.
    """
    total = good_clients + bad_clients
    fleet_bandwidth = max(
        DEFAULT_THINNER_BANDWIDTH, total * client_bandwidth_bps * provisioning_headroom
    )
    groups = _group(
        good_clients, "good", bandwidth_bps=client_bandwidth_bps, rate_rps=good_rate
    ) + _group(
        bad_clients,
        "bad",
        bandwidth_bps=client_bandwidth_bps,
        rate_rps=bad_rate,
        window=bad_window,
    )
    return ScenarioSpec(
        name="fleet-mega",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=fleet_bandwidth),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
        thinner_shards=thinner_shards,
        shard_policy=shard_policy,
        admission_mode=admission_mode,
    )


@register("fabric-mega")
def fabric_mega(
    good_clients: int = 16000,
    bad_clients: int = 1600,
    thinner_shards: int = 8,
    fabric: str = "leaf-spine",
    leaves: int = 8,
    spines: int = 3,
    fabric_k: int = 4,
    oversubscription: float = 4.0,
    cross_traffic_pairs: int = 4,
    router: str = "power-of-two",
    probe: str = "pins",
    probe_window_s: float = 0.5,
    spill_factor: float = 1.25,
    admission_mode: str = "partitioned",
    capacity_rps: float = 6000.0,
    defense: str = "speakup",
    good_rate: float = 1.0,
    bad_rate: float = 40.0,
    bad_window: int = 20,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    provisioning_headroom: float = 1.25,
    duration: float = 0.5,
    seed: int = 0,
) -> ScenarioSpec:
    """The §4.3 fleet on a datacenter fabric, under any dispatch strategy.

    ``fleet-mega``'s over-demanded population, moved off the star-of-stars
    toy onto a real fabric shape: ``fabric`` picks ``leaf-spine`` (default),
    ``fat-tree``, or ``star`` (the legacy star-of-stars, for like-for-like
    strategy comparisons).  The core tier is ``oversubscription``:1
    oversubscribed and ``cross_traffic_pairs`` unbounded bystander flows
    occupy core links, so ECMP path collisions and shard choice genuinely
    move good-client service.  ``router`` selects any registered dispatch
    strategy (``hash``, ``least-loaded``, ``random``, ``power-of-two``,
    ``weighted-sink``, ``sticky-spill``) observing the ``probe`` signal —
    the ``repro.cli fabric`` experiment sweeps both axes.
    """
    fabrics = ("leaf-spine", "fat-tree", "star")
    if fabric not in fabrics:
        raise ExperimentError(
            f"unknown fabric {fabric!r}; expected one of {fabrics}"
        )
    total = good_clients + bad_clients
    fleet_bandwidth = max(
        DEFAULT_THINNER_BANDWIDTH, total * client_bandwidth_bps * provisioning_headroom
    )
    if fabric == "star":
        topology = TopologySpec(kind="lan", thinner_bandwidth_bps=fleet_bandwidth)
    elif fabric == "fat-tree":
        topology = TopologySpec(
            kind="fat-tree",
            thinner_bandwidth_bps=fleet_bandwidth,
            fabric_k=fabric_k,
            oversubscription=oversubscription,
            cross_traffic_pairs=cross_traffic_pairs,
        )
    else:
        topology = TopologySpec(
            kind="leaf-spine",
            thinner_bandwidth_bps=fleet_bandwidth,
            leaves=leaves,
            spines=spines,
            oversubscription=oversubscription,
            cross_traffic_pairs=cross_traffic_pairs,
        )
    groups = _group(
        good_clients, "good", bandwidth_bps=client_bandwidth_bps, rate_rps=good_rate
    ) + _group(
        bad_clients,
        "bad",
        bandwidth_bps=client_bandwidth_bps,
        rate_rps=bad_rate,
        window=bad_window,
    )
    return ScenarioSpec(
        name="fabric-mega",
        topology=topology,
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
        thinner_shards=thinner_shards,
        shard_policy=RouterSpec(
            name=router,
            probe=probe,
            probe_window_s=probe_window_s,
            spill_factor=spill_factor,
        ),
        admission_mode=admission_mode,
    )


@register("stress-mega")
def stress_mega(
    good_clients: int = 4500,
    bad_clients: int = 500,
    capacity_rps: float = 100.0,
    defense: str = "speakup",
    bad_window: int = 10,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    duration: float = 0.25,
    seed: int = 0,
) -> ScenarioSpec:
    """Perf-harness stress workload: thousands of clients hammering one thinner.

    Not a paper figure — this is the ``repro.cli bench`` mega scale.  It keeps
    the §7.1 client parameters but multiplies the population to ≥5k clients
    (4500 good + 500 bad by default, the bad ones window-limited so the run
    stays auction-bound rather than degenerating into pure backlog sweeping),
    which exercises the fluid network's rate-reallocation hot path far beyond
    the paper's 50-host Emulab scale: thousands of concurrent payment flows
    whose aggregate static bounds approach the thinner's provisioned access
    bandwidth, the regime where naive potential-load accounting collapses
    every rate update into a global recomputation.
    """
    groups = _group(good_clients, "good", bandwidth_bps=client_bandwidth_bps) + _group(
        bad_clients, "bad", bandwidth_bps=client_bandwidth_bps, window=bad_window
    )
    return ScenarioSpec(
        name="stress-mega",
        topology=TopologySpec(kind="lan"),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("thinner-mega")
def thinner_mega(
    good_clients: int = 48000,
    flash_clients: int = 1000,
    bad_clients: int = 1000,
    capacity_rps: float = 16000.0,
    defense: str = "speakup",
    good_rate: float = 1.0,
    bad_rate: float = 40.0,
    bad_window: int = 20,
    flash_start_s: float = 0.3,
    flash_ramp_s: float = 0.15,
    flash_floor: float = 0.02,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    provisioning_headroom: float = 1.25,
    duration: float = 0.5,
    seed: int = 0,
) -> ScenarioSpec:
    """Perf-harness auction workload: ≥50k clients contending at one thinner.

    Not a paper figure — this is the ``repro.cli bench`` *admission-path*
    mega scale, complementing ``stress-mega`` (which stresses the fluid
    allocator).  Tens of thousands of window-limited clients park requests
    at the thinner while a heavily over-demanded server frees slots at
    ``capacity_rps``, so the run is dominated by winner selection: every
    freed slot holds a virtual auction over the whole contender set (§3.3).
    A small flash cohort idles at ``flash_floor`` until ``flash_start_s``,
    exercising batched arrival pregeneration for mostly-idle clients, and
    the bad cohort keeps ``bad_window`` concurrent payment channels per
    uplink (the §7.1 parameters), which also drives ≥16-flow components
    through the allocator's signature cache.  The thinner's access link is
    provisioned at ``provisioning_headroom`` times the aggregate client
    bandwidth (condition C1 of §4.3), so admission — not the fluid
    allocator — is the bottleneck.
    """
    total = good_clients + flash_clients + bad_clients
    thinner_bandwidth = max(
        DEFAULT_THINNER_BANDWIDTH, total * client_bandwidth_bps * provisioning_headroom
    )
    groups = (
        _group(good_clients, "good", bandwidth_bps=client_bandwidth_bps, rate_rps=good_rate)
        + _group(
            flash_clients,
            "good",
            bandwidth_bps=client_bandwidth_bps,
            category="flash",
            arrival=ArrivalSpec(
                kind="flash", start_s=flash_start_s, ramp_s=flash_ramp_s, floor=flash_floor
            ),
        )
        + _group(
            bad_clients,
            "bad",
            bandwidth_bps=client_bandwidth_bps,
            rate_rps=bad_rate,
            window=bad_window,
        )
    )
    return ScenarioSpec(
        name="thinner-mega",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=thinner_bandwidth),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("soa-mega")
def soa_mega(
    good_clients: int = 199500,
    bad_clients: int = 500,
    capacity_rps: float = 400.0,
    defense: str = "speakup",
    good_rate: float = 0.02,
    bad_rate: float = 40.0,
    bad_window: int = 1,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    thinner_bandwidth_bps: float = 400 * MBIT,
    duration: float = 0.1,
    seed: int = 0,
) -> ScenarioSpec:
    """Perf-harness array workload: ≥200k clients, one saturated payment sink.

    Not a paper figure — this is the ``repro.cli bench`` *struct-of-arrays*
    mega scale, complementing ``stress-mega`` (many small components) and
    ``thinner-mega`` (admission-bound).  Two hundred thousand clients sit on
    one switch; unlike ``thinner-mega`` the thinner's access link is
    deliberately *under*-provisioned (``thinner_bandwidth_bps`` defaults to
    a fraction of the payment fleet's aggregate uplink), so the concurrent
    payment POSTs from the bad cohort over-subscribe it and every re-rate
    touches one huge shared component.  That drives components far past
    :attr:`~repro.simnet.network.FluidNetwork.VEC_MIN_COMPONENT` straight
    down the vectorized waterfill and array re-rate path, which is exactly
    the regime the struct-of-arrays layout exists for: per-event cost must
    stay bounded by the *array* work, not by 200k Python objects.  The good
    cohort trickles requests at ``good_rate`` so admission traffic (and the
    kinetic bid index) stays exercised without drowning the run in
    arrivals; starting that many mostly-idle clients also pins the batched
    arrival-pregeneration cost at the 200k scale.
    """
    groups = _group(
        good_clients, "good", bandwidth_bps=client_bandwidth_bps, rate_rps=good_rate
    ) + _group(
        bad_clients,
        "bad",
        bandwidth_bps=client_bandwidth_bps,
        rate_rps=bad_rate,
        window=bad_window,
    )
    return ScenarioSpec(
        name="soa-mega",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=thinner_bandwidth_bps),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    )


@register("rollup-mega")
def rollup_mega(
    good_clients: int = 499000,
    bad_clients: int = 1000,
    capacity_rps: float = 1000.0,
    defense: str = "speakup",
    good_rate: float = 0.02,
    bad_rate: float = 40.0,
    bad_window: int = 1,
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH,
    thinner_bandwidth_bps: float = 1000 * MBIT,
    duration: float = 0.05,
    telemetry_mode: str = "rollup",
    reservoir: int = 512,
    bucket_s: float = 0.01,
    max_buckets: int = 4096,
    seed: int = 0,
) -> ScenarioSpec:
    """Perf-harness telemetry workload: ≥500k clients under rollup collectors.

    Not a paper figure — the ``repro.cli bench`` *measurement-plane* mega
    scale.  Half a million clients on one switch reuse the ``soa-mega``
    traffic shape (a trickling good cohort over a saturated payment sink),
    but the run records through the streaming telemetry plane
    (:mod:`repro.telemetry`): reservoir samplers and time-bucketed rollups
    instead of unbounded per-request lists, so collector memory is
    O(buckets + reservoir) while the request count grows with the
    population.  ``telemetry_mode="full"`` flips the same population back
    to the historical exact collector, which is how the bench's peak-RSS
    and ``records_emitted`` gauges demonstrate the footprint difference.
    """
    groups = _group(
        good_clients, "good", bandwidth_bps=client_bandwidth_bps, rate_rps=good_rate
    ) + _group(
        bad_clients,
        "bad",
        bandwidth_bps=client_bandwidth_bps,
        rate_rps=bad_rate,
        window=bad_window,
    )
    return ScenarioSpec(
        name="rollup-mega",
        topology=TopologySpec(kind="lan", thinner_bandwidth_bps=thinner_bandwidth_bps),
        groups=groups,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        telemetry=TelemetrySpec(
            mode=telemetry_mode,
            reservoir=reservoir,
            bucket_s=bucket_s,
            max_buckets=max_buckets,
        ),
        seed=seed,
    )
