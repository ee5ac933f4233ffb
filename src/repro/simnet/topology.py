"""Topologies: how hosts reach each other.

Every topology in the paper's evaluation is a star: clients and the thinner
hang off a core switch, possibly with a shared cable (the bottleneck ``l`` of
§7.6 or ``m`` of §7.7) between a group of clients and the switch.  We model
exactly that: each host attaches to the core either directly or through a
chain of :class:`~repro.simnet.link.DuplexLink` objects, and the path between
two hosts is "up through the source's chain, down through the destination's".

Beyond the paper's stars, :class:`FabricTopology` and its builders
(:func:`build_fat_tree`, :func:`build_leaf_spine`) model the hierarchical
datacenter fabrics a real multi-datacenter thinner fleet would sit in:
multiple switch tiers, configurable oversubscription, ECMP-style hashed path
selection at every fan-out point, and optional cross-traffic endpoint pairs
whose flows occupy core links.  Fabric switch-to-switch links are ordinary
shared :class:`~repro.simnet.link.DuplexLink` cables, so the fluid network
registers and waterfills them with no special cases — only path computation
differs, via the :meth:`Topology._route` hook.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.constants import MBIT, milliseconds
from repro.errors import TopologyError
from repro.rng import derive_seed
from repro.simnet.host import Host, make_host
from repro.simnet.link import DuplexLink, Link


class Topology:
    """A star topology with optional shared cables between hosts and the core."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._hosts: Dict[str, Host] = {}
        #: Shared cables between a host and the core, for hosts that have any.
        self._via: Dict[str, List[DuplexLink]] = {}
        self._shared: Dict[str, DuplexLink] = {}
        # Route and delay memos: topologies are static star shapes queried
        # millions of times (every flow start builds a path, every
        # encouragement computes a delay), so both are cached per endpoint
        # pair and invalidated whenever the shape changes.  Link delays and
        # host-attributed delays are immutable after construction.
        self._path_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._delay_cache: Dict[Tuple[str, str], float] = {}

    # -- construction -----------------------------------------------------------

    def _invalidate_routes(self) -> None:
        self._path_cache.clear()
        self._delay_cache.clear()

    def add_shared_link(self, link: DuplexLink) -> DuplexLink:
        """Register a shared cable so it can be referenced by name."""
        if link.name in self._shared:
            raise TopologyError(f"shared link {link.name!r} already exists")
        self._shared[link.name] = link
        self._invalidate_routes()
        return link

    def add_host(self, host: Host, via: Optional[Sequence[DuplexLink]] = None) -> Host:
        """Attach ``host`` to the core, optionally through shared cables."""
        if host.name in self._hosts:
            raise TopologyError(f"host {host.name!r} already exists")
        self._hosts[host.name] = host
        if via:
            chain = list(via)
            for link in chain:
                if link.name not in self._shared:
                    self._shared[link.name] = link
            self._via[host.name] = chain
        self._invalidate_routes()
        return host

    # -- lookups ---------------------------------------------------------------

    @property
    def hosts(self) -> List[Host]:
        """All hosts, in insertion order."""
        return list(self._hosts.values())

    def built_links(self) -> Iterator[Link]:
        """Every directed link built so far: the access links of hosts that a
        path was routed through (host order), then both directions of every
        shared cable."""
        for host in self._hosts.values():
            access = host._access
            if access is not None:
                yield access.up
                yield access.down
        for cable in self._shared.values():
            yield cable.up
            yield cable.down

    def host(self, name: str) -> Host:
        """Look a host up by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise TopologyError(f"unknown host {name!r}") from None

    def shared_link(self, name: str) -> DuplexLink:
        """Look a shared cable up by name."""
        try:
            return self._shared[name]
        except KeyError:
            raise TopologyError(f"unknown shared link {name!r}") from None

    def __contains__(self, host: Host) -> bool:
        return host.name in self._hosts and self._hosts[host.name] is host

    # -- routing -----------------------------------------------------------------

    def upstream_links(self, host: Host) -> List[Link]:
        """Directed links from ``host`` to the core (access uplink first)."""
        self._check(host)
        return [host.access.up] + [cable.up for cable in self._via.get(host.name, ())]

    def downstream_links(self, host: Host) -> List[Link]:
        """Directed links from the core to ``host`` (access downlink last)."""
        self._check(host)
        chain = self._via.get(host.name, ())
        return [cable.down for cable in reversed(chain)] + [host.access.down]

    def path(self, src: Host, dst: Host) -> List[Link]:
        """Directed links a flow from ``src`` to ``dst`` crosses.

        Callers must treat the returned list as read-only (it is a shared
        memo; :class:`~repro.simnet.flow.Flow` copies it anyway).
        """
        if src is dst:
            raise TopologyError(f"flow endpoints must differ (got {src.name!r} twice)")
        key = (src.name, dst.name)
        cached = self._path_cache.get(key)
        # The memo is keyed by name; verify identity so a stale host object
        # with a reused name still raises like the uncached lookup would.
        if (
            cached is not None
            and self._hosts.get(src.name) is src
            and self._hosts.get(dst.name) is dst
        ):
            return cached
        links = self._route(src, dst)
        self._path_cache[key] = links
        return links

    def _route(self, src: Host, dst: Host) -> List[Link]:
        """Uncached path computation; fabric topologies override this."""
        return self.upstream_links(src) + self.downstream_links(dst)

    def one_way_delay(self, src: Host, dst: Host) -> float:
        """Propagation delay from ``src`` to ``dst``, including host-attributed delay."""
        key = (src.name, dst.name)
        cached = self._delay_cache.get(key)
        if (
            cached is not None
            and self._hosts.get(src.name) is src
            and self._hosts.get(dst.name) is dst
        ):
            return cached
        links = self.path(src, dst)
        delay = sum(link.delay_s for link in links) + src.extra_delay_s + dst.extra_delay_s
        self._delay_cache[key] = delay
        return delay

    def rtt(self, a: Host, b: Host) -> float:
        """Round-trip propagation delay between two hosts."""
        return self.one_way_delay(a, b) + self.one_way_delay(b, a)

    def _check(self, host: Host) -> None:
        if host.name not in self._hosts or self._hosts[host.name] is not host:
            raise TopologyError(f"host {host.name!r} is not part of topology {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology({self.name!r}, hosts={len(self._hosts)}, shared={len(self._shared)})"


# ---------------------------------------------------------------------------
# Builders matching the paper's Emulab setups
# ---------------------------------------------------------------------------

#: Default capacity of the thinner's access link: generous, per condition C1
#: ("the thinner needs enough bandwidth to absorb a full DDoS attack and
#: more", §4.3), and deliberately far above any aggregate client bandwidth in
#: the evaluation topologies so the thinner's own link never bottlenecks.
DEFAULT_THINNER_BANDWIDTH = 10_000 * MBIT

#: Default one-way delay of a LAN hop in the evaluation topologies.
DEFAULT_LAN_DELAY = milliseconds(1.0)


def build_lan(
    client_bandwidths_bps: Sequence[float],
    client_delays_s: Optional[Sequence[float]] = None,
    thinner_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    lan_delay_s: float = DEFAULT_LAN_DELAY,
    name: str = "lan",
) -> Tuple[Topology, List[Host], Host]:
    """The §7.2–§7.5 topology: N clients and the thinner on one LAN.

    ``client_delays_s`` gives each client's one-way host-attributed delay
    (used by the RTT-heterogeneity experiment, Figure 7); it defaults to zero
    extra delay beyond the LAN hop.
    """
    count = len(client_bandwidths_bps)
    if count == 0:
        raise TopologyError("need at least one client")
    if client_delays_s is not None and len(client_delays_s) != count:
        raise TopologyError("client_delays_s must match client_bandwidths_bps in length")

    topology = Topology(name)
    thinner = make_host("thinner", thinner_bandwidth_bps, delay_s=lan_delay_s, kind="thinner")
    topology.add_host(thinner)

    clients: List[Host] = []
    for index, bandwidth in enumerate(client_bandwidths_bps):
        extra = client_delays_s[index] if client_delays_s is not None else 0.0
        client = make_host(
            f"client-{index:03d}",
            upload_bps=bandwidth,
            delay_s=lan_delay_s,
            kind="client",
            extra_delay_s=extra,
        )
        topology.add_host(client)
        clients.append(client)
    return topology, clients, thinner


def build_bottleneck(
    bottlenecked_bandwidths_bps: Sequence[float],
    direct_bandwidths_bps: Sequence[float],
    bottleneck_bandwidth_bps: float,
    bottleneck_delay_s: float = DEFAULT_LAN_DELAY,
    thinner_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    lan_delay_s: float = DEFAULT_LAN_DELAY,
    name: str = "bottleneck",
) -> Tuple[Topology, List[Host], List[Host], Host, DuplexLink]:
    """The §7.6 topology: some clients reach the thinner through shared cable ``l``.

    Returns ``(topology, bottlenecked_clients, direct_clients, thinner, l)``.
    """
    topology = Topology(name)
    thinner = make_host("thinner", thinner_bandwidth_bps, delay_s=lan_delay_s, kind="thinner")
    topology.add_host(thinner)

    shared = DuplexLink("l", bottleneck_bandwidth_bps, delay_s=bottleneck_delay_s)
    topology.add_shared_link(shared)

    bottlenecked: List[Host] = []
    for index, bandwidth in enumerate(bottlenecked_bandwidths_bps):
        client = make_host(
            f"bn-client-{index:03d}", upload_bps=bandwidth, delay_s=lan_delay_s, kind="client"
        )
        topology.add_host(client, via=[shared])
        bottlenecked.append(client)

    direct: List[Host] = []
    for index, bandwidth in enumerate(direct_bandwidths_bps):
        client = make_host(
            f"client-{index:03d}", upload_bps=bandwidth, delay_s=lan_delay_s, kind="client"
        )
        topology.add_host(client)
        direct.append(client)

    return topology, bottlenecked, direct, thinner, shared


def build_dumbbell(
    left_bandwidths_bps: Sequence[float],
    bottleneck_bandwidth_bps: float,
    bottleneck_delay_s: float,
    thinner_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    web_server_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    lan_delay_s: float = DEFAULT_LAN_DELAY,
    name: str = "dumbbell",
) -> Tuple[Topology, List[Host], Host, Host, Host, DuplexLink]:
    """The §7.7 topology: speak-up clients plus victim host ``H`` behind cable ``m``.

    On the far side of ``m`` sit the thinner and a separate web server ``S``.
    Returns ``(topology, clients, victim, thinner, web_server, m)``.
    """
    topology = Topology(name)
    shared = DuplexLink("m", bottleneck_bandwidth_bps, delay_s=bottleneck_delay_s)
    topology.add_shared_link(shared)

    thinner = make_host("thinner", thinner_bandwidth_bps, delay_s=lan_delay_s, kind="thinner")
    web_server = make_host("webserver", web_server_bandwidth_bps, delay_s=lan_delay_s, kind="server")
    topology.add_host(thinner)
    topology.add_host(web_server)

    clients: List[Host] = []
    for index, bandwidth in enumerate(left_bandwidths_bps):
        client = make_host(
            f"client-{index:03d}", upload_bps=bandwidth, delay_s=lan_delay_s, kind="client"
        )
        topology.add_host(client, via=[shared])
        clients.append(client)

    victim = make_host("H", upload_bps=clients[0].upload_capacity_bps if clients else 2 * MBIT,
                       delay_s=lan_delay_s, kind="victim")
    topology.add_host(victim, via=[shared])
    return topology, clients, victim, thinner, web_server, shared


def build_fleet(
    client_bandwidths_bps: Sequence[float],
    thinner_shards: int,
    client_delays_s: Optional[Sequence[float]] = None,
    fleet_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    lan_delay_s: float = DEFAULT_LAN_DELAY,
    name: str = "fleet",
) -> Tuple[Topology, List[Host], List[Host]]:
    """The §4.3 scale-out topology: N thinner front-ends on one core.

    A star of stars: every client and every shard hangs off the core switch,
    and each shard has its *own* access link — the per-shard provisioning
    the paper's scale-out sketch requires.  The fleet splits
    ``fleet_bandwidth_bps`` evenly (each shard gets ``fleet / shards``), so
    adding shards models adding identically-provisioned front-end boxes
    whose aggregate absorbs the attack.

    Shard hosts are named ``thinner-00``, ``thinner-01``, ...  Returns
    ``(topology, client_hosts, thinner_hosts)``.  With ``thinner_shards=1``
    this is :func:`build_lan` with a one-element fleet (the host keeps the
    numbered name, so single-thinner deployments use :func:`build_lan`).
    """
    if thinner_shards < 1:
        raise TopologyError(f"thinner_shards must be at least 1, got {thinner_shards}")
    count = len(client_bandwidths_bps)
    if count == 0:
        raise TopologyError("need at least one client")
    if thinner_shards > count:
        raise TopologyError(
            f"thinner_shards ({thinner_shards}) must not exceed the client count "
            f"({count}): empty shards skew the fleet's health baselines"
        )
    if client_delays_s is not None and len(client_delays_s) != count:
        raise TopologyError("client_delays_s must match client_bandwidths_bps in length")
    per_shard = _shard_bandwidth(thinner_shards, fleet_bandwidth_bps)

    topology = Topology(name)
    thinners: List[Host] = []
    for index in range(thinner_shards):
        shard = make_host(
            f"thinner-{index:02d}", per_shard, delay_s=lan_delay_s, kind="thinner"
        )
        topology.add_host(shard)
        thinners.append(shard)

    clients: List[Host] = []
    for index, bandwidth in enumerate(client_bandwidths_bps):
        extra = client_delays_s[index] if client_delays_s is not None else 0.0
        client = make_host(
            f"client-{index:03d}",
            upload_bps=bandwidth,
            delay_s=lan_delay_s,
            kind="client",
            extra_delay_s=extra,
        )
        topology.add_host(client)
        clients.append(client)
    return topology, clients, thinners


# ---------------------------------------------------------------------------
# Datacenter fabrics: leaf-spine and fat-tree with ECMP and oversubscription
# ---------------------------------------------------------------------------


class FabricTopology(Topology):
    """A multi-tier switch fabric with ECMP hashed path selection.

    Hosts attach to an *edge* (a leaf switch in leaf-spine, an edge switch in
    a fat-tree); switch-to-switch cables are shared
    :class:`~repro.simnet.link.DuplexLink` objects, so the fluid network
    treats the fabric exactly like any other topology.  At every fan-out
    point (which spine? which aggregation switch? which core?) the path is
    chosen by a deterministic per-flow hash: CRC32 of the endpoint pair mixed
    with a salt derived from a dedicated ``ecmp`` seed domain.  The same
    (src, dst) pair always rides the same path — run-twice determinism and
    path-memo compatibility — while distinct pairs spread across the
    equal-cost choices.
    """

    def __init__(self, name: str, fabric_kind: str, ecmp_salt: int) -> None:
        super().__init__(name)
        self.fabric_kind = fabric_kind
        self._ecmp_salt = ecmp_salt
        self._host_edge: Dict[str, int] = {}
        #: Cross-traffic endpoint pairs created by the builder (src, dst).
        self.cross_pairs: List[Tuple[Host, Host]] = []

    def attach(self, host: Host, edge: int) -> Host:
        """Attach ``host`` to edge switch ``edge``."""
        self.add_host(host)
        self._host_edge[host.name] = edge
        return host

    def edge_of(self, host: Host) -> int:
        """The edge-switch index ``host`` is attached to."""
        self._check(host)
        return self._host_edge[host.name]

    def _ecmp(self, src: Host, dst: Host, fanout: int) -> int:
        """Deterministic equal-cost choice for the (src, dst) flow pair."""
        key = f"{self._ecmp_salt}:{src.name}>{dst.name}"
        return zlib.crc32(key.encode("utf-8")) % fanout


class LeafSpineTopology(FabricTopology):
    """Two tiers: every leaf connects to every spine (a full bipartite mesh).

    Same-leaf traffic never enters the fabric; cross-leaf traffic rides
    ``leaf -> spine -> leaf`` with the spine picked by ECMP hash.
    """

    def __init__(
        self,
        name: str,
        leaves: int,
        spines: int,
        uplink_capacity_bps: float,
        fabric_delay_s: float,
        ecmp_salt: int,
    ) -> None:
        super().__init__(name, "leaf-spine", ecmp_salt)
        self.leaves = leaves
        self.spines = spines
        self._uplinks: Dict[Tuple[int, int], DuplexLink] = {}
        for leaf in range(leaves):
            for spine in range(spines):
                link = DuplexLink(
                    f"leaf{leaf:02d}-spine{spine:02d}",
                    uplink_capacity_bps,
                    delay_s=fabric_delay_s,
                )
                self.add_shared_link(link)
                self._uplinks[(leaf, spine)] = link

    def _route(self, src: Host, dst: Host) -> List[Link]:
        src_leaf = self.edge_of(src)
        dst_leaf = self.edge_of(dst)
        if src_leaf == dst_leaf:
            return [src.access.up, dst.access.down]
        spine = self._ecmp(src, dst, self.spines)
        return [
            src.access.up,
            self._uplinks[(src_leaf, spine)].up,
            self._uplinks[(dst_leaf, spine)].down,
            dst.access.down,
        ]


class FatTreeTopology(FabricTopology):
    """The classic k-ary fat-tree: k pods of k/2 edge + k/2 aggregation
    switches, with (k/2)^2 core switches stitching the pods together.

    Core switch ``c`` attaches to aggregation switch ``c // (k/2)`` in every
    pod, so an inter-pod path commits to its aggregation switch the moment
    ECMP picks the core.  Edge switches are numbered globally
    (``pod * k/2 + local``); same-edge traffic stays on the edge switch,
    same-pod traffic rides ``edge -> agg -> edge``, and inter-pod traffic
    rides ``edge -> agg -> core -> agg -> edge``.
    """

    def __init__(
        self,
        name: str,
        k: int,
        edge_capacity_bps: float,
        core_capacity_bps: float,
        fabric_delay_s: float,
        ecmp_salt: int,
    ) -> None:
        super().__init__(name, "fat-tree", ecmp_salt)
        half = k // 2
        self.k = k
        self.half = half
        self.edges = k * half
        #: (pod, edge_local, agg_local) -> edge-to-aggregation cable.
        self._edge_agg: Dict[Tuple[int, int, int], DuplexLink] = {}
        #: (pod, core) -> aggregation-to-core cable (agg = core // half).
        self._pod_core: Dict[Tuple[int, int], DuplexLink] = {}
        for pod in range(k):
            for edge in range(half):
                for agg in range(half):
                    link = DuplexLink(
                        f"pod{pod:02d}-edge{edge:02d}-agg{agg:02d}",
                        edge_capacity_bps,
                        delay_s=fabric_delay_s,
                    )
                    self.add_shared_link(link)
                    self._edge_agg[(pod, edge, agg)] = link
            for core in range(half * half):
                link = DuplexLink(
                    f"pod{pod:02d}-core{core:02d}",
                    core_capacity_bps,
                    delay_s=fabric_delay_s,
                )
                self.add_shared_link(link)
                self._pod_core[(pod, core)] = link

    def edge_agg_link(self, pod: int, edge_local: int, agg_local: int) -> DuplexLink:
        """The cable between an edge switch and an aggregation switch."""
        return self._edge_agg[(pod, edge_local, agg_local)]

    def pod_core_link(self, pod: int, core: int) -> DuplexLink:
        """The cable between a pod's aggregation tier and core switch ``core``."""
        return self._pod_core[(pod, core)]

    def _route(self, src: Host, dst: Host) -> List[Link]:
        src_edge = self.edge_of(src)
        dst_edge = self.edge_of(dst)
        if src_edge == dst_edge:
            return [src.access.up, dst.access.down]
        src_pod, src_local = divmod(src_edge, self.half)
        dst_pod, dst_local = divmod(dst_edge, self.half)
        if src_pod == dst_pod:
            agg = self._ecmp(src, dst, self.half)
            return [
                src.access.up,
                self._edge_agg[(src_pod, src_local, agg)].up,
                self._edge_agg[(dst_pod, dst_local, agg)].down,
                dst.access.down,
            ]
        core = self._ecmp(src, dst, self.half * self.half)
        agg = core // self.half
        return [
            src.access.up,
            self._edge_agg[(src_pod, src_local, agg)].up,
            self._pod_core[(src_pod, core)].up,
            self._pod_core[(dst_pod, core)].down,
            self._edge_agg[(dst_pod, dst_local, agg)].down,
            dst.access.down,
        ]


def _validate_fabric_population(
    client_bandwidths_bps: Sequence[float],
    thinner_shards: int,
    cross_traffic_pairs: int,
) -> float:
    count = len(client_bandwidths_bps)
    if count == 0:
        raise TopologyError("need at least one client")
    if thinner_shards < 1:
        raise TopologyError(f"thinner_shards must be at least 1, got {thinner_shards}")
    if thinner_shards > count:
        raise TopologyError(
            f"thinner_shards ({thinner_shards}) must not exceed the client count "
            f"({count}): empty shards skew the fleet's health baselines"
        )
    if cross_traffic_pairs < 0:
        raise TopologyError(
            f"cross_traffic_pairs must be non-negative, got {cross_traffic_pairs}"
        )
    aggregate = float(sum(client_bandwidths_bps))
    if aggregate <= 0:
        raise TopologyError("aggregate client bandwidth must be positive")
    return aggregate


def _shard_bandwidth(thinner_shards: int, fleet_bandwidth_bps: float) -> float:
    per_shard = fleet_bandwidth_bps / thinner_shards
    if per_shard <= 0:
        raise TopologyError("per-shard bandwidth must be positive")
    return per_shard


def _populate_fabric(
    topology: FabricTopology,
    edges: int,
    client_bandwidths_bps: Sequence[float],
    thinner_shards: int,
    per_shard_bps: float,
    lan_delay_s: float,
    cross_traffic_pairs: int,
    cross_traffic_bandwidth_bps: Optional[float],
    aggregate_bps: float,
) -> Tuple[List[Host], List[Host]]:
    """Attach thinners, clients, and cross-traffic pairs round-robin to edges."""
    thinners: List[Host] = []
    for index in range(thinner_shards):
        shard = make_host(
            f"thinner-{index:02d}", per_shard_bps, delay_s=lan_delay_s, kind="thinner"
        )
        topology.attach(shard, index % edges)
        thinners.append(shard)

    clients: List[Host] = []
    for index, bandwidth in enumerate(client_bandwidths_bps):
        client = make_host(
            f"client-{index:03d}", upload_bps=bandwidth, delay_s=lan_delay_s, kind="client"
        )
        topology.attach(client, index % edges)
        clients.append(client)

    cross_bps = (
        cross_traffic_bandwidth_bps
        if cross_traffic_bandwidth_bps is not None
        else aggregate_bps / len(clients)
    )
    offset = max(1, edges // 2)
    for index in range(cross_traffic_pairs):
        src_edge = index % edges
        dst_edge = (src_edge + offset) % edges
        src = make_host(
            f"xsrc-{index:02d}", upload_bps=cross_bps, delay_s=lan_delay_s, kind="cross"
        )
        dst = make_host(
            f"xdst-{index:02d}", upload_bps=cross_bps, delay_s=lan_delay_s, kind="cross"
        )
        topology.attach(src, src_edge)
        topology.attach(dst, dst_edge)
        topology.cross_pairs.append((src, dst))
    return clients, thinners


def build_leaf_spine(
    client_bandwidths_bps: Sequence[float],
    thinner_shards: int,
    leaves: int = 4,
    spines: int = 2,
    oversubscription: float = 1.0,
    fleet_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    lan_delay_s: float = DEFAULT_LAN_DELAY,
    fabric_delay_s: float = DEFAULT_LAN_DELAY,
    cross_traffic_pairs: int = 0,
    cross_traffic_bandwidth_bps: Optional[float] = None,
    ecmp_seed: int = 0,
    name: str = "leaf-spine",
) -> Tuple[LeafSpineTopology, List[Host], List[Host]]:
    """A leaf-spine fabric hosting the §4.3 thinner fleet.

    Thinner shards, clients, and cross-traffic pairs are spread round-robin
    across the ``leaves`` leaf switches; every leaf connects to every one of
    the ``spines`` spine switches.  Each leaf-spine cable is sized so the
    fabric is exactly nonblocking for the aggregate client upload bandwidth
    at ``oversubscription=1.0`` and proportionally thinner above it —
    thinner access bandwidth is deliberately *excluded* from the sizing, so
    an oversubscribed core genuinely contends on the payment traffic
    converging toward the fleet.  Returns ``(topology, clients, thinners)``;
    cross-traffic endpoints are on ``topology.cross_pairs``.
    """
    if leaves < 1:
        raise TopologyError(f"leaves must be at least 1, got {leaves}")
    if spines < 1:
        raise TopologyError(f"spines must be at least 1, got {spines}")
    if oversubscription <= 0:
        raise TopologyError(f"oversubscription must be positive, got {oversubscription}")
    aggregate = _validate_fabric_population(
        client_bandwidths_bps, thinner_shards, cross_traffic_pairs
    )
    per_shard = _shard_bandwidth(thinner_shards, fleet_bandwidth_bps)
    uplink_capacity = aggregate / (leaves * spines * oversubscription)
    topology = LeafSpineTopology(
        name,
        leaves=leaves,
        spines=spines,
        uplink_capacity_bps=uplink_capacity,
        fabric_delay_s=fabric_delay_s,
        ecmp_salt=derive_seed(ecmp_seed, f"ecmp:{name}"),
    )
    clients, thinners = _populate_fabric(
        topology,
        leaves,
        client_bandwidths_bps,
        thinner_shards,
        per_shard,
        lan_delay_s,
        cross_traffic_pairs,
        cross_traffic_bandwidth_bps,
        aggregate,
    )
    return topology, clients, thinners


def build_fat_tree(
    client_bandwidths_bps: Sequence[float],
    thinner_shards: int,
    k: int = 4,
    oversubscription: float = 1.0,
    fleet_bandwidth_bps: float = DEFAULT_THINNER_BANDWIDTH,
    lan_delay_s: float = DEFAULT_LAN_DELAY,
    fabric_delay_s: float = DEFAULT_LAN_DELAY,
    cross_traffic_pairs: int = 0,
    cross_traffic_bandwidth_bps: Optional[float] = None,
    ecmp_seed: int = 0,
    name: str = "fat-tree",
) -> Tuple[FatTreeTopology, List[Host], List[Host]]:
    """A k-ary fat-tree fabric hosting the §4.3 thinner fleet.

    ``k`` must be even: the fabric has ``k`` pods of ``k/2`` edge and ``k/2``
    aggregation switches plus ``(k/2)^2`` cores, i.e. ``k * k/2`` edge
    switches total.  Edge-to-aggregation cables are sized nonblocking for
    the aggregate client upload bandwidth; ``oversubscription`` thins the
    aggregation-to-core tier only (where real fat-trees economise).
    Thinners, clients, and cross-traffic pairs spread round-robin across
    the global edge switches.  Returns ``(topology, clients, thinners)``.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree k must be an even number >= 2, got {k}")
    if oversubscription <= 0:
        raise TopologyError(f"oversubscription must be positive, got {oversubscription}")
    aggregate = _validate_fabric_population(
        client_bandwidths_bps, thinner_shards, cross_traffic_pairs
    )
    per_shard = _shard_bandwidth(thinner_shards, fleet_bandwidth_bps)
    half = k // 2
    edge_capacity = aggregate / (k * half * half)
    core_capacity = edge_capacity / oversubscription
    topology = FatTreeTopology(
        name,
        k=k,
        edge_capacity_bps=edge_capacity,
        core_capacity_bps=core_capacity,
        fabric_delay_s=fabric_delay_s,
        ecmp_salt=derive_seed(ecmp_seed, f"ecmp:{name}"),
    )
    clients, thinners = _populate_fabric(
        topology,
        topology.edges,
        client_bandwidths_bps,
        thinner_shards,
        per_shard,
        lan_delay_s,
        cross_traffic_pairs,
        cross_traffic_bandwidth_bps,
        aggregate,
    )
    return topology, clients, thinners


def uniform_bandwidths(count: int, bandwidth_bps: float) -> List[float]:
    """A list of ``count`` identical access bandwidths (the common case)."""
    if count < 0:
        raise TopologyError("count must be non-negative")
    return [bandwidth_bps] * count
