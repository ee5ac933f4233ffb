"""Tests for links, hosts, and topology routing.

The fabric section is a property suite over generated fat-tree and
leaf-spine fabrics: randomized shape parameters (drawn from a seeded RNG,
so each parametrization is a different but reproducible point) with
structural invariants asserted on every draw — host counts, per-tier link
counts and capacities, path existence between every client/thinner pair,
ECMP run-twice determinism, and hash balance across equal-cost paths.
"""

import math
import random

import pytest

from repro.constants import MBIT, milliseconds
from repro.errors import TopologyError
from repro.simnet.host import make_host
from repro.simnet.link import DuplexLink, Link, path_delay, path_min_capacity
from repro.simnet.topology import (
    Topology,
    build_bottleneck,
    build_dumbbell,
    build_fat_tree,
    build_fleet,
    build_lan,
    build_leaf_spine,
    uniform_bandwidths,
)


def test_link_rejects_bad_parameters():
    with pytest.raises(TopologyError):
        Link("bad", 0.0)
    with pytest.raises(TopologyError):
        Link("bad", 1 * MBIT, delay_s=-1.0)
    for capacity in (math.nan, math.inf):
        with pytest.raises(TopologyError, match="finite"):
            Link("bad", capacity)
    for delay in (math.nan, math.inf):
        with pytest.raises(TopologyError, match="finite"):
            Link("bad", 1 * MBIT, delay_s=delay)


def test_duplex_link_directions_are_independent():
    cable = DuplexLink("c", 10 * MBIT, delay_s=0.01, down_capacity_bps=50 * MBIT)
    assert cable.up.capacity_bps == 10 * MBIT
    assert cable.down.capacity_bps == 50 * MBIT
    assert cable.rtt == pytest.approx(0.02)


def test_path_helpers():
    links = [Link("a", 2 * MBIT, 0.001), Link("b", 10 * MBIT, 0.002)]
    assert path_delay(links) == pytest.approx(0.003)
    assert path_min_capacity(links) == 2 * MBIT
    with pytest.raises(TopologyError):
        path_min_capacity([])


def test_host_properties():
    host = make_host("h", upload_bps=2 * MBIT, download_bps=8 * MBIT, delay_s=0.005,
                     extra_delay_s=0.05)
    assert host.upload_capacity_bps == 2 * MBIT
    assert host.access.down.capacity_bps == 8 * MBIT
    assert host.access.delay_s + host.extra_delay_s == pytest.approx(0.055)


def test_host_readings_are_the_same_before_and_after_its_link_exists():
    host = make_host("h", upload_bps=2 * MBIT, download_bps=8 * MBIT, delay_s=0.005,
                     extra_delay_s=0.05)

    def readings():
        value = host.upload_capacity_bps
        return value, type(value)

    before = readings()
    access = host.access
    assert readings() == before
    assert (access.up.capacity_bps, access.down.capacity_bps) == (2 * MBIT, 8 * MBIT)
    assert access.delay_s == 0.005
    assert host.access is access


@pytest.mark.parametrize(
    "changes",
    [
        dict(upload_bps=math.nan),
        dict(upload_bps=math.inf),
        dict(upload_bps=0.0),
        dict(download_bps=math.nan),
        dict(delay_s=math.nan),
        dict(delay_s=math.inf),
        dict(delay_s=-1.0),
        dict(extra_delay_s=math.nan),
    ],
    ids=["up-nan", "up-inf", "up-zero", "down-nan", "delay-nan", "delay-inf",
         "delay-negative", "extra-nan"],
)
def test_a_host_checks_its_access_parameters_before_any_link_exists(changes):
    params = {"upload_bps": 2 * MBIT, **changes}
    with pytest.raises(TopologyError, match="host 'h'"):
        make_host("h", **params)


def test_a_host_builds_its_access_link_at_the_first_path_through_it():
    topology, clients, thinner = build_lan(uniform_bandwidths(3, 2 * MBIT))
    assert list(topology.built_links()) == []
    path = topology.path(clients[0], thinner)
    assert path == [clients[0].access.up, thinner.access.down]
    # Host order: build_lan adds the thinner first.
    assert list(topology.built_links()) == [
        thinner.access.up, thinner.access.down, clients[0].access.up, clients[0].access.down,
    ]


def test_topology_path_and_rtt():
    topology, clients, thinner = build_lan(uniform_bandwidths(2, 2 * MBIT))
    path = topology.path(clients[0], thinner)
    assert path[0] is clients[0].access.up
    assert path[-1] is thinner.access.down
    # Symmetric LAN: RTT is twice the sum of the two access delays.
    assert topology.rtt(clients[0], thinner) == pytest.approx(
        2 * (clients[0].access.delay_s + thinner.access.delay_s)
    )


def test_topology_rejects_self_path_and_unknown_hosts():
    topology, clients, thinner = build_lan(uniform_bandwidths(2, 2 * MBIT))
    with pytest.raises(TopologyError):
        topology.path(clients[0], clients[0])
    stranger = make_host("stranger", 2 * MBIT)
    with pytest.raises(TopologyError):
        topology.path(stranger, thinner)
    with pytest.raises(TopologyError):
        topology.host("nobody")


def test_topology_rejects_duplicate_hosts():
    topology = Topology()
    host = make_host("h", 2 * MBIT)
    topology.add_host(host)
    with pytest.raises(TopologyError):
        topology.add_host(host)


def test_build_lan_respects_per_client_delays():
    delays = [0.0, 0.1]
    topology, clients, thinner = build_lan(
        uniform_bandwidths(2, 2 * MBIT), client_delays_s=delays
    )
    rtt_near = topology.rtt(clients[0], thinner)
    rtt_far = topology.rtt(clients[1], thinner)
    assert rtt_far - rtt_near == pytest.approx(0.2)


def test_build_lan_validations():
    with pytest.raises(TopologyError):
        build_lan([])
    with pytest.raises(TopologyError):
        build_lan([2 * MBIT], client_delays_s=[0.0, 0.0])


def test_build_bottleneck_routes_through_shared_cable():
    topology, behind, direct, thinner, cable = build_bottleneck(
        bottlenecked_bandwidths_bps=uniform_bandwidths(3, 2 * MBIT),
        direct_bandwidths_bps=uniform_bandwidths(2, 2 * MBIT),
        bottleneck_bandwidth_bps=5 * MBIT,
    )
    behind_path = topology.path(behind[0], thinner)
    direct_path = topology.path(direct[0], thinner)
    assert cable.up in behind_path
    assert cable.up not in direct_path
    assert topology.shared_link("l") is cable


def test_build_dumbbell_places_victim_behind_bottleneck():
    topology, clients, victim, thinner, web_server, cable = build_dumbbell(
        left_bandwidths_bps=uniform_bandwidths(2, 2 * MBIT),
        bottleneck_bandwidth_bps=1 * MBIT,
        bottleneck_delay_s=milliseconds(100),
    )
    assert cable.up in topology.path(victim, web_server)
    assert cable.down in topology.path(web_server, victim)
    # RTT between victim and web server includes the 100 ms each way.
    assert topology.rtt(victim, web_server) >= 0.2


# ---------------------------------------------------------------------------
# Fabric property suite (fat-tree and leaf-spine)
# ---------------------------------------------------------------------------


def _leaf_spine_draw(rng):
    """A randomized but reproducible leaf-spine population."""
    leaves = rng.randint(2, 6)
    spines = rng.randint(2, 4)
    clients = rng.randint(12, 40)
    shards = rng.randint(2, 8)
    oversub = rng.choice([1.0, 2.0, 4.0])
    pairs = rng.randint(0, 4)
    return dict(
        client_bandwidths_bps=uniform_bandwidths(clients, 2 * MBIT),
        thinner_shards=shards,
        leaves=leaves,
        spines=spines,
        oversubscription=oversub,
        cross_traffic_pairs=pairs,
        ecmp_seed=rng.randint(0, 2**31),
    )


def _fat_tree_draw(rng):
    """A randomized but reproducible fat-tree population."""
    k = rng.choice([2, 4, 6])
    clients = rng.randint(12, 40)
    shards = rng.randint(2, 8)
    oversub = rng.choice([1.0, 2.0, 4.0])
    pairs = rng.randint(0, 4)
    return dict(
        client_bandwidths_bps=uniform_bandwidths(clients, 2 * MBIT),
        thinner_shards=shards,
        k=k,
        oversubscription=oversub,
        cross_traffic_pairs=pairs,
        ecmp_seed=rng.randint(0, 2**31),
    )


def _path_names(topology, src, dst):
    return tuple(link.name for link in topology.path(src, dst))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leaf_spine_structure_and_paths(seed):
    """Host/link counts, uplink sizing, and universal reachability."""
    rng = random.Random(seed)
    kwargs = _leaf_spine_draw(rng)
    topology, clients, thinners = build_leaf_spine(**kwargs)

    expected_hosts = (
        len(kwargs["client_bandwidths_bps"])
        + kwargs["thinner_shards"]
        + 2 * kwargs["cross_traffic_pairs"]
    )
    assert len(topology.hosts) == expected_hosts
    assert len(clients) == len(kwargs["client_bandwidths_bps"])
    assert len(thinners) == kwargs["thinner_shards"]
    assert len(topology.cross_pairs) == kwargs["cross_traffic_pairs"]

    # One shared cable per (leaf, spine) pair, each sized so the mesh is
    # nonblocking for the aggregate client upload at 1:1 oversubscription.
    # Before any path is routed, the built links are just those cables.
    leaves, spines = kwargs["leaves"], kwargs["spines"]
    cable_links = list(topology.built_links())
    assert len(cable_links) == 2 * leaves * spines
    aggregate = sum(kwargs["client_bandwidths_bps"])
    expected_capacity = aggregate / (leaves * spines * kwargs["oversubscription"])
    for link in cable_links:
        assert link.capacity_bps == pytest.approx(expected_capacity)

    # Every client reaches every thinner (and back) over a valid path:
    # 2 links when they share a leaf, 4 links across the fabric.
    for client in clients:
        for thinner in thinners:
            for src, dst in ((client, thinner), (thinner, client)):
                path = topology.path(src, dst)
                assert path[0] is src.access.up
                assert path[-1] is dst.access.down
                assert path_min_capacity(path) > 0
                same_leaf = topology.edge_of(client) == topology.edge_of(thinner)
                assert len(path) == (2 if same_leaf else 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fat_tree_structure_and_paths(seed):
    """Per-tier link counts/capacities and tier-appropriate path lengths."""
    rng = random.Random(seed)
    kwargs = _fat_tree_draw(rng)
    topology, clients, thinners = build_fat_tree(**kwargs)

    k = kwargs["k"]
    half = k // 2
    assert topology.edges == k * half
    expected_hosts = (
        len(kwargs["client_bandwidths_bps"])
        + kwargs["thinner_shards"]
        + 2 * kwargs["cross_traffic_pairs"]
    )
    assert len(topology.hosts) == expected_hosts

    # k pods x half x half edge-agg cables plus k pods x half^2 core cables,
    # two directed links each; no path has built an access link yet.
    assert len(list(topology.built_links())) == 2 * (2 * k * half * half)
    aggregate = sum(kwargs["client_bandwidths_bps"])
    edge_capacity = aggregate / (k * half * half)
    core_capacity = edge_capacity / kwargs["oversubscription"]
    for pod in range(k):
        for edge in range(half):
            for agg in range(half):
                cable = topology.edge_agg_link(pod, edge, agg)
                assert cable.up.capacity_bps == pytest.approx(edge_capacity)
        for core in range(half * half):
            cable = topology.pod_core_link(pod, core)
            assert cable.up.capacity_bps == pytest.approx(core_capacity)

    # Path length is fixed by the tier distance between the endpoints'
    # edge switches: 2 same-edge, 4 same-pod, 6 inter-pod.
    for client in clients:
        for thinner in thinners:
            path = topology.path(client, thinner)
            assert path[0] is client.access.up
            assert path[-1] is thinner.access.down
            assert path_min_capacity(path) > 0
            src_pod = topology.edge_of(client) // half
            dst_pod = topology.edge_of(thinner) // half
            if topology.edge_of(client) == topology.edge_of(thinner):
                assert len(path) == 2
            elif src_pod == dst_pod:
                assert len(path) == 4
            else:
                assert len(path) == 6


@pytest.mark.parametrize("builder,draw", [
    (build_leaf_spine, _leaf_spine_draw),
    (build_fat_tree, _fat_tree_draw),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ecmp_is_deterministic_across_rebuilds(builder, draw, seed):
    """The same build arguments pick the same equal-cost path every time."""
    rng = random.Random(seed)
    kwargs = draw(rng)
    first, clients_a, thinners_a = builder(**kwargs)
    second, clients_b, thinners_b = builder(**kwargs)
    for client_a, client_b in zip(clients_a, clients_b):
        for thinner_a, thinner_b in zip(thinners_a, thinners_b):
            assert _path_names(first, client_a, thinner_a) == _path_names(
                second, client_b, thinner_b
            )
    # Within one build, asking twice returns the memoized object itself.
    path = first.path(clients_a[0], thinners_a[0])
    assert first.path(clients_a[0], thinners_a[0]) is path


def test_ecmp_seed_moves_path_choices():
    """A different ecmp seed re-rolls at least one equal-cost choice."""
    kwargs = dict(
        client_bandwidths_bps=uniform_bandwidths(24, 2 * MBIT),
        thinner_shards=4,
        leaves=4,
        spines=3,
    )
    base, clients, thinners = build_leaf_spine(ecmp_seed=0, **kwargs)
    other, clients_b, thinners_b = build_leaf_spine(ecmp_seed=1, **kwargs)
    moved = sum(
        _path_names(base, client, thinner)
        != _path_names(other, client_b, thinner_b)
        for client, client_b in zip(clients, clients_b)
        for thinner, thinner_b in zip(thinners, thinners_b)
    )
    assert moved > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leaf_spine_ecmp_balance_across_spines(seed):
    """Cross-leaf flow pairs spread across the equal-cost spines.

    CRC32 over distinct (src, dst) names should use every spine and keep
    the spread within a loose constant factor of uniform — the property
    that makes the oversubscribed core contend evenly rather than
    collapsing onto one uplink.
    """
    rng = random.Random(seed)
    spines = rng.randint(2, 4)
    topology, clients, thinners = build_leaf_spine(
        uniform_bandwidths(60, 2 * MBIT),
        thinner_shards=6,
        leaves=4,
        spines=spines,
        ecmp_seed=rng.randint(0, 2**31),
    )
    spine_hits = [0] * spines
    for client in clients:
        for thinner in thinners:
            if topology.edge_of(client) == topology.edge_of(thinner):
                continue
            path = topology.path(client, thinner)
            # The second hop is the leaf->spine cable; its name encodes
            # the spine index the ECMP hash picked.
            spine_hits[int(path[1].name.split("-spine")[1].split(".")[0])] += 1
    total = sum(spine_hits)
    assert total > 0
    mean = total / spines
    for hits in spine_hits:
        assert 0.5 * mean <= hits <= 1.6 * mean, spine_hits


def test_fabric_builders_validate_arguments():
    bandwidths = uniform_bandwidths(8, 2 * MBIT)
    with pytest.raises(TopologyError):
        build_fat_tree(bandwidths, thinner_shards=2, k=3)  # odd k
    with pytest.raises(TopologyError):
        build_fat_tree(bandwidths, thinner_shards=2, oversubscription=0.0)
    with pytest.raises(TopologyError):
        build_leaf_spine(bandwidths, thinner_shards=2, leaves=0)
    with pytest.raises(TopologyError):
        build_leaf_spine(bandwidths, thinner_shards=2, spines=0)
    with pytest.raises(TopologyError):
        build_leaf_spine([], thinner_shards=1)
    with pytest.raises(TopologyError, match="must not exceed the client count"):
        build_leaf_spine(bandwidths, thinner_shards=9)
    with pytest.raises(TopologyError, match="must not exceed the client count"):
        build_fat_tree(bandwidths, thinner_shards=9)


def test_build_fleet_rejects_more_shards_than_clients():
    """Empty shards would skew health baselines; the star builder says no."""
    with pytest.raises(TopologyError, match="must not exceed the client count"):
        build_fleet(uniform_bandwidths(3, 2 * MBIT), thinner_shards=4)
    # The boundary case (one client per shard) stays legal.
    topology, clients, thinners = build_fleet(
        uniform_bandwidths(3, 2 * MBIT), thinner_shards=3
    )
    assert len(thinners) == 3


def test_uniform_bandwidths():
    assert uniform_bandwidths(3, 2 * MBIT) == [2 * MBIT] * 3
    assert uniform_bandwidths(0, 2 * MBIT) == []
    with pytest.raises(TopologyError):
        uniform_bandwidths(-1, 2 * MBIT)
