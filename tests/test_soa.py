"""Struct-of-arrays equivalence: the vectorized paths change nothing but speed.

The fluid network keeps every flow/link/channel scalar in a
:class:`~repro.simnet.soa.SoAStore` and picks, per component (and per dirty
batch in the kinetic bid index), between a scalar index-based path and a
vectorized numpy path by size alone.  Raising the two size thresholds
(``FluidNetwork.VEC_MIN_COMPONENT`` and ``KineticBidIndex.VEC_MIN_DIRTY``)
forces the scalar paths for a whole run, which gives an end-to-end
property: the same scenario run both ways must produce bit-identical rates,
auction outcomes, and counters.
"""

import random
import sys
from types import SimpleNamespace

import pytest

from repro.constants import MBIT
from repro.core.bidindex import KineticBidIndex
from repro.scenarios.registry import build_scenario
from repro.simnet.engine import Engine
from repro.simnet.network import FluidNetwork
from repro.simnet.soa import SoAStore
from repro.simnet.topology import build_lan, uniform_bandwidths


def _run(spec, monkeypatch, scalar, changes=()):
    """Run ``spec`` and fingerprint it, watching which paths it took.

    ``scalar=True`` raises both size thresholds past any run's reach, so
    every flush and every bid re-key takes the scalar path.  ``changes`` is
    a list of ``(at_s, factor)`` pairs; each one scales both directions of
    the thinner host's access link through ``Link.set_capacity_factor`` —
    the same entry point the gray-failure ``degrade`` fault uses — so every
    waterfill after it sees a different capacity vector than the one the
    flows were admitted under.

    Returns the fingerprint and a spy that observed without altering:
    ``vec_component_sizes`` holds the width of every array-path flush and
    ``rekey_batches`` counts the bid index's batched trajectory re-keys.
    """
    spy = SimpleNamespace(vec_component_sizes=[], rekey_batches=0)
    flush = FluidNetwork._flush_component_vec
    trajectories = SoAStore.bid_trajectories

    def flush_spy(network, flows):
        spy.vec_component_sizes.append(len(flows))
        return flush(network, flows)

    def trajectories_spy(store, cids, now):
        spy.rekey_batches += 1
        return trajectories(store, cids, now)

    with monkeypatch.context() as patch:
        patch.setattr(FluidNetwork, "_flush_component_vec", flush_spy)
        patch.setattr(SoAStore, "bid_trajectories", trajectories_spy)
        if scalar:
            patch.setattr(FluidNetwork, "VEC_MIN_COMPONENT", sys.maxsize)
            patch.setattr(KineticBidIndex, "VEC_MIN_DIRTY", sys.maxsize)
        deployment = spec.build()
        network = deployment.network
        host = deployment.thinner_hosts[0]
        for at_s, factor in changes:
            for link in (host.access.up, host.access.down):
                deployment.engine.schedule_at(
                    at_s,
                    lambda link=link, factor=factor: link.set_capacity_factor(
                        factor, network=network
                    ),
                )
        deployment.run(spec.duration)
    result = deployment.results()
    # ``label`` embeds a globally increasing request id, which keeps counting
    # across the two in-process runs — compare the kind, not the id.
    flows = sorted(
        (flow.label.split(":")[0], flow.state.value, flow.rate_bps, flow.delivered_bytes)
        for flow in network._active
    )
    outcome = {
        "counters": network.counters.snapshot(),
        "served": result.total_served,
        "good_allocation": result.good_allocation,
        "total_delivered": network.total_delivered_bytes,
        "flows": flows,
    }
    return outcome, spy


def _assert_paths(scalar_spy, vector_spy):
    """The forced run stayed scalar; the default run took both array paths."""
    assert scalar_spy.vec_component_sizes == [], "forced run made an array-path flush"
    assert scalar_spy.rekey_batches == 0, "forced run made a batched bid re-key"
    assert vector_spy.vec_component_sizes, "default run made no array-path flush"
    assert vector_spy.rekey_batches > 0, "default run made no batched bid re-key"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vectorized_and_scalar_paths_are_bit_identical(seed, monkeypatch):
    """A ≥500-flow component through both paths: identical rates and winners.

    The population is drawn from a seeded RNG so each parametrization checks
    a different topology/population point; the bad cohort keeps >500
    concurrent payment POSTs crossing one under-provisioned thinner link, so
    the vectorized run exercises the wide-component waterfill while the
    scalar run takes the index-based loop over the same store.
    """
    rng = random.Random(seed)
    spec = build_scenario(
        "soa-mega",
        good_clients=rng.randint(150, 250),
        bad_clients=rng.randint(260, 330),
        bad_window=2,
        good_rate=2.0,
        duration=0.1,
        seed=seed,
    )
    scalar, scalar_spy = _run(spec, monkeypatch, scalar=True)
    vector, vector_spy = _run(spec, monkeypatch, scalar=False)
    _assert_paths(scalar_spy, vector_spy)

    # The run must actually have driven wide components down the array path.
    counters = vector["counters"]
    assert counters["waterfill_calls"] > 0
    assert counters["flows_touched"] >= 500
    assert (
        counters["flows_touched"] / counters["waterfill_calls"] >= 64
    ), "components never reached the vectorized threshold"

    assert scalar["counters"] == vector["counters"]
    assert scalar["served"] == vector["served"]
    assert scalar["good_allocation"] == vector["good_allocation"]
    assert scalar["total_delivered"] == vector["total_delivered"]
    assert scalar["flows"] == vector["flows"]


def test_a_link_registered_between_two_wide_flushes_keeps_the_cache_key(monkeypatch):
    """A link registers when a flow first crosses it, so the number of
    registered links moves during a run.  The array path's cache key must
    not depend on it: the same wide structure flushed again after a new
    link registered is a cache hit."""
    widths = []
    flush = FluidNetwork._flush_component_vec

    def flush_spy(network, flows):
        widths.append(len(flows))
        return flush(network, flows)

    monkeypatch.setattr(FluidNetwork, "_flush_component_vec", flush_spy)
    wide = FluidNetwork.VEC_MIN_COMPONENT
    topology, clients, thinner = build_lan(
        uniform_bandwidths(wide + 2, 2 * MBIT), thinner_bandwidth_bps=10 * MBIT
    )
    network = FluidNetwork(Engine(), topology)
    flows = [network.send(client, thinner) for client in clients[:wide]]
    network.sync()
    assert widths == [wide] and network.counters.cache_misses == 1
    network.stop_flow(flows[0])
    network.sync()

    registered = len(network.soa.l_views)
    network.send(clients[wide], clients[wide + 1])
    network.sync()
    assert len(network.soa.l_views) == registered + 2

    hits = network.counters.cache_hits
    network.send(clients[0], thinner)
    network.sync()
    assert widths[-1] == wide
    assert network.counters.cache_hits == hits + 1


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_fat_tree_components_are_identical_down_both_paths(seed, monkeypatch):
    """Multi-level fabric components through scalar and vectorized waterfill.

    Star topologies couple flows only through access links; a fat-tree
    couples them through shared edge/aggregation/core cables too, so one
    component spans clients on many edge switches, the fabric tiers, and
    several thinner downlinks at once — a component shape no other test
    drives.  The population is drawn from a seeded RNG; both paths must
    produce bit-identical rates, auction winners, and counters.
    """
    rng = random.Random(seed)
    spec = build_scenario(
        "fabric-mega",
        good_clients=rng.randint(60, 90),
        bad_clients=rng.randint(220, 280),
        thinner_shards=rng.randint(4, 8),
        fabric="fat-tree",
        fabric_k=4,
        oversubscription=4.0,
        cross_traffic_pairs=rng.randint(2, 6),
        bad_window=2,
        good_rate=2.0,
        duration=0.1,
        seed=seed,
    )
    scalar, scalar_spy = _run(spec, monkeypatch, scalar=True)
    vector, vector_spy = _run(spec, monkeypatch, scalar=False)
    _assert_paths(scalar_spy, vector_spy)

    # The run must actually have pushed multi-level fabric components down
    # the array path (unlike soa-mega, a fabric mixes wide converging
    # components with many narrow same-edge ones, so the *average* size is
    # meaningless — count the vectorized flushes themselves).
    vec_component_sizes = vector_spy.vec_component_sizes
    assert len(vec_component_sizes) > 0, "no component reached the array path"
    assert max(vec_component_sizes) >= 64
    assert vector["counters"]["flows_touched"] >= 500

    assert scalar["counters"] == vector["counters"]
    assert scalar["served"] == vector["served"]
    assert scalar["good_allocation"] == vector["good_allocation"]
    assert scalar["total_delivered"] == vector["total_delivered"]
    assert scalar["flows"] == vector["flows"]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_capacity_changes_keep_scalar_and_vector_paths_identical(seed, monkeypatch):
    """Mid-run capacity rescales reallocate identically down both paths.

    A degrade-style capacity change re-derives every crossing flow's bound
    and triggers a fresh waterfill over a component whose membership did not
    change — a different code shape than admission/retirement churn, and the
    one the gray-failure fault layer leans on.  The schedule is drawn from a
    seeded RNG so each parametrization stresses different epochs.
    """
    rng = random.Random(seed)
    spec = build_scenario(
        "soa-mega",
        good_clients=rng.randint(150, 250),
        bad_clients=rng.randint(260, 330),
        bad_window=2,
        good_rate=2.0,
        duration=0.1,
        seed=seed,
    )
    changes = sorted(
        (round(rng.uniform(0.01, 0.09), 4), round(rng.uniform(0.3, 1.0), 3))
        for _ in range(rng.randint(3, 5))
    )
    scalar, scalar_spy = _run(spec, monkeypatch, scalar=True, changes=changes)
    vector, vector_spy = _run(spec, monkeypatch, scalar=False, changes=changes)
    _assert_paths(scalar_spy, vector_spy)

    counters = vector["counters"]
    assert counters["waterfill_calls"] > 0
    assert counters["flows_touched"] >= 500

    assert scalar["counters"] == vector["counters"]
    assert scalar["served"] == vector["served"]
    assert scalar["good_allocation"] == vector["good_allocation"]
    assert scalar["total_delivered"] == vector["total_delivered"]
    assert scalar["flows"] == vector["flows"]


def _tiny_net():
    from repro.constants import MBIT
    from repro.simnet.topology import build_lan, uniform_bandwidths

    topology, hosts, thinner_host = build_lan(uniform_bandwidths(2, 2 * MBIT))
    path = topology.path(hosts[0], thinner_host)
    return hosts[0], thinner_host, path


def test_store_release_freezes_scalar_state():
    """Detached views keep their final values without holding a row."""
    from repro.simnet.flow import Flow

    store = SoAStore()
    src, dst, path = _tiny_net()
    link = path[0]
    store.register_link(link)
    flow = Flow(src, dst, [link], size_bytes=1000.0)
    fid = store.acquire_flow(flow, (link._lid,))
    flow._fid = fid
    flow._soa = store
    store.fm_rate[fid] = 123.0
    store.fm_delivered[fid] = 456.0
    assert flow.rate_bps == 123.0
    store.release_flow(flow)
    assert flow._fid == -1
    assert flow.rate_bps == 123.0
    assert flow.delivered_bytes == 456.0


def test_store_growth_rebinds_views():
    """Row acquisition past capacity grows arrays and refreshes memoryviews."""
    from repro.simnet.flow import Flow

    store = SoAStore()
    src, dst, path = _tiny_net()
    link = path[0]
    store.register_link(link)
    flows = []
    for i in range(2000):
        flow = Flow(src, dst, [link], size_bytes=1000.0)
        fid = store.acquire_flow(flow, (link._lid,))
        flow._fid = fid
        flow._soa = store
        store.fm_rate[fid] = float(i)
        flows.append(flow)
    # Growth doubled the arrays several times; every earlier row survived
    # and the memoryviews track the latest buffers.
    assert len(store.fm_rate) == len(store.f_rate)
    for i, flow in enumerate(flows):
        assert flow.rate_bps == float(i)
