"""The fluid network: flow lifecycle, rate allocation, byte integration.

:class:`FluidNetwork` owns the set of active flows.  Whenever that set (or a
flow's private rate cap) changes, bandwidth must be re-shared and the
completion times of the flows whose rates changed must be recomputed.
Delivered bytes are integrated lazily, per flow, under piecewise-constant
rates (which makes the integration exact).

Rate recomputation is **deferred and batched** (the dirty-set scheme).  A
flow attach/detach/cap change only does O(path) bookkeeping: it records the
affected links in a dirty set (remembering which of them were already
potentially saturated before the change) and arms the engine's flush hook.
The actual recomputation runs at most once per batch of changes — immediately
before the engine fires the next event, before an idle clock fast-forwards,
or when a caller reads rates (:meth:`FluidNetwork.sync`, ...).  Deferral is exact because the simulated
clock cannot advance past the change instant before the flush runs: the old
rates remain valid for the zero simulated seconds they are still in effect.
Batching collapses the common same-instant chains (a flow start immediately
followed by its slow-start cap, an auction teardown cascade) into a single
recomputation and a single round of completion-time updates.

Completion times are store columns, not engine events.  Every payment POST
crosses the thinner's link, so each POST that starts or ends re-rates all the
others; one engine event per flow would cost a cancel and a heap push per
flow per re-rate.  Instead each bounded flow's row holds its absolute
completion time (``f_due``, ``inf`` when none is pending) and the engine seq
its event would have taken (``f_seq``, claimed with
:meth:`~repro.simnet.engine.Engine.reserve_seq` at that same moment), and
the network keeps a single engine event, the *timer*, at the earliest
``(due, seq)``.  The flush re-points the timer before the clock can advance,
so completions fire at the same times and in the same order as per-flow
events would, and every other event keeps its seq.  Rate-change callbacks
run inside the flush and must only note the change: scheduling events or
starting and stopping flows there would break this ordering.

Recomputation is also *component-restricted*: most changes (a payment POST
finishing on one client's uplink, say) can only affect the rates of flows
that share a potentially-saturated link with the changed flow, directly or
transitively.  Each link maintains its "potential load" — an upper bound on
the aggregate rate its flows could jointly push through it, with flows
grouped by their entry link so a well-provisioned core link is not falsely
flagged (see :mod:`repro.simnet.link`).  A link whose capacity covers its
potential load can never saturate and never constrains anyone, so the search
for affected flows only crosses links whose potential load exceeds capacity.
Rates for the affected component are then recomputed with progressive
filling; everything outside the component keeps its previous, still-valid
rate.  The brute-force global computation
(:func:`repro.simnet.bandwidth.max_min_fair_rates`) remains the reference
the property-based tests compare against.

Steady-state traffic recomputes the *same* component shapes over and over
(one more identical payment POST on an otherwise unchanged uplink), so the
network keeps an LRU cache keyed by the component's structural signature —
which constraint links it spans and, per flow, which of them it crosses and
its rate ceiling.  Flows with identical structure provably receive identical
max-min rates, so cached rate vectors can be re-applied positionally to a
sorted view of the component without re-running the waterfill.

Since the struct-of-arrays refactor the hot numeric state (flow rates, caps
and paths; link capacities and potential loads; payment counters) lives in a
:class:`~repro.simnet.soa.SoAStore` owned by the network, with the
``Flow``/``Link`` objects as thin views.  The flush then has two
bit-identical implementations, chosen by component size alone: the
per-object loops below :attr:`FluidNetwork.VEC_MIN_COMPONENT` flows, and an
array path that recomputes a wider component with numpy segment operations
(:meth:`_flush_component_vec`).  Both produce the same rates, the same event
stream and the same counters; the split exists purely because numpy's
per-call overhead loses to plain Python on the small components that
dominate steady state.

Propagation delays are *not* folded into byte accounting — they are exposed
via :meth:`FluidNetwork.rtt` and the higher layers (thinner, clients, HTTP
download model) account for them explicitly where the paper's evaluation
does (encouragement latency, quiescent periods, auction responses).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.errors import FlowError
from repro.perf.counters import SimCounters
from repro.simnet.bandwidth import RATE_EPSILON, waterfill_lists
from repro.simnet.engine import Engine, Event
from repro.simnet.flow import Flow, FlowState
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.soa import SoAStore, waterfill_arrays
from repro.simnet.topology import Topology

#: Completion is declared when fewer than this many bytes remain; guards
#: against floating-point residue keeping a flow alive forever.
BYTES_EPSILON = 1e-6

#: Slack used when comparing a link's potential load against its capacity.
#: A link is "constraining" only when its potential load *strictly* exceeds
#: capacity by more than this: flows that can jointly fill a link exactly are
#: each already limited to their static bounds by something else, so the link
#: cannot force anyone below their bound.
_CAPACITY_SLACK = 1e-6

_INF = float("inf")

#: ``FluidNetwork._next`` when no completion time is pending.
_NO_DUE = (_INF, -1, -1)

#: Pads each row of the vectorized flush's cache key past its crossed link
#: ids; larger than any link id.
_KEY_PAD = np.iinfo(np.int64).max


class FluidNetwork:
    """Fluid-flow network simulator bound to an :class:`Engine` and a topology."""

    #: Entries kept in the component-signature → rate-vector LRU cache.
    RATE_CACHE_SIZE = 256

    #: Components smaller than this skip the cache entirely: building and
    #: hashing the structural signature costs more than just waterfilling a
    #: handful of flows.  The cache pays off where waterfill's cost curve
    #: bends — wide components recomputed repeatedly in steady state.
    RATE_CACHE_MIN_FLOWS = 16

    #: Components at least this wide take the vectorized recompute path;
    #: below it, numpy call overhead loses to the plain loops.  Both paths
    #: are bit-identical, so this is purely a performance knob.
    VEC_MIN_COMPONENT = 64

    def __init__(self, engine: Engine, topology: Topology) -> None:
        self.engine = engine
        self.topology = topology

        #: The struct-of-arrays store backing flows, links and channels.
        self.soa = SoAStore()

        self._active: Dict[Flow, None] = {}
        #: Hot-path instrumentation (see :mod:`repro.perf.counters`).
        self.counters = SimCounters()

        # Dirty-set state for the deferred, batched rate recomputation.
        # Seeds are keyed by the links' dense store ids.
        self._dirty = False
        self._dirty_seeds: Dict[int, Link] = {}
        self._dirty_pre: Set[int] = set()
        self._dirty_flows: Dict[Flow, None] = {}
        self._rate_cache: "OrderedDict[tuple, object]" = OrderedDict()

        # The one completion timer.  Each bounded flow's completion time and
        # the engine seq it claimed are store columns (``f_due``/``f_seq``);
        # ``_next`` is the earliest ``(due, seq, fid)`` (exact unless
        # ``_next_stale``), ``_timer`` the engine event pushed there, and
        # ``_timer_dirty`` says the two may differ until the next flush.
        self._timer: Optional[Event] = None
        self._next = _NO_DUE
        self._next_stale = False
        self._timer_dirty = False
        #: Flows with a completion time pending.
        self._due_count = 0

        self.total_delivered_bytes = 0.0
        self.completed_flows = 0
        self.stopped_flows = 0

        engine.add_flush_callback(self._flush_rates)
        self._reset_link_state()

    def _reset_link_state(self) -> None:
        """Clear allocator bookkeeping on every link built so far and
        register it with this network's store.

        A topology handed to a fresh network may have been driven by a
        previous one; registration assigns new dense ids in the new store.
        A host's access link is built when a path first crosses it, so the
        links not yet built register at their first flow instead
        (:meth:`_ensure_path_lids`).
        """
        soa = self.soa
        for link in self.topology.built_links():
            link._reset_runtime()
            soa.register_link(link)

    # -- queries ---------------------------------------------------------------

    @property
    def active_flows(self) -> List[Flow]:
        """Flows currently being allocated bandwidth (a copy)."""
        return list(self._active)

    def rtt(self, a: Host, b: Host) -> float:
        """Round-trip propagation delay between two hosts."""
        return self.topology.rtt(a, b)

    # -- flow construction -------------------------------------------------------

    def create_flow(
        self,
        src: Host,
        dst: Host,
        size_bytes: Optional[float] = None,
        rate_cap_bps: Optional[float] = None,
        label: str = "flow",
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Build (but do not start) a flow routed by the topology."""
        path = self.topology.path(src, dst)
        return Flow(
            src,
            dst,
            path,
            size_bytes=size_bytes,
            rate_cap_bps=rate_cap_bps,
            label=label,
            on_complete=on_complete,
        )

    # -- flow lifecycle ------------------------------------------------------------

    def start_flow(self, flow: Flow) -> Flow:
        """Activate ``flow``; its rate materialises at the next flush."""
        if flow.state == FlowState.ACTIVE:
            raise FlowError(f"flow {flow.flow_id} is already active")
        if flow.state in (FlowState.COMPLETED, FlowState.STOPPED):
            raise FlowError(f"flow {flow.flow_id} has already finished ({flow.state.value})")
        flow.state = FlowState.ACTIVE
        flow.started_at = self.engine.now
        flow._slast = self.engine.now

        lids = self._ensure_path_lids(flow)
        self._note_change(flow.path, lids, flow)
        self._attach(flow, lids)
        return flow

    def send(
        self,
        src: Host,
        dst: Host,
        size_bytes: Optional[float] = None,
        rate_cap_bps: Optional[float] = None,
        label: str = "flow",
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Create and immediately start a flow."""
        flow = self.create_flow(
            src,
            dst,
            size_bytes=size_bytes,
            rate_cap_bps=rate_cap_bps,
            label=label,
            on_complete=on_complete,
        )
        return self.start_flow(flow)

    def stop_flow(self, flow: Flow) -> float:
        """Deactivate ``flow`` (e.g. the auction winner's payment channel).

        Returns the bytes it delivered.  Stopping an already-finished flow is
        a no-op so callers do not need to worry about races with completion.
        """
        if flow.state != FlowState.ACTIVE:
            return flow.delivered_bytes
        self._integrate(flow)
        self._note_change(flow.path, flow._path_lids)
        self._detach(flow, FlowState.STOPPED)
        self.stopped_flows += 1
        return flow.delivered_bytes

    def set_rate_cap(self, flow: Flow, rate_cap_bps: Optional[float]) -> None:
        """Change a flow's private rate ceiling (slow-start ramp) and mark it dirty."""
        if rate_cap_bps is not None and rate_cap_bps <= 0:
            raise FlowError(f"rate cap must be positive or None, got {rate_cap_bps}")
        fid = flow._fid
        if fid < 0:
            # Detached (not yet started, or already finished): the scalar
            # slot is authoritative and no load bookkeeping exists to shift.
            if flow._scap != rate_cap_bps:
                flow._scap = rate_cap_bps
            return
        soa = self.soa
        encoded = _INF if rate_cap_bps is None else rate_cap_bps
        if soa.fm_cap[fid] == encoded:
            return
        soa.fm_cap[fid] = encoded
        path = flow.path
        lids = flow._path_lids
        self._note_change(path, lids, flow)
        old_bound = soa.fm_bound[fid]
        new_bound = flow._path_min_cap
        if rate_cap_bps is not None and rate_cap_bps < new_bound:
            new_bound = rate_cap_bps
        if new_bound != old_bound:
            soa.fm_bound[fid] = new_bound
            delta = new_bound - old_bound
            entry = path[0]
            soa.lm_pot[lids[0]] += delta
            for i in range(1, len(path)):
                path[i]._add_entry_load(entry, delta)

    def set_link_capacity(self, link: Link, capacity_bps: float) -> None:
        """Change a link's capacity mid-run and re-derive every affected bound.

        The mechanics mirror :meth:`set_rate_cap`, but one link touches many
        flows: every flow crossing ``link`` is marked dirty (so the flush
        component covers capacity *increases*, where nothing need be
        saturated afterwards), the capacity moves in both the scalar
        attribute and the SoA ``l_cap`` mirror (each waterfill path reads
        its own), entry-group caps where ``link`` is the entry are
        re-clamped, and each crossing flow's static path bound is recomputed
        with the same potential-load delta walk ``set_rate_cap`` uses.  The
        rate caches need no invalidation: their keys embed the constraint
        capacities on both paths.
        """
        if not 0 < capacity_bps < _INF:
            raise FlowError(
                f"link capacity must be positive and finite, got {capacity_bps} for {link.name!r}"
            )
        old_cap = link.capacity_bps
        if capacity_bps == old_cap:
            return
        soa = self.soa
        if link._soa is not soa:
            soa.register_link(link)
        flows = list(link._flows)
        for flow in flows:
            self._note_change(flow.path, flow._path_lids, flow)
        link.capacity_bps = capacity_bps
        soa.l_cap[link._lid] = capacity_bps
        # Entry-group re-clamp: groups entering the network at ``link`` are
        # capped at its capacity on every downstream link; shift each
        # downstream potential by the change in min(cap, group_sum).  Must
        # happen before the per-flow bound deltas below, which already use
        # the new capacity inside _add_entry_load.
        entry_key = id(link)
        seen: set = set()
        for flow in flows:
            path = flow.path
            if path[0] is not link:
                continue
            for i in range(1, len(path)):
                downstream = path[i]
                mark = id(downstream)
                if mark in seen:
                    continue
                seen.add(mark)
                group_sum = downstream._entry_sums.get(entry_key)
                if group_sum is None:
                    continue
                old_capped = old_cap if group_sum > old_cap else group_sum
                new_capped = capacity_bps if group_sum > capacity_bps else group_sum
                if new_capped != old_capped:
                    soa.lm_pot[downstream._lid] += new_capped - old_capped
        f_cap = soa.fm_cap
        f_bound = soa.fm_bound
        pot = soa.lm_pot
        for flow in flows:
            path = flow.path
            new_min = path[0].capacity_bps
            for crossed in path:
                if crossed.capacity_bps < new_min:
                    new_min = crossed.capacity_bps
            flow._path_min_cap = new_min
            fid = flow._fid
            new_bound = new_min
            rate_cap = f_cap[fid]
            if rate_cap < new_bound:
                new_bound = rate_cap
            old_bound = f_bound[fid]
            if new_bound != old_bound:
                f_bound[fid] = new_bound
                delta = new_bound - old_bound
                entry = path[0]
                lids = flow._path_lids
                pot[lids[0]] += delta
                for i in range(1, len(path)):
                    path[i]._add_entry_load(entry, delta)

    def sync(self) -> None:
        """Flush pending rate updates, then bring every active flow's
        ``delivered_bytes`` up to the current time."""
        self._flush_rates()
        for flow in self._active:
            self._integrate(flow)

    def delivered_bytes(self, flow: Flow) -> float:
        """Delivered bytes of ``flow`` as of now (integrating if still active).

        Exact even while a rate recomputation is pending: pending changes
        were made at the *current* instant, so the pre-change rate still
        covers the whole integration interval.
        """
        if flow.state == FlowState.ACTIVE:
            self._integrate(flow)
        return flow.delivered_bytes

    # -- bookkeeping internals ------------------------------------------------------

    def _ensure_path_lids(self, flow: Flow) -> tuple:
        """Register any unregistered path links and cache the dense ids."""
        soa = self.soa
        lids: List[int] = []
        for link in flow.path:
            if link._soa is not soa:
                soa.register_link(link)
            lids.append(link._lid)
        out = tuple(lids)
        flow._path_lids = out
        return out

    def _note_change(self, path: List[Link], lids: tuple, flow: Optional[Flow] = None) -> None:
        """Record a flow-set change: O(path), no recomputation.

        Must run *before* the change mutates the load bookkeeping — the
        flush seeds the affected component from links that were potentially
        saturated either before any change in the batch or after all of
        them.
        """
        self.counters.reallocations += 1
        seeds = self._dirty_seeds
        pre = self._dirty_pre
        slack = _CAPACITY_SLACK
        pot = self.soa.lm_pot
        for lid, link in zip(lids, path):
            if lid not in seeds:
                seeds[lid] = link
            if pot[lid] > link.capacity_bps + slack:
                pre.add(lid)
        if flow is not None:
            self._dirty_flows[flow] = None
        if not self._dirty:
            self._dirty = True
            self.engine.request_flush()

    def _attach(self, flow: Flow, lids: tuple) -> None:
        self._active[flow] = None
        path = flow.path
        bound = flow._path_min_cap
        cap = flow._scap
        if cap is not None and cap < bound:
            bound = cap
        flow._sbound = bound
        soa = self.soa
        soa.acquire_flow(flow, lids)
        flow._soa = soa
        pot = soa.lm_pot
        entry = path[0]
        entry._flows[flow] = None
        pot[lids[0]] += bound
        for i in range(1, len(path)):
            link = path[i]
            link._flows[flow] = None
            link._add_entry_load(entry, bound)

    def _detach(self, flow: Flow, final_state: FlowState) -> None:
        self._active.pop(flow, None)
        soa = self.soa
        fid = flow._fid
        path = flow.path
        lids = flow._path_lids
        pot = soa.lm_pot
        bound = soa.fm_bound[fid]
        soa.fm_bound[fid] = 0.0
        entry = path[0]
        entry._flows.pop(flow, None)
        pot[lids[0]] -= bound
        if not entry._flows:
            pot[lids[0]] = 0.0
            entry._entry_sums.clear()
        for i in range(1, len(path)):
            link = path[i]
            link._flows.pop(flow, None)
            link._add_entry_load(entry, -bound)
            if not link._flows:
                pot[lids[i]] = 0.0
                link._entry_sums.clear()
        flow.state = final_state
        flow.finished_at = self.engine.now
        soa.fm_rate[fid] = 0.0
        self._clear_due(fid)
        soa.release_flow(flow)

    def _integrate(self, flow: Flow) -> None:
        now = self.engine.now
        soa = self.soa
        fid = flow._fid
        f_last = soa.fm_last
        dt = now - f_last[fid]
        if dt > 0:
            rate = soa.fm_rate[fid]
            if rate > 0:
                delivered = rate * dt / 8.0
                size = flow.size_bytes
                if size is not None:
                    remaining = size - soa.fm_delivered[fid]
                    if delivered > remaining:
                        delivered = remaining
                soa.fm_delivered[fid] += delivered
                self.total_delivered_bytes += delivered
        f_last[fid] = now

    # -- deferred rate recomputation ---------------------------------------------------

    def _flush_rates(self) -> None:
        """Recompute rates for everything touched since the last flush, then
        point the completion timer at the earliest completion time.

        Registered as the engine's flush callback; also invoked directly by
        the rate-reading queries.  No-op when nothing is dirty.
        """
        if self._dirty:
            self._recompute_rates()
        if self._timer_dirty:
            self._arm_timer()

    def _recompute_rates(self) -> None:
        self._dirty = False
        counters = self.counters
        counters.flushes += 1
        # Live events as if each pending completion were its own event.
        live = self.engine.pending_events + self._due_count
        if self._timer is not None:
            live -= 1
        if live > counters.peak_live_events:
            counters.peak_live_events = live
        seeds = self._dirty_seeds
        pre = self._dirty_pre
        dirty_flows = self._dirty_flows
        self._dirty_seeds = {}
        self._dirty_pre = set()
        self._dirty_flows = {}

        slack = _CAPACITY_SLACK
        soa = self.soa
        pot = soa.lm_pot
        seed_links = [
            link
            for lid, link in seeds.items()
            if lid in pre or pot[lid] > link.capacity_bps + slack
        ]
        component = self._component(seed_links)
        for flow in dirty_flows:
            if flow.state is FlowState.ACTIVE and flow not in component:
                component[flow] = None
        if not component:
            return
        flows = list(component)
        n = len(flows)

        if n >= self.VEC_MIN_COMPONENT:
            self._flush_component_vec(flows)
            return

        # Which links can actually bind the component?
        constraint_links: List[Link] = []
        link_pos: Dict[int, int] = {}
        for flow in flows:
            path = flow.path
            for i, lid in enumerate(flow._path_lids):
                if lid not in link_pos:
                    link = path[i]
                    if pot[lid] > link.capacity_bps + slack:
                        link_pos[lid] = len(constraint_links)
                        constraint_links.append(link)

        use_cache = n >= self.RATE_CACHE_MIN_FLOWS

        # Per-flow ceilings (own cap folded with never-saturating path links),
        # crossed-link index lists and, when caching, the structural signature.
        f_cap = soa.fm_cap
        caps: List[float] = []
        flow_links: List[List[int]] = []
        unfrozen_on = [0] * len(constraint_links)
        structs: List[tuple] = []
        get_pos = link_pos.get
        for flow in flows:
            cap = f_cap[flow._fid]
            path = flow.path
            lids = flow._path_lids
            indices: List[int] = []
            if use_cache:
                crossed: List[int] = []
                for i, lid in enumerate(lids):
                    pos = get_pos(lid)
                    if pos is not None:
                        crossed.append(lid)
                        indices.append(pos)
                    else:
                        capacity = path[i].capacity_bps
                        if capacity < cap:
                            cap = capacity
                crossed.sort()
                structs.append((tuple(crossed), cap))
            else:
                for i, lid in enumerate(lids):
                    pos = get_pos(lid)
                    if pos is not None:
                        indices.append(pos)
                    else:
                        capacity = path[i].capacity_bps
                        if capacity < cap:
                            cap = capacity
            for index in indices:
                unfrozen_on[index] += 1
            caps.append(cap)
            flow_links.append(indices)

        if not use_cache:
            # Below the cache threshold: cache_hits/misses deliberately not
            # touched, so those counters measure cache traffic alone.
            counters.waterfill_calls += 1
            counters.flows_touched += n
            remaining = [link.capacity_bps for link in constraint_links]
            rates = waterfill_lists(caps, flow_links, remaining, unfrozen_on)
            self._apply_rates(flows, rates)
            return

        order = sorted(range(n), key=structs.__getitem__)
        key = (
            tuple(sorted((link._lid, link.capacity_bps) for link in constraint_links)),
            tuple(structs[index] for index in order),
        )
        cache = self._rate_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            counters.cache_hits += 1
            rates = [0.0] * n
            for position, index in enumerate(order):
                rates[index] = cached[position]
        else:
            counters.cache_misses += 1
            counters.waterfill_calls += 1
            counters.flows_touched += n
            remaining = [link.capacity_bps for link in constraint_links]
            rates = waterfill_lists(caps, flow_links, remaining, unfrozen_on)
            cache[key] = tuple(rates[index] for index in order)
            if len(cache) > self.RATE_CACHE_SIZE:
                cache.popitem(last=False)
        self._apply_rates(flows, rates)

    def _flush_component_vec(self, flows: List[Flow]) -> None:
        """Array-path recompute of one (wide) component.

        Mirrors the scalar flush stage by stage: constraint discovery in
        first-occurrence order (so the waterfill's tie-breaks match the
        scalar link ordering), effective caps as exact ``min`` folds, the
        LRU signature canonicalised by sorting (its own key namespace — a
        component's size determines its path, so scalar and vector keys
        never mix for the same structure), and the vectorized waterfill of
        :func:`repro.simnet.soa.waterfill_arrays`.
        """
        counters = self.counters
        soa = self.soa
        n = len(flows)
        fids = np.fromiter((flow._fid for flow in flows), dtype=np.int64, count=n)
        nlinks = len(soa.l_views)
        width = int(soa.f_plen[fids].max())
        paths = soa.f_path[fids, :width]
        valid = paths >= 0
        # Padding indexes the sentinel column of the gathers below.
        padded = np.where(valid, paths, nlinks)
        cap_ext = np.empty(nlinks + 1)
        cap_ext[:nlinks] = soa.l_cap[:nlinks]
        cap_ext[nlinks] = np.inf
        pot_ext = np.zeros(nlinks + 1)
        pot_ext[:nlinks] = soa.l_pot[:nlinks]
        # Constraining occurrences (the sentinel column is never constraining).
        crossing_con = pot_ext[padded] > cap_ext[padded] + _CAPACITY_SLACK
        crossing_con &= valid
        flat = padded[crossing_con]  # row-major == the scalar discovery scan
        if flat.size:
            uniq, first = np.unique(flat, return_index=True)
            con_lids = uniq[np.argsort(first)]
        else:
            con_lids = flat
        m = con_lids.shape[0]

        # Effective caps: own cap folded with non-constraint path capacities.
        caps = np.where(valid & ~crossing_con, cap_ext[padded], np.inf)
        eff = np.minimum(soa.f_cap[fids], caps.min(axis=1)) if width else soa.f_cap[fids]

        # CSR of crossed constraint links, local indices in discovery order.
        lut = np.full(nlinks + 1, -1, dtype=np.int64)
        lut[con_lids] = np.arange(m, dtype=np.int64)
        row_counts = crossing_con.sum(axis=1)
        csr_idx = lut[padded[crossing_con]]

        # Structural signature (always ≥ RATE_CACHE_MIN_FLOWS here): rows of
        # (sorted crossed lids, padded) + effective cap, lexicographically
        # ordered; constraint part sorted by lid.  Equal structures yield
        # equal bytes, so hit/miss behaviour matches the scalar criterion.
        # The pad is a constant above every id: links register as flows
        # first cross them, so the link count moves during a run and must
        # not enter the key.
        crossed = np.where(crossing_con, padded, _KEY_PAD)
        crossed.sort(axis=1)
        sort_keys = [eff]
        for column in range(width - 1, -1, -1):
            sort_keys.append(crossed[:, column])
        order = np.lexsort(sort_keys)
        con_order = np.argsort(con_lids)
        key = (
            con_lids[con_order].tobytes(),
            cap_ext[con_lids][con_order].tobytes(),
            crossed[order].tobytes(),
            eff[order].tobytes(),
        )
        cache = self._rate_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            counters.cache_hits += 1
            rates = np.empty(n)
            rates[order] = cached
        else:
            counters.cache_misses += 1
            counters.waterfill_calls += 1
            counters.flows_touched += n
            remaining = cap_ext[con_lids].copy()
            unfrozen_on = (
                np.bincount(csr_idx, minlength=m)
                if csr_idx.size
                else np.zeros(m, dtype=np.int64)
            )
            rates = waterfill_arrays(eff, remaining, unfrozen_on, csr_idx, row_counts)
            cache[key] = rates[order].copy()
            if len(cache) > self.RATE_CACHE_SIZE:
                cache.popitem(last=False)
        self._apply_rates_vec(flows, fids, rates)

    def _component(self, seed_links: List[Link]) -> Dict[Flow, None]:
        component: Dict[Flow, None] = {}
        visited = {link._lid for link in seed_links}
        frontier = list(seed_links)
        slack = _CAPACITY_SLACK
        pot = self.soa.lm_pot
        while frontier:
            next_frontier: List[Link] = []
            for link in frontier:
                for flow in link._flows:
                    if flow in component:
                        continue
                    component[flow] = None
                    path = flow.path
                    lids = flow._path_lids
                    for i, lid in enumerate(lids):
                        if lid not in visited:
                            other = path[i]
                            if pot[lid] > other.capacity_bps + slack:
                                visited.add(lid)
                                next_frontier.append(other)
            frontier = next_frontier
        return component

    def _apply_rates(self, flows: List[Flow], rates: List[float]) -> None:
        soa = self.soa
        f_rate = soa.fm_rate
        f_last = soa.fm_last
        f_delivered = soa.fm_delivered
        f_due = soa.fm_due
        now = self.engine.now
        epsilon = RATE_EPSILON
        for i, flow in enumerate(flows):
            new_rate = rates[i]
            fid = flow._fid
            old_rate = f_rate[fid]
            changed = (
                new_rate - old_rate > epsilon or old_rate - new_rate > epsilon
            )
            if changed:
                # Settle what was delivered at the old rate before switching
                # (``_integrate``, inlined — this is the hottest loop).
                dt = now - f_last[fid]
                if dt > 0 and old_rate > 0:
                    delivered = old_rate * dt / 8.0
                    size = flow.size_bytes
                    if size is not None:
                        remaining = size - f_delivered[fid]
                        if delivered > remaining:
                            delivered = remaining
                    f_delivered[fid] += delivered
                    self.total_delivered_bytes += delivered
                f_last[fid] = now
                f_rate[fid] = new_rate
                callback = flow.on_rate_change
                if callback is not None:
                    callback(flow)
            # A flow whose rate did not change keeps its completion time:
            # with a constant rate the absolute completion time is unchanged.
            if flow.size_bytes is not None and (changed or f_due[fid] == _INF):
                self._reschedule_completion(flow)

    def _apply_rates_vec(self, flows: List[Flow], fids: np.ndarray, new_rates: np.ndarray) -> None:
        """Array twin of :meth:`_apply_rates` (same order of effects).

        Integrations land first (in flow order, exactly as the scalar loop
        interleaves them — nothing between two flows' integrations observes
        intermediate state), then the per-flow callbacks in flow order, then
        every completion time at once, claiming engine seqs in flow order.
        Rate-change callbacks only note the change (the bid index re-keys
        later), so they claim no seq and the scalar loop's interleaving
        yields the same seqs.
        """
        soa = self.soa
        old = soa.f_rate[fids]
        changed = np.abs(new_rates - old) > RATE_EPSILON
        now = self.engine.now
        touched = np.flatnonzero(changed)
        if touched.size:
            cf = fids[touched]
            dt = now - soa.f_last[cf]
            rate = old[touched]
            live = (dt > 0) & (rate > 0)
            delivered = np.where(live, rate * dt / 8.0, 0.0)
            done = soa.f_delivered[cf]
            remaining = soa.f_size[cf] - done
            delivered = np.where(delivered > remaining, remaining, delivered)
            soa.f_delivered[cf] = done + delivered
            total = self.total_delivered_bytes
            for value in delivered.tolist():
                total += value
            self.total_delivered_bytes = total
            soa.f_last[cf] = now
            soa.f_rate[cf] = new_rates[touched]
        for i in touched.tolist():
            flow = flows[i]
            callback = flow.on_rate_change
            if callback is not None:
                callback(flow)
        rearm = (soa.f_size[fids] != np.inf) & (changed | (soa.f_due[fids] == np.inf))
        if rearm.any():
            self._reschedule_completions(fids[rearm])

    # -- the completion timer -------------------------------------------------------

    def _reschedule_completion(self, flow: Flow) -> None:
        """Re-derive a bounded flow's completion time from its bytes left.

        A new time claims a fresh engine seq, just where a per-flow event
        would have been scheduled; a stalled flow has no completion time.
        """
        soa = self.soa
        fid = flow._fid
        remaining = flow.size_bytes - soa.fm_delivered[fid]
        if remaining <= BYTES_EPSILON:
            # Completed exactly at this instant; the timer finishes it at
            # ``now``, after the caller of the triggering operation returns.
            due = self.engine.now
        else:
            rate = soa.fm_rate[fid]
            if rate <= RATE_EPSILON:
                self._clear_due(fid)
                return
            due = self.engine.now + remaining * 8.0 / rate
        if soa.fm_due[fid] == _INF:
            self._due_count += 1
        soa.fm_due[fid] = due
        seq = soa.fm_seq[fid] = self.engine.reserve_seq()
        # A fresh seq is the largest yet: only a strictly earlier time can
        # overtake the earliest, and if that was this flow it may not stay so.
        if due < self._next[0]:
            self._next = (due, seq, fid)
            self._timer_dirty = True
        elif fid == self._next[2]:
            self._next_stale = self._timer_dirty = True

    def _reschedule_completions(self, fids: np.ndarray) -> None:
        """Array twin of :meth:`_reschedule_completion` for rows ``fids``, in order."""
        soa = self.soa
        now = self.engine.now
        remaining = soa.f_size[fids] - soa.f_delivered[fids]
        rate = soa.f_rate[fids]
        due = np.full(fids.shape[0], np.inf)
        soon = remaining <= BYTES_EPSILON
        due[soon] = now
        moving = ~soon & (rate > RATE_EPSILON)
        due[moving] = now + remaining[moving] * 8.0 / rate[moving]
        self._due_count -= int(np.count_nonzero(soa.f_due[fids] != np.inf))
        soa.f_due[fids] = due
        timed = fids[soon | moving]
        count = timed.shape[0]
        self._due_count += count
        if count:
            first = self.engine.reserve_seq(count)
            soa.f_seq[timed] = np.arange(first, first + count)
            # First-occurrence argmin: among equal times, the smallest seq.
            index = int(due.argmin())
            if due[index] < self._next[0]:
                fid = int(fids[index])
                self._next = (soa.fm_due[fid], soa.fm_seq[fid], fid)
                self._timer_dirty = True
                return
        if (fids == self._next[2]).any():
            self._next_stale = self._timer_dirty = True

    def _clear_due(self, fid: int) -> None:
        """Drop a flow's pending completion time, if it has one."""
        soa = self.soa
        if soa.fm_due[fid] != _INF:
            soa.fm_due[fid] = _INF
            self._due_count -= 1
            if fid == self._next[2]:
                self._next_stale = self._timer_dirty = True

    def _arm_timer(self) -> None:
        """Point the timer at the earliest ``(due, seq)``.

        Runs in the flush hook, before the clock can advance, so the timer
        never fires for a completion time that moved.  Scans the store only
        when the earliest flow's own time moved later or went away.
        """
        self._timer_dirty = False
        if self._next_stale:
            self._next_stale = False
            soa = self.soa
            fid = soa.earliest_due() if self._due_count else -1
            self._next = _NO_DUE if fid < 0 else (soa.fm_due[fid], soa.fm_seq[fid], fid)
        due, seq, fid = self._next
        timer = self._timer
        if timer is not None:
            if timer.seq == seq:
                return
            timer.cancel()
            self._timer = None
        if fid >= 0:
            self._timer = self.engine.schedule_reserved(due, seq, self._complete_next)

    def _complete_next(self) -> None:
        """The timer's callback: finish the flow with the earliest completion time."""
        self._timer = None
        fid = self._next[2]
        flow = self.soa.f_views[fid]
        self._clear_due(fid)
        self.engine.request_flush()
        self._integrate(flow)
        if flow.size_bytes - flow.delivered_bytes > BYTES_EPSILON:
            # Float residue left bytes behind: time them at the current rate.
            self._reschedule_completion(flow)
            return
        flow.delivered_bytes = float(flow.size_bytes)
        self._note_change(flow.path, flow._path_lids)
        self._detach(flow, FlowState.COMPLETED)
        self.completed_flows += 1
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def flows_on(self, link: Link) -> List[Flow]:
        """Active flows whose path crosses ``link``."""
        return list(link._flows)

    def link_load_bps(self, link: Link) -> float:
        """Aggregate rate currently crossing ``link``."""
        self._flush_rates()
        return sum(flow.rate_bps for flow in link._flows)

    def link_utilisation(self, link: Link) -> float:
        """Fraction of ``link``'s capacity in use right now."""
        return self.link_load_bps(link) / link.capacity_bps
