"""Links: unidirectional fluid capacity constraints with propagation delay.

The fluid model treats a link as a capacity that concurrent flows share
(max-min fairly, computed in :mod:`repro.simnet.bandwidth`) plus a one-way
propagation delay that contributes to round-trip times.  A physical cable is
represented by a :class:`DuplexLink`, which is simply a pair of directed
:class:`Link` objects, because upload and download contention are independent
in all of the paper's experiments (e.g. §7.7's bottleneck is congested in the
upload direction by payment traffic while the download direction carries the
victim transfer).

Runtime bookkeeping lives directly on the link as ``__slots__`` fields
(rather than in side dictionaries on the network), so the allocator's hot
path reads and writes plain attributes:

* ``_flows`` — the active flows currently crossing the link;
* ``_entry_sums`` — per *entry link* partial sums backing the link's
  *potential load* (kept in the owning store's ``l_pot`` array): an upper
  bound, in bits/s, on the aggregate rate its flows could ever jointly
  push through it.  A link whose capacity covers its potential load can
  never saturate and therefore never constrains anyone, which is what
  keeps rate recomputation scoped to a small component of the network (see
  :class:`~repro.simnet.network.FluidNetwork`).  Flows are grouped by the
  first link of their path (a client's access uplink): the group's joint
  contribution to any later link is capped by that entry link's capacity,
  because the group's aggregate rate already had to fit through it.
  Without this grouping a well-provisioned core link crossed by thousands
  of flows would be flagged as potentially saturated (every flow counted at
  its full individual bound) and every rate update would degenerate into a
  global recomputation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.errors import TopologyError

#: Entry-group sums at or below this many bits/s are snapped to zero (and
#: dropped) so repeated attach/detach cycles cannot accumulate float drift.
_LOAD_EPSILON = 1e-9


def check_capacity(owner: str, what: str, value: float) -> None:
    """Raise :class:`TopologyError` unless ``0 < value < inf``; NaN fails too."""
    if not 0 < value < math.inf:
        raise TopologyError(f"{owner}: {what} must be positive and finite, got {value}")


def check_delay(owner: str, what: str, value: float) -> None:
    """Raise :class:`TopologyError` unless ``0 <= value < inf``; NaN fails too."""
    if not 0 <= value < math.inf:
        raise TopologyError(f"{owner}: {what} must be non-negative and finite, got {value}")


class Link:
    """A single directed link with a capacity in bits/s and a one-way delay."""

    __slots__ = (
        "name",
        "capacity_bps",
        "base_capacity_bps",
        "delay_s",
        "buffer_bytes",
        "is_up",
        "_flows",
        "_entry_sums",
        "_lid",
        "_soa",
    )

    #: Default drop-tail buffer, sized like a small home-router queue.  Only
    #: the cross-traffic model (Figure 9) consults it.
    DEFAULT_BUFFER_BYTES = 75_000

    def __init__(
        self,
        name: str,
        capacity_bps: float,
        delay_s: float = 0.0,
        buffer_bytes: Optional[float] = None,
    ) -> None:
        check_capacity(f"link {name!r}", "capacity", capacity_bps)
        check_delay(f"link {name!r}", "delay", delay_s)
        self.name = name
        self.capacity_bps = float(capacity_bps)
        #: The configured capacity, the fixed point :meth:`set_capacity_factor`
        #: scales from — so repeated degrades never compound and ``factor=1.0``
        #: restores the original bit-for-bit.
        self.base_capacity_bps = float(capacity_bps)
        self.delay_s = float(delay_s)
        self.buffer_bytes = float(buffer_bytes if buffer_bytes is not None else self.DEFAULT_BUFFER_BYTES)
        #: Administrative liveness: the fault injector marks a killed shard's
        #: access link down (and stops its flows); capacity is untouched so
        #: allocator bookkeeping never sees a zero-capacity link.
        self.is_up = True
        self._flows: Dict = {}
        self._entry_sums: Dict[int, float] = {}
        #: Dense id in the owning network's :class:`~repro.simnet.soa.SoAStore`
        #: (-1 until registered) and the store itself, whose ``l_pot`` array
        #: holds the potential load.  The network registers every path link
        #: before a flow attaches, so a link carrying load is registered.
        self._lid = -1
        self._soa = None

    def max_queueing_delay(self) -> float:
        """Worst-case drop-tail queueing delay (full buffer drained at capacity)."""
        return (self.buffer_bytes * 8.0) / self.capacity_bps

    def set_capacity_factor(self, factor: float, network=None) -> None:
        """Scale the capacity to ``factor * base_capacity_bps``.

        The gray-failure ``degrade`` fault: the link stays up (``is_up`` is
        untouched) but carries less.  Always scales from the *base* capacity,
        so degrades are absolute rather than compounding and ``factor=1.0``
        restores the configured capacity exactly.  With a ``network`` the
        change flows through :meth:`FluidNetwork.set_link_capacity`, which
        re-derives every crossing flow's bound and reallocates rates through
        both the scalar and vectorized waterfill paths; without one (links
        not yet attached to a network) only the stored capacity moves.
        """
        check_capacity(f"link {self.name!r}", "capacity factor", factor)
        target = self.base_capacity_bps if factor == 1.0 else self.base_capacity_bps * factor
        if network is not None:
            network.set_link_capacity(self, target)
            return
        self.capacity_bps = target
        if self._soa is not None:
            self._soa.l_cap[self._lid] = target

    # -- allocator bookkeeping (driven by FluidNetwork) -------------------------

    def _reset_runtime(self) -> None:
        """Forget all allocator state (a new network took over the topology)."""
        self.capacity_bps = self.base_capacity_bps
        self._flows = {}
        self._entry_sums = {}
        self._lid = -1
        self._soa = None

    def _add_entry_load(self, entry: "Link", delta: float) -> None:
        """Shift the load contributed via ``entry`` by ``delta`` bits/s.

        The group's contribution to this link's potential load is capped at
        ``entry``'s capacity — the flows all squeezed through ``entry`` first
        — so the potential only moves by the change in ``min(cap, sum)``.
        """
        sums = self._entry_sums
        key = id(entry)
        old = sums.get(key, 0.0)
        new = old + delta
        cap = entry.capacity_bps
        old_capped = cap if old > cap else old
        if new <= _LOAD_EPSILON:
            sums.pop(key, None)
            new_capped = 0.0
        else:
            sums[key] = new
            new_capped = cap if new > cap else new
        self._soa.lm_pot[self._lid] += new_capped - old_capped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name!r}, {self.capacity_bps / 1e6:.3f} Mbit/s, "
            f"{self.delay_s * 1e3:.1f} ms)"
        )


class DuplexLink:
    """A bidirectional link: independent :class:`Link` objects per direction."""

    __slots__ = ("name", "up", "down")

    def __init__(
        self,
        name: str,
        capacity_bps: float,
        delay_s: float = 0.0,
        down_capacity_bps: Optional[float] = None,
        buffer_bytes: Optional[float] = None,
    ) -> None:
        self.name = name
        self.up = Link(f"{name}.up", capacity_bps, delay_s, buffer_bytes)
        self.down = Link(
            f"{name}.down",
            down_capacity_bps if down_capacity_bps is not None else capacity_bps,
            delay_s,
            buffer_bytes,
        )

    @property
    def delay_s(self) -> float:
        """One-way propagation delay of the cable."""
        return self.up.delay_s

    @property
    def rtt(self) -> float:
        """Round-trip contribution of this cable alone."""
        return self.up.delay_s + self.down.delay_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DuplexLink({self.name!r}, up={self.up.capacity_bps / 1e6:.3f} Mbit/s)"


def path_delay(links: list[Link]) -> float:
    """One-way propagation delay along a list of directed links."""
    return sum(link.delay_s for link in links)


def path_min_capacity(links: list[Link]) -> float:
    """The narrowest capacity along a path (the most a single flow could get)."""
    if not links:
        raise TopologyError("path must contain at least one link")
    return min(link.capacity_bps for link in links)
