"""Max-min fair bandwidth allocation (progressive filling).

Two entry points:

* :func:`waterfill` — the core progressive-filling loop over an explicit set
  of flows, an explicit set of capacity constraints, and a per-flow rate
  ceiling.  The :class:`~repro.simnet.network.FluidNetwork` calls this on the
  (usually small) component of flows affected by a change.
* :func:`max_min_fair_rates` — the textbook global computation over a set of
  flows.  It is the reference implementation: simple, obviously correct, and
  used by the property-based tests to validate the incremental path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from repro.simnet.flow import Flow
from repro.simnet.link import Link

#: The allocator's float-comparison tolerance, in bits/s.  It plays three
#: distinct roles, all of them guards against floating-point dust rather
#: than model parameters:
#:
#: * in :func:`waterfill`, a link is saturated when its remaining capacity
#:   drops to ``RATE_EPSILON`` and a flow is capped when its rate climbs to
#:   within ``RATE_EPSILON`` of its ceiling — without the slack, residue
#:   from the incremental fill could leave a constraint "almost" binding
#:   and the loop unable to freeze anyone;
#: * final rates below ``RATE_EPSILON`` are snapped to exactly zero so a
#:   completion time is never astronomically far in the future;
#: * in :meth:`FluidNetwork._apply_rates
#:   <repro.simnet.network.FluidNetwork._apply_rates>`, a rate change
#:   smaller than ``RATE_EPSILON`` is treated as "unchanged", which keeps a
#:   recomputation that reproduces the same allocation from re-deriving
#:   every completion time in the component (and firing every rate-change
#:   callback).
#:
#: 1e-9 bits/s is roughly one bit per 30 simulated years — far below
#: anything the model can observe, far above double-precision noise on the
#: Mbit/s-scale quantities involved.
RATE_EPSILON = 1e-9


def waterfill_lists(
    caps: list,
    flow_links: list,
    remaining: list,
    unfrozen_on: list,
) -> list:
    """Index-based progressive-filling core.

    Flows are ``0..n-1`` (``caps[i]`` the effective ceiling, ``flow_links[i]``
    the indices into ``remaining`` of the constraint links flow ``i``
    crosses); ``remaining`` holds the links' capacities and ``unfrozen_on``
    the per-link unfrozen crossing counts (both consumed in place).  Returns
    the per-flow rates as a list.  This is the same loop :func:`waterfill`
    has always run, with the ``Flow``-keyed dicts replaced by positional
    lists — the allocator's flush calls it directly with dense ids, and the
    vectorized twin (:func:`repro.simnet.soa.waterfill_arrays`) mirrors it
    operation for operation.
    """
    n = len(caps)
    inf = float("inf")
    rates = [0.0] * n
    frozen = [False] * n
    unfrozen_count = n
    current_level = 0.0

    while unfrozen_count > 0:
        best_level = inf
        binding_link: int | None = None
        binding_flow: int | None = None
        for index, count in enumerate(unfrozen_on):
            if count > 0:
                level = current_level + remaining[index] / count
                if level < best_level:
                    best_level = level
                    binding_link = index
                    binding_flow = None
        for i in range(n):
            if not frozen[i]:
                cap = caps[i]
                if cap < best_level:
                    best_level = cap
                    binding_link = None
                    binding_flow = i

        if best_level == inf:
            # No finite constraint at all (cannot happen with real links);
            # freeze everything at its cap to terminate.
            for i in range(n):
                if not frozen[i]:
                    rates[i] = caps[i]
                    frozen[i] = True
            break

        increment = max(0.0, best_level - current_level)
        if increment > 0:
            for i in range(n):
                if frozen[i]:
                    continue
                rates[i] += increment
                for index in flow_links[i]:
                    remaining[index] -= increment
        current_level = best_level

        newly_frozen = []
        for i in range(n):
            if frozen[i]:
                continue
            if rates[i] >= caps[i] - RATE_EPSILON:
                newly_frozen.append(i)
                continue
            for index in flow_links[i]:
                if remaining[index] <= RATE_EPSILON:
                    newly_frozen.append(i)
                    break
        if not newly_frozen:
            # Floating-point residue can leave the binding constraint a hair
            # above the saturation epsilon; freeze exactly the flows the
            # binding constraint limits so progress (and work conservation)
            # are preserved rather than freezing everything.
            if binding_flow is not None:
                newly_frozen = [binding_flow]
            elif binding_link is not None:
                newly_frozen = [
                    i
                    for i in range(n)
                    if not frozen[i] and binding_link in flow_links[i]
                ]
            else:  # pragma: no cover - defensive termination
                newly_frozen = [i for i in range(n) if not frozen[i]]

        for i in newly_frozen:
            frozen[i] = True
            unfrozen_count -= 1
            for index in flow_links[i]:
                unfrozen_on[index] -= 1

    for i in range(n):
        if rates[i] < RATE_EPSILON:
            rates[i] = 0.0
    return rates


def waterfill(
    flows: Sequence[Flow],
    constraint_links: Iterable[Link],
    effective_caps: Mapping[Flow, float],
) -> Dict[Flow, float]:
    """Progressive filling over ``flows`` subject to ``constraint_links``.

    ``effective_caps`` bounds each flow individually (its own cap combined
    with the capacity of any path link deliberately excluded from
    ``constraint_links`` because it can never saturate).
    """
    if not flows:
        return {}

    links = list(constraint_links)
    link_index = {link: i for i, link in enumerate(links)}
    remaining = [link.capacity_bps for link in links]
    unfrozen_on = [0] * len(links)

    inf = float("inf")
    caps = []
    flow_links = []
    for flow in flows:
        # Which constraint links does the flow actually cross?
        indices = [link_index[link] for link in flow.path if link in link_index]
        flow_links.append(indices)
        for index in indices:
            unfrozen_on[index] += 1
        caps.append(effective_caps.get(flow, inf))

    rates = waterfill_lists(caps, flow_links, remaining, unfrozen_on)
    return {flow: rates[i] for i, flow in enumerate(flows)}


def max_min_fair_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Global max-min fair rates (bits/s) for ``flows`` (reference path)."""
    if not flows:
        return {}
    links: list[Link] = []
    seen = set()
    for flow in flows:
        for link in flow.path:
            if id(link) not in seen:
                seen.add(id(link))
                links.append(link)
    caps = {flow: flow.effective_cap() for flow in flows}
    return waterfill(list(flows), links, caps)

