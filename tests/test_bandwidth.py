"""Tests for max-min fair allocation (progressive filling)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MBIT
from repro.simnet.bandwidth import max_min_fair_rates, waterfill
from repro.simnet.flow import Flow
from repro.simnet.host import make_host
from repro.simnet.link import Link


def _flow(path, cap=None):
    src = make_host("src", 10 * MBIT)
    dst = make_host("dst", 10 * MBIT)
    return Flow(src, dst, path, rate_cap_bps=cap)


def test_single_flow_gets_full_link():
    link = Link("l", 10 * MBIT)
    flow = _flow([link])
    rates = max_min_fair_rates([flow])
    assert rates[flow] == pytest.approx(10 * MBIT)


def test_two_flows_split_link_evenly():
    link = Link("l", 10 * MBIT)
    flows = [_flow([link]) for _ in range(2)]
    rates = max_min_fair_rates(flows)
    assert rates[flows[0]] == pytest.approx(5 * MBIT)
    assert rates[flows[1]] == pytest.approx(5 * MBIT)


def test_rate_cap_limits_a_flow_and_frees_capacity():
    link = Link("l", 10 * MBIT)
    capped = _flow([link], cap=2 * MBIT)
    open_flow = _flow([link])
    rates = max_min_fair_rates([capped, open_flow])
    assert rates[capped] == pytest.approx(2 * MBIT)
    assert rates[open_flow] == pytest.approx(8 * MBIT)


def test_max_min_classic_parking_lot():
    """One long flow across both links, one short flow per link."""
    l1 = Link("l1", 10 * MBIT)
    l2 = Link("l2", 10 * MBIT)
    long_flow = _flow([l1, l2])
    short1 = _flow([l1])
    short2 = _flow([l2])
    rates = max_min_fair_rates([long_flow, short1, short2])
    assert rates[long_flow] == pytest.approx(5 * MBIT)
    assert rates[short1] == pytest.approx(5 * MBIT)
    assert rates[short2] == pytest.approx(5 * MBIT)


def test_bottleneck_then_residual_share():
    """Flows limited elsewhere leave their unused share to the others."""
    narrow = Link("narrow", 1 * MBIT)
    wide = Link("wide", 10 * MBIT)
    limited = _flow([narrow, wide])
    free = _flow([wide])
    rates = max_min_fair_rates([limited, free])
    assert rates[limited] == pytest.approx(1 * MBIT)
    assert rates[free] == pytest.approx(9 * MBIT)


def test_empty_flow_list():
    assert max_min_fair_rates([]) == {}


def test_waterfill_excluded_link_acts_as_cap():
    """A link left out of the constraint set is folded into the flow's cap."""
    uplink = Link("up", 2 * MBIT)
    downlink = Link("down", 100 * MBIT)
    flow = _flow([uplink, downlink])
    rates = waterfill([flow], [downlink], {flow: uplink.capacity_bps})
    assert rates[flow] == pytest.approx(2 * MBIT)


# ---------------------------------------------------------------------------
# Property-based tests: feasibility, work conservation, cap respect
# ---------------------------------------------------------------------------

@st.composite
def random_scenario(draw):
    """A random set of links and flows over them."""
    link_count = draw(st.integers(min_value=1, max_value=5))
    links = [
        Link(f"l{i}", draw(st.floats(min_value=0.5, max_value=50.0)) * MBIT)
        for i in range(link_count)
    ]
    flow_count = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for _ in range(flow_count):
        path_size = draw(st.integers(min_value=1, max_value=link_count))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=link_count - 1),
                min_size=path_size,
                max_size=path_size,
                unique=True,
            )
        )
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.1, max_value=20.0)))
        flows.append(_flow([links[i] for i in indices], cap=None if cap is None else cap * MBIT))
    return links, flows


@settings(max_examples=80, deadline=None)
@given(random_scenario())
def test_allocation_is_feasible_and_respects_caps(scenario):
    """Property: no link over capacity, no flow over its cap, rates non-negative."""
    links, flows = scenario
    rates = max_min_fair_rates(flows)
    for flow in flows:
        assert rates[flow] >= 0.0
        assert rates[flow] <= flow.effective_cap() * (1 + 1e-9)
    for link in links:
        load = sum(rates[flow] for flow in flows if link in flow.path)
        assert load <= link.capacity_bps * (1 + 1e-6)


@settings(max_examples=80, deadline=None)
@given(random_scenario())
def test_allocation_is_work_conserving(scenario):
    """Property: every flow is limited by a saturated link or its own cap."""
    links, flows = scenario
    rates = max_min_fair_rates(flows)
    loads = {link: sum(rates[f] for f in flows if link in f.path) for link in links}
    for flow in flows:
        at_cap = rates[flow] >= flow.effective_cap() - 1.0  # 1 bit/s slack
        on_saturated_link = any(
            loads[link] >= link.capacity_bps - 1.0 for link in flow.path
        )
        assert at_cap or on_saturated_link


@settings(max_examples=60, deadline=None)
@given(random_scenario())
def test_equal_flows_get_equal_rates(scenario):
    """Property: flows with identical paths and caps receive identical rates."""
    links, flows = scenario
    rates = max_min_fair_rates(flows)
    by_signature = {}
    for flow in flows:
        signature = (tuple(id(link) for link in flow.path), flow.effective_cap())
        by_signature.setdefault(signature, []).append(rates[flow])
    for values in by_signature.values():
        assert max(values) - min(values) < 1.0  # within 1 bit/s
