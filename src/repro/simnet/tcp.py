"""TCP effects that matter to speak-up: slow start and ACK clocking.

§3.4 of the paper points out two ways real transport behaviour erodes a good
client's payment rate: each HTTP POST begins in TCP slow start, and there is
a quiescent gap between POSTs.  The gap is handled by the payment channel;
this module models the ramp: a flow's private rate cap starts at roughly one
window per RTT and doubles every RTT until it reaches the path ceiling, after
which the cap is removed and fair sharing alone governs the rate.
"""

from __future__ import annotations

from repro.constants import DEFAULT_MSS_BYTES
from repro.errors import FlowError
from repro.simnet.engine import Engine
from repro.simnet.flow import Flow, FlowState
from repro.simnet.link import path_min_capacity
from repro.simnet.network import FluidNetwork

#: Initial congestion window in segments (RFC 3390-era value, matching the
#: paper's 2006 setting).
INITIAL_WINDOW_SEGMENTS = 2


class SlowStartRamp:
    """Drives a flow's rate cap through an exponential slow-start ramp."""

    def __init__(
        self,
        network: FluidNetwork,
        mss_bytes: float = DEFAULT_MSS_BYTES,
        initial_window_segments: int = INITIAL_WINDOW_SEGMENTS,
    ) -> None:
        if mss_bytes <= 0:
            raise FlowError("mss_bytes must be positive")
        if initial_window_segments <= 0:
            raise FlowError("initial_window_segments must be positive")
        self.network = network
        self.mss_bytes = mss_bytes
        self.initial_window_segments = initial_window_segments

    @property
    def engine(self) -> Engine:
        return self.network.engine

    def initial_rate(self, rtt: float) -> float:
        """Rate implied by the initial window over one RTT, in bits/s."""
        if rtt <= 0:
            return float("inf")
        return self.initial_window_segments * self.mss_bytes * 8.0 / rtt

    def attach(self, flow: Flow, rtt: float) -> None:
        """Cap ``flow`` at the slow-start rate and schedule doublings.

        The ceiling is the narrowest link on the flow's path; when the ramp
        reaches it the cap is removed entirely so the flow competes with its
        full fair share.
        """
        ceiling_bps = path_min_capacity(flow.path)
        if rtt <= 0:
            # Effectively a zero-delay LAN: slow start is instantaneous.
            self.network.set_rate_cap(flow, None)
            return
        cap = self.initial_rate(rtt)
        if cap >= ceiling_bps:
            self.network.set_rate_cap(flow, None)
            return
        self.network.set_rate_cap(flow, cap)
        self.engine.schedule_after(rtt, self._double, flow, rtt, ceiling_bps, cap)

    def _double(self, flow: Flow, rtt: float, ceiling_bps: float, cap: float) -> None:
        if flow.state != FlowState.ACTIVE:
            return
        cap *= 2.0
        if cap >= ceiling_bps:
            self.network.set_rate_cap(flow, None)
            return
        self.network.set_rate_cap(flow, cap)
        self.engine.schedule_after(rtt, self._double, flow, rtt, ceiling_bps, cap)


def slow_start_transfer_time(
    size_bytes: float,
    rtt: float,
    bottleneck_bps: float,
    mss_bytes: float = DEFAULT_MSS_BYTES,
    initial_window_segments: int = INITIAL_WINDOW_SEGMENTS,
) -> float:
    """Estimate the latency of a fresh TCP transfer of ``size_bytes``.

    The classic two-regime approximation: exponential window growth until the
    pipe (bandwidth-delay product) is full, then transmission at bottleneck
    rate.  Used by the §7.7 HTTP-download model and as a cross-check for the
    simulated payment-channel ramp.
    """
    if size_bytes <= 0:
        return 0.0
    if rtt <= 0:
        return size_bytes * 8.0 / bottleneck_bps
    if bottleneck_bps <= 0:
        raise FlowError("bottleneck_bps must be positive")

    bdp_bytes = bottleneck_bps * rtt / 8.0
    window_bytes = initial_window_segments * mss_bytes
    elapsed = 0.0
    remaining = size_bytes

    # Slow-start rounds: each round ships the current window then doubles it.
    while remaining > 0 and window_bytes < bdp_bytes:
        shipped = min(window_bytes, remaining)
        remaining -= shipped
        elapsed += rtt
        window_bytes *= 2
    if remaining <= 0:
        return elapsed

    # Pipe is full: the rest drains at the bottleneck rate, plus half an RTT
    # for the tail to propagate.
    elapsed += remaining * 8.0 / bottleneck_bps + rtt / 2.0
    return elapsed
