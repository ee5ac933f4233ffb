"""ACK-clocked HTTP download model for the cross-traffic experiment (§7.7).

The paper measures how an innocent bystander ``H`` downloading files from a
separate web server ``S`` suffers when it shares a bottleneck ``m`` with ten
speak-up clients that are uploading payment bytes.  The two mechanisms the
paper names are (1) ACKs (and the request itself) from ``H`` being delayed
and lost on the congested upload direction, and (2) the request/response
exchange being delayed.

We model a download as a fresh TCP connection:

* the three-way handshake costs one effective RTT,
* the request costs half an effective RTT (plus a retransmission-timeout
  penalty when it is lost on the congested uplink),
* the response body is transferred with the slow-start model of
  :func:`repro.simnet.tcp.slow_start_transfer_time`, stretched by ACK loss,

where the *effective* RTT adds the drop-tail queueing delay of any congested
direction of the shared cable.  Congestion is read off the live simulation —
the model asks the :class:`~repro.simnet.network.FluidNetwork` how loaded
each direction of the bottleneck currently is — so "with speak-up" and
"without speak-up" runs differ only in what the payment traffic does to the
link, exactly as in the testbed experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constants import DEFAULT_MSS_BYTES
from repro.errors import SimulationError
from repro.rng import RandomStream
from repro.simnet.host import Host
from repro.simnet.link import DuplexLink
from repro.simnet.network import FluidNetwork
from repro.simnet.tcp import slow_start_transfer_time

#: Utilisation above which a drop-tail queue is considered standing-full.
CONGESTION_THRESHOLD = 0.95

#: Per-packet loss probability on a congested drop-tail queue shared with
#: greedy TCP uploads.  Conservative relative to what a saturated 1 Mbit/s
#: uplink would really do to competing packets.
CONGESTED_LOSS_RATE = 0.05

#: Classic initial retransmission timeout (RFC 2988 era, matching 2006 stacks).
INITIAL_RTO = 3.0


@dataclass
class DownloadResult:
    """Outcome of one modelled HTTP download."""

    size_bytes: float
    latency: float
    effective_rtt: float
    base_rtt: float
    request_retransmitted: bool
    ack_loss_rate: float


class DownloadModel:
    """Estimates HTTP download latency for a victim host behind a shared cable."""

    def __init__(
        self,
        network: FluidNetwork,
        victim: Host,
        web_server: Host,
        bottleneck: DuplexLink,
        mss_bytes: float = DEFAULT_MSS_BYTES,
        congested_loss_rate: float = CONGESTED_LOSS_RATE,
        congestion_threshold: float = CONGESTION_THRESHOLD,
    ) -> None:
        if not 0.0 <= congested_loss_rate < 1.0:
            raise SimulationError("congested_loss_rate must be in [0, 1)")
        self.network = network
        self.victim = victim
        self.web_server = web_server
        self.bottleneck = bottleneck
        self.mss_bytes = mss_bytes
        self.congested_loss_rate = congested_loss_rate
        self.congestion_threshold = congestion_threshold

    # -- live congestion state ----------------------------------------------------

    def base_rtt(self) -> float:
        """Round-trip propagation delay between the victim and the web server."""
        return self.network.topology.rtt(self.victim, self.web_server)

    def uplink_congested(self) -> bool:
        """Is the victim-to-server direction of the bottleneck saturated right now?"""
        return self.network.link_utilisation(self.bottleneck.up) >= self.congestion_threshold

    def downlink_congested(self) -> bool:
        """Is the server-to-victim direction of the bottleneck saturated right now?"""
        return self.network.link_utilisation(self.bottleneck.down) >= self.congestion_threshold

    def effective_rtt(self) -> float:
        """Base RTT plus standing queueing delay of any congested direction."""
        rtt = self.base_rtt()
        if self.uplink_congested():
            rtt += self.bottleneck.up.max_queueing_delay()
        if self.downlink_congested():
            rtt += self.bottleneck.down.max_queueing_delay()
        return rtt

    def available_download_bps(self) -> float:
        """Bandwidth left for the download on the server-to-victim direction."""
        capacity = self.bottleneck.down.capacity_bps
        in_use = self.network.link_load_bps(self.bottleneck.down)
        # A new TCP transfer will claim a fair share from whatever is there;
        # at minimum it gets an equal split with the existing flows.
        competitors = len(self.network.flows_on(self.bottleneck.down))
        fair_share = capacity / (competitors + 1)
        return max(fair_share, capacity - in_use)

    # -- the model itself -----------------------------------------------------------

    def download(self, size_bytes: float, rng: Optional[RandomStream] = None) -> DownloadResult:
        """Model one download of ``size_bytes`` under current network conditions.

        When ``rng`` is provided, request loss is sampled (so repeated calls
        reproduce the mean *and* variance the paper reports); otherwise the
        expected penalty is used.
        """
        if size_bytes <= 0:
            raise SimulationError("size_bytes must be positive")
        base = self.base_rtt()
        rtt = self.effective_rtt()
        uplink_congested = self.uplink_congested()
        loss = self.congested_loss_rate if uplink_congested else 0.0

        # Handshake (SYN, SYN/ACK, ACK piggybacked on the request) and request.
        latency = rtt  # handshake
        latency += rtt / 2.0  # request reaches the server
        request_retransmitted = False
        if loss > 0.0:
            if rng is not None:
                if rng.bernoulli(loss):
                    request_retransmitted = True
                    latency += INITIAL_RTO
                if rng.bernoulli(loss):  # SYN loss is just as expensive
                    latency += INITIAL_RTO
            else:
                latency += 2.0 * loss * INITIAL_RTO

        # Response body: slow start over the effective RTT, stretched by the
        # fraction of ACKs that never make it back across the congested uplink.
        transfer = slow_start_transfer_time(
            size_bytes,
            rtt,
            self.available_download_bps(),
            mss_bytes=self.mss_bytes,
        )
        if loss > 0.0:
            transfer /= (1.0 - loss)
        latency += transfer

        return DownloadResult(
            size_bytes=size_bytes,
            latency=latency,
            effective_rtt=rtt,
            base_rtt=base,
            request_retransmitted=request_retransmitted,
            ack_loss_rate=loss,
        )

    def repeated_downloads(
        self, size_bytes: float, count: int, rng: RandomStream
    ) -> list[DownloadResult]:
        """Model ``count`` back-to-back downloads (the paper runs 100 per size)."""
        if count <= 0:
            raise SimulationError("count must be positive")
        return [self.download(size_bytes, rng) for _ in range(count)]
