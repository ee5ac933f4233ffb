"""Hosts: endpoints with access links.

A host has a duplex access link.  The topology decides what sits between a
host's access link and its peer's access link (nothing for a LAN, a shared
bottleneck cable for the §7.6/§7.7 topologies).

The access link is built on demand: a host keeps its access parameters
(upload and download bandwidth, one-way delay) and builds the
:class:`~repro.simnet.link.DuplexLink` the first time :attr:`Host.access` is
read, which in a run is when the topology first routes a path through the
host.  Speak-up's client populations are mostly idle at any instant (§3,
§4.3), so most clients of a large run never send and never build one.  The
capacity and delay accessors read the parameters until the link exists, so
the metrics and the deployment's bandwidth sums build nothing.  The
parameters are checked when the host is made, built link or not.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet.link import DuplexLink, check_capacity, check_delay


class Host:
    """A network endpoint (client, thinner, web server, ...)."""

    __slots__ = (
        "name",
        "kind",
        "extra_delay_s",
        "_upload_bps",
        "_download_bps",
        "_delay_s",
        "_access",
    )

    def __init__(
        self,
        name: str,
        upload_bps: float,
        download_bps: Optional[float] = None,
        delay_s: float = 0.0,
        kind: str = "host",
        extra_delay_s: float = 0.0,
    ) -> None:
        if download_bps is None:
            download_bps = upload_bps
        owner = f"host {name!r}"
        check_capacity(owner, "upload bandwidth", upload_bps)
        check_capacity(owner, "download bandwidth", download_bps)
        check_delay(owner, "access delay", delay_s)
        check_delay(owner, "extra delay", extra_delay_s)
        self.name = name
        self.kind = kind
        #: Additional one-way delay attributed to the host itself (used by the
        #: RTT-heterogeneity experiment, Figure 7).
        self.extra_delay_s = extra_delay_s
        # Kept as given (a population shares one object per group) and read
        # through ``float`` as the link stores them, so a reading is the
        # same before and after the link is built.
        self._upload_bps = upload_bps
        self._download_bps = download_bps
        self._delay_s = delay_s
        #: The access link once built; ``None`` until a path needs it.
        self._access: Optional[DuplexLink] = None

    @property
    def access(self) -> DuplexLink:
        """The host's duplex access link, built on first read."""
        access = self._access
        if access is None:
            access = self._access = DuplexLink(
                f"{self.name}.access",
                self._upload_bps,
                delay_s=self._delay_s,
                down_capacity_bps=self._download_bps,
            )
        return access

    @property
    def upload_capacity_bps(self) -> float:
        """The host's upload bandwidth — its speak-up 'wealth'.

        Once the access link exists this is its live capacity, which a
        ``degrade`` fault can scale.
        """
        access = self._access
        return float(self._upload_bps) if access is None else access.up.capacity_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Host({self.name!r}, kind={self.kind!r}, "
            f"up={self.upload_capacity_bps / 1e6:.2f} Mbit/s)"
        )


def make_host(
    name: str,
    upload_bps: float,
    download_bps: Optional[float] = None,
    delay_s: float = 0.0,
    kind: str = "host",
    extra_delay_s: float = 0.0,
) -> Host:
    """Make a host whose access link is ``upload_bps`` up, ``download_bps``
    down (default: symmetric) and ``delay_s`` one way.

    The parameters are checked here; the link itself is built when a path
    is first routed through the host (see :attr:`Host.access`).
    """
    return Host(
        name,
        upload_bps,
        download_bps=download_bps,
        delay_s=delay_s,
        kind=kind,
        extra_delay_s=extra_delay_s,
    )
