"""Flows: fluid byte transfers across a path of directed links.

A flow models one direction of one transport connection (a payment POST, a
request upload, an HTTP response body).  The :class:`~repro.simnet.network.
FluidNetwork` assigns each active flow a rate (max-min fair share, further
limited by the flow's own rate cap, which the slow-start model adjusts) and
integrates delivered bytes whenever rates change.

Since the struct-of-arrays refactor a flow is a *view*: while attached to a
network its hot numeric state (rate, delivered bytes, integration clock,
static bound, rate cap) lives in the network's
:class:`~repro.simnet.soa.SoAStore` row ``_fid``, and the public attributes
below are properties reading that row.  Detached flows — not yet started, or
already finished — fall back to plain scalar slots (``_srate`` etc.); the
network freezes the row's final values back into those slots when the flow
detaches, so a completed flow's ``delivered_bytes`` stays readable forever
without holding a row.  Property reads go through the store's memoryviews,
which hand back plain Python floats — ``numpy.float64`` never escapes.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

from repro.errors import FlowError
from repro.simnet.host import Host
from repro.simnet.link import Link, path_delay

_INF = float("inf")


class FlowState(enum.Enum):
    """Lifecycle of a flow."""

    CREATED = "created"
    ACTIVE = "active"
    COMPLETED = "completed"
    STOPPED = "stopped"


_flow_ids = itertools.count(1)


class Flow:
    """A unidirectional fluid transfer from ``src`` to ``dst``.

    Parameters
    ----------
    src, dst:
        Endpoints.  Only used for bookkeeping; the constraint set is
        ``path``.
    path:
        The directed links the flow crosses, in order.
    size_bytes:
        Total bytes to transfer, or ``None`` for an unbounded flow (e.g. the
        aggressive-retry stream of §3.2) that runs until explicitly stopped.
    rate_cap_bps:
        An upper bound on the flow's rate in addition to fair sharing;
        the TCP slow-start ramp raises this over time.
    label:
        Free-form tag shown in the flow's ``repr`` (e.g. ``"payment:7"``).
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "path",
        "size_bytes",
        "label",
        "state",
        "started_at",
        "finished_at",
        "on_complete",
        "on_rate_change",
        "_path_lids",
        "_path_min_cap",
        "owner",
        "_fid",
        "_soa",
        "_srate",
        "_sdelivered",
        "_slast",
        "_sbound",
        "_scap",
    )

    def __init__(
        self,
        src: Host,
        dst: Host,
        path: list[Link],
        size_bytes: Optional[float] = None,
        rate_cap_bps: Optional[float] = None,
        label: str = "flow",
        on_complete: Optional[Callable[["Flow"], None]] = None,
    ) -> None:
        if not path:
            raise FlowError("a flow needs a non-empty path")
        if size_bytes is not None and size_bytes <= 0:
            raise FlowError(f"size_bytes must be positive or None, got {size_bytes}")
        if rate_cap_bps is not None and rate_cap_bps <= 0:
            raise FlowError(f"rate_cap_bps must be positive or None, got {rate_cap_bps}")
        self.flow_id = next(_flow_ids)
        self.src = src
        self.dst = dst
        self.path = list(path)
        self.size_bytes = size_bytes
        self.label = label
        self.state = FlowState.CREATED
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.on_complete = on_complete
        self.on_rate_change: Optional[Callable[["Flow"], None]] = None
        #: Dense link ids along the path (paired with ``path`` by index);
        #: assigned by the network at attach time, when every path link is
        #: guaranteed to be registered with its store.
        self._path_lids: tuple = ()
        #: The narrowest capacity along the path.
        self._path_min_cap = min(link.capacity_bps for link in self.path)
        #: Arbitrary back-reference for higher layers (e.g. the payment
        #: channel that owns this flow).
        self.owner = None
        #: Struct-of-arrays row id (-1 while detached) and its store.
        self._fid = -1
        self._soa = None
        # Scalar fallbacks, authoritative while detached.
        self._srate = 0.0
        self._sdelivered = 0.0
        self._slast = 0.0
        self._sbound = 0.0
        self._scap = rate_cap_bps

    # -- array-backed state ---------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Currently allocated rate in bits/s."""
        fid = self._fid
        if fid >= 0:
            return self._soa.fm_rate[fid]
        return self._srate

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        fid = self._fid
        if fid >= 0:
            self._soa.fm_rate[fid] = value
        else:
            self._srate = value

    @property
    def delivered_bytes(self) -> float:
        """Bytes delivered so far (as of the last integration)."""
        fid = self._fid
        if fid >= 0:
            return self._soa.fm_delivered[fid]
        return self._sdelivered

    @delivered_bytes.setter
    def delivered_bytes(self, value: float) -> None:
        fid = self._fid
        if fid >= 0:
            self._soa.fm_delivered[fid] = value
        else:
            self._sdelivered = value

    @property
    def rate_cap_bps(self) -> Optional[float]:
        """The flow's private rate ceiling (``None`` = uncapped)."""
        fid = self._fid
        if fid >= 0:
            cap = self._soa.fm_cap[fid]
            return None if cap == _INF else cap
        return self._scap

    @rate_cap_bps.setter
    def rate_cap_bps(self, value: Optional[float]) -> None:
        fid = self._fid
        if fid >= 0:
            self._soa.fm_cap[fid] = _INF if value is None else value
        else:
            self._scap = value

    # -- derived quantities -------------------------------------------------

    @property
    def one_way_delay(self) -> float:
        """Propagation delay along the flow's path plus host-attributed delay."""
        return path_delay(self.path) + self.src.extra_delay_s + self.dst.extra_delay_s

    def effective_cap(self) -> float:
        """The flow's own rate ceiling (infinite when uncapped)."""
        cap = self.rate_cap_bps
        return cap if cap is not None else _INF

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = "unbounded" if self.size_bytes is None else f"{self.size_bytes:.0f}B"
        return (
            f"Flow(#{self.flow_id} {self.label} {self.src.name}->{self.dst.name} "
            f"{size} {self.state.value} rate={self.rate_bps / 1e6:.3f}Mbit/s)"
        )
