"""Request, response, and payment-POST message types.

A :class:`Request` carries the full lifecycle bookkeeping the metrics layer
needs: when it was generated, when the thinner received it, when (if ever)
the client was encouraged to pay, when it was admitted to the server, and
when it completed or was dropped.  The thinner correlates payments with
requests through ``request_id``, exactly as the prototype does with its id
field in both HTTP requests (§6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class RequestState(Enum):
    """Lifecycle states of a request."""

    CREATED = "created"          # generated by the client, not yet sent
    BACKLOGGED = "backlogged"    # waiting in the client's backlog queue
    SENT = "sent"                # request bytes in flight to the thinner
    CONTENDING = "contending"    # at the thinner, possibly paying
    ADMITTED = "admitted"        # handed to the server
    SUSPENDED = "suspended"      # heterogeneous case: pre-empted mid-service
    SERVED = "served"            # response delivered
    DENIED = "denied"            # timed out in the backlog (a service denial)
    DROPPED = "dropped"          # evicted or aborted by the thinner/server


_request_ids = itertools.count(1)


def reset_request_ids() -> None:
    """Restart the request-id counter (handy for deterministic test output)."""
    global _request_ids
    _request_ids = itertools.count(1)


@dataclass(eq=False)
class Request:
    """One client request and its lifecycle timestamps (simulated seconds).

    Requests compare by identity (``eq=False``): two distinct requests are
    never "equal", and containers of requests use fast identity hashing.
    """

    request_id: int
    client_id: str
    client_class: str = "good"            # "good" or "bad"
    category: Optional[str] = None        # experiment-specific grouping label
    difficulty: float = 1.0               # work as a multiple of the mean service time
    size_bytes: float = 1500.0            # bytes of the request message itself

    issued_at: float = 0.0
    sent_at: Optional[float] = None
    arrived_at: Optional[float] = None
    encouraged_at: Optional[float] = None
    admitted_at: Optional[float] = None
    completed_at: Optional[float] = None
    denied_at: Optional[float] = None

    state: RequestState = RequestState.CREATED
    bytes_paid: float = 0.0
    price_paid: float = 0.0               # bytes charged for the winning bid
    service_time: Optional[float] = None
    suspend_count: int = 0
    drop_reason: Optional[str] = None

    # -- lifecycle helpers ----------------------------------------------------

    @property
    def is_outstanding(self) -> bool:
        """True while the request occupies a slot in the client's window."""
        return self.state in (
            RequestState.SENT,
            RequestState.CONTENDING,
            RequestState.ADMITTED,
            RequestState.SUSPENDED,
        )

    def payment_time(self) -> Optional[float]:
        """Seconds spent uploading dummy bytes before admission (Figure 4).

        ``None`` when the request was never encouraged (free admission) or
        never admitted.
        """
        if self.encouraged_at is None or self.admitted_at is None:
            return None
        return self.admitted_at - self.encouraged_at

    def response_time(self) -> Optional[float]:
        """End-to-end latency from issue to response, if served."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(#{self.request_id} {self.client_id} {self.client_class} "
            f"{self.state.value} paid={self.bytes_paid:.0f}B)"
        )


@dataclass
class Response:
    """The server's answer to a request."""

    request: Request
    produced_at: float
    body_bytes: float = 4096.0

    @property
    def request_id(self) -> int:
        return self.request.request_id


@dataclass
class PaymentPost:
    """One dummy-byte HTTP POST on a payment channel (§6: ~1 MByte each)."""

    request_id: int
    sequence: int
    size_bytes: float
    started_at: float
    completed_at: Optional[float] = None

    @property
    def in_flight(self) -> bool:
        """True until the POST has been fully delivered to the thinner."""
        return self.completed_at is None


def new_request(
    client_id: str,
    issued_at: float,
    client_class: str = "good",
    category: Optional[str] = None,
    difficulty: float = 1.0,
    size_bytes: float = 1500.0,
) -> Request:
    """Create a request with a fresh globally unique id."""
    return Request(
        request_id=next(_request_ids),
        client_id=client_id,
        client_class=client_class,
        category=category,
        difficulty=difficulty,
        size_bytes=size_bytes,
        issued_at=issued_at,
    )
