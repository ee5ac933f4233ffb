"""The emulated back-end server.

§6: "The server is currently emulated ... The server processes requests with
a service time selected uniformly at random from [.9/c, 1.1/c]."  The server
handles exactly one request at a time and notifies the thinner when it is
ready for the next one — that notification is what triggers a virtual
auction.

For the heterogeneous-request extension (§5) the server also exports
SUSPEND, RESUME, and ABORT, with the remaining work of a suspended request
preserved so it can be resumed later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional

from repro.constants import SERVICE_TIME_JITTER
from repro.errors import ServerError
from repro.httpd.messages import Request, RequestState
from repro.rng import RandomStream
from repro.simnet.engine import Engine, Event


class ServerState(Enum):
    """The server either sits idle or works on exactly one request."""

    IDLE = "idle"
    BUSY = "busy"


@dataclass
class ServerStats:
    """Aggregate accounting of what the server spent its time on."""

    served: int = 0
    aborted: int = 0
    suspensions: int = 0
    resumptions: int = 0
    busy_time: float = 0.0
    served_by_class: Dict[str, int] = field(default_factory=dict)
    busy_time_by_class: Dict[str, float] = field(default_factory=dict)
    served_by_category: Dict[str, int] = field(default_factory=dict)
    busy_time_by_category: Dict[str, float] = field(default_factory=dict)

    def record_work(self, request: Request, seconds: float) -> None:
        """Attribute ``seconds`` of server time to the request's class/category."""
        self.busy_time += seconds
        self.busy_time_by_class[request.client_class] = (
            self.busy_time_by_class.get(request.client_class, 0.0) + seconds
        )
        if request.category is not None:
            self.busy_time_by_category[request.category] = (
                self.busy_time_by_category.get(request.category, 0.0) + seconds
            )

    def record_served(self, request: Request) -> None:
        """Count a completed request."""
        self.served += 1
        self.served_by_class[request.client_class] = (
            self.served_by_class.get(request.client_class, 0) + 1
        )
        if request.category is not None:
            self.served_by_category[request.category] = (
                self.served_by_category.get(request.category, 0) + 1
            )

    def allocation_by_class(self) -> Dict[str, float]:
        """Fraction of served requests that went to each client class."""
        total = sum(self.served_by_class.values())
        if total == 0:
            return {}
        return {cls: count / total for cls, count in self.served_by_class.items()}

    def allocation_by_category(self) -> Dict[str, float]:
        """Fraction of served requests that went to each category label."""
        total = sum(self.served_by_category.values())
        if total == 0:
            return {}
        return {cat: count / total for cat, count in self.served_by_category.items()}


class EmulatedServer:
    """A single-threaded server with capacity ``c`` requests/s.

    Callbacks
    ---------
    on_request_done(request):
        Fired when a request finishes; the thinner uses this to return the
        response to the client.
    on_ready():
        Fired immediately after ``on_request_done`` (and after an ABORT) when
        the server is free for the next request — the auction trigger.
    """

    def __init__(
        self,
        engine: Engine,
        capacity_rps: float,
        rng: RandomStream,
        jitter: float = SERVICE_TIME_JITTER,
    ) -> None:
        if capacity_rps <= 0:
            raise ServerError(f"capacity must be positive, got {capacity_rps}")
        self.engine = engine
        self.capacity_rps = float(capacity_rps)
        self.jitter = jitter
        self.rng = rng
        self.state = ServerState.IDLE
        self.current: Optional[Request] = None
        self.stats = ServerStats()
        self.on_request_done: Optional[Callable[[Request], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None

        self._completion_event: Optional[Event] = None
        self._work_started_at: Optional[float] = None
        self._remaining_work: Dict[int, float] = {}

    # -- queries -----------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a request is being processed."""
        return self.state == ServerState.BUSY

    @property
    def mean_service_time(self) -> float:
        """Mean per-request service time, 1/c."""
        return 1.0 / self.capacity_rps

    def utilisation(self, duration: float) -> float:
        """Fraction of ``duration`` the server spent busy."""
        if duration <= 0:
            raise ServerError("duration must be positive")
        return min(1.0, self.stats.busy_time / duration)

    # -- request lifecycle ----------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Start working on ``request`` (must be idle)."""
        if self.busy:
            raise ServerError(
                f"server is busy with request {self.current.request_id}; "
                f"cannot accept request {request.request_id}"
            )
        if request.request_id not in self._remaining_work:
            service_time = request.difficulty * self.rng.service_time(self.capacity_rps, self.jitter)
            request.service_time = service_time
            self._remaining_work[request.request_id] = service_time
        self._begin(request)

    def resume(self, request: Request) -> None:
        """Resume a previously suspended request (§5)."""
        if self.busy:
            raise ServerError("cannot resume while the server is busy")
        if request.request_id not in self._remaining_work:
            raise ServerError(f"request {request.request_id} has no suspended work to resume")
        self.stats.resumptions += 1
        self._begin(request)

    def suspend(self) -> Request:
        """Suspend the in-progress request and return it (§5)."""
        if not self.busy or self.current is None:
            raise ServerError("no request in progress to suspend")
        request = self.current
        elapsed = self.engine.now - self._work_started_at
        self._remaining_work[request.request_id] = max(
            0.0, self._remaining_work[request.request_id] - elapsed
        )
        self.stats.record_work(request, elapsed)
        self.stats.suspensions += 1
        request.state = RequestState.SUSPENDED
        request.suspend_count += 1
        self._clear_current()
        return request

    def abort(self, request: Request) -> None:
        """Abandon a request entirely (its partial work is wasted)."""
        if self.current is request:
            elapsed = self.engine.now - self._work_started_at
            self.stats.record_work(request, elapsed)
            self._clear_current()
        self._remaining_work.pop(request.request_id, None)
        self.stats.aborted += 1
        request.state = RequestState.DROPPED
        request.drop_reason = "aborted"
        if not self.busy and self.on_ready is not None:
            self.on_ready()

    # -- internals -------------------------------------------------------------------

    def _begin(self, request: Request) -> None:
        self.state = ServerState.BUSY
        self.current = request
        request.state = RequestState.ADMITTED
        if request.admitted_at is None:
            request.admitted_at = self.engine.now
        self._work_started_at = self.engine.now
        remaining = self._remaining_work[request.request_id]
        self._completion_event = self.engine.schedule_after(remaining, self._finish, request)

    def _clear_current(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        self.current = None
        self._work_started_at = None
        self.state = ServerState.IDLE

    def _finish(self, request: Request) -> None:
        if self.current is not request:  # pragma: no cover - defensive
            return
        elapsed = self.engine.now - self._work_started_at
        self.stats.record_work(request, elapsed)
        self.stats.record_served(request)
        self._remaining_work.pop(request.request_id, None)
        self._clear_current()
        request.state = RequestState.SERVED
        request.completed_at = self.engine.now
        if self.on_request_done is not None:
            self.on_request_done(request)
        if self.on_ready is not None:
            self.on_ready()
