"""Outside-in span tracer: wraps the simulator's public layer entry points.

The tracer never touches the program's source.  :meth:`Tracer.install`
replaces the public methods and functions named in :data:`BOUNDARIES` with
thin timing wrappers, in the calling process only, and :meth:`Tracer.uninstall`
puts the originals back.  An untraced run never constructs a tracer, so it
runs with no wrapper at all.

Each wrapped call records one span — boundary name, start, end and parent
span — into flat arrays kept in memory; :meth:`Tracer.write` saves them when
the run ends.  A call made while the innermost open span already belongs to
the same boundary (``call_soon`` calling ``schedule_at``, a subclass method
calling its base through ``super()``) is part of that span, not a new one,
so ``calls`` counts entries into a layer.

A span's *self time* is its duration minus the time covered by its child
spans.  Because spans nest properly in the single-threaded simulator, the
self times of all spans add up to the duration of the root spans, and
``wall - sum(root durations)`` is the time no boundary accounts for
(``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The wrapped boundaries: (name, "module:Class" or "module", attributes).
#: A class boundary wraps the attribute on the class and on every subclass
#: that overrides it.  ``network.flush`` is special: it wraps each callback
#: registered through ``Engine.add_flush_callback``, which is how the fluid
#: network hooks its batched rate recomputation (scalar, vectorized and
#: cache-hit paths alike) into the engine.
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("engine.dispatch", "repro.simnet.engine:Engine", ("run",)),
    ("engine.schedule", "repro.simnet.engine:Engine", ("schedule_at", "schedule_after", "call_soon")),
    ("engine.cancel", "repro.simnet.engine:Event", ("cancel",)),
    ("network.flush", "repro.simnet.engine:Engine", ("add_flush_callback",)),
    (
        "network.flows",
        "repro.simnet.network:FluidNetwork",
        ("start_flow", "stop_flow", "set_rate_cap", "send", "sync"),
    ),
    ("bidindex", "repro.core.bidindex:KineticBidIndex", ("add", "remove", "refresh", "best", "worst")),
    ("thinner", "repro.core.thinner:ThinnerBase", ("receive_request", "register_payment")),
    ("payment", "repro.core.payment:PaymentChannel", ("open", "close", "consume")),
    ("server", "repro.httpd.server:EmulatedServer", ("submit", "resume", "suspend", "abort")),
    ("clients.start", "repro.clients.base:BaseClient", ("start",)),
    ("clients.callbacks", "repro.clients.base:BaseClient", ("on_encouraged", "on_response", "on_dropped")),
    ("rng.arrivals", "repro.rng:RandomStream", ("exponentials",)),
    ("scenarios.build", "repro.scenarios.spec:ScenarioSpec", ("build",)),
    ("routing", "repro.core.routing:ShardRouter", ("assign", "reassign")),
    ("metrics.collect", "repro.metrics.collector", ("collect",)),
    ("metrics.serialise", "repro.metrics.collector:RunResult", ("to_dict",)),
    ("telemetry.record", "repro.telemetry.collector:TelemetryCollector", ("record_served", "metrics")),
    ("runner.sweep", "repro.scenarios.runner:Sweep", ("points",)),
    ("runner.sweep", "repro.scenarios.runner:SweepRunner", ("run",)),
    ("runner.save", "repro.scenarios.runner", ("save_results",)),
)

#: Modules imported before wrapping so every subclass of a wrapped class
#: (thinner variants, client kinds) exists when the class tree is walked.
SUBCLASS_MODULES = ("repro.defenses", "repro.clients", "repro.core", "repro.scenarios")


def boundary_names() -> List[str]:
    """Every boundary name, once, in :data:`BOUNDARIES` order."""
    return list(dict.fromkeys(name for name, _owner, _attrs in BOUNDARIES))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _class_tree(cls) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


class Tracer:
    """Records spans around the boundaries in :data:`BOUNDARIES`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = boundary_names()
        self._ids: Dict[str, int] = {name: index for index, name in enumerate(self.names)}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Indices and boundary ids of the spans open right now, innermost last.
        self._open: List[int] = []
        self._open_ids: List[int] = []
        #: Whatever ``ScenarioSpec.build`` returned, in call order.
        self.deployments: List = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, boundary: str, on_return: Optional[Callable] = None) -> Callable:
        name_id = self._ids[boundary]
        clock = self.clock
        open_spans, open_ids = self._open, self._open_ids
        names, starts, ends, parents = self.span_name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ids and open_ids[-1] == name_id:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            open_ids.append(name_id)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
                open_ids.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every boundary.  Raises if the program no longer has one."""
        for module in SUBCLASS_MODULES:
            importlib.import_module(module)
        for boundary, owner_path, attrs in BOUNDARIES:
            owner = _resolve(owner_path)
            for attr in attrs:
                if not hasattr(owner, attr):
                    raise AttributeError(f"{owner_path} has no {attr!r} to trace as {boundary}")
                if boundary == "network.flush":
                    self._patch(owner, attr, self._flush_registrar(getattr(owner, attr)))
                    continue
                if not isinstance(owner, type):
                    self._patch(owner, attr, self._wrap(getattr(owner, attr), boundary))
                    continue
                on_return = self.deployments.append if boundary == "scenarios.build" else None
                for cls in _class_tree(owner):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._wrap(cls.__dict__[attr], boundary, on_return))
        return self

    def _flush_registrar(self, add_flush_callback: Callable) -> Callable:
        @functools.wraps(add_flush_callback)
        def register(engine, callback):
            return add_flush_callback(engine, self._wrap(callback, "network.flush"))

        return register

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse order of patching)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays, plus each span's run id.

        The run id of a span is the number of ``scenarios.build`` spans that
        started before it, less one: spans of the n-th simulation run of a
        workload carry run id ``n - 1``.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        is_build = (name == self._ids["scenarios.build"]).astype(np.int32)
        return {
            "name": name,
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.maximum(np.cumsum(is_build) - 1, 0).astype(np.int32),
        }

    def summary(self, wall_s: float) -> Dict[str, object]:
        """Per-boundary calls and self time, and the unattributed remainder."""
        spans = self.arrays()
        return summarise_spans(self.names, spans["name"], spans["start"], spans["end"], spans["parent"], wall_s)

    def write(self, path: str) -> None:
        """Save the spans (and the boundary names their ids index) to ``path``."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def summarise_spans(
    names: Sequence[str],
    name: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    wall_s: float,
) -> Dict[str, object]:
    """Self-time arithmetic over a span tree given as flat arrays.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Returns ``{"boundaries": {name: {"calls", "self_s"}}, "unattributed_s"}``
    where ``unattributed_s = wall_s - sum(root durations)``; the self times
    plus ``unattributed_s`` therefore add up to ``wall_s``.
    """
    count = len(name)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=count)
    self_s = duration - covered[:count]
    calls = np.bincount(name, minlength=len(names))
    self_by_name = np.bincount(name, weights=self_s, minlength=len(names))
    roots = float(duration[~has_parent].sum())
    return {
        "boundaries": {
            boundary: {"calls": int(calls[index]), "self_s": float(self_by_name[index])}
            for index, boundary in enumerate(names)
        },
        "unattributed_s": wall_s - roots,
    }
