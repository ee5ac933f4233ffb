"""Parameter sweeps over scenarios, run serially or across cores.

A :class:`Sweep` expands a base :class:`~repro.scenarios.spec.ScenarioSpec`
into a grid of scenario points (axis values x seed replicates) and a
:class:`SweepRunner` executes the points, serially or with a
``multiprocessing`` pool.  Every point is a pure function of its spec — each
run owns its engine and derives every random stream from the point's seed —
so serial and parallel execution produce bit-identical results.

Replicate seeds are deterministic substreams of the base seed (via
:func:`repro.rng.derive_seed`), which keeps replicate ``k`` of a point stable
no matter how many replicates run or in what order.

The results store (:func:`save_results` / :func:`load_results`) writes one
JSON document whose records pair each point's overrides and spec with its
:class:`~repro.metrics.collector.RunResult`, the stable schema the CLI's
``sweep --out`` files use.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import codec
from repro.errors import ExperimentError
from repro.metrics.collector import RunResult
from repro.rng import derive_seed
from repro.scenarios.spec import ScenarioSpec

#: An axis key: one spec path, or a tuple of paths varied together.
AxisKey = Union[str, Tuple[str, ...]]

#: Results-store schema version.
RESULTS_VERSION = 1


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved run of a sweep: a spec plus how it was derived."""

    index: int
    replicate: int
    overrides: Tuple[Tuple[str, Any], ...]
    spec: ScenarioSpec


class Sweep:
    """A parameter grid (plus seed replicates) over a base scenario.

    ``axes`` maps spec paths (see :meth:`ScenarioSpec.with_value`) to value
    sequences; a tuple-of-paths key varies several fields together (its
    values must be tuples of the same length).  Axes combine as a full cross
    product in insertion order.

    Seeds: pass ``seeds`` for explicit root seeds, or ``replicates=k`` to
    derive ``k`` deterministic substream seeds from the base spec's seed.
    Default is one run at the base seed.  Gridding an axis over ``"seed"``
    itself is also allowed (the axis then controls the seed directly), but
    not in combination with ``seeds``/``replicates``.
    """

    def __init__(
        self,
        base: ScenarioSpec,
        axes: Optional[Mapping[AxisKey, Sequence[Any]]] = None,
        seeds: Optional[Sequence[int]] = None,
        replicates: Optional[int] = None,
    ) -> None:
        if seeds is not None and replicates is not None:
            raise ExperimentError("pass either seeds or replicates, not both")
        if replicates is not None and replicates < 1:
            raise ExperimentError(f"replicates must be at least 1, got {replicates}")
        self.base = base
        self.axes: Dict[AxisKey, Tuple[Any, ...]] = {}
        for key, values in (axes or {}).items():
            values = tuple(values)
            if not values:
                raise ExperimentError(f"axis {key!r} has no values")
            if isinstance(key, tuple):
                for value in values:
                    if not isinstance(value, tuple) or len(value) != len(key):
                        raise ExperimentError(
                            f"composite axis {key!r} needs tuples of {len(key)} values"
                        )
            self.axes[key] = values
        axis_paths = {
            path
            for key in self.axes
            for path in (key if isinstance(key, tuple) else (key,))
        }
        self._seed_swept = "seed" in axis_paths
        if self._seed_swept and (seeds is not None or replicates is not None):
            raise ExperimentError(
                "a 'seed' axis cannot be combined with seeds/replicates"
            )
        if seeds is not None:
            self.seeds: Tuple[int, ...] = tuple(int(seed) for seed in seeds)
            if not self.seeds:
                raise ExperimentError("seeds must not be empty")
        elif replicates is not None:
            self.seeds = tuple(
                derive_seed(base.seed, f"replicate:{index}") for index in range(replicates)
            )
        else:
            self.seeds = (base.seed,)

    def point_count(self) -> int:
        count = len(self.seeds)
        for values in self.axes.values():
            count *= len(values)
        return count

    def points(self) -> List[SweepPoint]:
        """Expand the grid into concrete scenario points, in deterministic order."""
        points: List[SweepPoint] = []
        keys = list(self.axes)
        index = 0
        for combo in itertools.product(*(self.axes[key] for key in keys)):
            assignments: List[Tuple[str, Any]] = []
            for key, value in zip(keys, combo):
                if isinstance(key, tuple):
                    assignments.extend(zip(key, value))
                else:
                    assignments.append((key, value))
            spec = self.base
            for path, value in assignments:
                spec = spec.with_value(path, value)
            if self._seed_swept:
                # The axis already set the seed; do not clobber it.
                points.append(
                    SweepPoint(
                        index=index,
                        replicate=0,
                        overrides=tuple(assignments),
                        spec=spec,
                    )
                )
                index += 1
                continue
            for replicate, seed in enumerate(self.seeds):
                points.append(
                    SweepPoint(
                        index=index,
                        replicate=replicate,
                        overrides=tuple(assignments) + (("seed", seed),),
                        spec=spec.with_seed(seed),
                    )
                )
                index += 1
        return points


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """One executed sweep point: where it came from and what it measured."""

    index: int
    spec: ScenarioSpec
    result: RunResult
    scenario: str = ""
    replicate: int = 0
    seed: int = 0
    overrides: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def for_point(cls, point: SweepPoint, result: RunResult) -> "SweepRecord":
        """The record of ``point`` once it has run to ``result``."""
        return cls(
            index=point.index,
            spec=point.spec,
            result=result,
            scenario=point.spec.name,
            replicate=point.replicate,
            seed=point.spec.seed,
            overrides=dict(point.overrides),
        )

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


def run_spec(spec: ScenarioSpec) -> RunResult:
    """Execute one scenario (module-level so worker processes can import it)."""
    return spec.run()


class SweepRunner:
    """Executes sweeps, serially (``jobs=1``) or with a process pool."""

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs

    def run_specs(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Run a list of scenarios, preserving order."""
        if self.jobs == 1 or len(specs) <= 1:
            return [run_spec(spec) for spec in specs]
        # Imported here: only a pool needs it, and it costs about 1 MB of
        # RSS in every process that loads it.
        import multiprocessing

        context = multiprocessing.get_context()
        workers = min(self.jobs, len(specs))
        with context.Pool(processes=workers) as pool:
            return pool.map(run_spec, specs)

    def run(self, sweep: Sweep) -> List[SweepRecord]:
        """Expand and execute a sweep, returning one record per point."""
        points = sweep.points()
        results = self.run_specs([point.spec for point in points])
        return [
            SweepRecord.for_point(point, result) for point, result in zip(points, results)
        ]


def default_jobs() -> int:
    """A sensible parallel width: the machine's cores, at least 1."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# The JSON results store
# ---------------------------------------------------------------------------


def write_results(entries: Iterable[Dict[str, Any]], path: str) -> int:
    """Stream record dicts to ``path`` as one results document, atomically.

    The bytes are those of ``json.dump({"records": [...], "version": ...},
    indent=2, sort_keys=True)`` plus a newline, written one record at a
    time to ``path + ".tmp"``, which replaces ``path`` only once every
    record is out: a failure mid-write leaves an existing file intact.
    Returns the number of records written.
    """
    tmp = path + ".tmp"
    written = 0
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write('{\n  "records": [')
            for entry in entries:
                what = f"results record {entry.get('index', written)}"
                text = codec.dumps(entry, what, indent=2, sort_keys=True)
                indented = "\n".join("    " + line for line in text.splitlines())
                out.write(("," if written else "") + "\n" + indented)
                written += 1
            out.write("\n  ],\n" if written else "],\n")
            out.write(f'  "version": {RESULTS_VERSION}\n}}\n')
        os.replace(tmp, path)
    finally:
        # Only a failed write leaves the temporary file behind.
        if os.path.exists(tmp):
            os.remove(tmp)
    return written


def save_results(records: Sequence[SweepRecord], path: str) -> None:
    """Write sweep records to ``path`` as one JSON document (see :func:`write_results`)."""
    write_results((record.to_dict() for record in records), path)


def validate_record(entry: Any, source: str, position: Optional[int] = None) -> None:
    """Check one record's shape before :meth:`SweepRecord.from_dict` sees it.

    Raises :class:`~repro.errors.ExperimentError` (a one-line CLI error)
    instead of letting a ``KeyError``/``TypeError`` traceback escape.  Shared
    by :func:`load_results` and the campaign store's spool reader.
    """
    where = f"record {position}" if position is not None else "record"
    if not isinstance(entry, dict):
        raise ExperimentError(
            f"{where} in {source!r} must be an object, got {type(entry).__name__}"
        )
    for key in ("index", "spec", "result"):
        if key not in entry:
            raise ExperimentError(f"{where} in {source!r} is missing the {key!r} key")
    if not isinstance(entry["spec"], dict) or not isinstance(entry["result"], dict):
        raise ExperimentError(
            f"{where} in {source!r} has a malformed spec/result (objects expected)"
        )


def validate_results_document(document: Any, source: str) -> List[Dict[str, Any]]:
    """Check a results document's schema, returning its raw record dicts.

    Verifies the version key and each record's shape; every failure is an
    :class:`~repro.errors.ExperimentError` so the CLI exits with one line
    rather than a traceback.
    """
    if not isinstance(document, dict):
        raise ExperimentError(
            f"results file {source!r} must hold a JSON object, "
            f"got {type(document).__name__}"
        )
    if "version" not in document:
        raise ExperimentError(
            f"results file {source!r} has no 'version' key (not a results document?)"
        )
    version = document.get("version")
    if version != RESULTS_VERSION:
        raise ExperimentError(
            f"unsupported results version {version!r} in {source!r} "
            f"(expected {RESULTS_VERSION})"
        )
    records = document.get("records", [])
    if not isinstance(records, list):
        raise ExperimentError(f"results file {source!r}: 'records' must be a list")
    for position, entry in enumerate(records):
        validate_record(entry, source, position)
    return records


def load_results(path: str) -> List[SweepRecord]:
    """Read sweep records written by :func:`save_results`.

    Truncated/invalid JSON and schema mismatches raise
    :class:`~repro.errors.ExperimentError` (one line through the CLI), never
    a raw traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as error:
        raise ExperimentError(
            f"results file {path!r} is truncated or not valid JSON: {error}"
        ) from None
    records = validate_results_document(document, path)
    return [
        decode_record(entry, f"record {position} of results file {path!r}")
        for position, entry in enumerate(records)
    ]


def decode_record(entry: Dict[str, Any], where: str) -> SweepRecord:
    """One stored record as a :class:`SweepRecord`; a failure says ``where``.

    The codec names the class and key that failed, a defense setting's
    included; this adds the file and the record's place in it.
    """
    try:
        return SweepRecord.from_dict(entry)
    except ExperimentError as error:
        raise ExperimentError(f"{where} is malformed: {error}") from None
