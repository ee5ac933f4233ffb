"""Checkpointed campaign execution: plans, spools, workers, resume.

A campaign directory is the unit of state::

    campaign.json        the frozen plan (base spec, axes, seeds, workers)
    spool-000.jsonl      worker 0's records, one compact JSON object per line
    spool-000.ckpt.json  worker 0's latest checkpoint manifest
    ...

Points are assigned to workers by ``index % workers`` and each worker
executes its points in ascending index order, appending one line per
finished point.  Every ``checkpoint_every`` records the worker flushes,
fsyncs, and atomically rewrites its checkpoint manifest.  Because every
point is a pure function of its spec, a record's bytes do not depend on
which process (or which attempt) produced it: resuming after a crash and
re-running only the missing points yields spools — and a merged results
document — byte-identical to an uninterrupted run.

Crash recovery never trusts the manifest over the spool: on resume the
worker scans its spool's valid JSONL prefix, truncates any torn tail left
by a mid-write crash, and re-executes exactly the points that are absent.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import codec
from repro.errors import ExperimentError
from repro.scenarios.runner import AxisKey, Sweep, SweepRecord, validate_record
from repro.scenarios.spec import ScenarioSpec

#: Campaign plan schema version.
CAMPAIGN_VERSION = 1

#: The plan file inside a campaign directory.
CAMPAIGN_FILENAME = "campaign.json"

#: Exit code of a worker killed by the ``fail_after`` crash hook.
CRASH_EXIT_CODE = 17


def spool_path(directory: str, worker: int) -> str:
    return os.path.join(directory, f"spool-{worker:03d}.jsonl")


def manifest_path(directory: str, worker: int) -> str:
    return os.path.join(directory, f"spool-{worker:03d}.ckpt.json")


def _dump_line(record: Dict[str, Any]) -> str:
    """One spool line: compact, key-sorted, newline-terminated."""
    what = f"campaign record {record.get('index')}"
    return codec.dumps(record, what, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# The persisted plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignPlan:
    """Everything needed to (re)expand a campaign's grid deterministically.

    ``seeds`` is ``None`` only when the grid sweeps the ``"seed"`` path
    itself; otherwise it holds the fully-resolved root seeds (explicit
    seeds, derived replicate seeds, or the base seed).  ``workers`` is
    fixed at plan time: point-to-spool assignment (``index % workers``)
    must not drift between the original run and any resume, no matter how
    many processes the resume actually uses.
    """

    base: ScenarioSpec
    axes: Tuple[Tuple[Tuple[str, ...], Tuple[Any, ...]], ...]
    seeds: Optional[Tuple[int, ...]]
    workers: int
    checkpoint_every: int

    @classmethod
    def from_sweep(
        cls, sweep: Sweep, workers: int, checkpoint_every: int = 8
    ) -> "CampaignPlan":
        if workers < 1:
            raise ExperimentError(f"workers must be at least 1, got {workers}")
        if checkpoint_every < 1:
            raise ExperimentError(
                f"checkpoint_every must be at least 1, got {checkpoint_every}"
            )
        axes: List[Tuple[Tuple[str, ...], Tuple[Any, ...]]] = []
        for key, values in sweep.axes.items():
            paths = key if isinstance(key, tuple) else (key,)
            axes.append((tuple(paths), tuple(values)))
        seeds = None if sweep._seed_swept else sweep.seeds
        plan = cls(
            base=sweep.base,
            axes=tuple(axes),
            seeds=seeds,
            workers=workers,
            checkpoint_every=checkpoint_every,
        )
        # Fail fast on axis values the JSONL spools cannot represent.
        try:
            json.dumps([list(values) for _, values in plan.axes])
        except (TypeError, ValueError) as error:
            raise ExperimentError(
                f"campaign axis values must be JSON-serialisable: {error}"
            ) from None
        return plan

    def sweep(self) -> Sweep:
        """Re-expand the grid exactly as the original :class:`Sweep` did."""
        axes: Dict[AxisKey, Sequence[Any]] = {}
        for paths, values in self.axes:
            if len(paths) == 1:
                axes[paths[0]] = values
            else:
                axes[paths] = values
        return Sweep(self.base, axes=axes, seeds=self.seeds)

    def point_count(self) -> int:
        return self.sweep().point_count()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ExperimentError` if any point's spec
        cannot build, so a bad plan fails before any worker starts."""
        for point in self.sweep().points():
            point.spec.validate()

    def worker_indices(self, worker: int) -> List[int]:
        """The point indices spooled by ``worker``, in execution order."""
        return list(range(worker, self.point_count(), self.workers))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": CAMPAIGN_VERSION,
            "base": self.base.to_dict(),
            "axes": [
                {"paths": list(paths), "values": [list(v) if isinstance(v, tuple) else v for v in values]}
                for paths, values in self.axes
            ],
            "seeds": None if self.seeds is None else list(self.seeds),
            "workers": self.workers,
            "checkpoint_every": self.checkpoint_every,
            "points": self.point_count(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], source: str) -> "CampaignPlan":
        version = data.get("version")
        if version != CAMPAIGN_VERSION:
            raise ExperimentError(
                f"unsupported campaign version {version!r} in {source!r} "
                f"(expected {CAMPAIGN_VERSION})"
            )
        try:
            base = ScenarioSpec.from_dict(data["base"])
            axes: List[Tuple[Tuple[str, ...], Tuple[Any, ...]]] = []
            for axis in data["axes"]:
                paths = tuple(axis["paths"])
                values = tuple(
                    tuple(v) if len(paths) > 1 else v for v in axis["values"]
                )
                axes.append((paths, values))
            seeds = data["seeds"]
            return cls(
                base=base,
                axes=tuple(axes),
                seeds=None if seeds is None else tuple(int(s) for s in seeds),
                workers=int(data["workers"]),
                checkpoint_every=int(data["checkpoint_every"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ExperimentError(
                f"campaign plan {source!r} is malformed: {error}"
            ) from None

    def save(self, directory: str) -> None:
        path = os.path.join(directory, CAMPAIGN_FILENAME)
        tmp = path + ".tmp"
        try:
            what = f"campaign plan {path!r}"
            text = codec.dumps(self.to_dict(), what, indent=2, sort_keys=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            os.replace(tmp, path)
        finally:
            # Only a failed write leaves the temporary file behind.
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, directory: str) -> "CampaignPlan":
        path = os.path.join(directory, CAMPAIGN_FILENAME)
        if not os.path.exists(path):
            raise ExperimentError(
                f"{directory!r} is not a campaign directory (no {CAMPAIGN_FILENAME})"
            )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ExperimentError(
                f"campaign plan {path!r} is truncated or not valid JSON: {error}"
            ) from None
        return cls.from_dict(data, path)


# ---------------------------------------------------------------------------
# Spool scanning
# ---------------------------------------------------------------------------


def scan_spool(path: str, repair: bool = False) -> Tuple[Set[int], int]:
    """Scan a spool's valid JSONL prefix.

    Returns ``(done_indices, valid_bytes)``.  A torn tail (a mid-write
    crash leaves a final line that is incomplete or unparseable) stops the
    scan; with ``repair=True`` the file is truncated back to the valid
    prefix so appends resume cleanly.  Without ``repair`` a torn tail
    raises, pointing the user at ``campaign resume``.
    """
    done, valid_bytes = _scan_valid_prefix_only(path)
    if not os.path.exists(path):
        return done, valid_bytes
    size = os.path.getsize(path)
    if size > valid_bytes:
        if not repair:
            raise ExperimentError(
                f"spool {path!r} has a torn tail ({size - valid_bytes} bytes past "
                f"the last valid record); run 'campaign resume' to repair it"
            )
        with open(path, "rb+") as handle:
            handle.truncate(valid_bytes)
    return done, valid_bytes


def _write_manifest(
    directory: str, worker: int, records: int, valid_bytes: int, complete: bool
) -> None:
    path = manifest_path(directory, worker)
    tmp = path + ".tmp"
    payload = {
        "version": CAMPAIGN_VERSION,
        "worker": worker,
        "records": records,
        "bytes": valid_bytes,
        "complete": complete,
    }
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------


def _worker_main(
    directory: str, worker: int, fail_after: Optional[int] = None
) -> None:
    """Execute one worker's missing points, appending to its spool.

    ``fail_after`` is a test/CI crash hook: after appending that many
    records *in this process*, the worker writes a deliberately torn line
    and dies with ``os._exit`` — no flush, no manifest, exactly like a
    kill -9 mid-write.  Module-level so ``spawn`` contexts can import it.
    """
    plan = CampaignPlan.load(directory)
    points = {point.index: point for point in plan.sweep().points()}
    mine = plan.worker_indices(worker)
    path = spool_path(directory, worker)
    done, valid_bytes = scan_spool(path, repair=True)
    todo = [index for index in mine if index not in done]
    if not todo:
        _write_manifest(directory, worker, len(done), valid_bytes, complete=True)
        return
    written = 0
    with open(path, "a", encoding="utf-8") as handle:
        for index in todo:
            point = points[index]
            result = point.spec.run()
            record = SweepRecord.for_point(point, result).to_dict()
            if fail_after is not None and written == fail_after:
                # Simulate a crash mid-write: half a line, no newline, die.
                handle.write(_dump_line(record)[: 20])
                handle.flush()
                os.fsync(handle.fileno())
                os._exit(CRASH_EXIT_CODE)
            handle.write(_dump_line(record))
            written += 1
            done.add(index)
            if written % plan.checkpoint_every == 0:
                handle.flush()
                os.fsync(handle.fileno())
                _write_manifest(
                    directory, worker, len(done), handle.tell(), complete=False
                )
        handle.flush()
        os.fsync(handle.fileno())
        final_bytes = handle.tell()
    if fail_after is not None and written == fail_after:
        # fail_after beyond the last record: tear nothing but still crash,
        # so tests can exercise "crash after a clean final line" too.
        os._exit(CRASH_EXIT_CODE)
    _write_manifest(directory, worker, len(done), final_bytes, complete=True)


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's progress: spooled records vs assigned points."""

    worker: int
    assigned: int
    done: int
    torn: bool

    @property
    def complete(self) -> bool:
        return self.done >= self.assigned and not self.torn


@dataclass(frozen=True)
class CampaignStatus:
    """A campaign's overall progress."""

    directory: str
    points: int
    done: int
    workers: Tuple[WorkerStatus, ...]

    @property
    def complete(self) -> bool:
        return all(worker.complete for worker in self.workers)

    @property
    def missing(self) -> int:
        return self.points - self.done


def campaign_status(directory: str) -> CampaignStatus:
    """Inspect a campaign directory without executing anything."""
    plan = CampaignPlan.load(directory)
    total = plan.point_count()
    statuses: List[WorkerStatus] = []
    done_total = 0
    for worker in range(plan.workers):
        assigned = len(plan.worker_indices(worker))
        path = spool_path(directory, worker)
        try:
            done, _ = scan_spool(path, repair=False)
            torn = False
        except ExperimentError:
            done, _ = _scan_valid_prefix_only(path)
            torn = True
        statuses.append(
            WorkerStatus(worker=worker, assigned=assigned, done=len(done), torn=torn)
        )
        done_total += len(done)
    return CampaignStatus(
        directory=directory, points=total, done=done_total, workers=tuple(statuses)
    )


def _scan_valid_prefix_only(path: str) -> Tuple[Set[int], int]:
    """Like :func:`scan_spool` but never raises on (or repairs) a torn tail."""
    done: Set[int] = set()
    valid_bytes = 0
    if not os.path.exists(path):
        return done, valid_bytes
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break
            validate_record(entry, path, position=len(done))
            done.add(int(entry["index"]))
            valid_bytes += len(line)
    return done, valid_bytes


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class CampaignRunner:
    """Runs campaigns: shards a sweep across worker processes with spools.

    ``jobs`` bounds how many worker *processes* run concurrently; the
    number of *spools* is fixed by the plan's ``workers`` so resume never
    re-shards points.  ``jobs=1`` executes workers in-process (serially),
    which is bit-identical to the multi-process path because every point
    derives all randomness from its own seed.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs

    def run(
        self,
        sweep: Sweep,
        directory: str,
        workers: Optional[int] = None,
        checkpoint_every: int = 8,
        fail_after: Optional[int] = None,
        fail_worker: int = 0,
    ) -> CampaignStatus:
        """Initialise ``directory`` with a plan and execute every point.

        ``fail_after``/``fail_worker`` arm the crash hook on one worker
        (see :func:`_worker_main`); the returned status then reports an
        incomplete campaign ready for :meth:`resume`.
        """
        if os.path.exists(os.path.join(directory, CAMPAIGN_FILENAME)):
            raise ExperimentError(
                f"{directory!r} already holds a campaign; use resume"
            )
        plan = CampaignPlan.from_sweep(
            sweep,
            workers=workers if workers is not None else self.jobs,
            checkpoint_every=checkpoint_every,
        )
        # A bad plan fails here, before the directory or any worker exists.
        plan.validate()
        os.makedirs(directory, exist_ok=True)
        plan.save(directory)
        return self._execute(plan, directory, fail_after, fail_worker)

    def resume(
        self,
        directory: str,
        fail_after: Optional[int] = None,
        fail_worker: int = 0,
    ) -> CampaignStatus:
        """Re-execute only the missing points of an existing campaign."""
        plan = CampaignPlan.load(directory)
        plan.validate()
        return self._execute(plan, directory, fail_after, fail_worker)

    def _execute(
        self,
        plan: CampaignPlan,
        directory: str,
        fail_after: Optional[int],
        fail_worker: int,
    ) -> CampaignStatus:
        worker_ids = list(range(plan.workers))
        if self.jobs == 1 and fail_after is None:
            for worker in worker_ids:
                _worker_main(directory, worker)
            return campaign_status(directory)
        # Imported here, as in :class:`repro.scenarios.runner.SweepRunner`:
        # only the worker processes need it.
        import multiprocessing

        context = multiprocessing.get_context()
        pending = list(worker_ids)
        running: List[Tuple[int, Any]] = []
        while pending or running:
            while pending and len(running) < self.jobs:
                worker = pending.pop(0)
                hook = fail_after if worker == fail_worker else None
                process = context.Process(
                    target=_worker_main, args=(directory, worker, hook)
                )
                process.start()
                running.append((worker, process))
            worker, process = running.pop(0)
            process.join()
            if process.exitcode not in (0, CRASH_EXIT_CODE):
                for _, other in running:
                    other.join()
                raise ExperimentError(
                    f"campaign worker {worker} exited with code {process.exitcode}"
                )
        return campaign_status(directory)
