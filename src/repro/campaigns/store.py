"""Merge-on-read access to a campaign's spooled records.

:class:`CampaignStore` treats the per-worker JSONL spools as the source of
truth and merges them lazily, by point index, holding one record in memory
at a time.  ``query``/``summarise`` stream; ``merge`` writes a results
document byte-identical to :func:`repro.scenarios.runner.save_results` on
the equivalent uninterrupted sweep — so downstream tooling (``plot``,
``load_results``) cannot tell a resumed campaign from a straight run.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ExperimentError
from repro.metrics.summary import Summary
from repro.scenarios.runner import SweepRecord, decode_record, validate_record, write_results
from repro.campaigns.runner import CampaignPlan, campaign_status, spool_path


def _metric_accessor(metric: str) -> Callable[[Dict[str, Any]], Optional[float]]:
    """Resolve a dotted path (e.g. ``good.served`` or ``offered_load``)
    inside a record's ``result`` dict to a float, or ``None`` if absent."""
    parts = metric.split(".")

    def fetch(record: Dict[str, Any]) -> Optional[float]:
        node: Any = record.get("result", {})
        for part in parts:
            if not isinstance(node, Mapping) or part not in node:
                return None
            node = node[part]
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return None
        return float(node)

    return fetch


class CampaignStore:
    """Reads a campaign directory without materialising all records."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.plan = CampaignPlan.load(directory)

    # -- streaming primitives ----------------------------------------------

    def _spool_iter(self, worker: int) -> Iterator[Tuple[int, str, int, Dict[str, Any]]]:
        """(point index, spool path, line number, raw record) per line."""
        path = spool_path(self.directory, worker)
        if not os.path.exists(path):
            return
        position = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    raise ExperimentError(
                        f"spool {path!r} has a torn tail; "
                        f"run 'campaign resume' to repair it"
                    )
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ExperimentError(
                        f"spool {path!r} is corrupt at record {position}: {error}"
                    ) from None
                validate_record(entry, path, position=position)
                position += 1
                yield int(entry["index"]), path, position, entry

    def _merged(self) -> Iterator[Tuple[str, int, Dict[str, Any]]]:
        """(spool path, line number, raw record) in point-index order."""
        iterators = [
            self._spool_iter(worker) for worker in range(self.plan.workers)
        ]
        last_index: Optional[int] = None
        for index, path, line, entry in heapq.merge(*iterators, key=lambda item: item[0]):
            if index == last_index:
                raise ExperimentError(
                    f"campaign {self.directory!r} holds duplicate records "
                    f"for point {index}"
                )
            last_index = index
            yield path, line, entry

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        """All spooled records as raw dicts, merged in point-index order."""
        for _path, _line, entry in self._merged():
            yield entry

    def iter_records(self) -> Iterator[SweepRecord]:
        """All spooled records as :class:`SweepRecord`, one at a time."""
        for path, line, entry in self._merged():
            yield decode_record(entry, f"line {line} of spool {path!r}")

    # -- queries -----------------------------------------------------------

    def status(self):
        """Delegates to :func:`repro.campaigns.runner.campaign_status`."""
        return campaign_status(self.directory)

    def count(self) -> int:
        count = 0
        for _ in self.iter_dicts():
            count += 1
        return count

    def load(self) -> List[SweepRecord]:
        """Materialise every record (the one deliberately O(points) call)."""
        return list(self.iter_records())

    def summarise(
        self,
        metric: str,
        by: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
    ) -> Dict[Any, Summary]:
        """Streaming per-group summary of one result metric.

        ``metric`` is a dotted path inside each record's result dict
        (``"good.served"``, ``"mean_price_by_class.bad"``); ``by`` groups
        by an override path (default: one group keyed ``None``).  Only
        count/mean/min/max are filled — percentiles would need the full
        population, which is exactly what this store avoids holding.
        """
        fetch = _metric_accessor(metric)
        stats: Dict[Any, Tuple[int, float, float, float]] = {}
        for entry in self.iter_dicts():
            overrides = entry.get("overrides", {})
            if where is not None:
                if any(overrides.get(path) != value for path, value in where.items()):
                    continue
            value = fetch(entry)
            if value is None:
                continue
            key = overrides.get(by) if by is not None else None
            count, total, low, high = stats.get(key, (0, 0.0, math.inf, -math.inf))
            stats[key] = (
                count + 1,
                total + value,
                min(low, value),
                max(high, value),
            )
        summaries: Dict[Any, Summary] = {}
        for key, (count, total, low, high) in sorted(
            stats.items(), key=lambda item: (str(type(item[0])), str(item[0]))
        ):
            mean = total / count
            summaries[key] = Summary(
                count=count, mean=mean, stddev=0.0,
                minimum=low, maximum=high,
                p50=0.0, p90=0.0, p99=0.0,
            )
        return summaries

    # -- merge -------------------------------------------------------------

    def merge(self, out_path: str) -> int:
        """Write the full results document to ``out_path``, streaming.

        Spool lines go through :func:`repro.scenarios.runner.write_results`,
        the writer :func:`~repro.scenarios.runner.save_results` uses, so the
        output is byte-identical to it over the same records.  They are
        parsed and re-dumped, never round-tripped through ``from_dict``
        (which would coerce types).  Refuses to merge an incomplete
        campaign.  Returns the number of records written.
        """
        status = campaign_status(self.directory)
        if not status.complete:
            raise ExperimentError(
                f"campaign {self.directory!r} is incomplete "
                f"({status.done}/{status.points} points); "
                f"run 'campaign resume' first"
            )
        return write_results(self.iter_dicts(), out_path)
