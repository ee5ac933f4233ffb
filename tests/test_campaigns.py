"""Checkpointed campaigns: crash/resume byte-identity and the merge-on-read store."""

import json
import math
import os
from dataclasses import replace

import pytest

from repro.campaigns import (
    CampaignPlan,
    CampaignRunner,
    CampaignStore,
    campaign_status,
)
from repro.campaigns.runner import _dump_line, scan_spool, spool_path
from repro.errors import ExperimentError
from repro.scenarios import Sweep, SweepRunner, build_scenario, load_results, save_results


def _base_spec(duration: float = 2.0, **kwargs):
    return build_scenario(
        "lan-baseline", good_clients=2, bad_clients=2,
        capacity_rps=10.0, duration=duration, **kwargs,
    )


def _small_sweep():
    return Sweep(
        _base_spec(), axes={"capacity_rps": (5.0, 10.0, 20.0)}, replicates=2
    )


# ---------------------------------------------------------------------------
# Plan persistence
# ---------------------------------------------------------------------------


def test_plan_round_trips_through_json(tmp_path):
    sweep = Sweep(
        _base_spec(),
        axes={
            "defense": ("speakup", "none"),
            ("groups.0.count", "groups.1.count"): [(1, 3), (3, 1)],
        },
        replicates=2,
    )
    plan = CampaignPlan.from_sweep(sweep, workers=3)
    plan.save(str(tmp_path))
    loaded = CampaignPlan.load(str(tmp_path))
    assert loaded == plan
    assert [p.spec for p in loaded.sweep().points()] == [
        p.spec for p in sweep.points()
    ]
    assert loaded.point_count() == sweep.point_count()
    # index % workers sharding covers every point exactly once.
    covered = sorted(
        index for w in range(3) for index in loaded.worker_indices(w)
    )
    assert covered == list(range(loaded.point_count()))


def test_plan_load_rejects_non_campaign_directories(tmp_path):
    with pytest.raises(ExperimentError):
        CampaignPlan.load(str(tmp_path))


def test_seed_axis_plans_round_trip(tmp_path):
    sweep = Sweep(_base_spec(), axes={"seed": (1, 2, 3)})
    plan = CampaignPlan.from_sweep(sweep, workers=2)
    assert plan.seeds is None
    plan.save(str(tmp_path))
    loaded = CampaignPlan.load(str(tmp_path))
    assert [p.spec.seed for p in loaded.sweep().points()] == [1, 2, 3]


def test_a_non_finite_value_never_reaches_a_campaign_file(tmp_path):
    base = replace(_base_spec(), capacity_rps=math.nan)
    plan = CampaignPlan.from_sweep(Sweep(base), workers=1)
    with pytest.raises(ExperimentError, match="^campaign plan .* cannot be written as JSON"):
        plan.save(str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ExperimentError, match="^campaign record 4 cannot be written as JSON"):
        _dump_line({"index": 4, "result": {"duration": math.nan}})


# ---------------------------------------------------------------------------
# Crash / resume
# ---------------------------------------------------------------------------


def test_uninterrupted_campaign_merge_matches_save_results(tmp_path):
    sweep = _small_sweep()
    reference = tmp_path / "reference.json"
    save_results(SweepRunner(jobs=1).run(sweep), str(reference))

    directory = tmp_path / "campaign"
    status = CampaignRunner(jobs=2).run(sweep, str(directory), workers=2)
    assert status.complete
    merged = tmp_path / "merged.json"
    CampaignStore(str(directory)).merge(str(merged))
    assert merged.read_bytes() == reference.read_bytes()
    # And load_results accepts the merged document unchanged.
    assert len(load_results(str(merged))) == sweep.point_count()


def test_killed_worker_resumes_byte_identical(tmp_path):
    """The tentpole invariant: crash a worker mid-campaign (torn spool line
    included), resume, and the merged output is byte-identical to an
    uninterrupted run."""
    sweep = _small_sweep()
    reference = tmp_path / "reference.json"
    save_results(SweepRunner(jobs=1).run(sweep), str(reference))

    directory = str(tmp_path / "campaign")
    status = CampaignRunner(jobs=2).run(
        sweep, directory, workers=2, checkpoint_every=1,
        fail_after=1, fail_worker=0,
    )
    assert not status.complete
    assert status.workers[0].torn
    assert status.done < status.points

    # The store refuses to merge an incomplete campaign.
    with pytest.raises(ExperimentError):
        CampaignStore(directory).merge(str(tmp_path / "premature.json"))

    # Spool 0's valid prefix survives the resume untouched.
    with open(spool_path(directory, 0), "rb") as handle:
        torn_bytes = handle.read()

    status = CampaignRunner(jobs=2).resume(directory)
    assert status.complete

    with open(spool_path(directory, 0), "rb") as handle:
        resumed_bytes = handle.read()
    # The valid prefix of the torn spool is a prefix of the resumed spool.
    valid_prefix = torn_bytes[: torn_bytes.rfind(b"\n") + 1]
    assert resumed_bytes.startswith(valid_prefix)

    merged = tmp_path / "merged.json"
    CampaignStore(directory).merge(str(merged))
    assert merged.read_bytes() == reference.read_bytes()


def test_resume_executes_only_missing_points(tmp_path):
    sweep = _small_sweep()
    directory = str(tmp_path / "campaign")
    CampaignRunner(jobs=2).run(
        sweep, directory, workers=2, fail_after=1, fail_worker=1
    )
    before = campaign_status(directory)
    done_before = {
        index
        for worker in range(2)
        for index in scan_spool(spool_path(directory, worker), repair=True)[0]
    }
    status = CampaignRunner(jobs=1).resume(directory)
    assert status.complete
    assert status.done == sweep.point_count()
    # Every record done before the crash is still there (resume only adds).
    for worker in range(2):
        done_after, _ = scan_spool(spool_path(directory, worker))
        assert done_after >= {i for i in done_before if i % 2 == worker}
    assert before.done == len(done_before)


def test_run_refuses_to_clobber_an_existing_campaign(tmp_path):
    sweep = _small_sweep()
    directory = str(tmp_path / "campaign")
    CampaignRunner(jobs=1).run(sweep, directory, workers=1)
    with pytest.raises(ExperimentError):
        CampaignRunner(jobs=1).run(sweep, directory, workers=1)


def test_jobs_one_in_process_matches_multiprocess(tmp_path):
    sweep = _small_sweep()
    serial_dir, parallel_dir = str(tmp_path / "s"), str(tmp_path / "p")
    CampaignRunner(jobs=1).run(sweep, serial_dir, workers=2)
    CampaignRunner(jobs=2).run(sweep, parallel_dir, workers=2)
    for worker in range(2):
        with open(spool_path(serial_dir, worker), "rb") as a, \
                open(spool_path(parallel_dir, worker), "rb") as b:
            assert a.read() == b.read()


# ---------------------------------------------------------------------------
# The merge-on-read store
# ---------------------------------------------------------------------------


@pytest.fixture
def finished_campaign(tmp_path):
    sweep = _small_sweep()
    directory = str(tmp_path / "campaign")
    CampaignRunner(jobs=2).run(sweep, directory, workers=2)
    return directory, sweep


def test_store_streams_records_in_index_order(finished_campaign):
    directory, sweep = finished_campaign
    store = CampaignStore(directory)
    indices = [entry["index"] for entry in store.iter_dicts()]
    assert indices == list(range(sweep.point_count()))
    assert store.count() == sweep.point_count()
    records = store.load()
    assert [r.index for r in records] == indices


def test_store_summarise_groups_streaming(finished_campaign):
    directory, _sweep = finished_campaign
    store = CampaignStore(directory)
    summaries = store.summarise("total_served", by="capacity_rps")
    assert set(summaries) == {5.0, 10.0, 20.0}
    for summary in summaries.values():
        assert summary.count == 2
        assert summary.minimum <= summary.mean <= summary.maximum
    # Ungrouped: one bucket keyed None.
    overall = store.summarise("total_served")
    assert overall[None].count == 6


def test_store_rejects_torn_spools_without_resume(finished_campaign):
    directory, _sweep = finished_campaign
    with open(spool_path(directory, 0), "ab") as handle:
        handle.write(b'{"index": 99, "spec"')  # torn tail
    store = CampaignStore(directory)
    with pytest.raises(ExperimentError):
        list(store.iter_dicts())
    status = campaign_status(directory)
    assert status.workers[0].torn and not status.complete


def test_a_spool_line_that_fails_to_decode_names_the_spool(finished_campaign):
    directory, _sweep = finished_campaign
    path = spool_path(directory, 1)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    entry = json.loads(lines[1])
    entry["spec"]["topology"]["bogus"] = 1
    lines[1] = json.dumps(entry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    store = CampaignStore(directory)
    with pytest.raises(ExperimentError) as excinfo:
        store.load()
    message = str(excinfo.value)
    assert "\n" not in message
    assert f"line 2 of spool {path!r}" in message
    assert "unknown TopologySpec keys: ['bogus']" in message
    # The raw views never decode, so they still read the record.
    assert store.count() == 6


def test_two_hundred_point_campaign_completes(tmp_path):
    """The acceptance floor: a >=200-point campaign runs, checkpoints, and
    merges through the streaming store."""
    sweep = Sweep(
        _base_spec(duration=0.5),
        axes={"capacity_rps": tuple(float(5 + i) for i in range(25))},
        replicates=8,
    )
    assert sweep.point_count() == 200
    directory = str(tmp_path / "campaign")
    status = CampaignRunner(jobs=4).run(
        sweep, directory, workers=4, checkpoint_every=16
    )
    assert status.complete and status.done == 200
    store = CampaignStore(directory)
    assert store.count() == 200
    merged = tmp_path / "merged.json"
    assert store.merge(str(merged)) == 200
    document = json.loads(merged.read_text())
    assert len(document["records"]) == 200


# ---------------------------------------------------------------------------
# load_results validation (shared with the store)
# ---------------------------------------------------------------------------


def test_load_results_rejects_truncated_json(tmp_path):
    sweep = Sweep(_base_spec(), axes={"capacity_rps": (5.0,)})
    path = tmp_path / "results.json"
    save_results(SweepRunner().run(sweep), str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ExperimentError, match="truncated or not valid JSON"):
        load_results(str(path))


def test_load_results_rejects_malformed_records(tmp_path):
    path = tmp_path / "results.json"
    path.write_text('{"version": 1, "records": [{"index": 0}]}')
    with pytest.raises(ExperimentError, match="missing the 'spec' key"):
        load_results(str(path))
    path.write_text('{"records": []}')
    with pytest.raises(ExperimentError, match="no 'version' key"):
        load_results(str(path))
    path.write_text('{"version": 1, "records": [17]}')
    with pytest.raises(ExperimentError, match="must be an object"):
        load_results(str(path))
