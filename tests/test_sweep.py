"""The sweep runner: grid expansion, determinism, and the results store."""

import json
import math
import weakref
from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.rng import derive_seed
from repro.scenarios import (
    GroupSpec,
    ScenarioSpec,
    Sweep,
    SweepRunner,
    build_scenario,
    load_results,
    save_results,
)


def _base_spec(seed: int = 0) -> ScenarioSpec:
    return build_scenario(
        "lan-baseline", good_clients=2, bad_clients=2,
        capacity_rps=10.0, duration=6.0, seed=seed,
    )


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def test_sweep_expands_axes_cross_product_with_replicates():
    sweep = Sweep(
        _base_spec(seed=7),
        axes={"defense": ("speakup", "none"), "groups.1.window": (1, 20)},
        replicates=2,
    )
    points = sweep.points()
    assert sweep.point_count() == len(points) == 2 * 2 * 2
    assert [point.index for point in points] == list(range(8))
    first = points[0]
    assert first.spec.defense == "speakup"
    assert first.spec.groups[1].window == 1
    overrides = dict(first.overrides)
    assert overrides["defense"] == "speakup"
    assert overrides["groups.1.window"] == 1
    # Replicate seeds are deterministic substreams of the base seed.
    assert first.spec.seed == derive_seed(7, "replicate:0")
    assert points[1].spec.seed == derive_seed(7, "replicate:1")
    assert len({point.spec.seed for point in points[:2]}) == 2


def test_sweep_composite_axis_varies_fields_together():
    sweep = Sweep(
        _base_spec(),
        axes={("groups.0.count", "groups.1.count"): [(1, 3), (3, 1)]},
    )
    points = sweep.points()
    assert [(p.spec.groups[0].count, p.spec.groups[1].count) for p in points] == [
        (1, 3), (3, 1),
    ]


def test_sweep_defaults_to_single_run_at_base_seed():
    points = Sweep(_base_spec(seed=9)).points()
    assert len(points) == 1
    assert points[0].spec.seed == 9
    assert dict(points[0].overrides) == {"seed": 9}


def test_sweep_rejects_bad_configuration():
    with pytest.raises(ExperimentError):
        Sweep(_base_spec(), seeds=(1, 2), replicates=2)
    with pytest.raises(ExperimentError):
        Sweep(_base_spec(), axes={"defense": ()})
    with pytest.raises(ExperimentError):
        Sweep(_base_spec(), axes={("a", "b"): [(1,)]})
    with pytest.raises(ExperimentError):
        Sweep(_base_spec(), replicates=0)
    with pytest.raises(ExperimentError):
        SweepRunner(jobs=0)


# ---------------------------------------------------------------------------
# Execution and determinism
# ---------------------------------------------------------------------------


def _ratio_sweep() -> Sweep:
    return Sweep(
        _base_spec(),
        axes={("groups.0.count", "groups.1.count"): [(1, 3), (2, 2), (3, 1)]},
        seeds=(0, 1, 2),
    )


def test_parallel_run_is_bit_identical_to_serial():
    serial = SweepRunner(jobs=1).run(_ratio_sweep())
    parallel = SweepRunner(jobs=4).run(_ratio_sweep())
    assert len(serial) == len(parallel) == 9
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


def test_records_carry_point_provenance():
    records = SweepRunner().run(
        Sweep(_base_spec(), axes={"defense": ("speakup", "none")})
    )
    assert [record.overrides["defense"] for record in records] == ["speakup", "none"]
    assert all(record.scenario == "lan-baseline" for record in records)
    assert records[0].result.defense == "speakup"
    assert records[1].result.defense == "none"


def test_run_specs_preserves_order():
    specs = [_base_spec(seed=seed) for seed in (5, 6)]
    results = SweepRunner(jobs=2).run_specs(specs)
    singles = [spec.run() for spec in specs]
    assert [r.to_dict() for r in results] == [r.to_dict() for r in singles]


def test_a_finished_run_frees_its_deployment(monkeypatch):
    """``ScenarioSpec.run`` collects its deployment before it returns, so a
    sweep holds one deployment at a time, not every dead one since the
    collector last ran."""
    built = []
    build = ScenarioSpec.build

    def build_and_watch(spec):
        deployment = build(spec)
        built.append(weakref.ref(deployment))
        return deployment

    monkeypatch.setattr(ScenarioSpec, "build", build_and_watch)
    spec = build_scenario("lan-baseline", good_clients=3, bad_clients=3, duration=3.0)
    spec.run()
    assert len(built) == 1 and built[0]() is None
    SweepRunner(jobs=1).run(Sweep(spec, axes={"defense": ("speakup", "none")}))
    assert len(built) == 3
    assert all(ref() is None for ref in built)


# ---------------------------------------------------------------------------
# Results store
# ---------------------------------------------------------------------------


def test_results_store_round_trip(tmp_path):
    records = SweepRunner().run(
        Sweep(_base_spec(), axes={"capacity_rps": (5.0, 10.0)}, replicates=2)
    )
    path = tmp_path / "results.json"
    save_results(records, str(path))
    loaded = load_results(str(path))
    assert len(loaded) == len(records)
    for original, restored in zip(records, loaded):
        assert restored.spec == original.spec
        assert restored.overrides == original.overrides
        assert restored.result.to_dict() == original.result.to_dict()


def test_failed_save_leaves_the_previous_results_file_intact(tmp_path):
    records = SweepRunner().run(Sweep(_base_spec(), axes={"capacity_rps": (5.0, 10.0)}))
    path = tmp_path / "results.json"
    save_results(records, str(path))
    before = path.read_bytes()

    class Unserialisable:
        def to_dict(self):
            raise RuntimeError("cannot serialise")

    with pytest.raises(RuntimeError):
        save_results([records[0], Unserialisable()], str(path))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_non_finite_value_is_refused_by_every_json_writer(tmp_path):
    """NaN and Infinity are not JSON, so no writer puts one in a file: the
    results writer names the record and leaves nothing behind, and a spec's
    ``to_json`` names the class."""
    record = SweepRunner().run(Sweep(_base_spec()))[0]
    broken = replace(record, result=replace(record.result, duration=math.inf))
    path = tmp_path / "results.json"
    with pytest.raises(ExperimentError, match="^results record 0 cannot be written as JSON"):
        save_results([broken], str(path))
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ExperimentError, match="^ScenarioSpec cannot be written as JSON"):
        replace(_base_spec(), capacity_rps=math.nan).to_json()


def test_results_file_with_a_retired_spec_key_fails_with_one_line(tmp_path):
    """A stored spec carrying ``router_spec`` (the retired second dispatch
    field) is rejected with one line naming the key, not silently re-read."""
    records = SweepRunner().run(Sweep(_base_spec()))
    path = tmp_path / "results.json"
    save_results(records, str(path))
    document = json.loads(path.read_text())
    document["records"][0]["spec"]["router_spec"] = {"name": "random", "probe": "pins"}
    path.write_text(json.dumps(document))
    with pytest.raises(ExperimentError, match="router_spec") as excinfo:
        load_results(str(path))
    assert "\n" not in str(excinfo.value)


def test_a_record_that_fails_to_decode_names_the_results_file(tmp_path):
    records = SweepRunner().run(Sweep(_base_spec(), axes={"capacity_rps": (5.0, 10.0)}))
    path = tmp_path / "results.json"
    save_results(records, str(path))
    document = json.loads(path.read_text())
    document["records"][1]["spec"]["topology"]["bogus"] = 1
    path.write_text(json.dumps(document))
    with pytest.raises(ExperimentError) as excinfo:
        load_results(str(path))
    message = str(excinfo.value)
    assert "\n" not in message
    assert f"record 1 of results file {str(path)!r}" in message
    assert "unknown TopologySpec keys: ['bogus']" in message


def test_a_malformed_defense_in_a_stored_record_names_the_results_file(tmp_path):
    records = SweepRunner().run(Sweep(_base_spec()))
    path = tmp_path / "results.json"
    save_results(records, str(path))
    document = json.loads(path.read_text())
    document["records"][0]["spec"]["defense"] = {"name": "speakup", "extra": 1}
    path.write_text(json.dumps(document))
    with pytest.raises(ExperimentError, match=r"unknown DefenseSpec keys: \['extra'\]") as excinfo:
        load_results(str(path))
    assert f"record 0 of results file {str(path)!r}" in str(excinfo.value)


def test_results_store_rejects_unknown_versions(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "records": []}')
    with pytest.raises(ExperimentError):
        load_results(str(path))


def test_seed_axis_is_respected_not_clobbered():
    records = SweepRunner().run(Sweep(_base_spec(), axes={"seed": (1, 2, 3)}))
    assert [record.spec.seed for record in records] == [1, 2, 3]
    assert [record.seed for record in records] == [1, 2, 3]
    # Different seeds produce different runs.
    assert len({record.result.good.issued for record in records}) > 1
    with pytest.raises(ExperimentError):
        Sweep(_base_spec(), axes={"seed": (1, 2)}, replicates=2)
    with pytest.raises(ExperimentError):
        Sweep(_base_spec(), axes={"seed": (1, 2)}, seeds=(3,))
