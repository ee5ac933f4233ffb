"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("demo", "figure2", "figure3", "costs", "figure6", "figure7",
                    "figure8", "figure9", "advantage", "windows", "capacity",
                    "scenarios", "sweep", "bench", "fleet", "failover", "fabric"):
        args = parser.parse_args(
            [command] if command in ("demo", "capacity", "scenarios", "sweep", "bench")
            else [command, "--duration", "5"])
        assert args.command == command


def test_demo_command_prints_headline_metrics(capsys):
    exit_code = main(["demo", "--good", "2", "--bad", "2", "--capacity", "8",
                      "--duration", "6", "--seed", "1"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "good_allocation" in output
    assert "Demo" in output


def test_capacity_command_prints_sink_rates(capsys):
    exit_code = main(["capacity", "--measure-seconds", "0.05"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "1500" in output and "120" in output


def test_figure2_command_runs_at_tiny_scale(capsys):
    exit_code = main(["figure2", "--duration", "6", "--client-scale", "0.12", "--seed", "2"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Figure 2" in output
    assert "with_speakup" in output


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_scenarios_command_lists_registry(capsys):
    exit_code = main(["scenarios"])
    assert exit_code == 0
    output = capsys.readouterr().out
    for name in ("lan-baseline", "flash-crowd", "pulsed-attack", "diurnal-demand",
                 "stress-mega"):
        assert name in output


def test_scenarios_doc_emits_the_gallery(capsys):
    exit_code = main(["scenarios", "--doc"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert output.startswith("# Scenario gallery")
    assert "## `stress-mega`" in output
    assert "| knob | default |" in output


def _tiny_bench_cases():
    from repro.perf.bench import BenchCase

    return (
        BenchCase(
            name="tiny",
            scenario="lan-baseline",
            args=dict(good_clients=2, bad_clients=2, capacity_rps=10.0, duration=1.0),
        ),
    )


def test_bench_command_appends_entries_and_checks(tmp_path, capsys, monkeypatch):
    import repro.perf.bench as perf_bench

    monkeypatch.setattr(perf_bench, "BENCH_CASES", _tiny_bench_cases())
    out = tmp_path / "BENCH_test.json"
    fresh = tmp_path / "fresh.json"

    exit_code = main(["bench", "--quick", "--label", "cli-test",
                      "--out", str(out), "--fresh-out", str(fresh)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "tiny" in output and "events/s" in output
    assert out.exists() and fresh.exists()

    from repro.perf.bench import load_document

    document = load_document(str(out))
    assert document["entries"][0]["label"] == "cli-test"
    assert "tiny" in document["entries"][0]["cases"]
    fresh_doc = load_document(str(fresh))
    assert len(fresh_doc["entries"]) == 1

    # --check against the entry just written: same machine, same code, so it
    # must pass and must not append a second entry.  The wide tolerance keeps
    # the wall-clock half of the check immune to CI load spikes between the
    # two tiny runs; the deterministic work-per-event half is exact anyway.
    exit_code = main(["bench", "--quick", "--check", "--tolerance", "0.9",
                      "--out", str(out)])
    assert exit_code == 0
    assert len(load_document(str(out))["entries"]) == 1
    assert "no regression" in capsys.readouterr().out


def test_bench_check_without_baseline_errors(tmp_path, capsys, monkeypatch):
    import repro.perf.bench as perf_bench

    monkeypatch.setattr(perf_bench, "BENCH_CASES", _tiny_bench_cases())
    exit_code = main(["bench", "--quick", "--check",
                      "--out", str(tmp_path / "missing.json")])
    assert exit_code == 2
    assert "no committed" in capsys.readouterr().err


def test_sweep_command_runs_grid_and_writes_results(tmp_path, capsys):
    out = tmp_path / "results.json"
    exit_code = main([
        "sweep", "--scenario", "lan-baseline",
        "--set", "good_clients=2", "--set", "bad_clients=2",
        "--set", "capacity_rps=10", "--set", "duration=5",
        "--grid", "defense=speakup,none",
        "--replicates", "2",
        "--out", str(out),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "4 runs" in output
    assert "defense=speakup" in output and "defense=none" in output

    from repro.scenarios import load_results
    records = load_results(str(out))
    assert len(records) == 4
    assert {record.spec.defense for record in records} == {"speakup", "none"}


def test_campaign_cli_run_kill_resume_merge(tmp_path, capsys):
    """The §11 tutorial loop end to end: run with a forced worker crash
    (exit 4), status reports the torn spool, resume completes, and the
    merged document matches a plain `sweep --out` byte for byte."""
    directory = tmp_path / "campaign"
    common = [
        "--scenario", "lan-baseline",
        "--set", "good_clients=2", "--set", "bad_clients=2",
        "--set", "capacity_rps=10", "--set", "duration=2",
        "--grid", "capacity_rps=5,10",
        "--replicates", "2",
    ]
    assert main([
        "campaign", "run", *common, "--dir", str(directory),
        "--jobs", "2", "--workers", "2", "--checkpoint-every", "1",
        "--fail-after", "1", "--fail-worker", "0",
    ]) == 4
    captured = capsys.readouterr()
    assert "torn tail" in captured.out
    assert "campaign resume" in captured.err

    assert main(["campaign", "status", "--dir", str(directory)]) == 4
    capsys.readouterr()
    assert main(["campaign", "resume", "--dir", str(directory), "--jobs", "2"]) == 0
    assert main(["campaign", "status", "--dir", str(directory)]) == 0
    capsys.readouterr()

    merged = tmp_path / "merged.json"
    assert main(["campaign", "merge", "--dir", str(directory),
                 "--out", str(merged)]) == 0
    assert "merged 4 records" in capsys.readouterr().out

    reference = tmp_path / "reference.json"
    assert main(["sweep", *common, "--out", str(reference)]) == 0
    assert merged.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"bogus": 1}, "unknown ConfigOverrides keys: ['bogus']"),
        ({"seed": 5}, "unknown ConfigOverrides keys: ['seed']"),
    ],
    ids=["unknown", "spec-owned"],
)
def test_campaign_resume_rejects_bad_config_overrides(tmp_path, capsys, jobs, overrides, message):
    """A stored plan whose base spec carries an unknown override, or one the
    spec sets itself, fails in one line before any worker starts."""
    directory = tmp_path / "campaign"
    assert main([
        "campaign", "run", "--scenario", "lan-baseline",
        "--set", "good_clients=1", "--set", "bad_clients=1",
        "--set", "duration=1", "--grid", "capacity_rps=5,10",
        "--dir", str(directory), "--workers", "2",
    ]) == 0
    capsys.readouterr()
    plan_file = directory / "campaign.json"
    plan = json.loads(plan_file.read_text())
    plan["base"]["config_overrides"] = overrides
    plan_file.write_text(json.dumps(plan))
    for spool in directory.glob("spool-*"):
        spool.unlink()

    assert main(["campaign", "resume", "--dir", str(directory), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("speakup-repro: error: ")
    assert message in err
    assert "Traceback" not in err
    assert not list(directory.glob("spool-*")), "a worker ran before validation"


def test_campaign_run_rejects_a_bad_plan_before_creating_anything(tmp_path, capsys):
    """A point that cannot build (the quantum thinner under the fault plan
    and pooled admission of fleet-failover) fails in one line before the
    campaign directory, its plan or any worker exists."""
    directory = tmp_path / "campaign"
    assert main([
        "campaign", "run", "--scenario", "fleet-failover",
        "--set", "good_clients=4", "--set", "bad_clients=4",
        "--set", "duration=2", "--set", "defense=quantum",
        "--dir", str(directory), "--jobs", "2", "--workers", "2",
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("speakup-repro: error: ")
    assert "Traceback" not in err
    assert not (directory / "campaign.json").exists()


def test_campaign_cli_rejects_bad_directories(tmp_path, capsys):
    assert main(["campaign", "status", "--dir", str(tmp_path / "nope")]) == 2
    assert "not a campaign directory" in capsys.readouterr().err


def test_bad_numeric_arguments_exit_cleanly(capsys):
    exit_code = main(["demo", "--good", "2", "--bad", "2", "--duration", "-3"])
    assert exit_code == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert "Traceback" not in captured.err


def test_sweep_rejects_unknown_scenario_and_bad_grid(capsys):
    assert main(["sweep", "--scenario", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["sweep", "--grid", "bogus"]) == 2
    assert "--grid" in capsys.readouterr().err
    assert main(["sweep", "--seeds", "1,x"]) == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        "groups.0.bandwidth_bps=nan",
        "groups.0.bandwidth_bps=inf",
        "topology.thinner_bandwidth_bps=nan",
        "topology.lan_delay_s=nan",
        "encouragement_delay=nan",
        "capacity_rps=nan",
    ],
)
def test_a_non_finite_link_host_or_deployment_value_exits_2_and_writes_nothing(grid, tmp_path, capsys):
    out = tmp_path / "out.json"
    exit_code = main(["sweep", "--scenario", "lan-baseline",
                      "--set", "good_clients=2", "--set", "bad_clients=2",
                      "--set", "duration=2", "--grid", grid, "--out", str(out)])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_duration_exits_2_and_writes_nothing(value, tmp_path, capsys):
    """A NaN or infinite duration used to run forever; it now fails the
    spec's check before any run starts."""
    out = tmp_path / "out.json"
    exit_code = main(["sweep", "--scenario", "lan-baseline",
                      "--set", "good_clients=2", "--set", "bad_clients=2",
                      "--set", f"duration={value}", "--out", str(out)])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"duration must be positive and finite, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, args, path",
    [
        ("lan-baseline", ["groups.0.arrival.kind=diurnal", "groups.0.arrival.period_s=nan"],
         "groups.0.arrival.period_s"),
        ("lan-baseline", ["groups.0.arrival.kind=diurnal", "groups.0.arrival.period_s=inf"],
         "groups.0.arrival.period_s"),
        ("lan-baseline", ["groups.0.arrival.kind=flash", "groups.0.arrival.start_s=nan"],
         "groups.0.arrival.start_s"),
        ("lan-baseline", ["groups.0.arrival.kind=flash", "groups.0.arrival.start_s=inf"],
         "groups.0.arrival.start_s"),
        ("lan-baseline", ["groups.0.arrival.kind=flash", "groups.0.arrival.ramp_s=nan"],
         "groups.0.arrival.ramp_s"),
        ("rollup-mega", ["telemetry.bucket_s=nan"], "telemetry.bucket_s"),
        ("rollup-mega", ["telemetry.bucket_s=inf"], "telemetry.bucket_s"),
        ("fleet-failover", ["fault_plan.repin_ttl_s=nan"], "fault_plan.repin_ttl_s"),
        ("fleet-failover", ["fault_plan.repin_ttl_s=inf"], "fault_plan.repin_ttl_s"),
        ("fleet-failover", ["fault_plan.events.0.at_s=nan"], "fault_plan.events.0.at_s"),
        ("fleet-failover", ["fault_plan.sample_interval_s=nan"], "fault_plan.sample_interval_s"),
        ("fleet-brownout", ["health_probe=true", "health_probe.interval_s=nan"],
         "health_probe.interval_s"),
        ("adaptive-pulse", ["defense.check_interval=nan"], "defense.check_interval"),
        ("layered-lan", ["allowed_rps=nan"], "defense.stages.0.allowed_rps"),
    ],
    ids=["period-nan", "period-inf", "start-nan", "start-inf", "ramp-nan", "bucket-nan",
         "bucket-inf", "repin-nan", "repin-inf", "event-at-nan", "sample-nan",
         "probe-interval-nan", "check-interval-nan", "allowed-rps-nan"],
)
def test_a_non_finite_sub_spec_value_exits_2_and_writes_nothing(
    scenario, args, path, tmp_path, capsys
):
    out = tmp_path / "out.json"
    grids = [flag for arg in args for flag in ("--grid" if "." in arg else "--set", arg)]
    exit_code = main(["sweep", "--scenario", scenario,
                      "--set", "good_clients=4", "--set", "bad_clients=4",
                      "--set", "duration=2", *grids, "--out", str(out)])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path} must be " in err and "finite" in err
    assert not out.exists()


def test_a_campaign_with_a_non_finite_group_value_fails_its_pre_flight(tmp_path, capsys):
    """The pre-flight names the field and leaves no campaign behind, rather
    than failing at the first build with the host's name."""
    directory = tmp_path / "nan-campaign"
    exit_code = main(["campaign", "run", "--scenario", "lan-baseline",
                      "--set", "good_clients=2", "--set", "bad_clients=2",
                      "--set", "duration=2", "--grid", "groups.0.bandwidth_bps=nan",
                      "--dir", str(directory)])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "groups.0.bandwidth_bps must be positive and finite, got nan" in err
    assert not (directory / "campaign.json").exists()


def test_fleet_command_prints_provisioning_curve(capsys):
    exit_code = main(["fleet", "--duration", "6", "--client-scale", "0.12",
                      "--shards", "1,2"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Section 4.3" in output
    assert "predicted/shard" in output


def test_failover_command_prints_pulse_and_summary(capsys):
    exit_code = main(["failover", "--duration", "12", "--client-scale", "0.24",
                      "--shards", "3", "--repin-ttl", "1"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "kill/heal pulse" in output
    assert "recovery ratio" in output
    assert "<- kill" in output


def test_failover_fault_plan_with_a_mistyped_key_exits_2(tmp_path, capsys):
    """A plan file that says ``repin_ttl`` for ``repin_ttl_s`` fails with one
    line naming the key and the file, instead of running on the default TTL."""
    from repro.faults.spec import kill_heal_pulse

    document = json.loads(kill_heal_pulse(1, kill_at_s=1.0, heal_at_s=2.0).to_json())
    document["repin_ttl"] = document.pop("repin_ttl_s")
    path = tmp_path / "pulse.json"
    path.write_text(json.dumps(document))
    exit_code = main(["failover", "--duration", "3", "--client-scale", "0.1",
                      "--shards", "2", "--fault-plan", str(path)])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "'repin_ttl'" in err and str(path) in err


def test_fabric_command_prints_strategy_grid(capsys):
    exit_code = main(["fabric", "--duration", "4", "--client-scale", "0.2",
                      "--shards", "2", "--fabrics", "star,leaf-spine",
                      "--strategies", "hash,random"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Dispatch strategies across fabric topologies" in output
    for needle in ("star", "leaf-spine", "hash", "random", "imbalance"):
        assert needle in output
    # one row per (fabric, strategy) cell plus the two header lines
    assert len(output.strip().splitlines()) == 3 + 4


def _assert_clean_one_line_error(capsys, argv, needle):
    """Unknown names exit 2 with a single clean line listing valid choices."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert needle in err
    assert "expected one of" in err or "known scenarios" in err


def test_unknown_names_report_choices_consistently(capsys):
    # The same error shape — one line, valid choices listed — regardless of
    # which subcommand or option carried the unknown name.
    _assert_clean_one_line_error(
        capsys, ["demo", "--defense", "bogus"], "'bogus'")
    _assert_clean_one_line_error(
        capsys, ["sweep", "--scenario", "bogus"], "unknown scenario")
    _assert_clean_one_line_error(
        capsys, ["sweep", "--set", "defense=bogus"], "'bogus'")
    _assert_clean_one_line_error(
        capsys,
        ["fleet", "--duration", "2", "--client-scale", "0.1", "--policy", "bogus"],
        "shard_policy")
    _assert_clean_one_line_error(
        capsys,
        ["fleet", "--duration", "2", "--client-scale", "0.1", "--admission", "bogus"],
        "admission_mode")
    _assert_clean_one_line_error(
        capsys,
        ["fabric", "--duration", "2", "--client-scale", "0.1",
         "--strategies", "bogus"],
        "unknown router strategy")
    _assert_clean_one_line_error(
        capsys,
        ["fabric", "--duration", "2", "--client-scale", "0.1",
         "--fabrics", "bogus"],
        "unknown fabric")
    assert main(["fleet", "--shards", "1,x"]) == 2
    assert "--shards" in capsys.readouterr().err
