"""Tests for the repro.perf benchmark subsystem (runner, schema, gate, CLI)."""

import json
import statistics

import pytest

from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA,
    BenchCase,
    BenchSchemaError,
    compare_reports,
    default_cases,
    run_bench,
    time_callable,
    validate_report,
    validate_report_file,
    write_report,
)
from repro.perf.bench import host_kernel, time_against_host


@pytest.fixture(scope="module")
def quick_report():
    """One shared quick bench run (repeats=1, no warmup) for the module."""
    return run_bench(quick=True, repeats=1, warmup=0)


class TestRunner:
    def test_quick_report_is_schema_valid(self, quick_report):
        validate_report(quick_report)
        assert quick_report["schema"] == BENCH_SCHEMA
        assert quick_report["quick"] is True

    def test_every_case_has_all_three_columns(self):
        # engine, host, and the engine_per_host ratio paired repeat by repeat.
        report = run_bench(quick=True, repeats=3, warmup=0)
        for case in report["cases"]:
            engine_runs = case["engine"]["runs"]
            host_runs = case["host"]["runs"]
            assert len(engine_runs) == len(host_runs) == 3
            assert case["engine_per_host"] == pytest.approx(
                statistics.median(e / h for e, h in zip(engine_runs, host_runs))
            )
            assert case["engine_stats"]["states_computed"] > 0

    def test_quick_matrix_covers_the_decomposed_column(self, quick_report):
        decomposed = [
            case for case in quick_report["cases"] if case["decomposed"] is not None
        ]
        assert decomposed, "quick matrix must exercise the decomposition path"
        for case in decomposed:
            assert case["family"] == "splittable"
            assert case["speedup_vs_mono"] > 0
        plain = [case for case in quick_report["cases"] if case["decomposed"] is None]
        assert all(case["speedup_vs_mono"] is None for case in plain)

    def test_quick_matrix_is_a_prefix_of_the_full_matrix(self):
        quick = [case.name for case in default_cases(quick=True)]
        full = [case.name for case in default_cases(quick=False)]
        assert full[: len(quick)] == quick
        assert len(full) > len(quick)
        # The headline medium and large instances are in the full matrix.
        assert any(
            case.num_jobs >= 40 and case.num_processors >= 3
            for case in default_cases(quick=False)
        )
        assert any(case.num_jobs >= 60 for case in default_cases(quick=False))
        assert any(case.num_processors >= 4 for case in default_cases(quick=False))

    def test_bad_timing_discipline_rejected(self):
        with pytest.raises(ValueError):
            run_bench(repeats=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            BenchCase("x", "gaps", "nope", 4, 1, 6).make_instance(0)

    def test_time_callable_counts_runs(self):
        timing = time_callable(lambda: sum(range(50)), repeats=3, warmup=1)
        assert len(timing["runs"]) == 3
        assert timing["best"] <= timing["median"] <= max(timing["runs"])

    def test_time_against_host_runs_the_kernel_before_each_repeat(self):
        calls = []
        timing, host, ratio = time_against_host(
            lambda: calls.append("fn"), repeats=4, warmup=1
        )
        assert len(calls) == 5
        assert len(timing["runs"]) == len(host["runs"]) == 4
        assert ratio == statistics.median(
            e / h for e, h in zip(timing["runs"], host["runs"])
        )

    def test_host_kernel_is_deterministic(self):
        # The kernel is the fixed reference every committed ratio divides
        # by; its result pins the work it does.
        assert host_kernel() == host_kernel() == 151789


class TestSchemaValidation:
    def test_missing_top_level_key_is_drift(self, quick_report):
        broken = dict(quick_report)
        del broken["engine"]
        with pytest.raises(BenchSchemaError, match="missing keys"):
            validate_report(broken)

    def test_unexpected_key_is_drift(self, quick_report):
        broken = dict(quick_report)
        broken["surprise"] = 1
        with pytest.raises(BenchSchemaError, match="unexpected keys"):
            validate_report(broken)

    def test_wrong_schema_id_is_drift(self, quick_report):
        broken = dict(quick_report)
        broken["schema"] = "repro.perf/bench-dp/v999"
        with pytest.raises(BenchSchemaError, match="schema id"):
            validate_report(broken)

    def test_old_v1_schema_id_is_drift(self, quick_report):
        broken = dict(quick_report)
        broken["schema"] = "repro.perf/bench-dp/v1"
        with pytest.raises(BenchSchemaError, match="schema id"):
            validate_report(broken)

    def test_case_drift_detected(self, quick_report):
        broken = json.loads(json.dumps(quick_report))
        del broken["cases"][0]["host"]
        with pytest.raises(BenchSchemaError, match="missing keys"):
            validate_report(broken)

    def test_host_column_without_ratio_is_drift(self, quick_report):
        broken = json.loads(json.dumps(quick_report))
        broken["cases"][0]["engine_per_host"] = None
        with pytest.raises(BenchSchemaError, match="engine_per_host"):
            validate_report(broken)

    def test_exact_case_without_host_column_is_drift(self, quick_report):
        broken = json.loads(json.dumps(quick_report))
        broken["cases"][0]["host"] = None
        broken["cases"][0]["engine_per_host"] = None
        with pytest.raises(BenchSchemaError, match="host"):
            validate_report(broken)

    def test_duplicate_case_names_rejected(self, quick_report):
        broken = json.loads(json.dumps(quick_report))
        broken["cases"].append(broken["cases"][0])
        with pytest.raises(BenchSchemaError, match="duplicate"):
            validate_report(broken)

    def test_write_and_validate_roundtrip(self, quick_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(quick_report, str(path))
        data = validate_report_file(str(path))
        assert data == json.loads(path.read_text())


def _gateable_report(report):
    """A deep copy with medians floored above the noise floor."""
    copied = json.loads(json.dumps(report))
    for case in copied["cases"]:
        case["engine"]["median"] = max(case["engine"]["median"], 0.01)
    return copied


def _rescaled(report, engine_factor, host_factor):
    """A copy whose engine and host runs are scaled, ratios recomputed as
    the runner computes them."""
    copied = json.loads(json.dumps(report))
    for case in copied["cases"]:
        for key, factor in (("engine", engine_factor), ("host", host_factor)):
            block = case[key]
            block["runs"] = [run * factor for run in block["runs"]]
            for stat in ("best", "median", "mean"):
                block[stat] *= factor
        case["engine_per_host"] = statistics.median(
            e / h for e, h in zip(case["engine"]["runs"], case["host"]["runs"])
        )
    return copied


class TestRegressionGate:
    def test_identical_reports_pass(self, quick_report):
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        outcome = compare_reports(fresh, committed)
        assert outcome["regressions"] == []
        assert outcome["compared"]
        assert outcome["unmatched"] == []

    def test_slower_engine_on_an_unchanged_host_is_a_regression(self, quick_report):
        # The engine twice as slow while the host kernel runs as before:
        # the engine/host ratio doubles on every gated case.
        committed = _gateable_report(quick_report)
        fresh = _rescaled(committed, engine_factor=2.0, host_factor=1.0)
        outcome = compare_reports(fresh, committed, threshold=1.25)
        assert {r["name"] for r in outcome["regressions"]} == set(outcome["compared"])
        for entry in outcome["regressions"]:
            assert entry["metric"] == "engine_per_host"
            assert entry["ratio"] == pytest.approx(2.0)

    def test_uniformly_slower_machine_does_not_flag(self, quick_report):
        # A machine 3x slower on both the engine and the host kernel (a
        # slower CI runner): the ratio is unchanged, so no regression.
        committed = _gateable_report(quick_report)
        fresh = _rescaled(committed, engine_factor=3.0, host_factor=3.0)
        outcome = compare_reports(fresh, committed)
        assert outcome["compared"]
        assert outcome["regressions"] == []

    def test_speedup_never_flags(self, quick_report):
        committed = _gateable_report(quick_report)
        fresh = _rescaled(committed, engine_factor=0.5, host_factor=1.0)
        assert compare_reports(fresh, committed)["regressions"] == []

    def test_noise_floor_skips_micro_cases(self, quick_report):
        committed = _gateable_report(quick_report)
        fresh = _rescaled(committed, engine_factor=100.0, host_factor=1.0)
        outcome = compare_reports(fresh, committed, min_median=1e9)
        assert outcome["regressions"] == []
        assert set(outcome["skipped"]) == {c["name"] for c in committed["cases"]}

    def test_changed_value_is_flagged(self, quick_report):
        # Values are checked on every shared case, below the noise floor
        # too; a feasibility flip counts as a changed value, a difference
        # inside the tolerance does not.
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        feasible = [c for c in fresh["cases"] if c["value"] is not None]
        infeasible = next(c for c in fresh["cases"] if c["value"] is None)
        feasible[0]["value"] += 1
        for case in feasible[1:]:
            case["value"] += 1e-9
        infeasible["value"] = 0.0
        outcome = compare_reports(fresh, committed, min_median=1e9)
        flagged = {r["name"]: r for r in outcome["regressions"]}
        assert set(flagged) == {feasible[0]["name"], infeasible["name"]}
        assert all(r["metric"] == "value" for r in flagged.values())
        assert flagged[infeasible["name"]]["committed_value"] is None

    def test_unmatched_cases_reported_both_ways(self, quick_report):
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        fresh["cases"][0]["name"] = "gap/brand-new-case"
        outcome = compare_reports(fresh, committed)
        assert "gap/brand-new-case" in outcome["unmatched"]
        assert committed["cases"][0]["name"] in outcome["unmatched"]

    def test_bad_threshold_rejected(self, quick_report):
        with pytest.raises(ValueError):
            compare_reports(quick_report, quick_report, threshold=0.0)


class TestBenchCLI:
    def test_bench_quick_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup", "0"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "engine" in captured and "host" in captured
        validate_report_file(str(out))

    def test_bench_check_accepts_valid_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        main(["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup", "0"])
        capsys.readouterr()
        assert main(["bench", "--check", str(out)]) == 0
        assert "schema ok" in capsys.readouterr().out

    def test_bench_check_fails_on_drift(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        main(["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup", "0"])
        data = json.loads(out.read_text())
        del data["cases"]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["bench", "--check", str(out)]) == 1
        assert "schema drift" in capsys.readouterr().out

    def test_bench_check_rejects_conflicting_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--check", "x.json", "--quick"])

    def test_bench_check_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--check", str(tmp_path / "missing.json")])

    def test_bench_compare_passes_against_itself(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        main(
            ["bench", "--quick", "--out", str(committed), "--repeats", "1",
             "--warmup", "0"]
        )
        capsys.readouterr()
        out = tmp_path / "fresh.json"
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup",
             "0", "--compare", str(committed),
             "--threshold", "1000"]
        )
        assert code == 0
        assert "regression gate" in capsys.readouterr().out

    def test_bench_compare_fails_on_regression(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        main(
            ["bench", "--quick", "--out", str(committed), "--repeats", "1",
             "--warmup", "0"]
        )
        # Lift every committed median above the noise floor and shrink the
        # committed engine/host ratios, so the fresh run regresses ~100x.
        data = json.loads(committed.read_text())
        for case in data["cases"]:
            case["engine"]["median"] = 0.006
            case["engine_per_host"] /= 100.0
        committed.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "fresh.json"
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup",
             "0", "--compare", str(committed)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_compare_fails_on_changed_optimum(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        main(
            ["bench", "--quick", "--out", str(committed), "--repeats", "1",
             "--warmup", "0"]
        )
        data = json.loads(committed.read_text())
        data["cases"][0]["value"] += 1
        committed.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(
            ["bench", "--quick", "--out", str(tmp_path / "fresh.json"), "--repeats",
             "1", "--warmup", "0", "--compare", str(committed), "--threshold", "1000"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert f"REGRESSION {data['cases'][0]['name']}: optimum" in out

    def test_bench_compare_rejects_a_different_seed(self, tmp_path):
        committed = tmp_path / "committed.json"
        main(
            ["bench", "--quick", "--out", str(committed), "--repeats", "1",
             "--warmup", "0", "--filter", "tight"]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--seed", "3", "--compare", str(committed)])
        assert excinfo.value.code == 2

    def test_bench_threshold_requires_compare(self):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--threshold", "2.0"])

    def test_bench_append_writes_history_line(self, tmp_path, capsys):
        from repro.perf import read_history

        out = tmp_path / "bench.json"
        history = tmp_path / "HISTORY.jsonl"
        for _ in range(2):
            code = main(
                ["bench", "--quick", "--out", str(out), "--repeats", "1",
                 "--warmup", "0",
                 "--append", str(history)]
            )
            assert code == 0
        assert "history appended" in capsys.readouterr().out
        entries = read_history(str(history))
        assert len(entries) == 2
        assert all(entry["quick"] for entry in entries)

    def test_bench_compare_accepts_history_file(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        history = tmp_path / "HISTORY.jsonl"
        main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1",
             "--warmup", "0", "--append", str(history)]
        )
        capsys.readouterr()
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1",
             "--warmup", "0",
             "--compare", str(history), "--threshold", "1000",
             "--append", str(history)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "latest history entry" in captured
        assert "regression gate" in captured

    def test_bench_check_rejects_append(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--check", "x.json", "--append", "HISTORY.jsonl"])

    def test_bench_median_window_gates_on_rolling_reference(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        history = tmp_path / "HISTORY.jsonl"
        for _ in range(2):
            main(
                ["bench", "--quick", "--out", str(out), "--repeats", "1",
                 "--warmup", "0",
                 "--append", str(history)]
            )
        capsys.readouterr()
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1",
             "--warmup", "0",
             "--compare", str(history), "--median-window", "5",
             "--threshold", "1000"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "rolling median of last 2 entries" in captured
        assert "regression gate" in captured

    def test_bench_median_window_requires_compare(self):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--median-window", "3"])

    def test_bench_median_window_rejects_plain_report(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        main(
            ["bench", "--quick", "--out", str(committed), "--repeats", "1",
             "--warmup", "0"]
        )
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(
                ["bench", "--quick", "--repeats", "1", "--warmup", "0",
                 "--compare", str(committed), "--median-window", "2"]
            )

    def test_bench_check_rejects_median_window(self):
        with pytest.raises(SystemExit):
            main(["bench", "--check", "x.json", "--median-window", "2"])

    def test_committed_report_is_schema_valid(self):
        # BENCH_dp.json at the repo root is a released artifact; CI fails on
        # drift, and so does the tier-1 suite.
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "BENCH_dp.json")
        data = validate_report_file(root)
        assert data["quick"] is False
        medium = [
            case
            for case in data["cases"]
            if case["num_jobs"] >= 40 and case["num_processors"] >= 3
        ]
        assert medium, "full report must include the medium instances"
        exact = [case for case in medium if case["value"] is not None]
        assert exact, "full report must include exactly-solved n >= 40 cases"
        # Acceptance for the decomposition PR: on the large splittable
        # families with process-backend component solves, the decomposed
        # facade beats the monolithic v2 engine by >= 1.5x wall clock.
        headline = [
            case
            for case in data["cases"]
            if case["family"] == "splittable" and case["num_jobs"] >= 60
        ]
        assert headline, "full report must include the large splittable cases"
        assert all(case["speedup_vs_mono"] >= 1.5 for case in headline)


class TestFuzzProfile:
    def test_fuzz_profile_prints_engine_stats(self, capsys):
        code = main(["fuzz", "--seed", "2", "--n", "12", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine profile:" in out
        assert "states_computed" in out
        assert "memo_hits" in out
