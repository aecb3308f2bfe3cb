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


@pytest.fixture(scope="module")
def quick_report():
    """One shared quick bench run (repeats=1, no warmup) for the module."""
    return run_bench(quick=True, repeats=1, warmup=0)


class TestRunner:
    def test_quick_report_is_schema_valid(self, quick_report):
        validate_report(quick_report)
        assert quick_report["schema"] == BENCH_SCHEMA
        assert quick_report["quick"] is True

    def test_every_case_has_all_three_columns(self, quick_report):
        seedless = {c.name for c in default_cases(quick=True) if not c.seed_baseline}
        for case in quick_report["cases"]:
            if case["name"] in seedless:
                assert case["baseline"] is None and case["speedup"] is None
            else:
                assert case["baseline"] is not None
                assert case["speedup"] > 0
            assert case["engine_v1"] is not None
            assert case["speedup_vs_v1"] > 0
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

    def test_engine_only_mode_has_null_columns(self):
        cases = [BenchCase("gap/tiny", "gaps", "uniform", 4, 1, 6)]
        report = run_bench(
            quick=True,
            repeats=1,
            warmup=0,
            baseline=False,
            compare_v1=False,
            cases=cases,
        )
        validate_report(report)
        case = report["cases"][0]
        assert case["baseline"] is None and case["speedup"] is None
        assert case["engine_v1"] is None and case["speedup_vs_v1"] is None

    def test_case_level_seed_baseline_skip(self):
        cases = [
            BenchCase("gap/tiny", "gaps", "uniform", 4, 1, 6, seed_baseline=False)
        ]
        report = run_bench(quick=True, repeats=1, warmup=0, cases=cases)
        case = report["cases"][0]
        assert case["baseline"] is None and case["speedup"] is None
        assert case["engine_v1"] is not None  # v1 comparison still runs

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
        del broken["cases"][0]["speedup"]
        with pytest.raises(BenchSchemaError, match="missing keys"):
            validate_report(broken)

    def test_v1_column_without_ratio_is_drift(self, quick_report):
        broken = json.loads(json.dumps(quick_report))
        broken["cases"][0]["speedup_vs_v1"] = None
        with pytest.raises(BenchSchemaError, match="speedup_vs_v1"):
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


def _gateable_report(report, drop_v1=False):
    """A deep copy with medians floored above the noise floor (and the v1
    column optionally removed, forcing the absolute-median fallback)."""
    copied = json.loads(json.dumps(report))
    for case in copied["cases"]:
        case["engine"]["median"] = max(case["engine"]["median"], 0.01)
        if drop_v1:
            case["engine_v1"] = None
            case["speedup_vs_v1"] = None
    return copied


class TestRegressionGate:
    def test_identical_reports_pass(self, quick_report):
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        outcome = compare_reports(fresh, committed)
        assert outcome["regressions"] == []
        assert outcome["compared"]
        assert outcome["unmatched"] == []

    def test_shrunk_v1_speedup_is_a_regression(self, quick_report):
        # The primary metric is the within-run v2-over-v1 speedup from
        # best-of-runs (machine independent); v2 slowing to half its
        # advantage must flag.
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        for case in fresh["cases"]:
            case["engine"]["best"] *= 2.0
        outcome = compare_reports(fresh, committed, threshold=1.25)
        assert outcome["regressions"]
        worst = outcome["regressions"][0]
        assert worst["metric"] == "speedup_vs_v1"
        assert worst["ratio"] == pytest.approx(2.0)

    def test_uniformly_slower_machine_does_not_flag(self, quick_report):
        # Same v2-over-v1 advantage, 3x slower absolute timings (a slower
        # CI runner): not a regression.
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        for case in fresh["cases"]:
            for block in (case["engine"], case["engine_v1"]):
                block["best"] *= 3.0
                block["median"] *= 3.0
        assert compare_reports(fresh, committed)["regressions"] == []

    def test_median_fallback_without_v1_column(self, quick_report):
        committed = _gateable_report(quick_report, drop_v1=True)
        fresh = json.loads(json.dumps(committed))
        for case in fresh["cases"]:
            case["engine"]["median"] *= 2.0
        outcome = compare_reports(fresh, committed, threshold=1.25)
        assert outcome["regressions"]
        worst = outcome["regressions"][0]
        assert worst["metric"] == "engine_median"
        assert worst["ratio"] == pytest.approx(2.0)

    def test_speedup_never_flags(self, quick_report):
        committed = _gateable_report(quick_report, drop_v1=True)
        fresh = json.loads(json.dumps(committed))
        for case in fresh["cases"]:
            case["engine"]["median"] *= 0.5
        assert compare_reports(fresh, committed)["regressions"] == []

    def test_noise_floor_skips_micro_cases(self, quick_report):
        committed = _gateable_report(quick_report)
        fresh = json.loads(json.dumps(committed))
        for case in fresh["cases"]:
            case["engine"]["best"] *= 100.0
        outcome = compare_reports(fresh, committed, min_median=1e9)
        assert outcome["regressions"] == []
        assert set(outcome["skipped"]) == {c["name"] for c in committed["cases"]}

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
        assert "v2" in captured and "seed" in captured
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
             "--warmup", "0", "--no-v1", "--no-baseline"]
        )
        capsys.readouterr()
        out = tmp_path / "fresh.json"
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup",
             "0", "--no-v1", "--no-baseline", "--compare", str(committed),
             "--threshold", "1000"]
        )
        assert code == 0
        assert "regression gate" in capsys.readouterr().out

    def test_bench_compare_fails_on_regression(self, tmp_path, capsys):
        committed = tmp_path / "committed.json"
        main(
            ["bench", "--quick", "--out", str(committed), "--repeats", "1",
             "--warmup", "0", "--no-v1", "--no-baseline"]
        )
        # Shrink the committed medians so the fresh run regresses massively
        # on every case above the noise floor.
        data = json.loads(committed.read_text())
        for case in data["cases"]:
            case["engine"]["median"] = 0.006
        committed.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "fresh.json"
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1", "--warmup",
             "0", "--no-v1", "--no-baseline", "--compare", str(committed),
             "--threshold", "0.0000001"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

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
                 "--warmup", "0", "--no-v1", "--no-baseline",
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
             "--warmup", "0", "--no-v1", "--no-baseline", "--append", str(history)]
        )
        capsys.readouterr()
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1",
             "--warmup", "0", "--no-v1", "--no-baseline",
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
                 "--warmup", "0", "--no-v1", "--no-baseline",
                 "--append", str(history)]
            )
        capsys.readouterr()
        code = main(
            ["bench", "--quick", "--out", str(out), "--repeats", "1",
             "--warmup", "0", "--no-v1", "--no-baseline",
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
             "--warmup", "0", "--no-v1", "--no-baseline"]
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
        # Acceptance: engine v2 at least doubles the v1 engine's median
        # across the n >= 40 exact cases that carry the v1 column (the
        # periodic splittable cases skip it), and every one of them improves
        # substantially on its own.
        ratios = [
            case["speedup_vs_v1"]
            for case in exact
            if case["speedup_vs_v1"] is not None
        ]
        assert ratios
        assert statistics.median(ratios) >= 2.0
        assert all(ratio >= 1.5 for ratio in ratios)
        # The frozen seed baseline column keeps the full trajectory.
        seeded = [case for case in exact if case["baseline"] is not None]
        assert seeded and all(case["speedup"] >= 1.5 for case in seeded)
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
