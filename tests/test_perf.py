"""Tests for the engine's timing gate, ``benchdp/``: runner, schema, history, gate.

``benchdp`` sits at the repository root and is imported by its package
name: its modules' bare names would collide with ``perfbench/``'s (both
have a ``report.py``).
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT))

from benchdp import run as bench_run  # noqa: E402
from benchdp.bench import (  # noqa: E402
    BenchCase,
    default_cases,
    host_kernel,
    run_bench,
    time_against_host,
    time_callable,
)
from benchdp.report import (  # noqa: E402
    BENCH_SCHEMA,
    HISTORY_SCHEMA,
    MIN_ENGINE_PER_HOST,
    BenchSchemaError,
    append_history,
    compare_reports,
    read_history,
    rolling_median_reference,
    validate_report,
    write_report,
)


@pytest.fixture(scope="module")
def quick_report():
    """One shared quick bench run (repeats=1, no warmup) for the module."""
    return run_bench(quick=True, repeats=1, warmup=0)


def make_report(median=0.01, name="gap/test-n10-p1"):
    """A minimal report that passes validate_report."""
    timing = {"best": median, "median": median, "mean": median, "runs": [median]}
    return {
        "schema": BENCH_SCHEMA,
        "engine": {"name": "interval-dp", "version": "v2"},
        "quick": True,
        "seed": 0,
        "repeats": 1,
        "warmup": 0,
        "environment": {
            "python": "3.11",
            "implementation": "CPython",
            "platform": "test",
        },
        "cases": [
            {
                "name": name,
                "objective": "gaps",
                "family": "uniform",
                "num_jobs": 10,
                "num_processors": 1,
                "alpha": None,
                "value": 2,
                "engine": dict(timing),
                "host": dict(timing),
                "engine_per_host": 1.0,
                "decomposed": None,
                "speedup_vs_mono": None,
                "engine_stats": {"states_computed": 5},
            }
        ],
    }


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

    def test_quick_run_solves_the_committed_instances(self, quick_report):
        # Instance seeds follow the matrix order, so the quick run solves the
        # first cases of the committed full report and the value gate can
        # compare them.
        committed = json.loads((ROOT / "BENCH_dp.json").read_text())
        by_name = {case["name"]: case for case in committed["cases"]}
        for case in quick_report["cases"]:
            assert case["value"] == by_name[case["name"]]["value"]
            assert case["engine_stats"] == by_name[case["name"]]["engine_stats"]

    def test_bad_timing_discipline_rejected(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, repeats=0, warmup=1)

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

    def test_case_carrying_portfolio_is_drift(self, quick_report):
        # v9 dropped the budget-raced portfolio block, null or not.
        for block in (None, {"budget": 1.0, "status": "optimal"}):
            broken = json.loads(json.dumps(quick_report))
            broken["cases"][0]["portfolio"] = block
            with pytest.raises(BenchSchemaError, match="unexpected keys"):
                validate_report(broken)

    def test_null_host_is_drift(self, quick_report):
        # Every v9 case carries the host column and its ratio.
        broken = json.loads(json.dumps(quick_report))
        broken["cases"][0]["host"] = None
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
        data = json.loads(path.read_text())
        validate_report(data)
        assert data == json.loads(json.dumps(quick_report))


def _scale(block, factor):
    block["runs"] = [run * factor for run in block["runs"]]
    for stat in ("best", "median", "mean"):
        block[stat] *= factor


def _recompute_ratio(case):
    case["engine_per_host"] = statistics.median(
        e / h for e, h in zip(case["engine"]["runs"], case["host"]["runs"])
    )


def _gateable_report(report):
    """A deep copy whose engine runs are lifted well above the noise floor."""
    copied = json.loads(json.dumps(report))
    for case in copied["cases"]:
        lift = 20 * MIN_ENGINE_PER_HOST / case["engine_per_host"]
        _scale(case["engine"], max(1.0, lift))
        _recompute_ratio(case)
    return copied


def _rescaled(report, engine_factor, host_factor):
    """A copy whose engine and host runs are scaled, ratios recomputed as
    the runner computes them."""
    copied = json.loads(json.dumps(report))
    for case in copied["cases"]:
        _scale(case["engine"], engine_factor)
        _scale(case["host"], host_factor)
        _recompute_ratio(case)
    return copied


def _below_floor(report):
    """A copy whose every reference ratio sits under the noise floor."""
    copied = json.loads(json.dumps(report))
    for case in copied["cases"]:
        case["engine_per_host"] = MIN_ENGINE_PER_HOST / 2
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
        outcome = compare_reports(fresh, committed)
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
        committed = _below_floor(quick_report)
        fresh = _rescaled(committed, engine_factor=100.0, host_factor=1.0)
        outcome = compare_reports(fresh, committed)
        assert outcome["regressions"] == []
        assert set(outcome["skipped"]) == {c["name"] for c in committed["cases"]}

    def test_noise_floor_is_relative_to_the_host_kernel(self):
        # A 4 ms case at ratio 0.7 is timed, however few seconds it takes;
        # a 50 ms case at ratio 0.02 (a slow host) is not.
        reference = make_report(median=0.004, name="gap/short-but-gated")
        reference["cases"][0]["engine_per_host"] = 0.7
        slow_host = make_report(median=0.05, name="gap/tiny-on-a-slow-host")
        slow_host["cases"][0]["engine_per_host"] = 0.02
        reference["cases"] += slow_host["cases"]
        fresh = json.loads(json.dumps(reference))
        for case in fresh["cases"]:
            case["engine_per_host"] *= 2.0
        outcome = compare_reports(fresh, reference)
        assert outcome["compared"] == ["gap/short-but-gated"]
        assert outcome["skipped"] == ["gap/tiny-on-a-slow-host"]
        assert [r["name"] for r in outcome["regressions"]] == ["gap/short-but-gated"]

    def test_changed_value_is_flagged(self, quick_report):
        # Values are checked on every shared case, below the noise floor
        # too; a feasibility flip counts as a changed value, a difference
        # inside the tolerance does not.
        committed = _below_floor(quick_report)
        fresh = json.loads(json.dumps(committed))
        feasible = [c for c in fresh["cases"] if c["value"] is not None]
        infeasible = next(c for c in fresh["cases"] if c["value"] is None)
        feasible[0]["value"] += 1
        for case in feasible[1:]:
            case["value"] += 1e-9
        infeasible["value"] = 0.0
        outcome = compare_reports(fresh, committed)
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


@pytest.fixture
def gate_dir(tmp_path, monkeypatch):
    """An empty working directory for the entry point."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _times(monkeypatch, report):
    """Make the entry point "time" ``report``; returns the calls it makes."""
    calls = []

    def fake_run_bench(quick, repeats, warmup, progress=None):
        calls.append((quick, repeats, warmup))
        timed = json.loads(json.dumps(report))
        timed.update(quick=quick, repeats=repeats, warmup=warmup)
        for record in timed["cases"]:
            progress(record)
        return timed

    monkeypatch.setattr(bench_run, "run_bench", fake_run_bench)
    return calls


def _history(*reports):
    for report in reports:
        append_history(report, "BENCH_history.jsonl")


class TestBenchCLI:
    def test_bench_quick_writes_valid_report(
        self, gate_dir, monkeypatch, capsys, quick_report
    ):
        _history(quick_report)
        calls = _times(monkeypatch, quick_report)
        assert bench_run.main(["--quick"]) == 0
        assert calls == [(True, 5, 1)]
        captured = capsys.readouterr().out
        assert "engine" in captured and "host" in captured
        data = json.loads((gate_dir / "BENCH_smoke.json").read_text())
        validate_report(data)
        assert data["quick"] is True
        assert not (gate_dir / "BENCH_dp.json").exists()

    def test_bench_compare_passes_against_itself(
        self, gate_dir, monkeypatch, capsys, quick_report
    ):
        report = _gateable_report(quick_report)
        _history(report)
        _times(monkeypatch, report)
        assert bench_run.main(["--quick"]) == 0
        captured = capsys.readouterr().out
        assert "regression gate" in captured
        assert "no case regressed" in captured

    def test_bench_compare_fails_on_regression(
        self, gate_dir, monkeypatch, capsys, quick_report
    ):
        # Every recorded ratio is a hundredth of the fresh one.
        reference = _gateable_report(quick_report)
        _history(reference)
        fresh = _rescaled(reference, engine_factor=100.0, host_factor=1.0)
        _times(monkeypatch, fresh)
        assert bench_run.main(["--quick"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_compare_fails_on_changed_optimum(
        self, gate_dir, monkeypatch, capsys, quick_report
    ):
        reference = json.loads(json.dumps(quick_report))
        reference["cases"][0]["value"] += 1
        _history(reference)
        _times(monkeypatch, quick_report)
        assert bench_run.main(["--quick"]) == 1
        out = capsys.readouterr().out
        assert f"REGRESSION {reference['cases'][0]['name']}: optimum" in out

    def test_bench_median_window_gates_on_rolling_reference(
        self, gate_dir, monkeypatch, capsys, quick_report
    ):
        # Only the median of exactly the last five entries (three at the
        # fresh ratios, two at a tenth of them) passes; the older entries,
        # the latest entry alone, or any other window would fail.
        fresh = _gateable_report(quick_report)
        fast = _rescaled(fresh, engine_factor=0.1, host_factor=1.0)
        _history(fast, fast, fast, fresh, fresh, fresh, fast, fast)
        _times(monkeypatch, fresh)
        assert bench_run.main(["--quick"]) == 0
        captured = capsys.readouterr().out
        assert "rolling median of last 5 entries" in captured
        assert "regression gate" in captured

    def test_quick_without_history_is_usage_error(
        self, gate_dir, monkeypatch, quick_report
    ):
        calls = _times(monkeypatch, quick_report)
        with pytest.raises(SystemExit) as excinfo:
            bench_run.main(["--quick"])
        assert excinfo.value.code == 2
        assert calls == []  # the reference is read before anything is timed

    def test_drifted_report_fails_before_it_is_written(
        self, gate_dir, monkeypatch, quick_report
    ):
        _history(quick_report)
        drifted = json.loads(json.dumps(quick_report))
        del drifted["cases"][0]["engine_stats"]
        _times(monkeypatch, drifted)
        with pytest.raises(BenchSchemaError, match="missing keys"):
            bench_run.main(["--quick"])
        assert not (gate_dir / "BENCH_smoke.json").exists()

    def test_bench_append_writes_history_line(
        self, gate_dir, monkeypatch, capsys, quick_report
    ):
        calls = _times(monkeypatch, quick_report)
        for _ in range(2):
            assert bench_run.main([]) == 0
        assert calls == [(False, 3, 1)] * 2
        assert "history appended" in capsys.readouterr().out
        entries = read_history("BENCH_history.jsonl")
        assert len(entries) == 2
        assert not any(entry["quick"] for entry in entries)
        report = json.loads((gate_dir / "BENCH_dp.json").read_text())
        validate_report(report)
        assert report == entries[-1]["report"]

    def test_quick_is_the_only_option(self, tmp_path):
        # Run as CI runs it: the script finds the package and the engine of
        # its own checkout, whatever the working directory.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(ROOT / "benchdp" / "run.py"), "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(tmp_path),
            env=env,
        )
        assert done.returncode == 0, done.stderr
        options = [
            line.split()[0].rstrip(",")
            for line in done.stdout.splitlines()
            if line.lstrip().startswith("-")
        ]
        assert options == ["-h", "--quick"]

    def test_committed_report_is_schema_valid(self):
        # BENCH_dp.json at the repo root is a released artifact; the gate
        # fails on drift, and so does the tier-1 suite.
        data = json.loads((ROOT / "BENCH_dp.json").read_text())
        validate_report(data)
        assert data["quick"] is False
        medium = [
            case
            for case in data["cases"]
            if case["num_jobs"] >= 40 and case["num_processors"] >= 3
        ]
        assert medium, "full report must include the medium instances"
        exact = [case for case in medium if case["value"] is not None]
        assert exact, "full report must include exactly-solved n >= 40 cases"
        # Acceptance for decomposition: on the large splittable families,
        # the decomposed facade (components inline, cold cache) beats the
        # monolithic v2 engine by >= 1.5x wall clock.
        headline = [
            case
            for case in data["cases"]
            if case["family"] == "splittable" and case["num_jobs"] >= 60
        ]
        assert headline, "full report must include the large splittable cases"
        assert all(case["speedup_vs_mono"] >= 1.5 for case in headline)


class TestAppend:
    def test_append_writes_one_line_per_run(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        entry = append_history(make_report(), path, timestamp="2026-08-07T00:00:00+00:00")
        append_history(make_report(median=0.02), path, timestamp="2026-08-07T01:00:00+00:00")
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["engine_version"] == "v2"
        assert entry["cases"] == 1
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)  # each line is self-contained JSON
            assert parsed["schema"] == HISTORY_SCHEMA

    def test_append_stamps_current_utc_time_by_default(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        entry = append_history(make_report(), path)
        assert "+00:00" in entry["timestamp"]

    def test_append_rejects_invalid_report(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        with pytest.raises(BenchSchemaError):
            append_history({"schema": "wrong"}, path)
        assert not (tmp_path / "HISTORY.jsonl").exists()  # nothing written


class TestRead:
    def test_read_returns_entries_oldest_first(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.01), path, timestamp="t1")
        append_history(make_report(median=0.02), path, timestamp="t2")
        entries = read_history(path)
        assert [e["timestamp"] for e in entries] == ["t1", "t2"]

    def test_read_tolerates_blank_lines(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        append_history(make_report(), str(path), timestamp="t1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(read_history(str(path))) == 1

    def test_read_rejects_garbage_with_line_number(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        append_history(make_report(), str(path), timestamp="t1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(BenchSchemaError, match=":2"):
            read_history(str(path))

    def test_read_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "something/else"}\n')
        with pytest.raises(BenchSchemaError, match="entry"):
            read_history(str(path))


class TestRollingMedian:
    def test_window_medians_each_timing_field(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        for ts, median in [("t1", 0.01), ("t2", 0.05), ("t3", 0.03)]:
            append_history(make_report(median=median), path, timestamp=ts)
        reference, used = rolling_median_reference(path, 3)
        assert used == 3
        validate_report(reference)
        block = reference["cases"][0]["engine"]
        assert block["median"] == pytest.approx(0.03)
        assert block["best"] == pytest.approx(0.03)
        assert block["runs"] == [pytest.approx(0.03)]

    def test_window_larger_than_history_uses_everything(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.01), path, timestamp="t1")
        append_history(make_report(median=0.09), path, timestamp="t2")
        reference, used = rolling_median_reference(path, 50)
        assert used == 2
        # Even-count median of [0.01, 0.09].
        assert reference["cases"][0]["engine"]["median"] == pytest.approx(0.05)

    def test_window_of_one_is_the_latest_entry(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.01), path, timestamp="t1")
        append_history(make_report(median=0.07), path, timestamp="t2")
        reference, used = rolling_median_reference(path, 1)
        assert used == 1
        assert reference["cases"][0]["engine"]["median"] == 0.07

    def test_older_schema_entries_are_skipped(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        old = make_report(median=1.0)
        old["schema"] = "repro.perf/bench-dp/v2"
        entry = {
            "schema": HISTORY_SCHEMA,
            "timestamp": "t0",
            "engine_version": "v2",
            "quick": True,
            "cases": 1,
            "report": old,
        }
        path.write_text(json.dumps(entry) + "\n")
        append_history(make_report(median=0.02), str(path), timestamp="t1")
        reference, used = rolling_median_reference(str(path), 10)
        assert used == 1  # the v2-schema entry must not be coerced in
        assert reference["cases"][0]["engine"]["median"] == 0.02

    def test_no_current_schema_entries_raises(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        old = make_report()
        old["schema"] = "repro.perf/bench-dp/v2"
        entry = {
            "schema": HISTORY_SCHEMA,
            "timestamp": "t0",
            "engine_version": "v2",
            "quick": True,
            "cases": 1,
            "report": old,
        }
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(BenchSchemaError, match="no history entries"):
            rolling_median_reference(str(path), 3)

    def test_case_only_in_latest_keeps_its_numbers(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.01), path, timestamp="t1")
        newer = make_report(median=0.02)
        newer["cases"].append(
            dict(make_report(median=0.08, name="gap/new-case")["cases"][0])
        )
        append_history(newer, path, timestamp="t2")
        reference, _used = rolling_median_reference(path, 5)
        by_name = {case["name"]: case for case in reference["cases"]}
        assert by_name["gap/new-case"]["engine"]["median"] == 0.08

    def test_speedups_recomputed_from_synthesized_blocks(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        runs = [("t1", 0.01, 0.04, 3.0), ("t2", 0.03, 0.01, 1.0), ("t3", 0.02, 0.08, 9.0)]
        for ts, engine, decomposed, ratio in runs:
            report = make_report(median=engine)
            case = report["cases"][0]
            case["decomposed"] = {
                "best": decomposed, "median": decomposed, "mean": decomposed,
                "runs": [decomposed],
            }
            case["speedup_vs_mono"] = engine / decomposed
            case["engine_per_host"] = ratio
            append_history(report, path, timestamp=ts)
        reference, _used = rolling_median_reference(path, 3)
        case = reference["cases"][0]
        # median(engine) = 0.02, median(decomposed) = 0.04: the speedup is
        # recomputed from the synthesized blocks.  The gated ratio is the
        # median of the entries' own ratios (3.0), not a ratio of medians.
        assert case["engine"]["median"] == pytest.approx(0.02)
        assert case["decomposed"]["median"] == pytest.approx(0.04)
        assert case["speedup_vs_mono"] == pytest.approx(0.5)
        assert case["engine_per_host"] == pytest.approx(3.0)

    def test_bad_window_rejected(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(), path, timestamp="t1")
        with pytest.raises(ValueError, match="window"):
            rolling_median_reference(path, 0)
