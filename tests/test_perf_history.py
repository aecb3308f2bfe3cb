"""Tests for the benchmark history file (repro.perf.history)."""

import json

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    HISTORY_SCHEMA,
    BenchSchemaError,
    append_history,
    latest_history_report,
    load_comparison_report,
    read_history,
    rolling_median_reference,
    validate_report,
    write_report,
)


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
                "portfolio": None,
            }
        ],
    }


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


class TestLatest:
    def test_latest_is_last_entry(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.01), path, timestamp="t1")
        append_history(make_report(median=0.05), path, timestamp="t2")
        report = latest_history_report(path)
        assert report["cases"][0]["engine"]["median"] == 0.05

    def test_latest_on_empty_file_raises(self, tmp_path):
        path = tmp_path / "HISTORY.jsonl"
        path.write_text("\n")
        with pytest.raises(BenchSchemaError, match="no entries"):
            latest_history_report(str(path))


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


class TestLoadComparisonReport:
    def test_plain_report_file(self, tmp_path):
        path = str(tmp_path / "BENCH.json")
        write_report(make_report(), path)
        report, source = load_comparison_report(path)
        assert source == "report"
        assert report["schema"] == BENCH_SCHEMA

    def test_multi_line_history_file(self, tmp_path):
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.01), path, timestamp="t1")
        append_history(make_report(median=0.07), path, timestamp="t2")
        report, source = load_comparison_report(path)
        assert source == "history"
        assert report["cases"][0]["engine"]["median"] == 0.07

    def test_single_line_history_file(self, tmp_path):
        # One appended run parses as a single JSON document; dispatch must
        # still recognize it as history, not reject it as a bad report.
        path = str(tmp_path / "HISTORY.jsonl")
        append_history(make_report(median=0.03), path, timestamp="t1")
        report, source = load_comparison_report(path)
        assert source == "history"
        assert report["cases"][0]["engine"]["median"] == 0.03
