"""Tests for the portfolio bench family and --filter."""

import copy
import json

import pytest

from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA,
    BenchSchemaError,
    compare_reports,
    portfolio_cases,
    run_bench,
    validate_report,
)


@pytest.fixture(scope="module")
def portfolio_report():
    """One shared quick portfolio bench run for the module."""
    return run_bench(
        quick=True,
        repeats=1,
        warmup=0,
        portfolio=True,
        name_filter=r"^portfolio/",
    )


class TestPortfolioCases:
    def test_quick_is_a_prefix_of_full(self):
        quick = [case.name for case in portfolio_cases(quick=True)]
        full = [case.name for case in portfolio_cases(quick=False)]
        assert quick == full[: len(quick)]

    def test_cases_are_marked_portfolio_with_budgets(self):
        for case in portfolio_cases(quick=False):
            assert case.portfolio
            assert case.budget is not None and case.budget > 0
            assert case.name.startswith("portfolio/")

    def test_full_matrix_reaches_100k_jobs(self):
        assert any(
            case.num_jobs >= 100_000 for case in portfolio_cases(quick=False)
        )


class TestPortfolioBenchRun:
    def test_report_is_schema_valid(self, portfolio_report):
        validate_report(portfolio_report)
        assert portfolio_report["schema"] == BENCH_SCHEMA

    def test_portfolio_block_shape(self, portfolio_report):
        cases = portfolio_report["cases"]
        assert cases and all(c["portfolio"] is not None for c in cases)
        for case in cases:
            block = case["portfolio"]
            assert block["budget"] > 0
            assert block["status"] in ("optimal", "approximate")
            member_names = [m["name"] for m in block["members"]]
            assert block["winner"] in member_names
            assert block["upper"] is not None
            if block["lower"] is not None:
                assert block["lower"] <= block["upper"] + 1e-9
            assert block["backend"] in ("serial", "thread", "process")
            assert isinstance(block["preemptive"], bool)
            for member in block["members"]:
                assert member["state"] in ("ran", "killed", "cancelled")
                if member["state"] == "ran":
                    assert member["wall_time"] >= 0
                    assert member["kill_reason"] is None
                else:
                    assert member["kill_reason"] in (
                        "beaten", "deadline", "admission", "error"
                    )

    def test_dp_columns_are_null(self, portfolio_report):
        for case in portfolio_report["cases"]:
            assert case["host"] is None
            assert case["engine_per_host"] is None
            assert case["decomposed"] is None
            assert case["engine"]["median"] > 0

    def test_regular_cases_have_null_portfolio_block(self):
        report = run_bench(quick=True, repeats=1, warmup=0)
        for case in report["cases"]:
            assert case["portfolio"] is None

    def test_tampered_portfolio_block_rejected(self, portfolio_report):
        bad = copy.deepcopy(portfolio_report)
        bad["cases"][0]["portfolio"]["budget"] = 0
        with pytest.raises(BenchSchemaError):
            validate_report(bad)
        bad = copy.deepcopy(portfolio_report)
        bad["cases"][0]["portfolio"]["members"][0]["state"] = "vanished"
        with pytest.raises(BenchSchemaError):
            validate_report(bad)


class TestCompareSkipsPortfolio:
    def test_portfolio_cases_are_skipped_not_gated(self, portfolio_report):
        # Wall time is pinned by the budget, so even a wildly "slower"
        # current report must not flag a portfolio case.
        slower = copy.deepcopy(portfolio_report)
        for case in slower["cases"]:
            case["engine"] = {
                key: (value * 100 if isinstance(value, float) else value)
                for key, value in case["engine"].items()
            }
        outcome = compare_reports(slower, portfolio_report)
        assert not outcome["regressions"]
        assert not outcome["compared"]
        # Counted apart from the sub-noise-floor skips.
        assert not outcome["skipped"]
        assert set(outcome["portfolio"]) == {
            case["name"] for case in portfolio_report["cases"]
        }


class TestNameFilter:
    def test_filter_narrows_the_matrix(self):
        report = run_bench(
            quick=True, repeats=1, warmup=0, name_filter="uniform"
        )
        assert report["cases"]
        assert all("uniform" in case["name"] for case in report["cases"])

    def test_filtered_run_solves_the_unfiltered_instances(self):
        # Instance seeds follow the full matrix order, so the value gate
        # can compare a filtered run with a committed full report.
        full = {c["name"]: c for c in run_bench(quick=True, repeats=1, warmup=0)["cases"]}
        narrow = run_bench(quick=True, repeats=1, warmup=0, name_filter="^power/")
        assert narrow["cases"]
        for case in narrow["cases"]:
            assert case["value"] == full[case["name"]]["value"]
            assert case["engine_stats"] == full[case["name"]]["engine_stats"]

    def test_filter_with_no_match_raises(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, repeats=1, warmup=0, name_filter="zebra")


class TestPortfolioBenchCLI:
    def test_bench_filter_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--filter",
                "uniform",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        assert all("uniform" in case["name"] for case in report["cases"])

    def test_bench_filter_no_match_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--filter", "zebra", "--out", str(tmp_path / "b.json")])
        assert excinfo.value.code == 2

    def test_bench_portfolio_quick(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--portfolio",
                "--filter",
                "^portfolio/",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "raced" in captured and "winner" in captured
        with open(out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        validate_report(report)
        assert all(case["portfolio"] is not None for case in report["cases"])

    def test_bench_check_rejects_portfolio_flags(self, tmp_path):
        for extra in (["--portfolio"], ["--filter", "dense"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--check", str(tmp_path / "x.json"), *extra])
            assert excinfo.value.code == 2
