"""Unit tests for metrics, reporting and the experiment harness."""

import pytest

from repro.core import MultiprocessorInstance, OneIntervalInstance, Schedule, solve_exact
from repro.analysis import (
    ALL_EXPERIMENTS,
    ExperimentTable,
    approximation_ratio,
    format_table,
    gap_statistics,
    power_breakdown,
    render_tables,
    run_experiment,
    schedule_summary,
)

#: The columns in which an experiment table reports a checked correspondence
#: or bound; every value other than ``-`` must read ``yes``.
_CHECK_COLUMNS = ("match", "within_bound", "relation_holds", "within_3x", "sqrt_bound_ok")


class TestMetrics:
    def test_approximation_ratio(self):
        assert approximation_ratio(6, 3) == 2.0
        assert approximation_ratio(0, 0) == 1.0
        assert approximation_ratio(3, 0) == float("inf")
        with pytest.raises(ValueError):
            approximation_ratio(-1, 1)

    def make_schedule(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (3, 3), (4, 4)])
        return Schedule(instance=instance, assignment={0: 0, 1: 3, 2: 4})

    def test_gap_statistics_single(self):
        stats = gap_statistics(self.make_schedule())
        assert stats["num_gaps"] == 1
        assert stats["total_idle"] == 2
        assert stats["max_gap_length"] == 2

    def test_gap_statistics_multiproc(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 0), (2, 2), (0, 0)], num_processors=2
        )
        schedule = solve_exact(instance, "gaps").schedule
        stats = gap_statistics(schedule)
        assert stats["num_gaps"] == schedule.num_gaps()

    def test_power_breakdown_totals(self):
        schedule = self.make_schedule()
        for alpha in (0.5, 3.0):
            breakdown = power_breakdown(schedule, alpha=alpha)
            assert breakdown["total"] == pytest.approx(schedule.power_cost(alpha))

    def test_schedule_summary(self):
        summary = schedule_summary(self.make_schedule(), alpha=1.0)
        assert summary["jobs_scheduled"] == 3
        assert summary["num_gaps"] == 1
        assert "power" in summary


class TestReporting:
    def test_add_row_checks_arity(self):
        table = ExperimentTable("EX", "title", columns=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_table_contains_all_cells(self):
        table = ExperimentTable("EX", "demo", columns=["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("beta", None)
        text = format_table(table)
        assert "alpha" in text and "1.5" in text and "-" in text
        assert text.splitlines()[0].startswith("[EX]")

    def test_column_accessor(self):
        table = ExperimentTable("EX", "demo", columns=["x"])
        table.add_row(3)
        table.add_row(4)
        assert table.column("x") == [3, 4]

    def test_render_tables_joins(self):
        t1 = ExperimentTable("E1", "one", columns=["a"])
        t2 = ExperimentTable("E2", "two", columns=["a"])
        text = render_tables([t1, t2])
        assert "[E1]" in text and "[E2]" in text


class TestExperimentHarness:
    def test_registry_contains_all_twelve(self):
        assert sorted(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 13)] or len(ALL_EXPERIMENTS) == 12

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    @pytest.mark.parametrize(
        "experiment_id", sorted(ALL_EXPERIMENTS, key=lambda key: int(key[1:]))
    )
    def test_smoke_scale_experiments_report_success(self, experiment_id):
        table = run_experiment(experiment_id, scale="smoke")
        assert table.rows, f"{experiment_id} produced no rows"
        for column in _CHECK_COLUMNS:
            if column in table.columns:
                values = [v for v in table.column(column) if v is not None and v != "-"]
                assert all(value == "yes" for value in values), (
                    f"{experiment_id} column {column} reports a failure: {values}"
                )

    def test_e3_within_bound(self):
        table = run_experiment("E3", scale="smoke")
        assert all(value == "yes" for value in table.column("within_bound"))

    def test_e6_relation_holds(self):
        table = run_experiment("E6", scale="smoke")
        assert all(value == "yes" for value in table.column("relation_holds"))
