"""Regenerate every experiment table (E1-E12) at smoke scale under timing.

This is the single entry point that corresponds to "regenerate every table
of the evaluation": it runs the same harness functions as
``repro-sched experiment`` and asserts that every correspondence / bound
column reports success.
"""

import pytest

from repro.analysis import ALL_EXPERIMENTS, run_experiment

_CHECK_COLUMNS = ("match", "within_bound", "relation_holds", "within_3x", "sqrt_bound_ok")


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:])))
def test_experiment_table(benchmark, experiment_id):
    table = benchmark(run_experiment, experiment_id, "smoke")
    assert table.rows
    for column in _CHECK_COLUMNS:
        if column in table.columns:
            values = [v for v in table.column(column) if v is not None and v != "-"]
            assert all(value == "yes" for value in values), (
                f"{experiment_id} column {column} reports a failure: {values}"
            )
