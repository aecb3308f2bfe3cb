"""E1 — Theorem 1: exact multiprocessor gap DP (optimality + runtime).

Regenerates the E1 table through the ``repro.api`` façade: the
DP matches the brute-force optimum on small instances, and its runtime on
medium instances is measured by pytest-benchmark.
"""

import pytest

from repro.api import Problem, solve
from repro.generators import random_multiprocessor_instance


def test_gap_dp_matches_brute_force_small(benchmark, small_multiproc_instance):
    problem = Problem(objective="gaps", instance=small_multiproc_instance)
    result = benchmark(solve, problem)
    assert result.solver == "gap-dp"
    brute = solve(problem, solver="brute-force-gaps")
    assert result.value == brute.value


def test_gap_dp_medium_instance(benchmark, medium_multiproc_instance):
    problem = Problem(objective="gaps", instance=medium_multiproc_instance)
    result = benchmark(solve, problem)
    schedule = result.require_schedule()
    schedule.validate()
    assert schedule.num_gaps() == result.value


@pytest.mark.parametrize("n,p", [(8, 1), (8, 2), (12, 2), (16, 2)])
def test_gap_dp_scaling(benchmark, n, p):
    instance = random_multiprocessor_instance(
        num_jobs=n, num_processors=p, horizon=3 * n, max_window=n, seed=n * 31 + p
    )
    result = benchmark(solve, Problem(objective="gaps", instance=instance))
    assert result.feasible


def test_gap_dp_bursty_workload(benchmark, bursty_instance):
    result = benchmark(solve, Problem(objective="gaps", instance=bursty_instance))
    assert result.feasible
    # A bursty trace with enough cores needs no more than one gap per burst
    # boundary per used core.
    assert result.value <= 4 * bursty_instance.num_processors
