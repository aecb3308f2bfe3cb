"""Batch execution tests: ordering, determinism, serial/parallel equivalence."""

import pytest

from repro.api import Problem, solve, solve_batch, to_json
from repro.generators import (
    random_multi_interval_instance,
    random_multiprocessor_instance,
    random_one_interval_instance,
)


def generated_workload(count=50):
    """A mixed 50-problem workload covering all objectives and instance types."""
    problems = []
    for seed in range(count):
        kind = seed % 3
        if kind == 0:
            instance = random_one_interval_instance(
                num_jobs=6, horizon=18, max_window=5, seed=seed
            )
            problems.append(Problem(objective="gaps", instance=instance))
        elif kind == 1:
            instance = random_multiprocessor_instance(
                num_jobs=5, num_processors=2, horizon=12, max_window=5, seed=seed
            )
            problems.append(
                Problem(objective="power", instance=instance, alpha=1.0 + seed % 4)
            )
        else:
            instance = random_multi_interval_instance(
                num_jobs=5, horizon=15, intervals_per_job=2, interval_length=2, seed=seed
            )
            problems.append(
                Problem(objective="throughput", instance=instance, max_gaps=1 + seed % 3)
            )
    return problems


class TestSolveBatch:
    def test_serial_matches_individual_solves(self):
        problems = generated_workload(9)
        batch = solve_batch(problems)
        assert batch == [solve(problem) for problem in problems]

    def test_results_in_input_order(self):
        problems = generated_workload(12)
        results = solve_batch(problems, workers=3)
        assert len(results) == len(problems)
        for problem, result in zip(problems, results):
            assert result.objective == problem.objective

    def test_parallel_byte_identical_to_serial_on_50_instances(self):
        problems = generated_workload(50)
        serial = solve_batch(problems)
        parallel = solve_batch(problems, workers=4)
        assert serial == parallel
        serial_bytes = [to_json(result).encode() for result in serial]
        parallel_bytes = [to_json(result).encode() for result in parallel]
        assert serial_bytes == parallel_bytes

    def test_explicit_solver_applies_to_all(self):
        instances = [
            random_one_interval_instance(num_jobs=5, horizon=15, max_window=4, seed=s)
            for s in range(4)
        ]
        problems = [Problem(objective="gaps", instance=i) for i in instances]
        results = solve_batch(problems, solver="greedy-gap", workers=2)
        assert all(result.solver == "greedy-gap" for result in results)

    def test_empty_batch(self):
        assert solve_batch([]) == []

    def test_workers_one_is_serial(self):
        problems = generated_workload(3)
        assert solve_batch(problems, workers=1) == solve_batch(problems)


class TestErrorPaths:
    """Satellite coverage: per-task error capture and degenerate inputs."""

    def test_unknown_solver_yields_error_results_serially(self):
        problems = generated_workload(2)
        results = solve_batch(problems, solver="no-such-solver")
        assert [r.status for r in results] == ["error", "error"]
        for result in results:
            assert result.value is None and result.schedule is None
            assert result.extra["error_type"] == "SolverError"
            assert "no-such-solver" in result.extra["error"]
            assert "Traceback" in result.extra["traceback"]

    def test_worker_exception_becomes_error_result_in_pool(self):
        problems = generated_workload(4)
        results = solve_batch(problems, solver="no-such-solver", workers=2)
        assert len(results) == 4
        assert all(r.status == "error" for r in results)
        assert all("no-such-solver" in r.extra["error"] for r in results)

    def test_incapable_solver_fails_per_task_not_per_batch(self):
        # greedy-gap only accepts OneIntervalInstance; the workload mixes in
        # multiprocessor and multi-interval problems.  Those tasks fail, the
        # one-interval tasks still solve — one crashed worker task no longer
        # poisons the batch.
        problems = generated_workload(6)
        results = solve_batch(problems, solver="greedy-gap", workers=2)
        assert len(results) == 6
        for problem, result in zip(problems, results):
            if problem.objective == "gaps":  # the one-interval slice
                assert result.status in ("optimal", "approximate")
                assert result.solver == "greedy-gap"
            else:
                assert result.status == "error"
                assert result.extra["error_type"] == "SolverError"

    def test_error_results_raise_for_status(self):
        from repro.core.exceptions import SolverError

        result = solve_batch(generated_workload(1), solver="no-such-solver")[0]
        assert not result.feasible
        with pytest.raises(SolverError):
            result.raise_for_status()

    def test_empty_batch_with_many_workers(self):
        assert solve_batch([], workers=8) == []

    def test_single_problem_with_many_workers(self):
        problems = generated_workload(1)
        assert solve_batch(problems, workers=8) == [solve(problems[0])]

    def test_workers_one_equals_workers_n(self):
        problems = generated_workload(15)
        assert solve_batch(problems, workers=1) == solve_batch(problems, workers=3)

    def test_infeasible_problems_survive_the_pool(self):
        from repro.api import OneIntervalInstance

        clash = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        problems = [Problem(objective="gaps", instance=clash)] * 3
        for result in solve_batch(problems, workers=2):
            assert result.status == "infeasible"
            assert result.value is None and result.schedule is None
