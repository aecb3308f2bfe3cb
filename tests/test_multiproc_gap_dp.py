"""Unit tests for the exact multiprocessor gap solver (Theorem 1)."""

import random

import pytest

from repro.core import (
    InfeasibleInstanceError,
    MultiprocessorInstance,
    OneIntervalInstance,
    MultiprocessorGapSolver,
    solve_multiprocessor_gap,
)
from repro.core.brute_force import brute_force_gap_multiproc
from tests.conftest import random_window_pairs


class TestSmallInstances:
    def test_empty_instance(self):
        solution = solve_multiprocessor_gap(
            MultiprocessorInstance(jobs=[], num_processors=2)
        )
        assert solution.feasible and solution.num_gaps == 0

    def test_single_job(self):
        solution = solve_multiprocessor_gap(
            MultiprocessorInstance.from_pairs([(3, 7)], num_processors=1)
        )
        assert solution.num_gaps == 0
        assert solution.require_schedule().is_complete()

    def test_forced_gap(self):
        solution = solve_multiprocessor_gap(
            MultiprocessorInstance.from_pairs([(0, 0), (2, 2)], num_processors=1)
        )
        assert solution.num_gaps == 1

    def test_flexible_jobs_avoid_gaps(self):
        solution = solve_multiprocessor_gap(
            MultiprocessorInstance.from_pairs([(0, 5), (0, 5), (3, 8)], num_processors=1)
        )
        assert solution.num_gaps == 0

    def test_second_processor_removes_gaps(self):
        # Two jobs pinned to time 0 and one pinned to time 2: on one processor
        # this is infeasible; on two processors the optimum has one gap.
        pairs = [(0, 0), (0, 0), (2, 2)]
        single = MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        double = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        assert not solve_multiprocessor_gap(single).feasible
        solution = solve_multiprocessor_gap(double)
        assert solution.feasible and solution.num_gaps == 1

    def test_infeasible_reports_cleanly(self):
        solution = solve_multiprocessor_gap(
            MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1)
        )
        assert not solution.feasible
        assert solution.num_gaps is None
        with pytest.raises(InfeasibleInstanceError):
            solution.require_schedule()

    def test_accepts_one_interval_instance(self):
        solution = solve_multiprocessor_gap(OneIntervalInstance.from_pairs([(0, 2), (4, 6)]))
        assert solution.num_gaps == 1

    def test_schedule_matches_reported_value(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 4), (0, 2), (3, 6), (6, 9), (8, 10)], num_processors=2
        )
        solution = solve_multiprocessor_gap(instance)
        schedule = solution.require_schedule()
        schedule.validate()
        assert schedule.num_gaps() == solution.num_gaps

    def test_staircase_property_of_output(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (0, 3), (2, 4), (4, 5)], num_processors=3
        )
        schedule = solve_multiprocessor_gap(instance).require_schedule()
        profile = schedule.occupancy_profile()
        for _job, (proc, t) in schedule.assignment.items():
            assert proc <= profile[t]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        p = rng.randint(1, 3)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 9), max_window=4)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        dp = solve_multiprocessor_gap(instance, use_full_horizon=True)
        brute, _ = brute_force_gap_multiproc(instance)
        assert (dp.num_gaps if dp.feasible else None) == brute

    @pytest.mark.parametrize("seed", range(6))
    def test_candidate_columns_do_not_change_optimum(self, seed):
        rng = random.Random(100 + seed)
        pairs = []
        for _ in range(rng.randint(2, 5)):
            r = rng.randint(0, 40)
            pairs.append((r, r + rng.randint(0, 5)))
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        restricted = solve_multiprocessor_gap(instance, use_full_horizon=False)
        brute, _ = brute_force_gap_multiproc(instance)
        assert (restricted.num_gaps if restricted.feasible else None) == brute


class TestLemma1:
    def test_staircase_stacking_is_optimal_for_tiny_instances(self):
        # Lemma 1: re-stacking jobs onto prefix processors never increases gaps,
        # so the staircase brute force equals the exhaustive brute force.
        instance = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 2), (2, 3), (3, 3)], num_processors=2
        )
        stacked, _ = brute_force_gap_multiproc(instance)
        exhaustive, _ = brute_force_gap_multiproc(instance, exhaustive_processors=True)
        assert stacked == exhaustive


class TestSolverObject:
    def test_optimal_gaps_wrapper(self):
        solver = MultiprocessorGapSolver(
            MultiprocessorInstance.from_pairs([(0, 0), (5, 5)], num_processors=1)
        )
        assert solver.optimal_gaps() == 1

    def test_tables_are_reused_between_calls(self):
        solver = MultiprocessorGapSolver(
            MultiprocessorInstance.from_pairs([(0, 3), (1, 4), (2, 6)], num_processors=2)
        )
        first = solver.solve()
        tables_after_first = solver.engine._tables
        states_after_first = solver.engine.stats.states_computed
        second = solver.solve()
        assert first.num_gaps == second.num_gaps
        # The second solve re-reads the root from the same table pass; no
        # state is recomputed.
        assert solver.engine._tables is tables_after_first
        assert solver.engine.stats.states_computed == states_after_first
