"""Unit tests for the exact multiprocessor gap solver (Theorem 1)."""

import random

import pytest

from repro.core import MultiprocessorInstance, OneIntervalInstance, Schedule, solve_exact
from repro.core.brute_force import brute_force_gap_multiproc
from repro.core.dp_profile import IntervalDecomposition
from repro.core.interval_dp import GapObjective, IntervalDPEngine
from repro.generators import random_multiprocessor_instance
from tests.conftest import full_horizon_engine, random_window_pairs


class TestSmallInstances:
    def test_empty_instance(self):
        solution = solve_exact(
            MultiprocessorInstance(jobs=[], num_processors=2), "gaps"
        )
        assert solution.feasible and solution.value == 0

    def test_single_job(self):
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(3, 7)], num_processors=1), "gaps"
        )
        assert solution.value == 0
        assert solution.schedule.is_complete()

    def test_forced_gap(self):
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(0, 0), (2, 2)], num_processors=1), "gaps"
        )
        assert solution.value == 1

    def test_flexible_jobs_avoid_gaps(self):
        instance = MultiprocessorInstance.from_pairs([(0, 5), (0, 5), (3, 8)], num_processors=1)
        solution = solve_exact(instance, "gaps")
        assert solution.value == 0

    def test_second_processor_removes_gaps(self):
        # Two jobs pinned to time 0 and one pinned to time 2: on one processor
        # this is infeasible; on two processors the optimum has one gap.
        pairs = [(0, 0), (0, 0), (2, 2)]
        single = MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        double = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        assert not solve_exact(single, "gaps").feasible
        solution = solve_exact(double, "gaps")
        assert solution.feasible and solution.value == 1

    def test_infeasible_reports_cleanly(self):
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1), "gaps"
        )
        assert not solution.feasible
        assert solution.value is None
        assert solution.schedule is None and solution.times is None

    def test_accepts_one_interval_instance(self):
        solution = solve_exact(OneIntervalInstance.from_pairs([(0, 2), (4, 6)]), "gaps")
        assert solution.value == 1
        assert type(solution.schedule) is Schedule

    def test_schedule_matches_reported_value(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 4), (0, 2), (3, 6), (6, 9), (8, 10)], num_processors=2
        )
        solution = solve_exact(instance, "gaps")
        schedule = solution.schedule
        schedule.validate()
        assert schedule.num_gaps() == solution.value

    def test_staircase_property_of_output(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (0, 3), (2, 4), (4, 5)], num_processors=3
        )
        schedule = solve_exact(instance, "gaps").schedule
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
        dp = full_horizon_engine(instance).solve()
        brute, _ = brute_force_gap_multiproc(instance)
        assert dp.value == brute

    @pytest.mark.parametrize("seed", range(6))
    def test_candidate_columns_do_not_change_optimum(self, seed):
        rng = random.Random(100 + seed)
        pairs = []
        for _ in range(rng.randint(2, 5)):
            r = rng.randint(0, 40)
            pairs.append((r, r + rng.randint(0, 5)))
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        restricted = solve_exact(instance, "gaps")
        brute, _ = brute_force_gap_multiproc(instance)
        assert restricted.value == brute


class TestScalingWorkloads:
    """The random workloads the runtime-scaling experiment (E11) times."""

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_workloads_growing_in_n_are_feasible(self, n):
        instance = random_multiprocessor_instance(
            num_jobs=n, num_processors=2, horizon=3 * n, max_window=n // 2 + 1, seed=n
        )
        assert solve_exact(instance, "gaps").feasible

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_workloads_growing_in_p_are_feasible(self, p):
        instance = random_multiprocessor_instance(
            num_jobs=10, num_processors=p, horizon=30, max_window=6, seed=p * 11
        )
        assert solve_exact(instance, "gaps").feasible


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
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(0, 0), (5, 5)], num_processors=1), "gaps"
        )
        assert solution.value == 1

    def test_tables_are_reused_between_calls(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 3), (1, 4), (2, 6)], num_processors=2
        )
        engine = IntervalDPEngine(IntervalDecomposition(instance), GapObjective(2))
        first = engine.solve()
        tables_after_first = engine._tables
        states_after_first = engine.stats.states_computed
        second = engine.solve()
        assert first.value == second.value
        # The second solve re-reads the root from the same table pass; no
        # state is recomputed.
        assert engine._tables is tables_after_first
        assert engine.stats.states_computed == states_after_first
