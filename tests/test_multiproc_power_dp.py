"""Unit tests for the exact multiprocessor power solver (Theorem 2)."""

import random

import pytest

from repro.core import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    MultiprocessorInstance,
    OneIntervalInstance,
    MultiprocessorPowerSolver,
    solve_multiprocessor_power,
)
from repro.core.brute_force import brute_force_power_multiproc
from tests.conftest import random_window_pairs


class TestSmallInstances:
    def test_empty_instance(self):
        solution = solve_multiprocessor_power(
            MultiprocessorInstance(jobs=[], num_processors=1), alpha=2.0
        )
        assert solution.feasible and solution.power == 0.0

    def test_single_job_costs_execution_plus_wakeup(self):
        solution = solve_multiprocessor_power(
            MultiprocessorInstance.from_pairs([(4, 9)], num_processors=1), alpha=3.0
        )
        assert solution.power == pytest.approx(1 + 3)

    def test_short_gap_is_bridged(self):
        # Jobs pinned at 0 and 2 with alpha=5: staying active through the gap
        # (cost 1) beats a second wake-up (cost 5).
        solution = solve_multiprocessor_power(
            MultiprocessorInstance.from_pairs([(0, 0), (2, 2)], num_processors=1),
            alpha=5.0,
        )
        assert solution.power == pytest.approx(2 + 5 + 1)

    def test_long_gap_sleeps(self):
        solution = solve_multiprocessor_power(
            MultiprocessorInstance.from_pairs([(0, 0), (10, 10)], num_processors=1),
            alpha=2.0,
        )
        assert solution.power == pytest.approx(2 + 2 + 2)

    def test_alpha_trades_gaps_for_stretch(self):
        # With large alpha the solver prefers one contiguous block even when
        # that means deferring an early job.
        instance = MultiprocessorInstance.from_pairs([(0, 6), (6, 7), (7, 8)], num_processors=1)
        tight = solve_multiprocessor_power(instance, alpha=10.0)
        schedule = tight.require_schedule()
        assert schedule.num_gaps() == 0
        assert tight.power == pytest.approx(3 + 10)

    def test_second_processor_charged_its_own_wakeup(self):
        instance = MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=2)
        solution = solve_multiprocessor_power(instance, alpha=4.0)
        assert solution.power == pytest.approx(2 * (1 + 4))

    def test_infeasible(self):
        solution = solve_multiprocessor_power(
            MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1),
            alpha=1.0,
        )
        assert not solution.feasible
        with pytest.raises(InfeasibleInstanceError):
            solution.require_schedule()

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MultiprocessorPowerSolver(
                MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1), alpha=-1.0
            )

    def test_accepts_one_interval_instance(self):
        solution = solve_multiprocessor_power(
            OneIntervalInstance.from_pairs([(0, 1), (1, 2)]), alpha=1.0
        )
        assert solution.power == pytest.approx(2 + 1)

    def test_schedule_power_matches_reported_value(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 3), (0, 2), (4, 8), (6, 9), (9, 12)], num_processors=2
        )
        for alpha in (0.5, 1.5, 4.0):
            solution = solve_multiprocessor_power(instance, alpha=alpha)
            schedule = solution.require_schedule()
            assert schedule.power_cost(alpha) == pytest.approx(solution.power)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 5)
        p = rng.randint(1, 2)
        alpha = rng.choice([0.5, 1.0, 2.0, 3.5])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 9), max_window=4)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        dp = solve_multiprocessor_power(instance, alpha=alpha, use_full_horizon=True)
        brute, _ = brute_force_power_multiproc(instance, alpha=alpha)
        if brute is None:
            assert not dp.feasible
        else:
            assert dp.power == pytest.approx(brute)


class TestGapPowerConsistency:
    def test_tiny_alpha_power_reduces_to_gap_plus_used_structure(self):
        # For alpha -> 0 the power is just the execution time.
        instance = MultiprocessorInstance.from_pairs([(0, 0), (4, 4), (9, 9)], num_processors=1)
        solution = solve_multiprocessor_power(instance, alpha=0.0)
        assert solution.power == pytest.approx(3)

    def test_power_is_monotone_in_alpha(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 2), (3, 5), (8, 11), (11, 14)], num_processors=2
        )
        previous = -1.0
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            power = solve_multiprocessor_power(instance, alpha=alpha).power
            assert power >= previous
            previous = power
