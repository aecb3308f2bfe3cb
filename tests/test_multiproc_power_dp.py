"""Unit tests for the exact multiprocessor power solver (Theorem 2)."""

import random

import pytest

from repro.core import (
    InvalidInstanceError,
    MultiprocessorInstance,
    OneIntervalInstance,
    Schedule,
    solve_exact,
)
from repro.core.brute_force import brute_force_power_multiproc
from repro.generators import random_multiprocessor_instance
from tests.conftest import full_horizon_engine, random_window_pairs


class TestSmallInstances:
    def test_empty_instance(self):
        solution = solve_exact(
            MultiprocessorInstance(jobs=[], num_processors=1), "power", alpha=2.0
        )
        assert solution.feasible and solution.value == 0.0

    def test_single_job_costs_execution_plus_wakeup(self):
        instance = MultiprocessorInstance.from_pairs([(4, 9)], num_processors=1)
        solution = solve_exact(instance, "power", alpha=3.0)
        assert solution.value == pytest.approx(1 + 3)

    def test_short_gap_is_bridged(self):
        # Jobs pinned at 0 and 2 with alpha=5: staying active through the gap
        # (cost 1) beats a second wake-up (cost 5).
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(0, 0), (2, 2)], num_processors=1),
            "power",
            alpha=5.0,
        )
        assert solution.value == pytest.approx(2 + 5 + 1)

    def test_long_gap_sleeps(self):
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(0, 0), (10, 10)], num_processors=1),
            "power",
            alpha=2.0,
        )
        assert solution.value == pytest.approx(2 + 2 + 2)

    def test_alpha_trades_gaps_for_stretch(self):
        # With large alpha the solver prefers one contiguous block even when
        # that means deferring an early job.
        instance = MultiprocessorInstance.from_pairs([(0, 6), (6, 7), (7, 8)], num_processors=1)
        tight = solve_exact(instance, "power", alpha=10.0)
        schedule = tight.schedule
        assert schedule.num_gaps() == 0
        assert tight.value == pytest.approx(3 + 10)

    def test_second_processor_charged_its_own_wakeup(self):
        instance = MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=2)
        solution = solve_exact(instance, "power", alpha=4.0)
        assert solution.value == pytest.approx(2 * (1 + 4))

    def test_infeasible(self):
        solution = solve_exact(
            MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1),
            "power",
            alpha=1.0,
        )
        assert not solution.feasible
        assert solution.value is None and solution.schedule is None

    def test_negative_alpha_rejected(self):
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1)
        with pytest.raises(InvalidInstanceError):
            solve_exact(instance, "power", alpha=-1.0)

    def test_accepts_one_interval_instance(self):
        solution = solve_exact(
            OneIntervalInstance.from_pairs([(0, 1), (1, 2)]), "power", alpha=1.0
        )
        assert solution.value == pytest.approx(2 + 1)
        assert type(solution.schedule) is Schedule

    def test_schedule_power_matches_reported_value(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 3), (0, 2), (4, 8), (6, 9), (9, 12)], num_processors=2
        )
        for alpha in (0.5, 1.5, 4.0):
            solution = solve_exact(instance, "power", alpha=alpha)
            schedule = solution.schedule
            assert schedule.power_cost(alpha) == pytest.approx(solution.value)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 5)
        p = rng.randint(1, 2)
        alpha = rng.choice([0.5, 1.0, 2.0, 3.5])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 9), max_window=4)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        dp = full_horizon_engine(instance, "power", alpha).solve()
        brute, _ = brute_force_power_multiproc(instance, alpha=alpha)
        if brute is None:
            assert not dp.feasible
        else:
            assert dp.value == pytest.approx(brute)


class TestScalingWorkloads:
    """The random workloads the runtime-scaling experiment (E11) times."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_workloads_growing_in_n_are_feasible(self, n):
        instance = random_multiprocessor_instance(
            num_jobs=n, num_processors=2, horizon=3 * n, max_window=n // 2 + 1, seed=n + 1
        )
        assert solve_exact(instance, "power", 2.0).feasible


class TestGapPowerConsistency:
    def test_tiny_alpha_power_reduces_to_gap_plus_used_structure(self):
        # For alpha -> 0 the power is just the execution time.
        instance = MultiprocessorInstance.from_pairs([(0, 0), (4, 4), (9, 9)], num_processors=1)
        solution = solve_exact(instance, "power", alpha=0.0)
        assert solution.value == pytest.approx(3)

    def test_power_is_monotone_in_alpha(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 2), (3, 5), (8, 11), (11, 14)], num_processors=2
        )
        previous = -1.0
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            power = solve_exact(instance, "power", alpha=alpha).value
            assert power >= previous
            previous = power
