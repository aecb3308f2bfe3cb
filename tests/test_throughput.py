"""Unit tests for the Theorem 11 throughput greedy."""

import math

import pytest

from repro import InvalidInstanceError, MultiIntervalInstance
from repro.core.brute_force import brute_force_throughput
from repro.core.throughput import greedy_throughput_schedule
from repro.generators import periodic_sensor_instance
from repro.generators.random_jobs import random_multi_interval_instance


class TestGreedyThroughput:
    def test_zero_budget_schedules_nothing(self):
        instance = MultiIntervalInstance.from_time_lists([[0], [5]])
        result = greedy_throughput_schedule(instance, max_gaps=0)
        assert result.num_scheduled == 0

    def test_negative_budget_rejected(self):
        instance = MultiIntervalInstance.from_time_lists([[0]])
        with pytest.raises(InvalidInstanceError):
            greedy_throughput_schedule(instance, max_gaps=-1)

    def test_single_round_picks_largest_fillable_interval(self):
        # Jobs 0-2 can fill [0, 2]; job 3 is isolated far away.
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [2], [50]])
        result = greedy_throughput_schedule(instance, max_gaps=1)
        assert result.num_scheduled == 3
        assert result.working_intervals[0].length == 3

    def test_two_rounds_reach_isolated_job(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [2], [50]])
        result = greedy_throughput_schedule(instance, max_gaps=2)
        assert result.num_scheduled == 4
        assert len(result.working_intervals) == 2

    def test_schedule_is_valid_and_within_gap_budget(self):
        instance = random_multi_interval_instance(
            num_jobs=8, horizon=24, intervals_per_job=2, interval_length=2, seed=2
        )
        for budget in (1, 2, 3):
            result = greedy_throughput_schedule(instance, max_gaps=budget)
            result.schedule.validate(require_complete=False)
            # k working intervals produce at most k - 1 internal gaps.
            assert result.num_internal_gaps <= max(0, budget - 1)

    def test_working_intervals_do_not_overlap(self):
        instance = random_multi_interval_instance(
            num_jobs=10, horizon=30, intervals_per_job=2, interval_length=2, seed=4
        )
        result = greedy_throughput_schedule(instance, max_gaps=4)
        intervals = sorted((w.start, w.end) for w in result.working_intervals)
        for (a0, b0), (a1, _b1) in zip(intervals, intervals[1:]):
            assert b0 < a1

    def test_greedy_interval_lengths_are_non_increasing(self):
        instance = random_multi_interval_instance(
            num_jobs=10, horizon=30, intervals_per_job=2, interval_length=3, seed=8
        )
        result = greedy_throughput_schedule(instance, max_gaps=4)
        lengths = [w.length for w in result.working_intervals]
        assert lengths == sorted(lengths, reverse=True)


    def test_larger_gap_budget_never_schedules_fewer_jobs(self):
        instance = periodic_sensor_instance(
            num_sensors=5, readings_per_sensor=2, period=12, window=3, seed=5
        )
        counts = [
            greedy_throughput_schedule(instance, max_gaps=k).num_scheduled
            for k in range(1, 6)
        ]
        assert counts == sorted(counts)


class TestApproximationQuality:
    @pytest.mark.parametrize("seed,budget", [(1, 1), (2, 2), (3, 2), (4, 3)])
    def test_sqrt_n_guarantee_against_brute_force(self, seed, budget):
        instance = random_multi_interval_instance(
            num_jobs=6, horizon=18, intervals_per_job=2, interval_length=2, seed=seed
        )
        greedy = greedy_throughput_schedule(instance, max_gaps=budget)
        optimal, _ = brute_force_throughput(instance, max_gaps=budget)
        n = instance.num_jobs
        assert greedy.num_scheduled * (2 * math.sqrt(n) + 1) >= optimal
