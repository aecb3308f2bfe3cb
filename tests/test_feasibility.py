"""Unit tests for matching-based feasibility and the baseline schedulers."""

import pytest

from repro import (
    InfeasibleInstanceError,
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
    complete_partial_schedule,
    edf_schedule,
    feasible_schedule,
    feasible_schedule_multiproc,
    is_feasible,
    is_feasible_multiproc,
)
from repro.generators import random_multiprocessor_instance, random_one_interval_instance


class TestFeasibility:
    def test_feasible_one_interval(self):
        instance = OneIntervalInstance.from_pairs([(0, 2), (0, 2), (0, 2)])
        assert is_feasible(instance)

    def test_infeasible_one_interval(self):
        instance = OneIntervalInstance.from_pairs([(0, 1), (0, 1), (0, 1)])
        assert not is_feasible(instance)

    def test_empty_instance_is_feasible(self):
        assert is_feasible(OneIntervalInstance(jobs=[]))
        assert is_feasible_multiproc(
            MultiprocessorInstance(jobs=[], num_processors=2)
        )

    def test_multiprocessor_capacity_matters(self):
        pairs = [(0, 0), (0, 0)]
        assert not is_feasible_multiproc(
            MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        )
        assert is_feasible_multiproc(
            MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        )

    def test_multi_interval_feasibility(self):
        feasible = MultiIntervalInstance.from_time_lists([[0, 5], [5]])
        infeasible = MultiIntervalInstance.from_time_lists([[5], [5]])
        assert is_feasible(feasible)
        assert not is_feasible(infeasible)


class TestFeasibleSchedule:
    def test_returns_valid_schedule(self):
        instance = OneIntervalInstance.from_pairs([(0, 3), (1, 2), (2, 4)])
        schedule = feasible_schedule(instance)
        schedule.validate()
        assert schedule.is_complete()

    def test_raises_with_hall_certificate(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        with pytest.raises(InfeasibleInstanceError) as err:
            feasible_schedule(instance)
        assert "window" in str(err.value)

    def test_multiprocessor_schedule(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 0), (0, 0), (1, 1)], num_processors=2
        )
        schedule = feasible_schedule_multiproc(instance)
        schedule.validate()

    def test_multiprocessor_schedule_of_a_large_random_instance(self):
        instance = random_multiprocessor_instance(
            num_jobs=60, num_processors=4, horizon=120, max_window=12, seed=6
        )
        assert feasible_schedule_multiproc(instance).is_complete()

    def test_multiprocessor_infeasible(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 0), (0, 0), (0, 0)], num_processors=2
        )
        with pytest.raises(InfeasibleInstanceError):
            feasible_schedule_multiproc(instance)


class TestEDF:
    def test_edf_schedules_in_deadline_order(self):
        instance = OneIntervalInstance.from_pairs([(0, 5), (0, 1), (0, 3)])
        schedule = edf_schedule(instance)
        schedule.validate()
        assert schedule.assignment[1] == 0  # tightest deadline first

    def test_edf_work_conserving_runs_immediately(self):
        instance = OneIntervalInstance.from_pairs([(0, 10), (5, 6)])
        schedule = edf_schedule(instance)
        assert schedule.assignment[0] == 0

    def test_edf_detects_infeasibility(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        with pytest.raises(InfeasibleInstanceError):
            edf_schedule(instance)

    def test_edf_completes_a_large_random_instance(self):
        instance = random_one_interval_instance(
            num_jobs=200, horizon=800, max_window=20, seed=3
        )
        assert edf_schedule(instance).is_complete()

    def test_edf_empty_instance(self):
        schedule = edf_schedule(OneIntervalInstance(jobs=[]))
        assert schedule.num_scheduled == 0

    def test_edf_skips_idle_periods(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (10, 10)])
        schedule = edf_schedule(instance)
        assert schedule.assignment == {0: 0, 1: 10}


class TestCompletePartialSchedule:
    def test_lemma3_extension_bounds_extra_gaps(self):
        instance = MultiIntervalInstance.from_time_lists(
            [[0, 1], [1, 2], [2, 3], [10, 11]]
        )
        partial = {0: 0, 1: 1}
        complete = complete_partial_schedule(instance, partial)
        complete.validate()
        # Lemma 3: at most (n - n') new gaps beyond those of the partial schedule.
        partial_gaps = 0
        assert complete.num_gaps() <= partial_gaps + (4 - 2)

    def test_extension_preserves_existing_assignments_when_possible(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 5], [5, 9]])
        complete = complete_partial_schedule(instance, {0: 0})
        assert complete.assignment[0] in (0, 5)
        assert complete.is_complete()

    def test_raises_when_unextendable(self):
        instance = MultiIntervalInstance.from_time_lists([[0], [0]])
        with pytest.raises(InfeasibleInstanceError):
            complete_partial_schedule(instance, {})
