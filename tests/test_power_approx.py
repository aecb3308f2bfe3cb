"""Unit tests for the Theorem 3 approximation algorithm."""

import pytest

from repro import InfeasibleInstanceError, InvalidInstanceError, MultiIntervalInstance
from repro.core.brute_force import brute_force_power_multi_interval
from repro.core.power_approx import approximate_power_schedule, build_packing_instance
from repro.generators.random_jobs import random_multi_interval_instance


class TestPackingConstruction:
    def test_pairs_of_adjacent_slots_become_sets(self):
        instance = MultiIntervalInstance.from_time_lists([[0], [1], [4]])
        packing, descriptors = build_packing_instance(instance, k=2, residue=0)
        job_pairs = {tuple(sorted(jobs)) for jobs, _anchor in descriptors}
        assert (0, 1) in job_pairs
        assert all(len(s) == 3 for s in packing.sets)

    def test_residue_filters_anchor_times(self):
        instance = MultiIntervalInstance.from_time_lists([[1], [2]])
        _packing, descriptors = build_packing_instance(instance, k=2, residue=1)
        assert all(anchor % 2 == 1 for _jobs, anchor in descriptors)

    def test_invalid_k_rejected(self):
        instance = MultiIntervalInstance.from_time_lists([[0]])
        with pytest.raises(InvalidInstanceError):
            build_packing_instance(instance, k=1, residue=0)

    def test_no_adjacent_slots_yields_empty_collection(self):
        instance = MultiIntervalInstance.from_time_lists([[0], [10]])
        _packing, descriptors = build_packing_instance(instance, k=2, residue=0)
        assert descriptors == []


class TestApproximation:
    def test_empty_instance(self):
        result = approximate_power_schedule(MultiIntervalInstance(jobs=[]), alpha=2.0)
        assert result.power == 0.0

    def test_complete_and_valid_schedule(self, small_multi_interval_instance):
        result = approximate_power_schedule(small_multi_interval_instance, alpha=2.0)
        result.schedule.validate()
        assert result.schedule.is_complete()

    @pytest.mark.parametrize("n", [20, 40])
    def test_complete_on_larger_random_instances(self, n):
        instance = random_multi_interval_instance(
            num_jobs=n, horizon=4 * n, intervals_per_job=2, interval_length=2, seed=n
        )
        assert approximate_power_schedule(instance, 3.0).schedule.is_complete()

    def test_infeasible_instance_raises(self):
        instance = MultiIntervalInstance.from_time_lists([[0], [0]])
        with pytest.raises(InfeasibleInstanceError):
            approximate_power_schedule(instance, alpha=1.0)

    def test_negative_alpha_rejected(self):
        instance = MultiIntervalInstance.from_time_lists([[0]])
        with pytest.raises(InvalidInstanceError):
            approximate_power_schedule(instance, alpha=-0.1)

    def test_guarantee_factor_formula(self):
        instance = MultiIntervalInstance.from_time_lists([[0], [1]])
        result = approximate_power_schedule(instance, alpha=3.0)
        assert result.guarantee_factor == pytest.approx(1 + 2.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_within_theorem_bound_against_brute_force(self, alpha):
        instance = random_multi_interval_instance(
            num_jobs=6, horizon=20, intervals_per_job=2, interval_length=2, seed=3
        )
        result = approximate_power_schedule(instance, alpha=alpha)
        optimal, _ = brute_force_power_multi_interval(instance, alpha=alpha)
        assert optimal is not None
        bound = (1.0 + (2.0 / 3.0) * alpha) * optimal + 1e-9
        assert result.power <= bound

    def test_packing_pairs_adjacent_jobs_reduce_spans(self):
        # Eight jobs that pair up into four adjacent blocks; the packing phase
        # should schedule a significant fraction back-to-back.
        time_lists = [[0, 10], [1, 11], [20, 30], [21, 31], [40, 50], [41, 51], [60, 70], [61, 71]]
        instance = MultiIntervalInstance.from_time_lists(time_lists)
        result = approximate_power_schedule(instance, alpha=5.0)
        assert result.packed_jobs >= 4
        assert result.schedule.num_spans() <= 6

    def test_larger_k_still_produces_valid_schedules(self):
        instance = random_multi_interval_instance(
            num_jobs=8, horizon=30, intervals_per_job=2, interval_length=3, seed=9
        )
        result = approximate_power_schedule(instance, alpha=2.0, k=3)
        result.schedule.validate()
        assert result.k == 3
