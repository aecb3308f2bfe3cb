"""Unit tests for the single-processor (Baptiste) wrappers."""

import pytest

from repro.core import (
    MultiprocessorInstance,
    OneIntervalInstance,
    minimize_gaps_single_processor,
    minimize_power_single_processor,
)
from repro.core.brute_force import brute_force_gap_single
from repro.core.exceptions import InfeasibleInstanceError


class TestGapWrapper:
    def test_tight_chain_has_no_gap(self, tight_chain_instance):
        result = minimize_gaps_single_processor(tight_chain_instance)
        assert result.feasible and result.num_gaps == 0
        result.schedule.validate()

    def test_forced_gap(self, forced_gap_instance):
        result = minimize_gaps_single_processor(forced_gap_instance)
        assert result.num_gaps == 1

    def test_flexible_instance_zero_gaps(self, flexible_instance):
        result = minimize_gaps_single_processor(flexible_instance)
        assert result.num_gaps == 0
        assert result.schedule.num_spans() == 1

    def test_infeasible(self):
        result = minimize_gaps_single_processor(
            OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        )
        assert not result.feasible and result.schedule is None

    def test_matches_brute_force_on_example(self):
        instance = OneIntervalInstance.from_pairs([(0, 3), (2, 6), (5, 9), (9, 12), (11, 14)])
        result = minimize_gaps_single_processor(instance)
        brute, _ = brute_force_gap_single(instance)
        assert result.num_gaps == brute

    def test_accepts_single_processor_multiproc_instance(self):
        instance = MultiprocessorInstance.from_pairs([(0, 1), (3, 4)], num_processors=1)
        assert minimize_gaps_single_processor(instance).num_gaps == 1

    def test_rejects_true_multiprocessor_instance(self):
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=2)
        with pytest.raises(InfeasibleInstanceError):
            minimize_gaps_single_processor(instance)


class TestPowerWrapper:
    def test_power_of_single_block(self, tight_chain_instance):
        result = minimize_power_single_processor(tight_chain_instance, alpha=2.0)
        assert result.power == pytest.approx(3 + 2)

    def test_bridging_versus_sleeping(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (3, 3)])
        bridged = minimize_power_single_processor(instance, alpha=10.0)
        slept = minimize_power_single_processor(instance, alpha=0.5)
        assert bridged.power == pytest.approx(2 + 10 + 2)
        assert slept.power == pytest.approx(2 + 0.5 + 0.5)

    def test_power_schedule_is_single_processor_object(self, flexible_instance):
        result = minimize_power_single_processor(flexible_instance, alpha=1.0)
        result.schedule.validate()
        assert result.schedule.power_cost(1.0) == pytest.approx(result.power)

    def test_infeasible(self):
        result = minimize_power_single_processor(
            OneIntervalInstance.from_pairs([(0, 0), (0, 0)]), alpha=1.0
        )
        assert not result.feasible

    def test_gap_and_power_agree_when_alpha_below_one(self):
        # With alpha < 1 sleeping is always at least as good as bridging, so
        # the power optimum is n + alpha * (gaps + 1); minimizing power also
        # minimizes gaps for this instance.
        instance = OneIntervalInstance.from_pairs([(0, 4), (2, 7), (9, 10), (10, 12)])
        gaps = minimize_gaps_single_processor(instance).num_gaps
        power = minimize_power_single_processor(instance, alpha=0.5).power
        assert power == pytest.approx(4 + 0.5 * (gaps + 1))
