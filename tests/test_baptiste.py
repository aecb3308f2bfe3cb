"""Unit tests for the single-processor (Baptiste) case of ``solve_exact``."""

import pytest

from repro.core import (
    MultiprocessorInstance,
    MultiprocessorSchedule,
    OneIntervalInstance,
    Schedule,
    solve_exact,
)
from repro.core.brute_force import brute_force_gap_single


class TestGapWrapper:
    def test_tight_chain_has_no_gap(self, tight_chain_instance):
        result = solve_exact(tight_chain_instance, "gaps")
        assert result.feasible and result.value == 0
        result.schedule.validate()

    def test_forced_gap(self, forced_gap_instance):
        result = solve_exact(forced_gap_instance, "gaps")
        assert result.value == 1

    def test_flexible_instance_zero_gaps(self, flexible_instance):
        result = solve_exact(flexible_instance, "gaps")
        assert result.value == 0
        assert result.schedule.num_spans() == 1

    def test_infeasible(self):
        result = solve_exact(
            OneIntervalInstance.from_pairs([(0, 0), (0, 0)]), "gaps"
        )
        assert not result.feasible and result.schedule is None

    def test_matches_brute_force_on_example(self):
        instance = OneIntervalInstance.from_pairs([(0, 3), (2, 6), (5, 9), (9, 12), (11, 14)])
        result = solve_exact(instance, "gaps")
        brute, _ = brute_force_gap_single(instance)
        assert result.value == brute

    def test_accepts_single_processor_multiproc_instance(self):
        instance = MultiprocessorInstance.from_pairs([(0, 1), (3, 4)], num_processors=1)
        result = solve_exact(instance, "gaps")
        assert result.value == 1
        # The schedule type follows the input type, as in the façade.
        assert type(result.schedule) is MultiprocessorSchedule

    def test_solves_true_multiprocessor_instance(self):
        instance = MultiprocessorInstance.from_pairs([(0, 1), (0, 1)], num_processors=2)
        result = solve_exact(instance, "gaps")
        assert result.feasible and result.value == 0
        assert type(result.schedule) is MultiprocessorSchedule


class TestPowerWrapper:
    def test_power_of_single_block(self, tight_chain_instance):
        result = solve_exact(tight_chain_instance, "power", alpha=2.0)
        assert result.value == pytest.approx(3 + 2)

    def test_bridging_versus_sleeping(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (3, 3)])
        bridged = solve_exact(instance, "power", alpha=10.0)
        slept = solve_exact(instance, "power", alpha=0.5)
        assert bridged.value == pytest.approx(2 + 10 + 2)
        assert slept.value == pytest.approx(2 + 0.5 + 0.5)

    def test_power_schedule_is_single_processor_object(self, flexible_instance):
        result = solve_exact(flexible_instance, "power", alpha=1.0)
        assert type(result.schedule) is Schedule
        result.schedule.validate()
        assert result.schedule.power_cost(1.0) == pytest.approx(result.value)

    def test_infeasible(self):
        result = solve_exact(
            OneIntervalInstance.from_pairs([(0, 0), (0, 0)]), "power", alpha=1.0
        )
        assert not result.feasible

    def test_gap_and_power_agree_when_alpha_below_one(self):
        # With alpha < 1 sleeping is always at least as good as bridging, so
        # the power optimum is n + alpha * (gaps + 1); minimizing power also
        # minimizes gaps for this instance.
        instance = OneIntervalInstance.from_pairs([(0, 4), (2, 7), (9, 10), (10, 12)])
        gaps = solve_exact(instance, "gaps").value
        power = solve_exact(instance, "power", alpha=0.5).value
        assert power == pytest.approx(4 + 0.5 * (gaps + 1))
