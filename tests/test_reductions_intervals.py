"""Tests for the Theorem 7/8 interval gadgets and the Section 2 arithmetic view."""

import pytest

from repro.core import MultiIntervalInstance, MultiprocessorInstance, solve_multiprocessor_gap
from repro.core.brute_force import brute_force_gap_multi_interval
from repro.core.exceptions import InvalidInstanceError
from repro.core.feasibility import is_feasible
from repro.reductions import (
    build_three_unit_gadget,
    build_two_interval_gadget,
    multiprocessor_as_multi_interval,
)
from repro.reductions.multiproc_as_intervals import gap_correspondence


@pytest.fixture
def three_interval_instance() -> MultiIntervalInstance:
    """Two jobs with three unit intervals each plus one simple job."""
    return MultiIntervalInstance.from_time_lists(
        [[0, 4, 8], [1, 5, 9], [4, 5]]
    )


class TestTwoIntervalGadget:
    def test_every_job_has_at_most_two_intervals(self, three_interval_instance):
        gadget = build_two_interval_gadget(three_interval_instance)
        assert gadget.max_intervals() <= 2

    def test_jobs_with_two_intervals_pass_through(self):
        source = MultiIntervalInstance.from_time_lists([[0, 5], [1, 2]])
        gadget = build_two_interval_gadget(source)
        assert gadget.instance.num_jobs == 2
        assert gadget.dummy_jobs == []

    def test_gadget_is_feasible_when_source_is(self, three_interval_instance):
        assert is_feasible(three_interval_instance)
        gadget = build_two_interval_gadget(three_interval_instance)
        assert is_feasible(gadget.instance)

    def test_optimum_preserved_up_to_extra_block(self, three_interval_instance):
        gadget = build_two_interval_gadget(three_interval_instance)
        source_opt, _ = brute_force_gap_multi_interval(three_interval_instance)
        gadget_opt, _ = brute_force_gap_multi_interval(gadget.instance)
        assert source_opt <= gadget_opt <= source_opt + 1

    def test_replacement_bookkeeping(self, three_interval_instance):
        gadget = build_two_interval_gadget(three_interval_instance)
        # Job 0 has three intervals -> three replacements; job 2 passes through.
        assert len(gadget.replacement_of[0]) == 3
        assert len(gadget.replacement_of[2]) == 1

    def test_empty_source_rejected(self):
        with pytest.raises(InvalidInstanceError):
            build_two_interval_gadget(MultiIntervalInstance(jobs=[]))


class TestThreeUnitGadget:
    def test_every_job_has_at_most_three_times(self):
        source = MultiIntervalInstance.from_time_lists([[0, 3, 6, 9, 12], [1, 2]])
        gadget = build_three_unit_gadget(source)
        assert gadget.max_unit_times() <= 3

    def test_gadget_is_feasible_when_source_is(self):
        source = MultiIntervalInstance.from_time_lists([[0, 3, 6, 9], [1, 4]])
        assert is_feasible(source)
        gadget = build_three_unit_gadget(source)
        assert is_feasible(gadget.instance)

    def test_optimum_preserved_up_to_extra_block(self):
        source = MultiIntervalInstance.from_time_lists([[0, 3, 6, 9], [1, 2]])
        gadget = build_three_unit_gadget(source)
        source_opt, _ = brute_force_gap_multi_interval(source)
        gadget_opt, _ = brute_force_gap_multi_interval(gadget.instance)
        assert source_opt <= gadget_opt <= source_opt + 1

    def test_small_jobs_pass_through(self):
        source = MultiIntervalInstance.from_time_lists([[0, 5, 9]])
        gadget = build_three_unit_gadget(source)
        assert gadget.instance.num_jobs == 1
        assert gadget.dummy_jobs == []

    def test_empty_source_rejected(self):
        with pytest.raises(InvalidInstanceError):
            build_three_unit_gadget(MultiIntervalInstance(jobs=[]))


class TestArithmeticView:
    def test_job_intervals_form_arithmetic_progression(self):
        instance = MultiprocessorInstance.from_pairs([(0, 2), (1, 3)], num_processors=3)
        view = multiprocessor_as_multi_interval(instance)
        job = view.instance.jobs[0]
        intervals = job.intervals()
        assert len(intervals) == 3
        starts = [lo for lo, _hi in intervals]
        diffs = {b - a for a, b in zip(starts, starts[1:])}
        assert diffs == {view.period}

    def test_slot_mapping_roundtrip(self):
        instance = MultiprocessorInstance.from_pairs([(2, 4)], num_processors=2)
        view = multiprocessor_as_multi_interval(instance)
        for proc in (1, 2):
            for t in (2, 3, 4):
                position = view.to_multi_interval_time(proc, t)
                assert view.to_processor_time(position) == (proc, t)

    def test_gap_correspondence_relation(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (3, 4), (3, 4)], num_processors=2
        )
        solution = solve_multiprocessor_gap(instance)
        view = multiprocessor_as_multi_interval(instance)
        mp_gaps, mi_gaps, used = gap_correspondence(view, solution.require_schedule())
        assert mi_gaps == mp_gaps + used - 1

    def test_short_period_rejected(self):
        instance = MultiprocessorInstance.from_pairs([(0, 9)], num_processors=2)
        with pytest.raises(InvalidInstanceError):
            multiprocessor_as_multi_interval(instance, period=5)

    def test_empty_instance_rejected(self):
        with pytest.raises(InvalidInstanceError):
            multiprocessor_as_multi_interval(
                MultiprocessorInstance(jobs=[], num_processors=1)
            )
