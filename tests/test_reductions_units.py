"""Tests for the Theorem 9/10 unit gadgets."""

import pytest

from repro import MultiIntervalInstance
from repro.core.brute_force import brute_force_gap_multi_interval
from repro.core.exceptions import InvalidInstanceError
from repro.reductions import (
    build_disjoint_unit_gadget,
    disjoint_unit_to_two_unit,
    two_unit_to_disjoint_unit,
)
from repro.setcover import SetCoverInstance, exact_set_cover


class TestTwoUnitToDisjoint:
    def test_rejects_jobs_with_three_times(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 1, 2]])
        with pytest.raises(InvalidInstanceError):
            two_unit_to_disjoint_unit(instance)

    def test_components_become_disjoint_jobs(self):
        # Two components: {job0, job1} over times {0,1,2} and {job2} over {5,6}.
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [5, 6]])
        result = two_unit_to_disjoint_unit(instance)
        assert result.instance.is_disjoint_unit()
        assert result.instance.num_jobs == 2
        assert result.always_busy_times == ()

    def test_saturated_component_reported_as_always_busy(self):
        # Two jobs over the same two times: both times are forced busy.
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [0, 1]])
        result = two_unit_to_disjoint_unit(instance)
        assert result.always_busy_times == (0, 1)

    def test_infeasible_component_rejected(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [0, 1], [0, 1]])
        with pytest.raises(InvalidInstanceError):
            two_unit_to_disjoint_unit(instance)

    def test_busy_idle_complement_relation(self):
        # In the 2-unit instance, a component with m jobs and m+1 times leaves
        # exactly one idle time; in the disjoint-unit instance that time is the
        # one *busy* slot of the corresponding job.  Gap structures therefore
        # differ by at most one.
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [6, 7]])
        result = two_unit_to_disjoint_unit(instance)
        source_opt, _ = brute_force_gap_multi_interval(instance)
        derived_opt, _ = brute_force_gap_multi_interval(result.instance)
        assert abs(source_opt - derived_opt) <= 1


class TestDisjointToTwoUnit:
    def test_rejects_non_disjoint_source(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 1], [1, 2]])
        with pytest.raises(InvalidInstanceError):
            disjoint_unit_to_two_unit(instance)

    def test_chain_structure(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 4, 9], [12]])
        result = disjoint_unit_to_two_unit(instance)
        # Job 0 with 3 times -> 2 chain jobs; job 1 with 1 time -> 1 job.
        assert len(result.chain_of_job[0]) == 2
        assert len(result.chain_of_job[1]) == 1
        assert all(job.num_times <= 2 for job in result.instance.jobs)

    def test_optima_differ_by_at_most_one(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 3, 6], [10]])
        result = disjoint_unit_to_two_unit(instance)
        source_opt, _ = brute_force_gap_multi_interval(instance)
        derived_opt, _ = brute_force_gap_multi_interval(result.instance)
        assert abs(source_opt - derived_opt) <= 1


    def test_round_trip_stays_disjoint_then_two_unit(self):
        source = MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [6, 7], [10, 11]])
        disjoint = two_unit_to_disjoint_unit(source)
        back = disjoint_unit_to_two_unit(disjoint.instance)
        assert disjoint.instance.is_disjoint_unit()
        assert all(job.num_times <= 2 for job in back.instance.jobs)


class TestBSetCoverGadget:
    @pytest.fixture
    def source(self) -> SetCoverInstance:
        return SetCoverInstance(universe=[0, 1, 2, 3], sets=[[0, 1], [2, 3], [1, 2]])

    def test_instance_is_disjoint_unit(self, source):
        gadget = build_disjoint_unit_gadget(source)
        assert gadget.instance.is_disjoint_unit()
        assert gadget.instance.is_unit_interval()

    def test_cover_to_schedule_spans_equal_cover_size(self, source):
        gadget = build_disjoint_unit_gadget(source)
        cover = exact_set_cover(source)
        schedule = gadget.cover_to_schedule(cover)
        assert schedule.num_spans() == len(cover)
        assert schedule.num_spans() == gadget.spans_of_cover_size(len(cover))

    def test_schedule_to_cover_roundtrip(self, source):
        gadget = build_disjoint_unit_gadget(source)
        cover = exact_set_cover(source)
        schedule = gadget.cover_to_schedule(cover)
        recovered = gadget.schedule_to_cover(schedule)
        assert source.is_cover(recovered)
        assert len(recovered) == len(cover)

    def test_optimal_spans_equal_optimal_cover(self, source):
        gadget = build_disjoint_unit_gadget(source)
        optimal_cover = len(exact_set_cover(source))
        optimal_gaps, schedule = brute_force_gap_multi_interval(gadget.instance)
        assert schedule is not None
        assert schedule.num_spans() == optimal_cover

    def test_large_sets_rejected(self):
        universe = list(range(13))
        with pytest.raises(InvalidInstanceError):
            build_disjoint_unit_gadget(
                SetCoverInstance(universe=universe, sets=[universe])
            )

    def test_invalid_cover_rejected(self, source):
        gadget = build_disjoint_unit_gadget(source)
        with pytest.raises(InvalidInstanceError):
            gadget.cover_to_schedule([0])
