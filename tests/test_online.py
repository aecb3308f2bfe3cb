"""Unit tests for the online baselines and lower-bound families."""

import pytest

from repro.core import InvalidInstanceError, is_feasible, minimize_gaps_single_processor
from repro.core.online import (
    compare_online_offline,
    multi_interval_online_dilemma,
    online_gap_schedule,
    online_lower_bound_alternative,
    online_lower_bound_instance,
)


class TestLowerBoundFamily:
    def test_invalid_size_rejected(self):
        with pytest.raises(InvalidInstanceError):
            online_lower_bound_instance(0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_online_suffers_linear_gaps(self, n):
        instance = online_lower_bound_instance(n)
        online = online_gap_schedule(instance)
        online.validate()
        assert online.num_gaps() >= n - 1

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_offline_optimum_is_constant(self, n):
        instance = online_lower_bound_instance(n)
        offline = minimize_gaps_single_processor(instance)
        assert offline.feasible
        assert offline.num_gaps <= 1

    def test_alternative_continuation_forces_immediate_execution(self):
        # In the alternative instance the flexible jobs MUST be executed before
        # time n, otherwise the 2n urgent jobs leave no room.
        n = 3
        instance = online_lower_bound_alternative(n)
        assert is_feasible(instance)
        schedule = online_gap_schedule(instance)
        flexible_times = [schedule.assignment[i] for i in range(n)]
        assert max(flexible_times) < n

    def test_comparison_helper(self):
        n = 4
        instance = online_lower_bound_instance(n)
        offline = minimize_gaps_single_processor(instance).num_gaps
        comparison = compare_online_offline(instance, offline)
        assert comparison.online_gaps >= n - 1
        assert comparison.ratio >= n - 1


class TestMultiIntervalDilemma:
    def test_both_continuations_are_individually_feasible(self):
        first, second = multi_interval_online_dilemma()
        assert is_feasible(first)
        assert is_feasible(second)

    def test_no_single_time0_choice_serves_both(self):
        # Whatever job runs at time 0, one continuation becomes infeasible for
        # an online algorithm: check by removing the chosen job's time-0 slot.
        first, second = multi_interval_online_dilemma()
        job_a_times = set(first.jobs[0].times)
        job_b_times = set(first.jobs[1].times)
        # If A runs at 0, then in the second instance B must run at 1 or 3 and
        # C2 needs 2 -> still feasible; if B runs at 0, in the first instance A
        # must avoid 1 (C1 needs it) leaving A only time 2 -> feasible; the
        # dilemma is about time 1/2 commitments: at time 1 the algorithm cannot
        # know whether to save slot 2.  We verify the structural facts used by
        # the argument instead of simulating every online algorithm.
        assert 0 in job_a_times and 0 in job_b_times
        assert first.jobs[2].times == (1,)
        assert second.jobs[2].times == (2,)
