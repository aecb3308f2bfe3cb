"""Property-based optimality tests: the polynomial solvers against brute force."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MultiIntervalInstance, MultiprocessorInstance
from repro.core.brute_force import (
    brute_force_gap_multi_interval,
    brute_force_gap_multiproc,
    brute_force_power_multi_interval,
    brute_force_power_multiproc,
)
from repro.core.power_approx import approximate_power_schedule
from repro.core.feasibility import is_feasible
from tests.conftest import full_horizon_engine

SLOW_OK = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

small_jobs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=5,
)


class TestExactSolversAreOptimal:
    @SLOW_OK
    @given(small_jobs, st.integers(min_value=1, max_value=2))
    def test_gap_dp_equals_brute_force(self, raw_windows, p):
        pairs = [(r, r + length) for r, length in raw_windows]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        dp = full_horizon_engine(instance).solve()
        brute, _ = brute_force_gap_multiproc(instance)
        assert dp.value == brute

    @SLOW_OK
    @given(small_jobs, st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_power_dp_equals_brute_force(self, raw_windows, alpha):
        pairs = [(r, r + length) for r, length in raw_windows]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        dp = full_horizon_engine(instance, "power", alpha).solve()
        brute, _ = brute_force_power_multiproc(instance, alpha=alpha)
        if brute is None:
            assert not dp.feasible
        else:
            assert abs(dp.value - brute) < 1e-9


multi_interval_jobs = st.lists(
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


class TestApproximationProperties:
    @SLOW_OK
    @given(multi_interval_jobs, st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_theorem3_schedule_is_complete_and_bounded(self, time_lists, alpha):
        instance = MultiIntervalInstance.from_time_lists(time_lists)
        if not is_feasible(instance):
            return
        result = approximate_power_schedule(instance, alpha=alpha)
        result.schedule.validate()
        optimal, _ = brute_force_power_multi_interval(instance, alpha=alpha)
        assert optimal is not None
        # Guaranteed bound: every feasible schedule is within (1 + alpha) of
        # optimal; the Theorem 3 analysis tightens this to 1 + (2/3 + eps)alpha.
        assert result.power <= (1.0 + alpha) * optimal + 1e-9

    @SLOW_OK
    @given(multi_interval_jobs)
    def test_gap_optimum_invariant_under_time_translation(self, time_lists):
        instance = MultiIntervalInstance.from_time_lists(time_lists)
        if not is_feasible(instance):
            return
        shifted = MultiIntervalInstance.from_time_lists(
            [[t + 17 for t in times] for times in time_lists]
        )
        original, _ = brute_force_gap_multi_interval(instance)
        translated, _ = brute_force_gap_multi_interval(shifted)
        assert original == translated
