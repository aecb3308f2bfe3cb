"""Property-based tests (hypothesis) for the core data structures and invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    MultiprocessorInstance,
    OneIntervalInstance,
    Schedule,
    gaps_of_busy_times,
    power_cost_of_busy_times,
    spans_of_busy_times,
)
from repro.core import solve_exact
from repro.core.schedule import gap_lengths_of_busy_times, staircase_normalize

# Keep hypothesis fast and deterministic enough for CI.
FAST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

busy_times_strategy = st.lists(st.integers(min_value=0, max_value=60), min_size=0, max_size=25)


class TestBusyTimeInvariants:
    @FAST
    @given(busy_times_strategy)
    def test_spans_partition_busy_times(self, times):
        spans = spans_of_busy_times(times)
        covered = set()
        for lo, hi in spans:
            assert lo <= hi
            covered.update(range(lo, hi + 1))
        assert covered == set(times)

    @FAST
    @given(busy_times_strategy)
    def test_gaps_equal_spans_minus_one(self, times):
        spans = spans_of_busy_times(times)
        gaps = gaps_of_busy_times(times)
        if spans:
            assert gaps == len(spans) - 1
        else:
            assert gaps == 0

    @FAST
    @given(busy_times_strategy)
    def test_gap_lengths_are_positive_and_sum_to_idle_window(self, times):
        lengths = gap_lengths_of_busy_times(times)
        assert all(length >= 1 for length in lengths)
        unique = sorted(set(times))
        if unique:
            total_window = unique[-1] - unique[0] + 1
            assert sum(lengths) == total_window - len(unique)

    @FAST
    @given(busy_times_strategy, st.floats(min_value=0, max_value=20))
    def test_power_cost_bounds(self, times, alpha):
        cost = power_cost_of_busy_times(times, alpha)
        unique = sorted(set(times))
        if not unique:
            assert cost == 0
            return
        n = len(unique)
        gaps = gaps_of_busy_times(unique)
        # Lower bound: executions + first wake-up; upper bound: + alpha per gap.
        assert cost >= n + alpha - 1e-9
        assert cost <= n + alpha + gaps * alpha + 1e-9

    @FAST
    @given(busy_times_strategy, st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
    def test_power_cost_monotone_in_alpha(self, times, alpha_a, alpha_b):
        lo, hi = sorted([alpha_a, alpha_b])
        assert power_cost_of_busy_times(times, lo) <= power_cost_of_busy_times(times, hi) + 1e-9


class TestStaircaseInvariants:
    @FAST
    @given(
        st.dictionaries(
            keys=st.integers(min_value=0, max_value=15),
            values=st.tuples(
                st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=20)
            ),
            max_size=12,
        )
    )
    def test_staircase_preserves_times_and_forms_prefixes(self, assignment):
        # De-duplicate (processor, time) collisions to get a valid input.
        used = set()
        clean = {}
        for job, (proc, t) in assignment.items():
            if (proc, t) in used:
                continue
            used.add((proc, t))
            clean[job] = (proc, t)
        normalized = staircase_normalize(clean)
        assert set(normalized) == set(clean)
        # Times preserved per job.
        for job in clean:
            assert normalized[job][1] == clean[job][1]
        # Processors used at each time form the prefix 1..count.
        by_time = {}
        for job, (proc, t) in normalized.items():
            by_time.setdefault(t, []).append(proc)
        for procs in by_time.values():
            assert sorted(procs) == list(range(1, len(procs) + 1))


windows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=6)),
    min_size=1,
    max_size=6,
)


class TestSolverProperties:
    @FAST
    @given(windows_strategy, st.integers(min_value=1, max_value=3))
    def test_gap_dp_schedule_is_valid_and_matches_value(self, raw_windows, p):
        pairs = [(r, r + length) for r, length in raw_windows]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        solution = solve_exact(instance, "gaps")
        if solution.feasible:
            schedule = solution.schedule
            schedule.validate()
            assert schedule.num_gaps() == solution.value
            assert schedule.used_processors() <= p

    @FAST
    @given(windows_strategy, st.floats(min_value=0, max_value=6))
    def test_power_dp_never_beats_trivial_lower_bound(self, raw_windows, alpha):
        pairs = [(r, r + length) for r, length in raw_windows]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        solution = solve_exact(instance, "power", alpha=alpha)
        if solution.feasible:
            n = instance.num_jobs
            assert solution.value >= n - 1e-9
            assert solution.value >= n + alpha - 1e-9  # at least one wake-up
            schedule = solution.schedule
            assert abs(schedule.power_cost(alpha) - solution.value) < 1e-9

    @FAST
    @given(windows_strategy)
    def test_more_processors_never_hurt(self, raw_windows):
        pairs = [(r, r + length) for r, length in raw_windows]
        one = solve_exact(MultiprocessorInstance.from_pairs(pairs, num_processors=1), "gaps")
        two = solve_exact(MultiprocessorInstance.from_pairs(pairs, num_processors=2), "gaps")
        if one.feasible:
            assert two.feasible
            assert two.value <= one.value
