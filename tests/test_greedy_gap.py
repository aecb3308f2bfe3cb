"""Unit tests for the greedy 3-approximation baseline [FHKN06]."""

import random

import pytest

from repro.core import OneIntervalInstance, solve_exact
from repro.core.greedy_gap import greedy_gap_schedule
from tests.conftest import random_window_pairs


class TestGreedyGap:
    def test_empty_instance(self):
        result = greedy_gap_schedule(OneIntervalInstance(jobs=[]))
        assert result.feasible and result.num_gaps == 0

    def test_tight_chain(self, tight_chain_instance):
        result = greedy_gap_schedule(tight_chain_instance)
        assert result.feasible and result.num_gaps == 0
        result.schedule.validate()

    def test_forced_gap(self, forced_gap_instance):
        result = greedy_gap_schedule(forced_gap_instance)
        assert result.num_gaps == 1

    def test_infeasible(self):
        result = greedy_gap_schedule(OneIntervalInstance.from_pairs([(0, 0), (0, 0)]))
        assert not result.feasible and result.schedule is None

    def test_removed_intervals_do_not_break_feasibility(self, flexible_instance):
        result = greedy_gap_schedule(flexible_instance)
        assert result.feasible
        result.schedule.validate()
        # Every removed interval is disjoint from the final busy times.
        busy = set(result.schedule.busy_times())
        for a, b in result.removed_intervals:
            assert not any(a <= t <= b for t in busy)

    def test_greedy_respects_three_approximation_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(8):
            n = rng.randint(2, 7)
            pairs = random_window_pairs(rng, n, horizon=rng.randint(n + 2, 18), max_window=5)
            instance = OneIntervalInstance.from_pairs(pairs)
            greedy = greedy_gap_schedule(instance)
            exact = solve_exact(instance, "gaps")
            if not exact.feasible:
                assert not greedy.feasible
                continue
            assert greedy.feasible
            # The proven guarantee is 3x; allow the additive slack of one gap
            # that the guarantee statement permits for OPT = 0.
            assert greedy.num_gaps <= max(3 * exact.value, 1)

    def test_greedy_never_beats_the_optimum(self):
        rng = random.Random(11)
        for _ in range(5):
            pairs = random_window_pairs(rng, 5, horizon=14, max_window=6)
            instance = OneIntervalInstance.from_pairs(pairs)
            greedy = greedy_gap_schedule(instance)
            exact = solve_exact(instance, "gaps")
            if greedy.feasible and exact.feasible:
                assert greedy.num_gaps >= exact.value
