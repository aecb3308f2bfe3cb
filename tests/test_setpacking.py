"""Unit tests for the set-packing substrate."""

import pytest

from repro.core.exceptions import InvalidInstanceError
from repro.setpacking import (
    SetPackingInstance,
    exact_set_packing,
    greedy_set_packing,
    local_search_set_packing,
)


class TestInstance:
    def test_uniform_size(self):
        instance = SetPackingInstance(sets=[[0, 1, 2], [3, 4, 5]])
        assert instance.uniform_size == 3
        mixed = SetPackingInstance(sets=[[0], [1, 2]])
        assert mixed.uniform_size == 0

    def test_rejects_empty_set(self):
        with pytest.raises(InvalidInstanceError):
            SetPackingInstance(sets=[[]])

    def test_is_packing(self):
        instance = SetPackingInstance(sets=[[0, 1], [1, 2], [3]])
        assert instance.is_packing([0, 2])
        assert not instance.is_packing([0, 1])

    def test_base_set(self):
        instance = SetPackingInstance(sets=[[0, 1], [2]])
        assert instance.base_set() == {0, 1, 2}


class TestGreedyAndLocalSearch:
    def test_greedy_returns_maximal_packing(self):
        instance = SetPackingInstance(sets=[[0, 1], [1, 2], [2, 3], [4]])
        chosen = greedy_set_packing(instance)
        assert instance.is_packing(chosen)
        # maximal: no unchosen set is disjoint from the packing
        used = set()
        for idx in chosen:
            used |= instance.sets[idx]
        for idx in range(instance.num_sets):
            if idx not in chosen:
                assert instance.sets[idx] & used

    def test_local_search_improves_greedy_trap(self):
        # Greedy picks the first (blocking) set; swapping it out yields two sets.
        instance = SetPackingInstance(sets=[[0, 1], [0, 2], [1, 3]])
        greedy = greedy_set_packing(instance)
        improved = local_search_set_packing(instance, swap_size=1)
        assert len(greedy) == 1
        assert len(improved) == 2
        assert instance.is_packing(improved)

    def test_local_search_matches_exact_on_small_instances(self):
        instance = SetPackingInstance(
            sets=[[0, 1, 2], [2, 3, 4], [4, 5, 0], [1, 3, 5], [6, 7, 8]]
        )
        local = local_search_set_packing(instance, swap_size=2)
        exact = exact_set_packing(instance)
        assert instance.is_packing(local)
        assert len(local) >= len(exact) - 1  # Hurkens-Schrijver style guarantee margin

    def test_local_search_returns_a_packing_on_a_large_instance(self):
        sets = [[i, i + 1, 1000 + (i % 17)] for i in range(0, 200, 2)]
        instance = SetPackingInstance(sets=sets)
        assert instance.is_packing(local_search_set_packing(instance, 2))

    def test_empty_collection(self):
        instance = SetPackingInstance(sets=[])
        assert greedy_set_packing(instance) == []
        assert local_search_set_packing(instance) == []
        assert exact_set_packing(instance) == []


class TestExact:
    def test_exact_optimum(self):
        instance = SetPackingInstance(sets=[[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        exact = exact_set_packing(instance)
        assert len(exact) == 2
        assert instance.is_packing(exact)

    def test_exact_on_disjoint_sets(self):
        instance = SetPackingInstance(sets=[[0], [1], [2]])
        assert len(exact_set_packing(instance)) == 3

    def test_local_search_never_beats_exact(self):
        instance = SetPackingInstance(
            sets=[[0, 1], [2, 3], [1, 2], [0, 3], [4, 5], [5, 6]]
        )
        assert len(local_search_set_packing(instance)) <= len(exact_set_packing(instance))
