"""Unit tests for the bipartite matching substrate."""

import pytest

from repro.matching import (
    BipartiteGraph,
    augmenting_path,
    extend_matching,
    hall_violation,
    hopcroft_karp,
    maximum_matching,
)


def build_graph(edges, n_left):
    graph = BipartiteGraph(n_left=n_left)
    for left, right in edges:
        graph.add_edge(left, right)
    return graph


class TestBipartiteGraph:
    def test_right_labels_are_interned(self):
        graph = BipartiteGraph(n_left=2)
        graph.add_edge(0, "a")
        graph.add_edge(1, "a")
        assert graph.n_right == 1
        assert graph.num_edges == 2
        assert graph.right_label(0) == "a"

    def test_out_of_range_left_vertex_rejected(self):
        graph = BipartiteGraph(n_left=1)
        with pytest.raises(ValueError):
            graph.add_edge(3, "x")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(n_left=-1)

    def test_right_id_of_does_not_intern(self):
        graph = BipartiteGraph(n_left=1)
        assert graph.right_id_of("missing") is None
        assert graph.n_right == 0


class TestHopcroftKarp:
    def test_perfect_matching(self):
        graph = build_graph([(0, "t0"), (0, "t1"), (1, "t1"), (2, "t2")], n_left=3)
        matching = maximum_matching(graph)
        assert len(matching) == 3
        assert len(set(matching.values())) == 3

    def test_maximum_but_not_perfect(self):
        graph = build_graph([(0, "t0"), (1, "t0"), (2, "t0")], n_left=3)
        matching = maximum_matching(graph)
        assert len(matching) == 1

    def test_large_sparse_graph(self):
        graph = BipartiteGraph(n_left=300)
        for i in range(300):
            for offset in range(6):
                graph.add_edge(i, (i * 3 + offset * 7) % 400)
        match_left, _ = hopcroft_karp(graph)
        assert sum(1 for m in match_left if m != -1) >= 250

    def test_empty_graph(self):
        graph = BipartiteGraph(n_left=0)
        match_left, match_right = hopcroft_karp(graph)
        assert match_left == [] and match_right == []

    def test_requires_augmenting_phase(self):
        # Greedy warm start matches 0->a, then 1 requires augmenting through 0.
        graph = build_graph([(0, "a"), (0, "b"), (1, "a")], n_left=2)
        matching = maximum_matching(graph)
        assert len(matching) == 2
        assert matching[1] == "a"
        assert matching[0] == "b"

    def test_crown_instance(self):
        n = 20
        edges = [(i, f"s{i}") for i in range(n)] + [(i, "hub") for i in range(n)]
        graph = build_graph(edges, n_left=n)
        assert len(maximum_matching(graph)) == n


class TestAugmenting:
    def test_extend_matching_adds_one_job_at_a_time(self):
        graph = build_graph(
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)], n_left=3
        )
        partial = {0: 1}
        full = extend_matching(graph, partial)
        assert len(full) == 3
        assert len(set(full.values())) == 3

    def test_extend_matching_rejects_inconsistent_partial(self):
        graph = build_graph([(0, 0), (1, 0)], n_left=2)
        with pytest.raises(ValueError):
            extend_matching(graph, {0: 0, 1: 0})

    def test_extend_matching_unknown_label(self):
        graph = build_graph([(0, 0)], n_left=1)
        with pytest.raises(ValueError):
            extend_matching(graph, {0: 99})

    def test_augmenting_path_failure_leaves_matching_untouched(self):
        graph = build_graph([(0, "a"), (1, "a")], n_left=2)
        match_left = [graph.right_id_of("a"), -1]
        match_right = [0]
        assert augmenting_path(graph, match_left, match_right, 1) is False
        assert match_left == [graph.right_id_of("a"), -1]

    def test_augmenting_path_requires_unmatched_start(self):
        graph = build_graph([(0, "a")], n_left=1)
        match_left = [graph.right_id_of("a")]
        match_right = [0]
        with pytest.raises(ValueError):
            augmenting_path(graph, match_left, match_right, 0)


class TestHallViolation:
    def test_detects_overload(self):
        violation = hall_violation([(0, 1), (0, 1), (0, 1)], num_processors=1)
        assert violation == (0, 1, 3, 2)

    def test_no_violation(self):
        assert hall_violation([(0, 1), (0, 1)], num_processors=1) is None

    def test_respects_processor_count(self):
        assert hall_violation([(0, 0), (0, 0)], num_processors=2) is None
        assert hall_violation([(0, 0), (0, 0), (0, 0)], num_processors=2) is not None

    def test_empty_input(self):
        assert hall_violation([], num_processors=1) is None

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            hall_violation([(0, 1)], num_processors=0)
