"""Unit tests for the shared interval-decomposition machinery of the exact DPs.

The job-set queries that split subproblems live in the interval-DP engine
(released-job lists built incrementally per column range); they are
checked here against direct filters of the decomposition's deadline order.
"""

import random

import pytest

from repro import MultiprocessorInstance
from repro.core.dp_profile import IntervalDecomposition
from repro.core.interval_dp import GapObjective, IntervalDPEngine, PowerObjective
from tests.conftest import random_window_pairs


def _engine(decomp: IntervalDecomposition) -> IntervalDPEngine:
    return IntervalDPEngine(decomp, GapObjective(decomp.num_processors))


def _index_range(decomp: IntervalDecomposition, t1: int, t2: int):
    return decomp.column_index[t1], decomp.column_index[t2]


@pytest.fixture
def decomposition() -> IntervalDecomposition:
    instance = MultiprocessorInstance.from_pairs(
        [(0, 3), (2, 5), (2, 8), (7, 9)], num_processors=2
    )
    return IntervalDecomposition(instance)


class TestColumns:
    def test_columns_cover_horizon_for_small_instances(self, decomposition):
        assert decomposition.columns == list(range(0, 10))

    def test_index_of_and_column_roundtrip(self, decomposition):
        assert len(decomposition.column_index) == len(decomposition.columns)
        for idx, t in enumerate(decomposition.columns):
            assert decomposition.column_index[t] == idx


class TestJobQueries:
    def test_deadline_order_is_by_deadline_then_release(self, decomposition):
        order = decomposition.deadline_order
        deadlines = [decomposition.jobs[j].deadline for j in order]
        assert deadlines == sorted(deadlines)

    def test_jobs_released_in_range(self, decomposition):
        released = _engine(decomposition)._released(*_index_range(decomposition, 2, 5))
        assert set(released) == {1, 2}

    def test_range_query_is_cached(self, decomposition):
        engine = _engine(decomposition)
        first = engine._released(*_index_range(decomposition, 0, 9))
        second = engine._released(*_index_range(decomposition, 0, 9))
        assert first is second


class TestJobSplitQueries:
    """The queries the interval-DP engine uses to split subproblems."""

    @pytest.fixture
    def split_decomposition(self) -> IntervalDecomposition:
        instance = MultiprocessorInstance.from_pairs(
            [(0, 5), (1, 3), (1, 5), (4, 7), (6, 8)], num_processors=2
        )
        return IntervalDecomposition(instance)

    @pytest.mark.parametrize("seed", range(6))
    def test_engine_released_matches_deadline_order_filter(self, seed):
        # The incremental merge must equal a direct scan of the deadline
        # order for every column range, whatever order the ranges are
        # first asked for in.
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 30), max_window=8)
        decomp = IntervalDecomposition(
            MultiprocessorInstance.from_pairs(pairs, num_processors=1 + seed % 3)
        )
        engine = _engine(decomp)
        ranges = [
            (i1, i2)
            for i1 in range(len(decomp.columns))
            for i2 in range(i1, len(decomp.columns))
        ]
        rng.shuffle(ranges)
        for i1, i2 in ranges:
            t1, t2 = decomp.columns[i1], decomp.columns[i2]
            expected = [
                j for j in decomp.deadline_order if t1 <= decomp.jobs[j].release <= t2
            ]
            assert list(engine._released(i1, i2)) == expected, (i1, i2)

    def test_split_partitions_node_jobs(self, split_decomposition):
        # Every split of every branch node partitions the node's jobs minus
        # jmax into released-at-or-before t' (left child) and released
        # after t' (right child), exactly as the exchange argument needs.
        decomp = split_decomposition
        engine = IntervalDPEngine(decomp, PowerObjective(2, 1.0))
        engine.solve()
        checked = 0
        for nid, plan in enumerate(engine._node_plan):
            if plan is None:
                continue
            node = engine._node_jobs_list[nid]
            _jmax, splits, _right_end = plan
            for t_prime, left_id, right_id, *_rest in splits:
                after = [j for j in node if decomp.jobs[j].release > t_prime]
                assert engine._node_k[right_id] == len(after)
                assert engine._node_k[left_id] == len(node) - 1 - len(after)
                checked += 1
        assert checked > 0

    def test_node_jobs_prefix_is_stable_under_k(self, split_decomposition):
        # Node k's jobs are the first k released jobs, a prefix of node
        # k + 1's: the memoized Hall prefix check relies on it.
        engine = _engine(split_decomposition)
        engine.solve()
        by_range = {}
        for nid, jobs in enumerate(engine._node_jobs_list):
            if jobs is not None:
                key = (engine._node_i1[nid], engine._node_i2[nid])
                by_range.setdefault(key, {})[engine._node_k[nid]] = jobs
        for nodes in by_range.values():
            for k, jobs in nodes.items():
                if k + 1 in nodes:
                    assert nodes[k + 1][:k] == jobs


class TestRangeCache:
    """The engine's released-list cache, keyed by column-index range."""

    def test_distinct_ranges_get_distinct_entries(self, decomposition):
        engine = _engine(decomposition)
        a = engine._released(*_index_range(decomposition, 0, 5))
        b = engine._released(*_index_range(decomposition, 0, 9))
        assert a is not b
        assert engine._released(*_index_range(decomposition, 0, 5)) is a
        assert engine._released(*_index_range(decomposition, 0, 9)) is b

    def test_cache_key_is_the_time_range(self, decomposition):
        engine = _engine(decomposition)
        i1, i2 = _index_range(decomposition, 2, 8)
        engine._released(i1, i2)
        assert (i1, i2) in engine._released_cache
        before = len(engine._released_cache)
        engine._released(i1, i2)
        assert len(engine._released_cache) == before

    def test_empty_range_is_cached_too(self, decomposition):
        engine = _engine(decomposition)
        # Job 3 is released at 7 and nothing at 8 or 9.
        i1, i2 = _index_range(decomposition, 8, 9)
        assert engine._released(i1, i2) == ()
        assert engine._released(i1, i2) is engine._released_cache[(i1, i2)]


class TestDeadlineOrderDeterminism:
    def test_ties_break_by_release_then_index(self):
        instance = MultiprocessorInstance.from_pairs(
            [(2, 5), (0, 5), (0, 5), (1, 3)], num_processors=1
        )
        decomp = IntervalDecomposition(instance)
        # Deadline 3 first, then the three deadline-5 jobs by (release, index).
        assert decomp.deadline_order == [3, 1, 2, 0]

    def test_sparse_candidates_are_sorted_and_unique(self):
        pairs = [(0, 2), (300, 302), (600, 603)]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        decomp = IntervalDecomposition(instance)
        assert decomp.columns == sorted(set(decomp.columns))
        # Sparse: far below the 604-slot full horizon.
        assert len(decomp.columns) < 604
        for job in instance.jobs:
            assert job.release in decomp.column_index
            assert job.deadline in decomp.column_index


class TestValidation:
    def test_requires_at_least_one_processor(self):
        # MultiprocessorInstance itself rejects p = 0, so build a valid one and
        # check the decomposition accepts it; the p >= 1 guard is defensive.
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1)
        decomposition = IntervalDecomposition(instance)
        assert decomposition.num_processors == 1

    def test_full_horizon_flag(self):
        instance = MultiprocessorInstance.from_pairs([(0, 2), (100, 102)], num_processors=1)
        sparse = IntervalDecomposition(instance)
        dense = IntervalDecomposition(instance, use_full_horizon=True)
        assert len(dense.columns) == 103
        assert len(sparse.columns) < len(dense.columns)
