"""Tests for repro.core.canonical and the canonical solve cache.

Covers the satellite requirements: metamorphic equivalence (the canonical
representative solves to the same value as the original, for gaps and
power including stretch-sensitive power cases), cache hit/miss behavior
under solve and solve_batch, and cache-size bounding.
"""

import random

import pytest

from repro.api import (
    MultiprocessorInstance,
    OneIntervalInstance,
    Problem,
    clear_solve_cache,
    solve,
    solve_batch,
    solve_cache_bypass,
    solve_cache_stats,
)
from repro.core.canonical import (
    CanonicalSolveCache,
    canonical_assignment,
    canonical_form,
    canonical_instance,
    restore_assignment,
)
from repro.core.exceptions import InvalidInstanceError
from repro.core.jobs import MultiIntervalInstance
from tests.conftest import random_window_pairs


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts and ends with an empty cache."""
    clear_solve_cache()
    yield
    clear_solve_cache()


def _shift(pairs, delta):
    return [(r + delta, d + delta) for r, d in pairs]


PAIRS = [(0, 3), (1, 4), (2, 6), (5, 8), (5, 8)]


class TestCanonicalForm:
    def test_shifted_instances_share_the_key(self):
        a = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        b = MultiprocessorInstance.from_pairs(_shift(PAIRS, 11), num_processors=2)
        assert canonical_form(a).key == canonical_form(b).key
        assert canonical_form(a).digest == canonical_form(b).digest

    def test_permuted_instances_share_the_key(self):
        rng = random.Random(7)
        shuffled = list(PAIRS)
        rng.shuffle(shuffled)
        a = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        b = MultiprocessorInstance.from_pairs(shuffled, num_processors=2)
        assert canonical_form(a).key == canonical_form(b).key

    def test_processor_count_distinguishes_keys(self):
        a = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        b = MultiprocessorInstance.from_pairs(PAIRS, num_processors=3)
        assert canonical_form(a).key != canonical_form(b).key

    def test_one_interval_instance_is_p1(self):
        single = OneIntervalInstance.from_pairs([(0, 2), (4, 6)])
        multi = MultiprocessorInstance.from_pairs([(0, 2), (4, 6)], num_processors=1)
        assert canonical_form(single).key == canonical_form(multi).key

    def test_duplicate_jobs_compress_with_multiplicity(self):
        form = canonical_form(
            MultiprocessorInstance.from_pairs([(0, 1), (0, 1), (0, 1)], num_processors=2)
        )
        (_p, _stretches, windows) = form.key
        assert windows == (((0, 1), 3),)

    def test_stretch_lengths_distinguish_keys(self):
        # Same column count and job windows in column coordinates, but a
        # longer forbidden zone between the clusters.
        near = MultiprocessorInstance.from_pairs([(0, 1), (30, 31)], num_processors=1)
        far = MultiprocessorInstance.from_pairs([(0, 1), (40, 41)], num_processors=1)
        assert canonical_form(near).key != canonical_form(far).key

    def test_rejects_multi_interval_instances(self):
        instance = MultiIntervalInstance.from_time_lists([[0, 5]])
        with pytest.raises(InvalidInstanceError):
            canonical_form(instance)

    def test_assignment_round_trip(self):
        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        form = canonical_form(instance)
        times = {0: 0, 1: 1, 2: 2, 3: 5, 4: 6}
        canon = canonical_assignment(form, times)
        assert restore_assignment(form, canon) == times


class TestMetamorphicEquivalence:
    """The canonical representative is value-equivalent to the original."""

    @pytest.mark.parametrize("seed", range(12))
    def test_gap_value_matches_canonical_representative(self, seed):
        rng = random.Random(900 + seed)
        n = rng.randint(1, 8)
        p = rng.randint(1, 3)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 14), max_window=5)
        original = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        representative = canonical_instance(canonical_form(original))
        a = solve(Problem(objective="gaps", instance=original))
        clear_solve_cache()  # the representative must be solved cold
        b = solve(Problem(objective="gaps", instance=representative))
        assert a.feasible == b.feasible
        if a.feasible:
            assert a.value == b.value

    @pytest.mark.parametrize("seed", range(12))
    def test_power_value_matches_canonical_representative(self, seed):
        rng = random.Random(1700 + seed)
        n = rng.randint(1, 7)
        p = rng.randint(1, 3)
        alpha = rng.choice([0.0, 0.5, 2.0, 5.0])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 13), max_window=5)
        original = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        representative = canonical_instance(canonical_form(original))
        a = solve(Problem(objective="power", instance=original, alpha=alpha))
        clear_solve_cache()
        b = solve(Problem(objective="power", instance=representative, alpha=alpha))
        assert a.feasible == b.feasible
        if a.feasible:
            assert a.value == pytest.approx(b.value)

    def test_power_stretch_sensitive_case(self):
        # Two clusters separated by a long forbidden zone: the optimal power
        # depends on min(stretch, alpha), so a canonicalization that
        # collapsed stretches would get this wrong for small alpha.
        pairs = [(0, 1), (0, 1), (20, 21), (20, 21)]
        original = MultiprocessorInstance.from_pairs(_shift(pairs, 5), num_processors=2)
        representative = canonical_instance(canonical_form(original))
        for alpha in (0.5, 3.0, 50.0):
            a = solve(Problem(objective="power", instance=original, alpha=alpha))
            clear_solve_cache()
            b = solve(Problem(objective="power", instance=representative, alpha=alpha))
            assert a.value == pytest.approx(b.value)


class TestSolveCacheBehavior:
    def test_identical_instance_hits(self):
        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        first = solve(Problem(objective="gaps", instance=instance))
        second = solve(Problem(objective="gaps", instance=instance))
        stats = solve_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # Cache hits replay the original solve byte-for-byte (wall time is
        # excluded from equality), keeping batch runs deterministic.
        assert first == second

    def test_shifted_instance_hits_and_remaps(self):
        a = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        b = MultiprocessorInstance.from_pairs(_shift(PAIRS, 9), num_processors=2)
        ra = solve(Problem(objective="gaps", instance=a))
        rb = solve(Problem(objective="gaps", instance=b))
        assert solve_cache_stats()["hits"] == 1
        assert rb.value == ra.value
        rb.schedule.validate()
        assert rb.schedule.num_gaps() == rb.value

    def test_permuted_single_processor_instance_hits(self):
        a = OneIntervalInstance.from_pairs([(0, 2), (1, 4), (6, 9)])
        b = OneIntervalInstance.from_pairs([(6, 9), (0, 2), (1, 4)])
        ra = solve(Problem(objective="gaps", instance=a))
        rb = solve(Problem(objective="gaps", instance=b))
        assert solve_cache_stats()["hits"] == 1
        assert rb.value == ra.value
        rb.schedule.validate()

    def test_alpha_partitions_the_power_cache(self):
        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        solve(Problem(objective="power", instance=instance, alpha=1.0))
        solve(Problem(objective="power", instance=instance, alpha=2.0))
        stats = solve_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_infeasible_results_are_cached(self):
        instance = MultiprocessorInstance.from_pairs([(3, 3)] * 4, num_processors=2)
        first = solve(Problem(objective="gaps", instance=instance))
        second = solve(Problem(objective="gaps", instance=instance))
        assert first.status == second.status == "infeasible"
        assert solve_cache_stats()["hits"] == 1

    def test_solve_batch_serial_warms_and_hits(self):
        base = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        problems = [
            Problem(objective="gaps", instance=base),
            Problem(
                objective="gaps",
                instance=MultiprocessorInstance.from_pairs(
                    _shift(PAIRS, 3), num_processors=2
                ),
            ),
            Problem(
                objective="gaps",
                instance=MultiprocessorInstance.from_pairs(
                    _shift(PAIRS, 8), num_processors=2
                ),
            ),
        ]
        # Pinned to the serial backend: these counters are per-process,
        # so a REPRO_BACKEND=process test run would otherwise warm the
        # pool workers' caches instead of this one.
        results = solve_batch(problems, backend="serial")
        stats = solve_cache_stats()
        # One DP solve and no further lookups: the stream moves that answer
        # onto the isomorphic tail of the batch itself.
        assert stats["misses"] == 1 and stats["hits"] == 0
        assert stats["fresh_solves"] == 1
        assert len({r.value for r in results}) == 1
        for problem, result in zip(problems, results):
            result.schedule.validate()
            assert result.schedule.instance is problem.instance

    def test_solve_batch_dedupes_identical_problems(self):
        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        problems = [Problem(objective="gaps", instance=instance)] * 4
        results = solve_batch(problems, backend="serial")
        assert results[0] == results[1] == results[2] == results[3]
        stats = solve_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        # Duplicate positions are independent copies: post-processing one
        # result in place must not leak into the others.
        results[1].extra["tag"] = "mutated"
        assert "tag" not in results[0].extra
        assert "tag" not in results[2].extra

    def test_bypass_context_skips_lookup_and_store(self):
        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        with solve_cache_bypass():
            solve(Problem(objective="gaps", instance=instance))
        stats = solve_cache_stats()
        assert stats["size"] == 0 and stats["maxsize"] == 256
        assert stats["hits"] == 0 and stats["misses"] == 0
        # The DP itself still ran (bypass skips the cache, not the solve).
        assert stats["fresh_solves"] == 1
        # Outside the context the cache resumes normal operation.
        solve(Problem(objective="gaps", instance=instance))
        assert solve_cache_stats()["misses"] == 1

    def test_metamorphic_relations_bypass_the_cache(self):
        from repro.verify.metamorphic import run_metamorphic

        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        problem = Problem(objective="gaps", instance=instance)
        issues = run_metamorphic(problem)
        assert issues == []
        # The base problem solve may populate the cache, but none of the
        # transformed solves (shift, permutation, ...) read or write it.
        assert solve_cache_stats()["hits"] == 0

    def test_disabled_cache_never_hits(self):
        # solve_cache_bypass() is the one way to solve without the cache.
        instance = MultiprocessorInstance.from_pairs(PAIRS, num_processors=2)
        with solve_cache_bypass():
            solve(Problem(objective="gaps", instance=instance))
            solve(Problem(objective="gaps", instance=instance))
        stats = solve_cache_stats()
        assert stats["hits"] == 0 and stats["size"] == 0
        assert stats["fresh_solves"] == 2


class TestCacheBounding:
    def test_lru_eviction_bounds_the_size(self):
        cache = CanonicalSolveCache(maxsize=3)
        for i in range(10):
            cache.put(("k", i), i)
        assert len(cache) == 3
        assert cache.get(("k", 9)) == 9
        assert cache.get(("k", 0)) is None

    def test_recently_used_entries_survive(self):
        cache = CanonicalSolveCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_solve_path_respects_bound(self, monkeypatch):
        from repro.api import solvers

        monkeypatch.setattr(solvers, "_SOLVE_CACHE", CanonicalSolveCache(maxsize=2))
        for delta in range(5):
            instance = MultiprocessorInstance.from_pairs(
                [(0, 2 + delta), (delta + 10, delta + 14)], num_processors=1
            )
            solve(Problem(objective="gaps", instance=instance))
        assert solve_cache_stats()["size"] <= 2
