"""Tests for repro.api.decomposition (decomposed facade solves).

The decomposed path must be *invisible* except for speed: identical
values, schedules and serialized results to the monolithic DP, across
objectives, processor counts and execution backends, fresh or from
cache.  These tests pin that contract, plus the orchestration details —
per-component cache population, the infeasible-component short-circuit,
the synthesized ``decomposition`` metadata block, the config gates, and
warm pool workers following a later reconfiguration.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    MultiprocessorInstance,
    OneIntervalInstance,
    Problem,
    clear_solve_cache,
    configure_decomposition,
    configure_solve_cache,
    decomposition_config,
    decomposition_stats,
    reset_decomposition_stats,
    solve,
    solve_batch,
    solve_cache_bypass,
    solve_cache_stats,
    to_json,
)
from repro.api.decomposition import DEFAULT_MIN_JOBS
from repro.core.jobs import Job
from repro.generators import splittable_instance
from repro.runtime import configure_backend, configured_backend


@pytest.fixture(autouse=True)
def decomposition_sandbox():
    """Fresh cache, a permissive decomposition config and serial component
    solves (the batch backend), all restored afterwards."""
    saved = decomposition_config()
    saved_backend = configured_backend()
    configure_solve_cache(256)
    clear_solve_cache()
    configure_decomposition(enabled=True, min_jobs=2)
    configure_backend("serial")
    reset_decomposition_stats()
    yield
    configure_backend(saved_backend)
    configure_decomposition(**saved)
    configure_solve_cache(256)
    clear_solve_cache()


def jobs_from_pairs(pairs):
    return [Job(release=r, deadline=d, name=f"j{i}") for i, (r, d) in enumerate(pairs)]


def gap_problem(num_jobs=18, num_processors=2, seed=0, **kwargs):
    instance = splittable_instance(
        num_jobs=num_jobs,
        num_clusters=3,
        cluster_horizon=8,
        seam=4,
        seed=seed,
        num_processors=num_processors,
        **kwargs,
    )
    return Problem(objective="gaps", instance=instance)


def monolithic(problem, solver):
    """The reference answer: bypass skips both the cache and decomposition."""
    with solve_cache_bypass():
        return solve(problem, solver=solver)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("num_processors", [None, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gap_values_match_monolithic(self, num_processors, seed):
        instance = splittable_instance(
            num_jobs=15,
            num_clusters=3,
            cluster_horizon=8,
            seam=4,
            seed=seed,
            num_processors=num_processors,
        )
        problem = Problem(objective="gaps", instance=instance)
        decomposed = solve(problem, solver="gap-dp")
        reference = monolithic(problem, "gap-dp")
        assert decomposed.status == reference.status
        assert decomposed.value == reference.value
        if decomposed.schedule is not None:
            decomposed.schedule.validate()

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("num_processors", [None, 2])
    def test_power_values_match_monolithic(self, alpha, num_processors):
        # The default seam (8) exceeds every alpha here, so decomposition
        # stays sound for the power objective.
        instance = splittable_instance(
            num_jobs=14,
            num_clusters=3,
            cluster_horizon=7,
            seed=5,
            num_processors=num_processors,
        )
        problem = Problem(objective="power", instance=instance, alpha=alpha)
        decomposed = solve(problem, solver="power-dp")
        reference = monolithic(problem, "power-dp")
        assert decomposed.status == reference.status
        assert decomposed.value == pytest.approx(reference.value)

    def test_decomposition_actually_ran(self):
        solve(gap_problem(), solver="gap-dp")
        stats = decomposition_stats()
        assert stats["attempts"] >= 1
        assert stats["decomposed"] >= 1
        assert stats["component_solves"] >= 2

    def test_seam_stretch_power_accounting_hand_case(self):
        # Two unit jobs 10 apart, alpha = 2: the monolithic optimum is
        # busy 2 + wake 2 + bridge min(9, 2) = 6, and the per-component
        # sum (1 + 2) + (1 + 2) = 6 matches exactly because the seam
        # bridge saturates at alpha and replaces the second wake-up.
        instance = OneIntervalInstance(jobs=jobs_from_pairs([(0, 0), (10, 10)]))
        problem = Problem(objective="power", instance=instance, alpha=2.0)
        result = solve(problem, solver="power-dp")
        assert result.value == pytest.approx(6.0)
        assert "decomposition" in result.extra["engine"]
        assert result.value == pytest.approx(monolithic(problem, "power-dp").value)

    @settings(max_examples=15, deadline=None)
    @given(
        num_jobs=st.integers(min_value=6, max_value=16),
        num_clusters=st.integers(min_value=2, max_value=4),
        cluster_horizon=st.integers(min_value=4, max_value=9),
        seam=st.integers(min_value=1, max_value=5),
        num_processors=st.sampled_from([None, 2, 3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_splittable_instances_agree(
        self, num_jobs, num_clusters, cluster_horizon, seam, num_processors, seed
    ):
        instance = splittable_instance(
            num_jobs=num_jobs,
            num_clusters=num_clusters,
            cluster_horizon=cluster_horizon,
            seam=seam,
            seed=seed,
            num_processors=num_processors,
        )
        problem = Problem(objective="gaps", instance=instance)
        decomposed = solve(problem, solver="gap-dp")
        reference = monolithic(problem, "gap-dp")
        assert decomposed.status == reference.status
        assert decomposed.value == reference.value


class TestByteIdentity:
    def test_identical_across_backends(self):
        problem = gap_problem(num_jobs=12, num_processors=2, seed=3)
        serialized = {}
        for backend in ("serial", "process"):
            clear_solve_cache()
            configure_backend(backend)
            serialized[backend] = to_json(solve(problem, solver="gap-dp"))
        assert serialized["serial"] == serialized["process"]

    def test_power_identical_across_backends(self):
        instance = splittable_instance(
            num_jobs=10, num_clusters=2, cluster_horizon=6, seed=7
        )
        problem = Problem(objective="power", instance=instance, alpha=2.0)
        serialized = {}
        for backend in ("serial", "process"):
            clear_solve_cache()
            configure_backend(backend)
            serialized[backend] = to_json(solve(problem, solver="power-dp"))
        assert serialized["serial"] == serialized["process"]

    def test_cache_hit_replays_fresh_result_verbatim(self):
        problem = gap_problem(num_jobs=12, num_processors=2, seed=4)
        fresh = solve(problem, solver="gap-dp")
        hits_before = solve_cache_stats()["hits"]
        replay = solve(problem, solver="gap-dp")
        assert solve_cache_stats()["hits"] > hits_before
        assert to_json(fresh) == to_json(replay)
        assert "decomposition" in replay.extra["engine"]


class TestComponentCaching:
    def test_components_populate_the_cache_independently(self):
        # Two time-shifted copies of the same cluster: canonicalization is
        # shift-invariant, so the second component must hit the entry the
        # first one stored.
        pairs = [(0, 2), (1, 3), (2, 4)]
        shifted = [(r + 10, d + 10) for r, d in pairs]
        instance = OneIntervalInstance(jobs=jobs_from_pairs(pairs + shifted))
        problem = Problem(objective="gaps", instance=instance)
        solve(problem, solver="gap-dp")
        assert solve_cache_stats()["hits"] >= 1

    def test_standalone_component_solve_hits_the_warm_cache(self):
        pairs = [(0, 2), (1, 3), (2, 4)]
        shifted = [(r + 10, d + 10) for r, d in pairs]
        full = OneIntervalInstance(jobs=jobs_from_pairs(pairs + shifted))
        solve(Problem(objective="gaps", instance=full), solver="gap-dp")
        hits_before = solve_cache_stats()["hits"]
        alone = OneIntervalInstance(jobs=jobs_from_pairs(pairs))
        result = solve(Problem(objective="gaps", instance=alone), solver="gap-dp")
        assert solve_cache_stats()["hits"] > hits_before
        assert result.status == "optimal"


class TestInfeasibility:
    def test_hall_infeasible_short_circuits_without_solving(self):
        # Anchored Hall counting proves this infeasible outright; no
        # component DP may run.
        jobs = jobs_from_pairs([(0, 1), (0, 1), (0, 1), (10, 11), (10, 11)])
        problem = Problem(
            objective="gaps",
            instance=OneIntervalInstance(jobs=jobs),
        )
        result = solve(problem, solver="gap-dp")
        assert result.status == "infeasible"
        stats = decomposition_stats()
        assert stats["infeasible_short_circuits"] == 1
        assert stats["component_solves"] == 0
        assert result.status == monolithic(problem, "gap-dp").status

    def test_interior_overloaded_component_stops_remaining_solves(self):
        # Five jobs crammed into the 4 slots of [10, 11] x p=2 escape the
        # *anchored* prefix/suffix Hall counts (the surrounding slack
        # absorbs them), so the infeasibility only surfaces when the middle
        # component's DP runs — and then the third cluster must never be
        # solved (serial backend, in-flight window of one).
        jobs = jobs_from_pairs(
            [(0, 1), (0, 1)]
            + [(10, 11)] * 5
            + [(20, 21), (20, 21)]
        )
        instance = MultiprocessorInstance(jobs=jobs, num_processors=2)
        problem = Problem(objective="gaps", instance=instance)
        result = solve(problem, solver="gap-dp")
        assert result.status == "infeasible"
        stats = decomposition_stats()
        # Frontier order is component-major with u descending: cluster 0
        # solves at u=2 and u=1, then cluster 1 at u=2 proves infeasible.
        assert stats["component_solves"] == 3
        assert result.status == monolithic(problem, "gap-dp").status


class TestMetadataAndConfig:
    def test_decomposition_block_describes_the_split(self):
        result = solve(gap_problem(num_jobs=12, num_processors=2, seed=9), solver="gap-dp")
        block = result.extra["engine"]["decomposition"]
        assert block["components"] == 3
        assert len(block["seams"]) == 2
        assert all(seam >= block["min_seam"] for seam in block["seams"])
        assert len(block["per_component"]) == 3
        assert len(block["processors"]) == 3
        for per in block["per_component"]:
            assert per["jobs"] >= 1
            assert per["start"] <= per["end"]
        # Engine stats keep their aggregate integer shape.
        assert all(
            isinstance(v, int) for v in result.extra["engine"]["stats"].values()
        )

    def test_disabled_configuration_runs_the_monolith(self):
        configure_decomposition(enabled=False)
        result = solve(gap_problem(), solver="gap-dp")
        assert "decomposition" not in result.extra["engine"]
        assert decomposition_stats()["attempts"] == 0

    def test_min_jobs_threshold_gates_decomposition(self):
        configure_decomposition(min_jobs=1000)
        result = solve(gap_problem(), solver="gap-dp")
        assert "decomposition" not in result.extra["engine"]

    def test_config_snapshot_round_trips(self):
        snapshot = configure_decomposition(enabled=False, min_jobs=7)
        assert snapshot == {"enabled": False, "min_jobs": 7}
        configure_decomposition(enabled=True, min_jobs=99)
        assert configure_decomposition(**snapshot) == snapshot

    def test_default_min_jobs_protects_small_instances(self):
        assert DEFAULT_MIN_JOBS >= 8


class TestWarmWorkerSettings:
    """Pool workers forked under one decomposition setting must follow the
    caller's later reconfiguration: the pool's config snapshot carries it."""

    @pytest.mark.parametrize("change", [{"enabled": False}, {"min_jobs": 1000}])
    def test_process_batch_matches_serial_after_reconfiguring(self, change):
        warm = solve_batch(
            [gap_problem(num_jobs=12, num_processors=2, seed=21)],
            backend="process",
            workers=2,
        )
        assert "decomposition" in warm[0].extra["engine"]
        configure_decomposition(**change)
        # A problem no worker has solved yet, so no worker-side cache entry
        # can answer for it.
        problem = gap_problem(num_jobs=12, num_processors=2, seed=22)
        serial = solve_batch([problem], backend="serial")
        parallel = solve_batch([problem], backend="process", workers=2)
        assert "decomposition" not in serial[0].extra["engine"]
        assert to_json(parallel[0]) == to_json(serial[0])
