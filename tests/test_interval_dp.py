"""Tests for the unified interval-DP engine (objectives, pruning, iteration)."""

import inspect
import json
import random
import sys

import pytest

from repro import MultiprocessorInstance
from repro.api import Problem, solve, to_json
from repro.core.brute_force import (
    brute_force_gap_multiproc,
    brute_force_power_multiproc,
)
from repro.core.dp_profile import IntervalDecomposition
from repro.core.exceptions import InvalidInstanceError
from repro.core.interval_dp import (
    BOTTOM_UP_ENGINE_VERSION,
    ENGINE_NAME,
    ENGINE_VERSION,
    TRAMPOLINE_ENGINE_VERSION,
    GapObjective,
    IntervalDPEngine,
    PowerObjective,
    TrampolineDPEngine,
    build_engine,
    staircase_schedule,
)
from repro.core.multiproc_gap_dp import MultiprocessorGapSolver, solve_multiprocessor_gap
from repro.core.multiproc_power_dp import (
    MultiprocessorPowerSolver,
    solve_multiprocessor_power,
)
from repro.generators import (
    random_multiprocessor_instance,
    random_one_interval_instance,
)
from repro.perf.seed_baseline import SeedGapSolver, SeedPowerSolver
from tests.conftest import random_window_pairs


def _engine_for(instance, objective):
    return IntervalDPEngine(IntervalDecomposition(instance), objective)


class TestEngineOutcome:
    def test_empty_instance_is_feasible_zero(self):
        instance = MultiprocessorInstance(jobs=[], num_processors=2)
        outcome = _engine_for(instance, GapObjective(2)).solve()
        assert outcome.feasible and outcome.value == 0 and outcome.assignment == {}

    def test_infeasible_instance(self):
        instance = MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1)
        outcome = _engine_for(instance, GapObjective(1)).solve()
        assert not outcome.feasible
        assert outcome.value is None and outcome.assignment is None

    def test_assignment_respects_windows(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 4), (0, 2), (3, 6), (6, 9)], num_processors=2
        )
        outcome = _engine_for(instance, GapObjective(2)).solve()
        assert outcome.feasible
        for job_idx, t in outcome.assignment.items():
            job = instance.jobs[job_idx]
            assert job.release <= t <= job.deadline
        schedule = staircase_schedule(instance, outcome.assignment)
        assert schedule.num_gaps() == outcome.value

    def test_metadata_shape(self):
        instance = MultiprocessorInstance.from_pairs([(0, 3), (2, 5)], num_processors=2)
        engine = _engine_for(instance, PowerObjective(2, 1.5))
        engine.solve()
        meta = engine.metadata()
        assert meta["name"] == ENGINE_NAME
        assert meta["version"] == BOTTOM_UP_ENGINE_VERSION
        assert meta["objective"] == "power"
        stats = meta["stats"]
        assert stats["states_computed"] > 0
        assert all(isinstance(v, int) for v in stats.values())

    def test_trampoline_metadata_reports_v1(self):
        instance = MultiprocessorInstance.from_pairs([(0, 3), (2, 5)], num_processors=2)
        engine = TrampolineDPEngine(IntervalDecomposition(instance), GapObjective(2))
        engine.solve()
        meta = engine.metadata()
        assert meta["name"] == ENGINE_NAME
        assert meta["version"] == TRAMPOLINE_ENGINE_VERSION

    def test_build_engine_selectors(self):
        instance = MultiprocessorInstance.from_pairs([(0, 3)], num_processors=1)
        decomp = IntervalDecomposition(instance)
        assert isinstance(build_engine(decomp, GapObjective(1), "v2"), IntervalDPEngine)
        assert isinstance(
            build_engine(decomp, GapObjective(1), "v1"), TrampolineDPEngine
        )
        # No selector means v2: there is no process-wide default to consult.
        assert isinstance(build_engine(decomp, GapObjective(1)), IntervalDPEngine)
        for retired in ("v3", "auto", "v9"):
            with pytest.raises(ValueError):
                build_engine(decomp, GapObjective(1), retired)

    def test_facade_engine_meta_names_v2(self):
        instance = random_one_interval_instance(
            num_jobs=6, horizon=16, max_window=5, seed=0
        )
        for problem in (
            Problem(objective="gaps", instance=instance),
            Problem(objective="power", instance=instance, alpha=2.0),
        ):
            meta = json.loads(to_json(solve(problem)))["extra"]["engine"]
            assert meta["name"] == ENGINE_NAME
            assert meta["version"] == BOTTOM_UP_ENGINE_VERSION == "2.0"
            assert set(meta) == {"name", "version", "objective", "stats"}

    def test_power_objective_rejects_negative_alpha(self):
        with pytest.raises(InvalidInstanceError):
            PowerObjective(1, -0.5)


class TestAgainstSeedBaseline:
    """Differential guard: the engine must agree with the frozen seed solvers."""

    @pytest.mark.parametrize("seed", range(15))
    def test_gap_matches_seed_solver(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        p = rng.randint(1, 3)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 12), max_window=5)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        engine = solve_multiprocessor_gap(instance)
        feasible, value, _sched = SeedGapSolver(instance).solve()
        assert engine.feasible == feasible
        if feasible:
            assert engine.num_gaps == value

    @pytest.mark.parametrize("seed", range(15))
    def test_power_matches_seed_solver(self, seed):
        rng = random.Random(500 + seed)
        n = rng.randint(1, 8)
        p = rng.randint(1, 3)
        alpha = rng.choice([0.0, 0.5, 2.0, 4.0])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 11), max_window=5)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        engine = solve_multiprocessor_power(instance, alpha=alpha)
        feasible, value, _sched = SeedPowerSolver(instance, alpha=alpha).solve()
        assert engine.feasible == feasible
        if feasible:
            assert engine.power == pytest.approx(value)


class TestPruning:
    def test_hall_pruning_fires_on_overloaded_interval(self):
        # Five jobs forced into a two-column window on one processor: the
        # prefix Hall count proves infeasibility without expanding states.
        instance = MultiprocessorInstance.from_pairs(
            [(5, 6)] * 5 + [(0, 20)], num_processors=1
        )
        solver = MultiprocessorGapSolver(instance)
        solution = solver.solve()
        assert not solution.feasible
        assert solver.engine.stats.hall_pruned > 0

    def test_hall_pruning_never_changes_the_optimum(self):
        # Random sweep: values must match the brute-force oracle whether or
        # not pruning fires along the way.
        for seed in range(8):
            rng = random.Random(2000 + seed)
            n = rng.randint(3, 7)
            p = rng.randint(1, 2)
            pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 9), max_window=3)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            dp = solve_multiprocessor_gap(instance, use_full_horizon=True)
            brute, _ = brute_force_gap_multiproc(instance)
            assert (dp.num_gaps if dp.feasible else None) == brute

    def test_dominance_pruning_fires_and_preserves_optimality(self):
        fired = 0
        for seed in range(12):
            rng = random.Random(3000 + seed)
            n = rng.randint(5, 8)
            p = rng.randint(2, 4)
            pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 12), max_window=6)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            solver = MultiprocessorGapSolver(instance, use_full_horizon=True)
            solution = solver.solve()
            brute, _ = brute_force_gap_multiproc(instance)
            assert (solution.num_gaps if solution.feasible else None) == brute
            fired += solver.engine.stats.dominance_dropped > 0
        # The flipped-corrected-value dominance rule fires on most random
        # multiprocessor instances; a dead prune would be silent regression.
        assert fired >= 3

    def test_power_matches_brute_force_with_pruning(self):
        for seed in range(6):
            rng = random.Random(4000 + seed)
            n = rng.randint(3, 5)
            p = rng.randint(1, 2)
            alpha = rng.choice([0.5, 1.0, 3.0])
            pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 8), max_window=4)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            dp = solve_multiprocessor_power(instance, alpha=alpha, use_full_horizon=True)
            brute, _ = brute_force_power_multiproc(instance, alpha=alpha)
            if brute is None:
                assert not dp.feasible
            else:
                assert dp.power == pytest.approx(brute)


class TestIterativeEvaluation:
    """The deep-recursion regression: wide-window n = 60 with sparse releases.

    The pre-engine solvers recursed on the native stack and needed well
    over 100 frames beyond the caller on this instance; the engine's
    explicit-stack trampoline needs O(1).  The test pins that by solving
    under a recursion limit only slightly above the current frame depth —
    it passes only with the iterative engine.
    """

    @pytest.fixture
    def wide_window_instance(self) -> MultiprocessorInstance:
        pairs = [(2 * i, 2 * i + 6) for i in range(60)]
        return MultiprocessorInstance.from_pairs(pairs, num_processors=1)

    def _with_recursion_limit(self, extra_frames, fn):
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + extra_frames)
        try:
            return fn()
        finally:
            sys.setrecursionlimit(old_limit)

    def test_engine_solves_deep_instance_under_tight_recursion_limit(
        self, wide_window_instance
    ):
        solution = self._with_recursion_limit(
            80, lambda: solve_multiprocessor_gap(wide_window_instance)
        )
        assert solution.feasible
        # Cross-check the value with the seed solver under a normal limit.
        _feasible, seed_value, _sched = SeedGapSolver(wide_window_instance).solve()
        assert solution.num_gaps == seed_value
        solution.require_schedule().validate()

    def test_seed_solver_hits_the_recursion_limit_on_the_same_instance(
        self, wide_window_instance
    ):
        # Documents the hazard the engine removes: same instance, same
        # limit, the recursive seed implementation cannot finish.
        with pytest.raises(RecursionError):
            self._with_recursion_limit(
                80, lambda: SeedGapSolver(wide_window_instance).solve()
            )

    def test_power_engine_is_iterative_too(self, wide_window_instance):
        solution = self._with_recursion_limit(
            80,
            lambda: solve_multiprocessor_power(wide_window_instance, alpha=2.0),
        )
        assert solution.feasible
        assert solution.power == pytest.approx(
            solution.require_schedule().power_cost(2.0)
        )

    def test_peak_stack_depth_is_reported(self, wide_window_instance):
        solver = MultiprocessorGapSolver(wide_window_instance)
        solver.solve()
        # The logical DP nests dozens of levels deep; the engine tracked
        # them on its explicit stack, not the interpreter's.
        assert solver.engine.stats.peak_stack_depth >= 30


class TestMemoReuse:
    def test_second_solve_reuses_every_state(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 3), (1, 4), (2, 6), (5, 8)], num_processors=2
        )
        solver = MultiprocessorPowerSolver(instance, alpha=1.0)
        first = solver.solve()
        computed = solver.engine.stats.states_computed
        second = solver.solve()
        assert first.power == second.power
        assert solver.engine.stats.states_computed == computed


class TestEngineV1VsV2:
    """Differential guard: the bottom-up and trampoline evaluators agree."""

    @pytest.mark.parametrize("seed", range(20))
    def test_gap_engines_agree(self, seed):
        rng = random.Random(7000 + seed)
        n = rng.randint(1, 10)
        p = rng.randint(1, 4)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 14), max_window=6)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        v1 = solve_multiprocessor_gap(instance, engine="v1")
        v2 = solve_multiprocessor_gap(instance, engine="v2")
        assert v1.feasible == v2.feasible
        if v2.feasible:
            assert v1.num_gaps == v2.num_gaps
            v2.require_schedule().validate()
            assert v2.require_schedule().num_gaps() == v2.num_gaps

    @pytest.mark.parametrize("seed", range(20))
    def test_power_engines_agree(self, seed):
        rng = random.Random(8000 + seed)
        n = rng.randint(1, 9)
        p = rng.randint(1, 4)
        alpha = rng.choice([0.0, 0.5, 1.5, 3.0])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 13), max_window=6)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        v1 = solve_multiprocessor_power(instance, alpha=alpha, engine="v1")
        v2 = solve_multiprocessor_power(instance, alpha=alpha, engine="v2")
        assert v1.feasible == v2.feasible
        if v2.feasible:
            assert v2.power == pytest.approx(v1.power)
            v2.require_schedule().validate()
            assert v2.require_schedule().power_cost(alpha) == pytest.approx(v2.power)

    @pytest.mark.parametrize("seed", range(12))
    def test_engines_pick_identical_schedules(self, seed):
        # Not just the same optimum: the same value bits and the same
        # witnessing schedule, on one-interval and multiprocessor inputs.
        if seed % 2 == 0:
            instance = random_one_interval_instance(
                num_jobs=6, horizon=16, max_window=5, seed=seed
            )
        else:
            instance = random_multiprocessor_instance(
                num_jobs=8, num_processors=2, horizon=12, max_window=5, seed=seed
            )
        answers = []
        for engine in ("v1", "v2"):
            if seed % 3 == 0:
                solution = MultiprocessorPowerSolver(
                    instance, alpha=1.0 + seed % 4, engine=engine
                ).solve()
                value = solution.power
            else:
                solution = MultiprocessorGapSolver(instance, engine=engine).solve()
                value = solution.num_gaps
            schedule = solution.schedule
            answers.append(
                (solution.feasible, repr(value), schedule and schedule.assignment)
            )
        assert answers[0] == answers[1]


class TestPeakDepthReporting:
    """Satellite regression: leaf/Hall-pruned-only runs must not report 0."""

    #: Five jobs forced into a two-column window: both engines prune the
    #: root via the Hall condition without expanding any branch state.
    HALL_PRUNED = [(5, 6)] * 5 + [(0, 20)]

    @pytest.mark.parametrize("engine", ["v1", "v2"])
    def test_hall_pruned_run_reports_positive_depth(self, engine):
        instance = MultiprocessorInstance.from_pairs(self.HALL_PRUNED, num_processors=1)
        solver = MultiprocessorGapSolver(instance, engine=engine)
        solution = solver.solve()
        assert not solution.feasible
        stats = solver.engine.stats
        assert stats.hall_pruned > 0
        assert stats.states_computed > 0
        assert stats.peak_stack_depth >= 1

    @pytest.mark.parametrize("engine", ["v1", "v2"])
    def test_single_column_run_reports_positive_depth(self, engine):
        instance = MultiprocessorInstance.from_pairs([(4, 4), (4, 4)], num_processors=2)
        solver = MultiprocessorGapSolver(instance, engine=engine)
        assert solver.solve().feasible
        assert solver.engine.stats.peak_stack_depth >= 1

    def test_v2_depth_tracks_the_dependency_chain(self):
        pairs = [(2 * i, 2 * i + 6) for i in range(60)]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        solver = MultiprocessorGapSolver(instance, engine="v2")
        solver.solve()
        # The node DAG of the sparse staircase nests dozens of levels deep;
        # the bottom-up pass reports the longest dependency chain.
        assert solver.engine.stats.peak_stack_depth >= 30
