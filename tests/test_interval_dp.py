"""Tests for the unified interval-DP engine (objectives, pruning, iteration)."""

import inspect
import json
import os
import random
import sys
from bisect import bisect_left, bisect_right

import pytest

from repro import (
    MultiprocessorInstance,
    MultiprocessorSchedule,
    OneIntervalInstance,
    Schedule,
)
from repro.api import Problem, from_dict, solve, to_json
from repro.api.solvers import clear_solve_cache
from repro.bounds import lower_bound_for
from repro.core.brute_force import (
    brute_force_gap_multiproc,
    brute_force_power_multiproc,
)
from repro.core.dp_profile import IntervalDecomposition
from repro.core.exceptions import InvalidInstanceError
from repro.core.interval_dp import (
    BOTTOM_UP_ENGINE_VERSION,
    ENGINE_NAME,
    GapObjective,
    IntervalDPEngine,
    PowerObjective,
    schedule_from_times,
    solve_exact,
    times_from_schedule,
)
from repro.generators import random_one_interval_instance
from repro.verify import certify_bound
from tests.conftest import full_horizon_engine, random_window_pairs

#: Envelopes of seeded gap/power problems (p = 1-4, n up to 60, some
#: infeasible).  The first 30 were recorded from the engine when a second,
#: independently written evaluator and the original recursive solvers were
#: still in the tree and agreed with it on every one of them.  The last 12
#: are power problems at alpha = 0.1, 0.3 and 1.7 (p = 1-4, n <= 40; five
#: duplicate their job windows, so many schedules tie for the optimum).
#: Float sums are exact at the first 30 cases' alphas (0.5, 2 and 4), so
#: only these pin the association order of the combine's additions and the
#: first-optimum tie-breaking: seven of them change if the combine computes
#: ``(left + charge) + right`` instead of ``left + (charge + right)``.  A
#: change that moves only engine counters or versions re-records them with
#: ``tests/fixtures/record_engine_envelopes.py``, which rewrites nothing else.
ENVELOPE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "engine_envelopes.json"
)
with open(ENVELOPE_FIXTURE, "r", encoding="utf-8") as _handle:
    RECORDED_ENVELOPES = json.load(_handle)["cases"]


def _brute_force_value(instance, objective, alpha=None):
    if objective == "gaps":
        value, _schedule = brute_force_gap_multiproc(instance)
    else:
        value, _schedule = brute_force_power_multiproc(instance, alpha=alpha)
    return value


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
        schedule = schedule_from_times(instance, outcome.assignment)
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
            assert meta["version"] == BOTTOM_UP_ENGINE_VERSION == "2.2"
            assert set(meta) == {"name", "version", "objective", "stats"}

    def test_power_objective_rejects_negative_alpha(self):
        with pytest.raises(InvalidInstanceError):
            PowerObjective(1, -0.5)


class TestAgainstSeedBaseline:
    """The seed-solver differential's seeded instances, checked against brute force.

    The recursive seed solvers these tests were named after are gone;
    brute force enumerates every assignment of the same instances, so it
    is the stronger reference.
    """

    @pytest.mark.parametrize("seed", range(15))
    def test_gap_matches_seed_solver(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        p = rng.randint(1, 3)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 12), max_window=5)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        engine = solve_exact(instance, "gaps")
        expected = _brute_force_value(instance, "gaps")
        assert engine.feasible == (expected is not None)
        if engine.feasible:
            assert engine.value == expected

    @pytest.mark.parametrize("seed", range(15))
    def test_power_matches_seed_solver(self, seed):
        rng = random.Random(500 + seed)
        n = rng.randint(1, 8)
        p = rng.randint(1, 3)
        alpha = rng.choice([0.0, 0.5, 2.0, 4.0])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 11), max_window=5)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        engine = solve_exact(instance, "power", alpha)
        expected = _brute_force_value(instance, "power", alpha)
        assert engine.feasible == (expected is not None)
        if engine.feasible:
            assert engine.value == pytest.approx(expected)


class TestScheduleFromTimes:
    """One helper decides the schedule type a solve returns, from the input type."""

    PAIRS = [(0, 2), (0, 2), (1, 3), (5, 6)]
    TIMES = {0: 0, 1: 1, 2: 2, 3: 5}

    def test_one_interval_input_gets_a_single_processor_schedule(self):
        instance = OneIntervalInstance.from_pairs(self.PAIRS)
        schedule = schedule_from_times(instance, self.TIMES)
        assert type(schedule) is Schedule
        assert schedule.instance is instance
        assert schedule.assignment == self.TIMES
        assert times_from_schedule(schedule) == self.TIMES

    @pytest.mark.parametrize("p", [1, 3])
    def test_multiprocessor_input_gets_the_staircase(self, p):
        instance = MultiprocessorInstance.from_pairs(self.PAIRS, num_processors=p)
        times = {0: 0, 1: 0, 2: 2, 3: 5} if p == 3 else self.TIMES
        schedule = schedule_from_times(instance, times)
        assert type(schedule) is MultiprocessorSchedule
        # Jobs sharing a time stack onto processors 1, 2, ... in index order.
        levels = {job: proc for job, (proc, _t) in schedule.assignment.items()}
        assert levels == ({0: 1, 1: 2, 2: 1, 3: 1} if p == 3 else {0: 1, 1: 1, 2: 1, 3: 1})
        assert times_from_schedule(schedule) == times

    def test_solve_exact_types_its_schedule_by_input(self):
        single = solve_exact(OneIntervalInstance.from_pairs(self.PAIRS), "gaps")
        lifted = solve_exact(
            MultiprocessorInstance.from_pairs(self.PAIRS, num_processors=1), "gaps"
        )
        assert type(single.schedule) is Schedule
        assert type(lifted.schedule) is MultiprocessorSchedule
        assert single.value == lifted.value
        assert times_from_schedule(single.schedule) == single.times
        assert times_from_schedule(lifted.schedule) == lifted.times

    def test_solve_exact_rejects_an_unknown_objective_or_a_missing_alpha(self):
        instance = OneIntervalInstance.from_pairs(self.PAIRS)
        with pytest.raises(ValueError):
            solve_exact(instance, "throughput")
        with pytest.raises(ValueError):
            solve_exact(instance, "power")


class TestPruning:
    def test_hall_pruning_fires_on_overloaded_interval(self):
        # Five jobs forced into a two-column window on one processor: the
        # prefix Hall count proves infeasibility without expanding states.
        instance = MultiprocessorInstance.from_pairs(
            [(5, 6)] * 5 + [(0, 20)], num_processors=1
        )
        solution = solve_exact(instance, "gaps")
        assert not solution.feasible
        assert solution.engine["stats"]["hall_pruned"] > 0

    def test_hall_pruning_never_changes_the_optimum(self):
        # Random sweep: values must match the brute-force oracle whether or
        # not pruning fires along the way.
        for seed in range(8):
            rng = random.Random(2000 + seed)
            n = rng.randint(3, 7)
            p = rng.randint(1, 2)
            pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 9), max_window=3)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            dp = full_horizon_engine(instance).solve()
            brute, _ = brute_force_gap_multiproc(instance)
            assert dp.value == brute

    def test_dominance_pruning_fires_and_preserves_optimality(self):
        fired = 0
        for seed in range(12):
            rng = random.Random(3000 + seed)
            n = rng.randint(5, 8)
            p = rng.randint(2, 4)
            pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 12), max_window=6)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            engine = full_horizon_engine(instance)
            outcome = engine.solve()
            brute, _ = brute_force_gap_multiproc(instance)
            assert outcome.value == brute
            fired += engine.stats.dominance_dropped > 0
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
            dp = full_horizon_engine(instance, "power", alpha).solve()
            brute, _ = brute_force_power_multiproc(instance, alpha=alpha)
            if brute is None:
                assert not dp.feasible
            else:
                assert dp.value == pytest.approx(brute)


def _bisect_hall_limits(jobs, columns, p, released, t1, t2):
    """Per-``q`` Hall limits of ``[t1, t2]`` in time coordinates, a bisect per count.

    The oracle for the engine's column-index limits.  Node ``k`` holds the
    first ``k`` of ``released`` (the interval's jobs in deadline order); it
    violates at ``q`` when a prefix ``[t1, d]`` over clipped deadlines or a
    suffix ``[r, t2]`` over sorted releases holds more jobs than ``p`` slots
    per candidate column, ``p - q`` at ``t2``.  Entry ``q`` is the smallest
    violating ``k``, or ``len(released) + 1``.
    """
    lo = bisect_left(columns, t1)
    hi = bisect_right(columns, t2)

    def violates(node, q):
        for count, j in enumerate(node, start=1):
            d = min(jobs[j].deadline, t2)
            held = q if d == t2 else 0
            if count > p * (bisect_right(columns, d, lo, hi) - lo) - held:
                return True
        releases = sorted(jobs[j].release for j in node)
        for count, r in enumerate(reversed(releases), start=1):
            if count > p * (hi - bisect_left(columns, r, lo, hi)) - q:
                return True
        return False

    limits = []
    for q in range(p + 1):
        limit = len(released) + 1
        for k in range(1, len(released) + 1):
            if violates(released[:k], q):
                limit = k
                break
        limits.append(limit)
    return limits


def _edf_fits(jobs, columns, p, node, t1, t2, q):
    """Whether ``node``'s unit jobs fit in ``[t1, t2]`` with ``p - q`` slots at ``t2``.

    Earliest-deadline-first over the candidate columns: each column runs
    the pending released jobs with the earliest deadlines, up to its
    slots.  Unit jobs with interval windows make this exact.
    """
    pending = []
    waiting = sorted(node, key=lambda j: max(jobs[j].release, t1))
    at = 0
    for t in columns[bisect_left(columns, t1):bisect_right(columns, t2)]:
        while at < len(waiting) and max(jobs[waiting[at]].release, t1) <= t:
            pending.append(min(jobs[waiting[at]].deadline, t2))
            at += 1
        pending.sort()
        if pending and pending[0] < t:
            return False
        del pending[: p - q if t == t2 else p]
    return not pending and at == len(waiting)


def _random_decomposition(rng, p_range=(1, 3)):
    n = rng.randint(4, 16)
    p = rng.randint(*p_range)
    pairs = random_window_pairs(
        rng, n, horizon=rng.randint(max(2, n // (2 * p)), n + 4), max_window=5
    )
    instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
    return IntervalDecomposition(instance)


class TestHallIndexCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_index_check_matches_bisect_oracle(self, seed):
        rng = random.Random(9000 + seed)
        q_dependent = finite = 0
        for _ in range(6):
            decomp = _random_decomposition(rng)
            p = decomp.num_processors
            engine = IntervalDPEngine(decomp, GapObjective(p))
            columns = decomp.columns
            # Random intervals, asked for in random order so the walks
            # shared per anchor column are entered from every direction.
            for _ in range(60):
                i1 = rng.randrange(len(columns))
                i2 = rng.randrange(i1, len(columns))
                released = engine._released(i1, i2)
                expected = _bisect_hall_limits(
                    decomp.jobs, columns, p, released, columns[i1], columns[i2]
                )
                limits = engine._hall_limits(i1, i2)
                assert list(limits) == expected, (decomp.jobs, p, i1, i2)
                finite += expected[0] <= len(released)
                q_dependent += expected[0] != expected[-1]
        # Some limits bite even at q = 0 and some only once q slots are held,
        # so neither the counts nor the q term is vacuous.
        assert finite and q_dependent

    @pytest.mark.parametrize("seed", range(6))
    def test_rejected_nodes_have_no_schedule(self, seed):
        # Soundness: whenever a limit rejects a node at q, no schedule of its
        # jobs exists with q of the p slots at the last column held.
        rng = random.Random(9500 + seed)
        rejected_only_with_q = 0
        for _ in range(8):
            decomp = _random_decomposition(rng, p_range=(1, 4))
            p = decomp.num_processors
            engine = IntervalDPEngine(decomp, PowerObjective(p, 1.0))
            columns = decomp.columns
            for _ in range(50):
                i1 = rng.randrange(len(columns))
                i2 = rng.randrange(i1, len(columns))
                released = engine._released(i1, i2)
                if not released:
                    continue
                k = rng.randint(1, len(released))
                q = rng.randint(0, p)
                limits = engine._hall_limits(i1, i2)
                if k < limits[q]:
                    continue
                assert not _edf_fits(
                    decomp.jobs, columns, p, released[:k], columns[i1], columns[i2], q
                ), (decomp.jobs, p, i1, i2, k, q)
                rejected_only_with_q += k < limits[0]
        assert rejected_only_with_q > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_q_aware_rejections_keep_the_optimum(self, seed):
        # p = 2-4 gap and power instances: nodes have q bits withheld
        # (limits at q >= 1), splits are dropped at plan time, and the
        # optimum and its schedule still match brute force.
        rng = random.Random(9800 + seed)
        withheld = pruned = 0
        for _ in range(6):
            n = rng.randint(5, 8)
            p = rng.randint(2, 4)
            pairs = random_window_pairs(rng, n, horizon=rng.randint(2, 5), max_window=3)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            for objective in ("gaps", "power"):
                alpha = rng.choice([0.3, 1.0, 2.5]) if objective == "power" else None
                algebra = GapObjective(p) if objective == "gaps" else PowerObjective(p, alpha)
                engine = _engine_for(instance, algebra)
                outcome = engine.solve()
                expected = _brute_force_value(instance, objective, alpha)
                assert outcome.feasible == (expected is not None)
                if outcome.feasible:
                    schedule = schedule_from_times(instance, outcome.assignment)
                    if objective == "gaps":
                        assert outcome.value == expected == schedule.num_gaps()
                    else:
                        assert outcome.value == pytest.approx(expected)
                        assert schedule.power_cost(alpha) == pytest.approx(expected)
                full = (1 << (p + 1)) - 1
                withheld += sum(mask != full for mask in engine._node_allowed)
                pruned += engine.stats.hall_pruned
        assert withheld > 0 and pruned > 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("density", ["dense", "sparse"])
    def test_every_interval_matches_the_oracle(self, p, density):
        # Every (i1, i2) and every q, on instances whose suffix walks
        # overflow often (dense) or hardly ever (sparse): the walks stop as
        # soon as no column range further left can overflow, and the limits
        # still equal the oracle's, which counts every prefix and suffix.
        rng = random.Random(f"walk:{p}:{density}")
        stopped_early = finite = 0
        for _ in range(3):
            n = rng.randint(8, 13)
            if density == "dense":
                horizon, max_window = max(2, n // p), 3
            else:
                horizon, max_window = 3 * n, 6
            pairs = random_window_pairs(rng, n, horizon, max_window)
            decomp = IntervalDecomposition(
                MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            )
            engine = IntervalDPEngine(decomp, GapObjective(p))
            columns = decomp.columns
            for i2 in range(len(columns)):
                for i1 in range(i2 + 1):
                    released = engine._released(i1, i2)
                    expected = _bisect_hall_limits(
                        decomp.jobs, columns, p, released, columns[i1], columns[i2]
                    )
                    limits = engine._hall_limits(i1, i2)
                    assert list(limits) == expected, (pairs, p, i1, i2)
                    finite += expected[-1] <= len(released)
            # Without the early stop a walk runs until its slots cover every
            # job released up to its column, or to column 0.
            for i2, table in engine._suffix_walks.items():
                total = engine._released_upto[i2 + 1]
                full = min(i2 + 1, max(1, -(-total // p)))
                assert len(table) <= full
                stopped_early += len(table) < full
        assert finite
        # Dense walks at p >= 2 can need every column; sparse ones never do.
        assert stopped_early or density == "dense"


class TestSharedLeaves:
    """``k = 0`` nodes are one shared leaf per span, not one per interval."""

    @pytest.mark.parametrize("seed", range(6))
    def test_no_interval_allocates_its_own_empty_node(self, seed):
        rng = random.Random(13000 + seed)
        p = 1 + seed % 3
        while True:
            n = rng.randint(10, 40)
            pairs = random_window_pairs(rng, n, horizon=2 * n // p + 2, max_window=8)
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            objective = GapObjective(p) if seed % 2 else PowerObjective(p, 1.5)
            engine = _engine_for(instance, objective)
            if engine.solve().feasible:
                break
        columns = engine.decomp.columns

        def span(nid):
            return columns[engine._node_i2[nid]] - columns[engine._node_i1[nid]]

        leaves = [nid for nid, k in enumerate(engine._node_k) if k == 0]
        assert len({span(nid) for nid in leaves}) == len(leaves)
        # Every k = 0 child of every split is the leaf of its own interval's
        # span, and the leaves stand for many more intervals than there are
        # leaves.
        intervals = set()
        for nid, plan in enumerate(engine._node_plan):
            if plan is None:
                continue
            t1 = columns[engine._node_i1[nid]]
            t2 = columns[engine._node_i2[nid]]
            for t_prime, left_id, right_id, stretch, _rt2, _fold in plan[1]:
                t_next = t_prime + stretch + 1
                if engine._node_k[left_id] == 0:
                    assert span(left_id) == t_prime - t1
                    intervals.add((t1, t_prime))
                if engine._node_k[right_id] == 0:
                    assert span(right_id) == t2 - t_next
                    intervals.add((t_next, t2))
        assert len(intervals) > len(leaves)
        # A leaf's states count once, at the q values any interval asks for.
        per_q = engine._P * engine._P
        assert engine.stats.states_computed == per_q * sum(
            bin(mask).count("1") for mask in engine._node_qmask
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_columns_match_the_full_horizon(self, seed):
        # A few long windows over a long horizon leave gaps between the
        # candidate columns, so one leaf span meets splits of different
        # stretches and index lengths: its fold memo must key on the
        # stretch, and it must be evaluated before every user.  On every
        # integer column (stretch 0, index length = span) the same DP is
        # immune to both mistakes and has the same optimum.
        rng = random.Random(15000 + seed)
        reused = 0
        for _ in range(4):
            n = rng.randint(3, 7)
            p = rng.randint(1, 2)
            pairs = random_window_pairs(
                rng, n, horizon=rng.randint(60, 140), max_window=rng.randint(10, 40)
            )
            instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
            alpha = rng.choice([0.5, 1.7, 3.0])
            for make in (lambda: GapObjective(p), lambda: PowerObjective(p, alpha)):
                engine = _engine_for(instance, make())
                outcome = engine.solve()
                dense = IntervalDPEngine(
                    IntervalDecomposition(instance, use_full_horizon=True), make()
                ).solve()
                assert outcome.feasible == dense.feasible
                if outcome.feasible:
                    assert outcome.value == pytest.approx(dense.value), (pairs, p, alpha)
                stretches = {}
                for plan in engine._node_plan:
                    for _t, _left, right_id, stretch, _rt2, _fold in plan[1] if plan else ():
                        if engine._node_k[right_id] == 0:
                            stretches.setdefault(right_id, set()).add(stretch)
                reused += any(len(seen) > 1 for seen in stretches.values())
        assert reused


class TestScalarGapsAtOneProcessor:
    """At p = 1 the gap objective runs on the scalar combine.

    Forcing the label-vector path through the objective's own label count
    must give the same values, assignments and counters, on instances up
    to the size the portfolio's DP races solve.
    """

    def test_one_processor_gaps_have_one_label(self):
        assert GapObjective(1).num_labels == 1
        assert GapObjective(2).num_labels == 3

    @staticmethod
    def _both_paths(instance):
        scalar_engine = _engine_for(instance, GapObjective(1))
        forced = GapObjective(1)
        forced.num_labels = 2
        vector_engine = _engine_for(instance, forced)
        scalar, vector = scalar_engine.solve(), vector_engine.solve()
        assert scalar_engine._labels == 1 and vector_engine._labels == 2
        assert scalar.feasible == vector.feasible
        assert scalar.value == vector.value
        assert scalar.assignment == vector.assignment
        assert scalar.stats.as_dict() == vector.stats.as_dict()
        return scalar.feasible

    @pytest.mark.parametrize("seed", range(6))
    def test_scalar_and_label_vector_paths_agree(self, seed):
        rng = random.Random(14000 + seed)
        for n in (rng.randint(2, 10), rng.randint(20, 50)):
            horizon = round(n * rng.choice((1.0, 1.4, 2.0)))
            pairs = random_window_pairs(rng, n, horizon, max_window=12)
            self._both_paths(MultiprocessorInstance.from_pairs(pairs, num_processors=1))
        # One feasible instance of the DP races' size (n = 80-120, horizon
        # 1.4 n, windows up to 12), after any infeasible draws.
        while True:
            n = rng.randint(80, 120)
            pairs = random_window_pairs(rng, n, round(n * 1.4), max_window=12)
            if self._both_paths(MultiprocessorInstance.from_pairs(pairs, num_processors=1)):
                break


class TestIterativeEvaluation:
    """The deep-recursion regression: wide-window n = 60 with sparse releases.

    A recursive evaluation of this instance needs well over 100 native
    frames beyond the caller; the bottom-up engine needs O(1).  The test
    pins that by solving under a recursion limit only slightly above the
    current frame depth — it passes only with an iterative evaluation.
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
            80, lambda: solve_exact(wide_window_instance, "gaps")
        )
        assert solution.feasible
        solution.schedule.validate()
        assert solution.schedule.num_gaps() == solution.value == 8
        # The independently re-checked structural lower bound meets the
        # optimum, so 8 gaps is provably optimal.
        problem = Problem(objective="gaps", instance=wide_window_instance)
        bound = lower_bound_for(problem)
        certificate = certify_bound(problem, bound)
        assert certificate.ok, certificate.issues
        assert certificate.recomputed_value == bound.value == solution.value

    def test_power_engine_is_iterative_too(self, wide_window_instance):
        solution = self._with_recursion_limit(
            80,
            lambda: solve_exact(wide_window_instance, "power", 2.0),
        )
        assert solution.feasible
        assert solution.value == pytest.approx(solution.schedule.power_cost(2.0))

    def test_peak_stack_depth_is_reported(self, wide_window_instance):
        solution = solve_exact(wide_window_instance, "gaps")
        # The logical DP nests dozens of levels deep; the engine tracked
        # them on its explicit stack, not the interpreter's.
        assert solution.engine["stats"]["peak_stack_depth"] >= 30


class TestMemoReuse:
    def test_second_solve_reuses_every_state(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 3), (1, 4), (2, 6), (5, 8)], num_processors=2
        )
        engine = _engine_for(instance, PowerObjective(2, 1.0))
        first = engine.solve()
        computed = engine.stats.states_computed
        second = engine.solve()
        assert first.value == second.value
        assert engine.stats.states_computed == computed


class TestEngineV1VsV2:
    """The two-evaluator differential's seeded instances, now pinned to
    brute force, and the envelopes both evaluators agreed on."""

    @pytest.mark.parametrize("seed", range(20))
    def test_gap_engines_agree(self, seed):
        rng = random.Random(7000 + seed)
        n = rng.randint(1, 10)
        p = rng.randint(1, 4)
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 14), max_window=6)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        solution = solve_exact(instance, "gaps")
        expected = _brute_force_value(instance, "gaps")
        assert solution.feasible == (expected is not None)
        if solution.feasible:
            assert solution.value == expected
            solution.schedule.validate()
            assert solution.schedule.num_gaps() == solution.value

    @pytest.mark.parametrize("seed", range(20))
    def test_power_engines_agree(self, seed):
        rng = random.Random(8000 + seed)
        n = rng.randint(1, 9)
        p = rng.randint(1, 4)
        alpha = rng.choice([0.0, 0.5, 1.5, 3.0])
        pairs = random_window_pairs(rng, n, horizon=rng.randint(n, 13), max_window=6)
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=p)
        solution = solve_exact(instance, "power", alpha)
        expected = _brute_force_value(instance, "power", alpha)
        assert solution.feasible == (expected is not None)
        if solution.feasible:
            assert solution.value == pytest.approx(expected)
            solution.schedule.validate()
            assert solution.schedule.power_cost(alpha) == pytest.approx(solution.value)

    @pytest.mark.parametrize("seed", range(len(RECORDED_ENVELOPES)))
    def test_engines_pick_identical_schedules(self, seed):
        # Not just the same optimum: the same value bits, the same
        # witnessing schedule and the same engine metadata, byte for byte.
        case = RECORDED_ENVELOPES[seed]
        problem = from_dict(case["problem"])
        clear_solve_cache()
        assert to_json(solve(problem)) == case["envelope"]

    def test_recorded_envelopes_cover_the_matrix(self):
        problems = [from_dict(case["problem"]) for case in RECORDED_ENVELOPES]
        processors = {getattr(p.instance, "num_processors", 1) for p in problems}
        assert processors == {1, 2, 3, 4}
        assert {p.objective for p in problems} == {"gaps", "power"}
        assert max(len(p.instance.jobs) for p in problems) == 60
        statuses = {json.loads(case["envelope"])["status"] for case in RECORDED_ENVELOPES}
        assert statuses == {"optimal", "infeasible"}
        # At least one alpha with a long binary expansion (0.1, 0.3 and 1.7
        # are not multiples of 2**-20), or a reassociated float sum could
        # not change any recorded value.
        alphas = {p.alpha for p in problems if p.objective == "power"}
        assert any(float(a * 2**20) != int(a * 2**20) for a in alphas), alphas


class TestEnvelopeRecorder:
    """The fixture recorder rewrites engine stats and versions, nothing else."""

    def _pair(self):
        from tests.fixtures.record_engine_envelopes import rerecord

        recorded = RECORDED_ENVELOPES[14]["envelope"]  # a decomposed envelope
        envelope = json.loads(recorded)
        nested = envelope["extra"]["engine"]["decomposition"]["per_component"][0]
        return rerecord, recorded, envelope, nested

    def test_engine_fields_at_any_depth_are_rewritten(self):
        rerecord, recorded, envelope, nested = self._pair()
        envelope["extra"]["engine"]["version"] = "9.9"
        nested["engine"]["stats"]["plans_built"] += 1
        fresh = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        assert rerecord(recorded, fresh) == fresh

    def test_any_other_change_is_refused(self):
        rerecord, recorded, envelope, nested = self._pair()
        nested["engine"]["stats"]["plans_built"] += 1
        envelope["value"] += 1
        fresh = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        with pytest.raises(ValueError):
            rerecord(recorded, fresh)


class TestPeakDepthReporting:
    """Satellite regression: leaf/Hall-pruned-only runs must not report 0."""

    #: Five jobs forced into a two-column window: the engine prunes the
    #: root via the Hall condition without expanding any branch state.
    HALL_PRUNED = [(5, 6)] * 5 + [(0, 20)]

    def test_hall_pruned_run_reports_positive_depth(self):
        instance = MultiprocessorInstance.from_pairs(self.HALL_PRUNED, num_processors=1)
        solution = solve_exact(instance, "gaps")
        assert not solution.feasible
        stats = solution.engine["stats"]
        assert stats["hall_pruned"] > 0
        assert stats["states_computed"] > 0
        assert stats["peak_stack_depth"] >= 1

    @pytest.mark.parametrize("objective", [GapObjective(1), PowerObjective(1, 0.3)])
    def test_root_pruned_run_reports_positive_depth(self, objective):
        # Two jobs on one column of one processor: the root itself is over
        # capacity, so the only computed states are the pruned root's.
        instance = MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1)
        engine = _engine_for(instance, objective)
        assert not engine.solve().feasible
        assert engine.stats.states_computed > 0
        assert engine.stats.peak_stack_depth == 1

    def test_single_column_run_reports_positive_depth(self):
        instance = MultiprocessorInstance.from_pairs([(4, 4), (4, 4)], num_processors=2)
        solution = solve_exact(instance, "gaps")
        assert solution.feasible
        assert solution.engine["stats"]["peak_stack_depth"] >= 1

    def test_v2_depth_tracks_the_dependency_chain(self):
        pairs = [(2 * i, 2 * i + 6) for i in range(60)]
        instance = MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        solution = solve_exact(instance, "gaps")
        # The node DAG of the sparse staircase nests dozens of levels deep;
        # the bottom-up pass reports the longest dependency chain.
        assert solution.engine["stats"]["peak_stack_depth"] >= 30
