"""Tests for the ``repro.runtime`` execution layer.

Covers the backend selection chain, the generic ``run_tasks`` primitive,
the ``solve_stream`` pipeline (ordering, laziness, in-flight dedupe, error
capture), the two-tier canonical solve cache (thread-safe accounting, disk
replay, version invalidation), and the cross-backend equivalence
acceptance suite.
"""

import copy
import itertools
import json
import os
import sys
import threading

import pytest

from repro.api import Problem, SolveResult, from_json, solve, solve_batch, to_json
from repro.api import clear_solve_cache, solvers
from repro.api.solvers import replay_isomorph, solve_cache_bypass, solve_cache_stats
from repro.core.canonical import CanonicalSolveCache
from repro.core.exceptions import SolverError
from repro.generators import (
    random_multi_interval_instance,
    random_multiprocessor_instance,
    random_one_interval_instance,
)
from repro.runtime import (
    BACKENDS,
    DiskSolveCache,
    configure_disk_cache,
    disk_cache_dir,
    get_disk_cache,
    resolve_backend,
    run_tasks,
    solve_stream,
)
from repro.runtime.diskcache import cache_key_digest


@pytest.fixture(autouse=True)
def clean_runtime_state(monkeypatch):
    """Isolate every test from backend env vars and caches."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    configure_disk_cache(None)
    clear_solve_cache()
    yield
    configure_disk_cache(None)
    clear_solve_cache()


def shifted_problem(shift, seed=7, objective="gaps", alpha=None):
    """A gap/power problem whose instance is the seed instance time-shifted.

    All shifts of one seed are canonically identical (isomorphic), so they
    share a canonical digest and an optimal value.
    """
    base = random_one_interval_instance(num_jobs=5, horizon=14, max_window=4, seed=seed)
    from repro.api import OneIntervalInstance

    instance = OneIntervalInstance.from_pairs(
        [(job.release + shift, job.deadline + shift) for job in base.jobs]
    )
    return Problem(objective=objective, instance=instance, alpha=alpha)


def mixed_workload(count=18):
    """Seeded mixed gap/power/throughput workload over all instance shapes."""
    problems = []
    for seed in range(count):
        kind = seed % 3
        if kind == 0:
            instance = random_one_interval_instance(
                num_jobs=5, horizon=15, max_window=4, seed=seed
            )
            problems.append(Problem(objective="gaps", instance=instance))
        elif kind == 1:
            instance = random_multiprocessor_instance(
                num_jobs=5, num_processors=2, horizon=10, max_window=4, seed=seed
            )
            problems.append(
                Problem(objective="power", instance=instance, alpha=1.0 + seed % 3)
            )
        else:
            instance = random_multi_interval_instance(
                num_jobs=4, horizon=12, intervals_per_job=2, interval_length=2, seed=seed
            )
            problems.append(
                Problem(objective="throughput", instance=instance, max_gaps=1 + seed % 2)
            )
    return problems


# ---------------------------------------------------------------------------
# backends: the selection chain
# ---------------------------------------------------------------------------
def _resolve_in_task(_item):
    return resolve_backend(None, workers=4)


class TestBackendSelection:
    def test_builtins_registered(self):
        assert BACKENDS == ("serial", "process")

    def test_resolve_by_name_and_instance(self):
        assert resolve_backend("process", workers=3) == ("process", 3)
        assert resolve_backend("process") == ("process", os.cpu_count() or 1)
        assert resolve_backend("serial", workers=3) == ("serial", 1)
        # Names only: an object standing in for a backend is refused.
        with pytest.raises(TypeError):
            resolve_backend(object())

    def test_legacy_workers_rule(self):
        assert resolve_backend(None, workers=None) == ("serial", 1)
        assert resolve_backend(None, workers=1) == ("serial", 1)
        assert resolve_backend(None, workers=4) == ("process", 4)

    def test_env_var_beats_workers_rule(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend(None, workers=4) == ("serial", 1)

    def test_unknown_names_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_backend("quantum")
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ValueError):
            resolve_backend(None)

    def test_explicit_argument_beats_configured_default(self, monkeypatch):
        # The environment is the only default there is; a call-site name
        # outranks it.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend("serial") == ("serial", 1)

    def test_thread_is_rejected_everywhere(self, monkeypatch):
        from repro.cli import main

        with pytest.raises(ValueError):
            resolve_backend("thread")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValueError):
            resolve_backend(None, workers=4)
        monkeypatch.delenv("REPRO_BACKEND")
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "thread", "list-solvers"])
        assert excinfo.value.code == 2

    def test_pool_workers_never_nest_a_pool(self, monkeypatch):
        # Batch work a pool task starts runs serially, whatever the
        # environment says: a worker forking a pool of its own would leave
        # processes behind when it is killed.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None, workers=4) == ("process", 4)
        out = list(run_tasks(_resolve_in_task, range(2), backend="process", workers=2))
        assert [outcome.unwrap() for _index, outcome in out] == [("serial", 1)] * 2


# ---------------------------------------------------------------------------
# run_tasks: the generic primitive
# ---------------------------------------------------------------------------
def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


class TestRunTasks:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_ordered_results_all_backends(self, backend):
        items = list(range(12))
        out = list(run_tasks(_square, items, backend=backend, workers=3))
        assert [index for index, _ in out] == items
        assert [o.value for _, o in out] == [x * x for x in items]
        assert all(o.ok for _, o in out)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_per_task_error_capture(self, backend):
        out = list(run_tasks(_fail_on_odd, range(6), backend=backend, workers=2))
        for index, outcome in out:
            if index % 2:
                assert not outcome.ok
                assert outcome.error_type == "ValueError"
                assert f"odd input {index}" in outcome.error
                assert "Traceback" in outcome.traceback
                with pytest.raises(RuntimeError):
                    outcome.unwrap()
            else:
                assert outcome.ok and outcome.unwrap() == index

    def test_lazy_bounded_consumption(self):
        consumed = []

        def producer():
            for i in itertools.count():
                consumed.append(i)
                yield i

        stream = run_tasks(_square, producer(), backend="serial")
        for _ in range(3):
            next(stream)
        # A bounded window must not have drained an unbounded input.
        assert len(consumed) <= 4 + 3
        stream.close()

    def test_empty_input(self):
        assert list(run_tasks(_square, [], backend="process")) == []


def _exit_pool_worker():
    """End the pool worker running this task at once, as a crash would."""
    from repro.runtime import pool

    if not pool._IN_WORKER:
        raise RuntimeError("only a pool worker may be exited")
    os._exit(3)


def _exit_worker_on_two(x):
    if x == 2:
        _exit_pool_worker()
    return x * x


def _lock_on_one(x):
    return threading.Lock() if x == 1 else x * x


def _jobs_problem(num_jobs):
    from repro.api import OneIntervalInstance

    pairs = [(4 * i, 4 * i + 2) for i in range(num_jobs)]
    return Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(pairs))


@pytest.fixture
def exit_on_three_jobs():
    """A registered solver that ends its pool worker on 3-job instances."""
    from repro.api import OneIntervalInstance
    from repro.api.registry import _REGISTRY, register_solver

    @register_solver(
        "exit-on-three-test",
        objective="gaps",
        kind="baseline",
        instance_types=(OneIntervalInstance,),
    )
    def _exit_on_three(problem):
        if len(problem.instance.jobs) == 3:
            _exit_pool_worker()
        return solve(problem, solver="gap-dp")

    yield "exit-on-three-test"
    _REGISTRY.pop("exit-on-three-test", None)


class TestLostWorker:
    """A task whose pool worker dies fails alone; the rest of the batch runs."""

    def test_run_tasks_fails_only_the_lost_task(self):
        out = list(
            run_tasks(_exit_worker_on_two, range(5), backend="process", workers=2)
        )
        assert [index for index, _ in out] == list(range(5))
        lost = out[2][1]
        assert not lost.ok
        assert lost.error_type == "WorkerLostError"
        assert [o.value for index, o in out if index != 2] == [0, 1, 9, 16]

    def test_result_that_does_not_pickle_fails_only_its_task(self):
        # The worker reports the pickling error as its task's own failure,
        # not as a lost worker, and keeps serving: the other tasks run on
        # the same worker.
        from repro.runtime import worker_pool_stats

        killed = worker_pool_stats()["killed"]
        out = list(run_tasks(_lock_on_one, range(3), backend="process", workers=1))
        assert [index for index, _ in out] == [0, 1, 2]
        failed = out[1][1]
        assert not failed.ok
        assert failed.error_type == "TypeError"
        assert failed.error.startswith("result does not pickle: ")
        assert "died" not in failed.error
        assert "_worker_main" in failed.traceback  # the worker's own traceback
        assert [out[0][1].value, out[2][1].value] == [0, 4]
        assert worker_pool_stats()["killed"] == killed

    def test_stream_reports_an_unpicklable_result_as_its_own_error(self):
        from repro.api import OneIntervalInstance
        from repro.api.registry import _REGISTRY, register_solver
        from repro.runtime import worker_pool_stats

        @register_solver(
            "unpicklable-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _unpicklable(problem):
            result = solve(problem, solver="gap-dp")
            if len(problem.instance.jobs) == 3:
                result.extra["lock"] = threading.Lock()
            return result

        try:
            killed = worker_pool_stats()["killed"]
            problems = [_jobs_problem(n) for n in (2, 3, 4)]
            results = list(
                solve_stream(
                    problems, solver="unpicklable-test", backend="process", workers=1
                )
            )
            assert [r.status for r in results] == ["optimal", "error", "optimal"]
            assert results[1].extra["error_type"] == "TypeError"
            assert "does not pickle" in results[1].extra["error"]
            assert worker_pool_stats()["killed"] == killed
        finally:
            _REGISTRY.pop("unpicklable-test", None)

    def test_race_member_whose_result_does_not_pickle_is_killed_as_error(
        self, monkeypatch
    ):
        import time

        from repro.api import OneIntervalInstance
        from repro.api.registry import _REGISTRY, register_solver
        from repro.portfolio import race

        @register_solver(
            "unpicklable-member-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _unpicklable(problem):
            result = solve(problem, solver="gap-dp")
            result.extra["lock"] = threading.Lock()
            return result

        @register_solver(
            "slow-member-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _slow(problem):
            time.sleep(0.5)  # lands well after the other member's crash
            return solve(problem, solver="gap-dp")

        roster = ["unpicklable-member-test", "slow-member-test"]
        monkeypatch.setattr(race, "default_members", lambda problem: list(roster))
        try:
            result = race.run_portfolio(_jobs_problem(4), 10.0)
        finally:
            _REGISTRY.pop("unpicklable-member-test", None)
            _REGISTRY.pop("slow-member-test", None)
        members = {m["name"]: m for m in result.extra["portfolio"]["members"]}
        crashed = members["unpicklable-member-test"]
        assert (crashed["state"], crashed["kill_reason"]) == ("killed", "error")
        assert result.extra["portfolio"]["winner"] == "slow-member-test"
        assert result.status == "optimal"

    @pytest.mark.parametrize("ordered", [True, False])
    def test_solve_stream_answers_the_others(self, exit_on_three_jobs, ordered):
        problems = [_jobs_problem(n) for n in (2, 4, 3, 5, 6)]
        pairs = list(
            solve_stream(
                problems,
                solver=exit_on_three_jobs,
                backend="process",
                workers=2,
                ordered=ordered,
                with_index=True,
            )
        )
        if ordered:
            assert [index for index, _ in pairs] == list(range(5))
        results = dict(pairs)
        assert sorted(results) == list(range(5))
        assert results[2].status == "error"
        assert results[2].extra["error_type"] == "WorkerLostError"
        assert [results[i].status for i in (0, 1, 3, 4)] == ["optimal"] * 4

    def test_parked_duplicate_of_a_lost_representative_is_solved(self, tmp_path):
        from repro.api import OneIntervalInstance
        from repro.api.registry import _REGISTRY, register_solver

        # Workers count attempts in a file: the pool runs them elsewhere.
        log = tmp_path / "attempts"

        @register_solver(
            "exit-once-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _exit_once(problem):
            first = not log.exists()
            with open(log, "a") as handle:
                handle.write("x")
            if first:
                _exit_pool_worker()
            return solve(problem, solver="gap-dp")

        try:
            problems = [_jobs_problem(4)] * 3
            results = list(
                solve_stream(
                    problems, solver="exit-once-test", backend="process", workers=2
                )
            )
            # The copies park behind the representative, whose worker died:
            # the first copy is re-dispatched and the second replays it.
            assert [r.status for r in results] == ["error", "optimal", "optimal"]
            assert results[0].extra["error_type"] == "WorkerLostError"
            assert log.read_text() == "xx"
        finally:
            _REGISTRY.pop("exit-once-test", None)


# ---------------------------------------------------------------------------
# solve_stream: the pipeline
# ---------------------------------------------------------------------------
class TestSolveStream:
    def test_ordered_stream_matches_individual_solves(self):
        problems = mixed_workload(9)
        results = list(solve_stream(problems, backend="serial"))
        assert results == [solve(p) for p in problems]

    def test_unordered_with_index_reassembles(self):
        problems = mixed_workload(12)
        pairs = list(
            solve_stream(
                problems, backend="process", workers=2, ordered=False, with_index=True
            )
        )
        assert sorted(index for index, _ in pairs) == list(range(12))
        by_index = dict(pairs)
        expected = [solve(p) for p in problems]
        assert [by_index[i] for i in range(12)] == expected

    def test_stream_is_lazy(self):
        consumed = []

        def producer():
            for seed in itertools.count():
                consumed.append(seed)
                yield shifted_problem(0, seed=seed % 5)

        stream = solve_stream(producer(), backend="serial")
        for _ in range(3):
            next(stream)
        assert len(consumed) <= 4 + 3
        stream.close()

    @pytest.mark.parametrize("ordered", [True, False])
    def test_serial_stream_yields_each_result_before_the_next_solve(
        self, ordered
    ):
        from repro.api.registry import _REGISTRY, register_solver
        from repro.api import OneIntervalInstance

        events = []

        @register_solver(
            "logging-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _logging(problem):
            events.append("solve")
            return solve(problem, solver="gap-dp")

        try:
            problems = [shifted_problem(0, seed=seed) for seed in range(4)]
            for _result in solve_stream(
                problems,
                solver="logging-test",
                backend="serial",
                ordered=ordered,
            ):
                events.append("yield")
        finally:
            _REGISTRY.pop("logging-test", None)
        assert events == ["solve", "yield"] * 4

    def test_exact_duplicates_solved_once(self):
        clear_solve_cache()
        problems = [shifted_problem(0)] * 6
        results = list(solve_stream(problems, backend="serial"))
        assert len(results) == 6
        assert len({id(r) for r in results}) == 6  # independent objects
        assert results[0] == results[5]
        # One DP run for six tasks: dedupe, not the cache, absorbed 5.
        stats = solve_cache_stats()
        assert stats["fresh_solves"] == 1
        assert stats["misses"] == 1 and stats["hits"] == 0

    def test_isomorphic_duplicates_replay_remapped(self):
        clear_solve_cache()
        problems = [shifted_problem(shift) for shift in (0, 3, 11, 7)]
        results = list(solve_stream(problems, backend="serial"))
        stats = solve_cache_stats()
        assert stats["fresh_solves"] == 1
        # Every shifted result witnesses its own instance with the same value.
        values = {r.value for r in results}
        assert len(values) == 1
        for problem, result in zip(problems, results):
            assert result.require_schedule().instance == problem.instance
            # Replays carry the representative's engine metadata verbatim.
            assert result.extra["engine"] == results[0].extra["engine"]

    def test_dedupe_with_cache_disabled_still_collapses_exact(self):
        problems = [shifted_problem(0)] * 5
        with solve_cache_bypass():
            results = list(solve_stream(problems, backend="serial"))
        assert results[0] == results[4]
        # Stream dedupe still collapsed the five exact duplicates onto one
        # DP run even though the cache tiers were off.
        assert solve_cache_stats()["fresh_solves"] == 1
        assert solve_cache_stats()["hits"] == 0

    def test_dedupe_with_cache_disabled_collapses_isomorphs(self):
        problems = [shifted_problem(shift) for shift in (0, 3, 11, 7)]
        with solve_cache_bypass():
            results = list(solve_stream(problems, backend="serial"))
        # The stream moves the representative's answer onto each isomorph
        # itself, so no cache tier is needed for them to share one DP run.
        assert solve_cache_stats()["fresh_solves"] == 1
        assert len({r.value for r in results}) == 1
        for problem, result in zip(problems, results):
            assert result.require_schedule().instance == problem.instance
            result.schedule.validate()

    def test_far_isomorphs_inside_the_dedupe_window_solve_once(self):
        from repro.api import OneIntervalInstance
        from repro.api.solvers import DEFAULT_SOLVE_CACHE_SIZE
        from repro.runtime.stream import DEDUPE_WINDOW

        # More distinct classes than the memory tier holds, each seen again
        # shifted once all of them have been solved: the stream's record of
        # finished representatives answers every repeat.
        count = DEFAULT_SOLVE_CACHE_SIZE + 44
        assert 2 * count <= DEDUPE_WINDOW
        pairs = [[(0, 2 + i), (1, 3 + i)] for i in range(count)]
        problems = [
            Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(p))
            for p in pairs
        ] + [
            Problem(
                objective="gaps",
                instance=OneIntervalInstance.from_pairs(
                    [(r + 5, d + 5) for r, d in p]
                ),
            )
            for p in pairs
        ]
        results = solve_batch(problems, backend="serial")
        assert solve_cache_stats()["fresh_solves"] == count
        for problem, result, first in zip(problems[count:], results[count:], results):
            assert result.value == first.value
            assert result.require_schedule().instance == problem.instance

    def test_replay_isomorph_eligibility(self, monkeypatch):
        from repro.api import OneIntervalInstance, decomposition
        from repro.core.canonical import canonical_form

        def moved_pair(pairs, shift=6):
            first = Problem(
                objective="gaps", instance=OneIntervalInstance.from_pairs(pairs)
            )
            second = Problem(
                objective="gaps",
                instance=OneIntervalInstance.from_pairs(
                    [(r + shift, d + shift) for r, d in reversed(pairs)]
                ),
            )
            return first, canonical_form(first.instance), second, canonical_form(
                second.instance
            )

        # An optimal and an infeasible exact answer move, and each lands as
        # the envelope a cache replay of the moved problem builds.
        for pairs in ([(0, 2), (1, 4), (6, 9)], [(3, 3), (3, 3)]):
            clear_solve_cache()
            problem, form, moved, moved_form = moved_pair(pairs)
            result = solve(problem)
            cached = solve(moved)
            assert solve_cache_stats()["hits"] == 1
            replay = replay_isomorph(moved, moved_form, result, form)
            assert to_json(replay) == to_json(cached)
            assert replay.solver == cached.solver == "gap-dp"
        problem, form, moved, moved_form = moved_pair([(0, 2), (1, 4), (6, 9)])
        # Heuristic and throughput answers do not move.
        greedy = solve(problem, solver="greedy-gap")
        assert replay_isomorph(moved, moved_form, greedy, form) is None
        tp = mixed_workload(3)[2]
        assert replay_isomorph(moved, moved_form, solve(tp), form) is None
        # Nor does a decomposed schedule with a Hall-clipped time off the
        # candidate grid, which the cache does not store either.  The
        # job-count rule is lowered for this one in-process solve.
        monkeypatch.setattr(decomposition, "DEFAULT_MIN_JOBS", 2)
        problem, form, moved, moved_form = moved_pair(
            [(4, 9), (11, 21), (2, 16), (45, 48)]
        )
        result = solve(problem)
        assert "decomposition" in result.extra["engine"]
        assert not set(result.schedule.assignment.values()) <= set(
            form.column_times
        )
        assert replay_isomorph(moved, moved_form, result, form) is None

    def test_error_result_round_trips_json(self):
        result = solve_batch([shifted_problem(0)], solver="no-such-solver")[0]
        assert result.status == "error"
        clone = from_json(to_json(result))
        assert clone == result
        assert clone.extra["error_type"] == "SolverError"

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mixed_failures_keep_positions(self, backend):
        # Alternate solvable gap problems with throughput problems that the
        # forced solver cannot handle: failures land exactly at their input
        # positions on every backend.
        problems = mixed_workload(9)
        results = list(
            solve_stream(problems, solver="gap-dp", backend=backend, workers=2)
        )
        for problem, result in zip(problems, results):
            if problem.objective == "gaps":
                assert result.solver == "gap-dp"
            else:
                assert result.status == "error"


# ---------------------------------------------------------------------------
# the disk tier
# ---------------------------------------------------------------------------
class TestDiskSolveCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), (1, (0, 2), (((0, 1), 2),)))
        entry = (True, 3, ((0, 1), (1, 4)), {"name": "interval-dp", "stats": {"m": 1}})
        cache.put(key, entry)
        assert cache.get(key) == entry
        assert cache.counters() == {"hits": 1, "misses": 0, "writes": 1}

    def test_miss_on_absent_and_corrupt(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), (1,))
        assert cache.get(key) is None
        path = cache._entry_path(cache_key_digest(key))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(key) is None
        assert cache.counters()["misses"] == 2

    def test_key_mismatch_treated_as_miss(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), (1, (2,)))
        cache.put(key, (True, 0, (), None))
        path = cache._entry_path(cache_key_digest(key))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["key"] = "something else"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        assert cache.get(key) is None

    def test_engine_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), (1,))
        cache.put(key, (True, 2, (), None))
        assert cache.stats()["entries"] == 1
        # A new engine version addresses a fresh namespace: the old entry
        # is invisible (stale), not replayed.
        monkeypatch.setattr(
            "repro.runtime.diskcache.ENGINE_VERSION", "99.0", raising=True
        )
        bumped = DiskSolveCache(str(tmp_path))
        assert bumped.get(key) is None
        stats = bumped.stats()
        assert stats["entries"] == 0 and stats["stale_entries"] == 1

    def test_previous_engine_version_entries_are_cold_misses(
        self, tmp_path, monkeypatch
    ):
        key = (("gaps",), (2, (0, 5), ((0, 3), (1, 4))))
        old_meta = {
            "name": "interval-dp",
            "version": "3.0",
            "objective": "gaps",
            "numpy": "2.0.0",
            "stats": {"states_computed": 9, "vector_nodes": 1},
        }
        # Written as a process of the previous engine generation would
        # have: under the old namespace, stamped with the old version.
        monkeypatch.setattr("repro.runtime.diskcache.ENGINE_VERSION", "3.0")
        old = DiskSolveCache(str(tmp_path))
        old.put(key, (True, 1, ((0, 1), (1, 3)), old_meta))
        assert old.get(key) is not None
        monkeypatch.undo()
        upgraded = DiskSolveCache(str(tmp_path))
        assert upgraded.get(key) is None  # cold miss, never a stale replay
        stats = upgraded.stats()
        assert stats["entries"] == 0 and stats["stale_entries"] == 1
        # The current namespace round-trips as usual.
        entry = (True, 1, ((0, 1), (1, 3)), {"name": "interval-dp", "version": "2.0"})
        upgraded.put(key, entry)
        assert upgraded.get(key) == entry

    def test_cache_key_digest_is_stable(self):
        key = (("power", 2.0), (1, (0, 3), ((0, 2),)))
        rebuilt = (("power", float("2.0")), (1, tuple([0, 3]), ((0, 2),)))
        digest = cache_key_digest(key)
        assert digest == cache_key_digest(key) == cache_key_digest(rebuilt)
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert cache_key_digest((("power", 3.0),) + key[1:]) != digest

    def test_clear_removes_all_versions(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        cache.put((("gaps",), (1,)), (True, 0, (), None))
        cache.put((("power", 2.0), (1,)), (False, None, None, None))
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_put_racing_clear_stores_nothing(self, tmp_path, monkeypatch):
        # clear() also sweeps temp files, so it can remove a live writer's
        # before its rename: that put is cleared, and does not raise.
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), (1,))
        real_replace = os.replace

        def clear_first(src, dst):
            cache.clear()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", clear_first)
        cache.put(key, (True, 0, (), None))
        monkeypatch.undo()
        assert cache.get(key) is None
        assert cache.counters()["writes"] == 0

    def test_configure_handle_semantics(self, tmp_path):
        first = configure_disk_cache(str(tmp_path))
        again = configure_disk_cache(str(tmp_path))
        assert first is again  # same directory keeps the live handle
        other = configure_disk_cache(str(tmp_path / "other"))
        assert other is not first
        configure_disk_cache(None)
        assert get_disk_cache() is None and disk_cache_dir() is None

    def test_env_var_enables_lazily(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # The autouse fixture configured the cache off explicitly, which
        # outranks the env var; reset to the unconfigured state first.
        import repro.runtime.diskcache as diskcache

        monkeypatch.setattr(diskcache, "_DISK", None)
        monkeypatch.setattr(diskcache, "_EXPLICIT", False)
        cache = get_disk_cache()
        assert cache is not None and cache.root == str(tmp_path)


# ---------------------------------------------------------------------------
# the two tiers together
# ---------------------------------------------------------------------------
class TestTwoTierCache:
    def test_disk_hit_replays_byte_identically(self, tmp_path):
        configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problems = [
            shifted_problem(0),
            shifted_problem(0, objective="power", alpha=2.0),
        ]
        first = [to_json(solve(p)) for p in problems]
        assert solve_cache_stats()["disk"]["writes"] == 2
        # Drop the memory tier (simulating a new process) and re-solve.
        clear_solve_cache()
        second = [to_json(solve(p)) for p in problems]
        stats = solve_cache_stats()
        assert second == first
        assert stats["fresh_solves"] == 0
        assert stats["disk"]["hits"] == 2

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problem = shifted_problem(0)
        solve(problem)
        clear_solve_cache()
        solve(problem)  # memory miss -> disk hit -> promotion
        solve(problem)  # memory hit, no further disk traffic
        stats = solve_cache_stats()
        assert stats["hits"] == 1 and stats["disk"]["hits"] == 1

    def test_disk_only_mode_works(self, tmp_path):
        # With the memory tier emptied before each solve, the disk tier
        # alone carries the answer from one solve to the next.
        configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problem = shifted_problem(0)
        first = to_json(solve(problem))
        solvers._SOLVE_CACHE.clear()
        second = to_json(solve(problem))
        assert first == second
        stats = solve_cache_stats()
        assert stats["fresh_solves"] == 1 and stats["hits"] == 0
        assert stats["disk"]["hits"] == 1 and stats["disk"]["writes"] == 1


# ---------------------------------------------------------------------------
# satellite: robustness against on-disk entry corruption
# ---------------------------------------------------------------------------
class TestDiskCacheCorruption:
    """A corrupted or truncated entry must read as a miss, never a crash."""

    def _entry_path(self, cache, problem):
        # There is exactly one entry after a single fresh solve; find it on
        # disk rather than re-deriving the canonical key by hand.
        paths = list(cache._walk_entries())
        assert len(paths) == 1
        return paths[0]

    @pytest.mark.parametrize(
        "payload",
        [
            "",  # truncated to nothing
            '{"format": 1',  # torn mid-write
            '"just a string"',  # valid JSON, not an entry object
            json.dumps(
                {
                    "format": 1,
                    "engine_version": "",  # wrong engine tag
                    "key": "x",
                    "feasible": True,
                    "value": 0,
                    "assignment": [],
                    "engine_meta": None,
                }
            ),
        ],
        ids=["empty", "torn", "non-object", "version-mismatch"],
    )
    def test_corrupt_entry_is_a_miss_and_resolves_fresh(self, tmp_path, payload):
        cache = configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problem = shifted_problem(0)
        first = to_json(solve(problem))
        path = self._entry_path(cache, problem)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        # New process simulation: drop the memory tier so the disk entry
        # is the only warm copy left.
        clear_solve_cache()
        cache.reset_counters()
        second = to_json(solve(problem))
        assert second == first
        counters = cache.counters()
        assert counters["hits"] == 0
        assert counters["misses"] == 1
        assert counters["writes"] == 1  # the fresh result overwrote the entry
        # The overwrite healed the entry: the next cold read is a hit.
        clear_solve_cache()
        assert to_json(solve(problem)) == first
        assert cache.counters()["hits"] == 1

    def test_malformed_entry_body_is_a_miss(self, tmp_path):
        # Valid JSON, right format/version/key envelope — but the stored
        # assignment is garbage.  json.load succeeds; decoding must not.
        cache = configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problem = shifted_problem(0)
        first = to_json(solve(problem))
        path = self._entry_path(cache, problem)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["assignment"] = [["not-a-slot", {}]]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        clear_solve_cache()
        cache.reset_counters()
        assert to_json(solve(problem)) == first
        assert cache.counters() == {"hits": 0, "misses": 1, "writes": 1}

    def test_missing_entry_field_is_a_miss(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), (1, (0, 2)))
        cache.put(key, (True, 1, ((0, 1),), None))
        path = cache._entry_path(cache_key_digest(key))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        del data["feasible"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        assert cache.get(key) is None
        assert cache.counters()["misses"] == 1

    def test_stream_survives_corrupted_entries(self, tmp_path):
        cache = configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problems = [shifted_problem(0), shifted_problem(0, seed=11)]
        first = [to_json(solve(p)) for p in problems]
        for path in list(cache._walk_entries()):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"format": 1, "engine_')
        clear_solve_cache()
        results = list(solve_stream(problems))
        assert [to_json(r) for r in results] == first


# ---------------------------------------------------------------------------
# satellite: cache accounting under concurrency
# ---------------------------------------------------------------------------
class TestConcurrentAccounting:
    def test_thread_backend_hit_miss_counts_exact(self):
        shifts = (0, 2, 5, 9, 13, 21)
        problems = [shifted_problem(shift) for shift in shifts]
        results = list(solve_stream(problems, backend="serial"))
        stats = solve_cache_stats()
        # The canonical dedupe parks the five isomorphic duplicates behind
        # one representative: exactly one miss-then-fresh-solve, and the
        # stream remaps that answer onto each duplicate without a lookup.
        assert stats["fresh_solves"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert len({r.value for r in results}) == 1

        # Plain threads of one process run their own deduped streams on
        # the shared cache; each stream looks up its representative only.
        # Only a thread's first lookup can miss (before any thread has
        # stored the answer); every other one must hit, and each must
        # count exactly once.
        clear_solve_cache()
        threads_count, rounds = 4, 10
        values = [set() for _ in range(threads_count)]
        start = threading.Barrier(threads_count)

        def stream_all(slot):
            start.wait()
            for _ in range(rounds):
                values[slot].update(
                    r.value for r in solve_stream(problems, backend="serial")
                )

        threads = [
            threading.Thread(target=stream_all, args=(slot,))
            for slot in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert values == [{results[0].value}] * threads_count
        stats = solve_cache_stats()
        assert stats["hits"] + stats["misses"] == threads_count * rounds
        assert 1 <= stats["misses"] <= threads_count
        assert stats["fresh_solves"] == stats["misses"]

    def test_thread_backend_no_dedupe_counts_exact(self, monkeypatch):
        # Threads of one process share its cache (the service reads the
        # counters on its handler threads while its scheduler thread
        # solves), calling solve() with no dedupe in front of it.  A cache
        # smaller than the key set keeps entries churning while the
        # threads race, and every lookup must still count once.
        problems = [
            shifted_problem(shift, seed=seed)
            for seed in range(4)
            for shift in (0, 2, 5)
        ]
        expected = [to_json(solve(p)) for p in problems]
        monkeypatch.setattr(solvers, "_SOLVE_CACHE", CanonicalSolveCache(maxsize=3))
        clear_solve_cache()
        threads_count, rounds = 4, 20
        answers = [None] * threads_count
        start = threading.Barrier(threads_count)

        def solve_all(slot):
            start.wait()
            for _ in range(rounds):
                answers[slot] = [to_json(solve(p)) for p in problems]

        threads = [
            threading.Thread(target=solve_all, args=(slot,))
            for slot in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * threads_count
        stats = solve_cache_stats()
        lookups = rounds * threads_count * len(problems)
        assert stats["hits"] + stats["misses"] == lookups
        assert stats["fresh_solves"] == stats["misses"]
        assert stats["hits"] > 0 and stats["size"] <= 3

    def test_disk_replay_byte_identical_across_processes(self, tmp_path):
        configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        problems = [shifted_problem(0, seed=seed) for seed in range(4)]
        baseline = [to_json(solve(p)) for p in problems]  # warms the disk tier
        assert solve_cache_stats()["disk"]["writes"] == 4
        # Fresh pool workers have cold memory tiers; the payload-carried
        # cache directory points them at the warm disk tier, and their
        # replayed engine metadata must serialize byte-identically here.
        results = solve_batch(problems, workers=2, backend="process")
        assert [to_json(r) for r in results] == baseline
        for result in results:
            assert result.extra["engine"]["stats"]  # metadata rode along


# ---------------------------------------------------------------------------
# acceptance: cross-backend equivalence
# ---------------------------------------------------------------------------
class TestCrossBackendEquivalence:
    def test_identical_ordered_results_and_warm_cache_zero_dp(self, tmp_path):
        problems = mixed_workload(18)

        serialized = {}
        for backend in ("serial", "process"):
            clear_solve_cache()
            results = list(
                solve_stream(problems, backend=backend, workers=3)
            )
            assert [r.status for r in results] == [
                "optimal" if p.objective in ("gaps", "power") else "approximate"
                for p in problems
            ]
            serialized[backend] = [to_json(r) for r in results]
        assert serialized["serial"] == serialized["process"]

        # Warm-disk pass: populate the disk tier once, drop every in-memory
        # entry, then re-run the whole set — zero DP evaluations, and the
        # JSON output is byte-identical to the cold run.
        configure_disk_cache(str(tmp_path))
        clear_solve_cache()
        cold = [to_json(r) for r in solve_stream(problems, backend="serial")]
        assert cold == serialized["serial"]
        clear_solve_cache()
        warm = [to_json(r) for r in solve_stream(problems, backend="serial")]
        stats = solve_cache_stats()
        assert warm == cold
        assert stats["fresh_solves"] == 0  # every DP answer came from disk
        assert stats["disk"]["hits"] > 0

    def test_solve_batch_backend_parameter(self):
        problems = mixed_workload(6)
        assert solve_batch(problems, backend="process", workers=2) == solve_batch(
            problems
        )


class TestErrorEnvelope:
    def test_error_result_invariants(self):
        with pytest.raises(ValueError):
            SolveResult(status="error", objective="gaps", value=3, schedule=None)
        result = SolveResult(status="error", objective="gaps", value=None, schedule=None)
        assert not result.feasible
        with pytest.raises(SolverError):
            result.raise_for_status()

    def test_copyable_and_comparable(self):
        result = solve_batch([shifted_problem(0)], solver="no-such-solver")[0]
        clone = copy.deepcopy(result)
        assert clone == result


class TestErrorDedupeRetry:
    """A failed representative must not speak for its duplicates."""

    def test_transient_failure_retries_duplicates(self):
        from repro.api.registry import _REGISTRY, register_solver
        from repro.api import OneIntervalInstance

        attempts = {"count": 0}

        @register_solver(
            "flaky-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _flaky(problem):
            attempts["count"] += 1
            if attempts["count"] == 1:
                raise RuntimeError("transient failure")
            return solve(problem, solver="gap-dp")

        try:
            problems = [shifted_problem(0)] * 3
            results = list(
                solve_stream(problems, solver="flaky-test", backend="serial")
            )
            # The representative failed once and was not remembered, so
            # the first duplicate solved afresh and the second replayed it:
            # exactly one error escapes.
            assert [r.status for r in results] == ["error", "optimal", "optimal"]
            assert attempts["count"] == 2
        finally:
            _REGISTRY.pop("flaky-test", None)

    def test_failed_representative_promotes_a_parked_duplicate(self, tmp_path):
        from repro.api.registry import _REGISTRY, register_solver
        from repro.api import OneIntervalInstance

        # Workers count attempts in a file: the pool runs them elsewhere.
        log = tmp_path / "attempts"

        @register_solver(
            "flaky-pool-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _flaky(problem):
            first = not log.exists()
            with open(log, "a") as handle:
                handle.write("x")
            if first:
                raise RuntimeError("transient failure")
            return solve(problem, solver="gap-dp")

        try:
            problems = [shifted_problem(0)] * 3
            results = list(
                solve_stream(
                    problems, solver="flaky-pool-test", backend="process", workers=2
                )
            )
            # On the pool all three are admitted at once, so the copies
            # park behind the representative.  It failed: the first copy
            # was promoted to representative and the second collapsed onto
            # it, so exactly one error escapes.
            assert [r.status for r in results] == ["error", "optimal", "optimal"]
            assert log.read_text() == "xx"
        finally:
            _REGISTRY.pop("flaky-pool-test", None)

    def test_error_not_remembered_for_later_duplicates(self):
        from repro.api.registry import _REGISTRY, register_solver
        from repro.api import OneIntervalInstance

        attempts = {"count": 0}

        @register_solver(
            "flaky-later-test",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _flaky(problem):
            attempts["count"] += 1
            if attempts["count"] == 1:
                raise RuntimeError("transient failure")
            return solve(problem, solver="gap-dp")

        try:
            # Serially the later duplicate arrives after the failed
            # representative already completed: it must re-solve, not
            # replay the stale error from the dedupe LRU.
            problems = [shifted_problem(0)] * 2

            def trickle():
                yield problems[0]
                yield problems[1]

            results = list(
                solve_stream(trickle(), solver="flaky-later-test", backend="serial")
            )
            assert [r.status for r in results] == ["error", "optimal"]
            assert attempts["count"] == 2
        finally:
            _REGISTRY.pop("flaky-later-test", None)


class TestFuzzCorpusPersistence:
    def test_generation_crash_flushed_immediately_and_sorted(self, tmp_path, monkeypatch):
        import importlib

        # The package re-exports the fuzz *function* under the same name as
        # the submodule, so attribute access cannot reach the module.
        fuzz_mod = importlib.import_module("repro.verify.fuzz")

        real_generate = fuzz_mod.generate_problem
        calls = {"count": 0}

        def crashing_generate(rng, objective):
            calls["count"] += 1
            if calls["count"] == 2:  # crash exactly at case index 1
                raise RuntimeError("generator exploded")
            return real_generate(rng, objective)

        monkeypatch.setattr(fuzz_mod, "generate_problem", crashing_generate)
        flush_sizes = []
        real_save = fuzz_mod.save_corpus

        def recording_save(failures, path):
            flush_sizes.append(len(failures))
            real_save(failures, path)

        monkeypatch.setattr(fuzz_mod, "save_corpus", recording_save)
        corpus = tmp_path / "corpus.json"
        report = fuzz_mod.fuzz(seed=0, n=6, corpus_path=str(corpus))
        # The generation crash was flushed during phase 1 (before any
        # evaluation), and the final corpus is index-sorted.
        assert flush_sizes[0] == 1
        crash_failures = [f for f in report.failures if f.kind == "crash"]
        assert [f.index for f in crash_failures] == [1]
        indices = [f.index for f in report.failures]
        assert indices == sorted(indices)
