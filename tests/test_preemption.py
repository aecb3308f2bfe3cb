"""Preemptive-runtime tests: the worker pool, hard kills, incumbents,
single-flight disk locking, and the differential racing acceptance case.

Everything here runs on the real process pool (fork + pipes), so each
test asserts a clean process tree on exit — a leaked worker in any of
these is a bug, not noise.
"""

import multiprocessing
import os
import random
import time

import pytest

from repro.api import Problem, register_solver, run_portfolio, solve, solve_batch
from repro.api.registry import _REGISTRY
from repro.api.solvers import clear_solve_cache, solve_cache_stats
from repro.core.jobs import OneIntervalInstance
from repro.runtime import (
    configure_backend,
    configure_disk_cache,
    configured_backend,
    get_worker_pool,
    shutdown_worker_pool,
    solve_stream,
    worker_pool_stats,
)
from repro.runtime.diskcache import DiskSolveCache, cache_key_digest
from repro.runtime.pool import publish_incumbent
from repro.verify import certify_result


@pytest.fixture(autouse=True)
def clean_pool_and_cache():
    clear_solve_cache()
    configure_disk_cache(None)
    yield
    clear_solve_cache()
    configure_disk_cache(None)
    shutdown_worker_pool()
    deadline = time.time() + 10.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


def _square(x):
    return x * x


def _slow_task(x):
    for i in range(200):
        publish_incumbent(lambda: {"step": i, "x": x})
        time.sleep(0.02)
    return x


def _worker_pid(_item):
    return os.getpid()


class TestWorkerPool:
    def test_basic_round_trip(self):
        pool = get_worker_pool()
        with pool.session(_square, workers=2, chunksize=1) as session:
            for tag, item in enumerate([2, 3, 4]):
                session.submit(tag, item)
            got = {}
            while session.in_flight:
                tag, out = session.pop()
                got[tag] = out
        assert got == {0: 4, 1: 9, 2: 16}

    def test_workers_are_warm_across_sessions(self):
        pool = get_worker_pool()
        with pool.session(_worker_pid, workers=1, chunksize=1) as session:
            session.submit(0, None)
            _tag, first_pid = session.pop()
        spawned_before = worker_pool_stats()["spawned"]
        with pool.session(_worker_pid, workers=1, chunksize=1) as session:
            session.submit(0, None)
            _tag, second_pid = session.pop()
        assert second_pid == first_pid  # the very same warm process
        assert worker_pool_stats()["spawned"] == spawned_before

    def test_kill_terminates_and_spares_siblings(self):
        pool = get_worker_pool()
        with pool.session(_slow_task, workers=2, chunksize=1) as session:
            session.submit(0, "victim")
            session.submit(1, "survivor")
            assert session.pop(timeout=0.05) is None  # both still running
            assert session.kill(0) is True
            assert session.kill(0) is False  # idempotent
            # the survivor's four-second solve is unaffected
            out = None
            while out is None:
                out = session.pop(timeout=1.0)
            assert out == (1, "survivor")
            assert session.in_flight == 0
        assert worker_pool_stats()["killed"] >= 1

    def test_killed_task_leaves_its_incumbent(self):
        pool = get_worker_pool()
        with pool.session(_slow_task, workers=1, chunksize=1) as session:
            session.submit(7, "inc")
            incumbent = None
            deadline = time.time() + 10.0
            while incumbent is None and time.time() < deadline:
                session.pop(timeout=0.05)
                incumbent = session.take_incumbent(7)
            assert incumbent is not None and incumbent["x"] == "inc"
            session.kill(7)

    def test_shutdown_leaves_no_processes(self):
        pool = get_worker_pool()
        with pool.session(_square, workers=2, chunksize=1) as session:
            session.submit(0, 1)
            session.pop()
        shutdown_worker_pool()
        deadline = time.time() + 10.0
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.02)
        assert multiprocessing.active_children() == []

    def test_publish_incumbent_is_noop_outside_workers(self):
        assert publish_incumbent(lambda: {"never": "sent"}) is False

    def test_solver_registered_after_the_fork_reaches_warm_workers(self):
        problem = Problem(
            objective="gaps",
            instance=OneIntervalInstance.from_pairs([(0, 2), (1, 3), (6, 8)]),
        )
        warm = solve_batch([problem, problem], backend="process", workers=2)
        assert [r.status for r in warm] == ["optimal", "optimal"]
        assert worker_pool_stats()["idle"] == 2

        @register_solver(
            "late-solver",
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _late(late_problem):
            return solve(late_problem, solver="gap-dp")

        try:
            results = solve_batch(
                [problem, problem], backend="process", workers=2, solver="late-solver"
            )
            assert [r.status for r in results] == ["optimal", "optimal"]
            assert [r.solver for r in results] == ["late-solver", "late-solver"]
            assert results[0].value == warm[0].value
        finally:
            _REGISTRY.pop("late-solver", None)


class TestSingleFlight:
    def test_lock_try_wait_unlock(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), ("k",))
        assert cache.try_lock(key) is True
        assert cache.try_lock(key) is False  # held (by a live pid: ours)
        cache.unlock(key)
        assert cache.try_lock(key) is True
        cache.unlock(key)

    def test_stale_lock_of_dead_pid_is_broken(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), ("stale",))
        assert cache.try_lock(key) is True
        # forge a dead owner: fork a child that exits immediately
        child = multiprocessing.get_context("fork").Process(target=_square, args=(0,))
        child.start()
        dead_pid = child.pid
        child.join()
        path = cache._lock_path(cache_key_digest(key))
        with open(path, "w", encoding="ascii") as handle:
            handle.write(str(dead_pid))
        assert cache.try_lock(key) is True  # broken and re-acquired
        cache.unlock(key)

    def test_empty_lock_is_live_until_old(self, tmp_path):
        # A lock whose creator has not written its pid yet must not read
        # as a dead owner's: only the torn-write age rule may break it.
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), ("unwritten",))
        path = cache._lock_path(cache_key_digest(key))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        assert cache._lock_is_stale(path) is False
        assert cache.try_lock(key) is False
        aged = time.time() - 11.0
        os.utime(path, (aged, aged))
        assert cache._lock_is_stale(path) is True
        assert cache.try_lock(key) is True
        cache.unlock(key)

    def test_entry_landing_before_the_lock_replays(self, tmp_path, monkeypatch):
        # A leader that writes its entry and unlocks between this process's
        # lookup and its lock has answered: no second DP may run.
        cache = configure_disk_cache(str(tmp_path))
        problem = Problem(
            objective="gaps",
            instance=OneIntervalInstance.from_pairs([(0, 3), (2, 6), (9, 12)]),
        )
        first = solve(problem, solver="gap-dp")
        (entry_path,) = list(cache._walk_entries())
        held = str(tmp_path / "held-entry")
        os.replace(entry_path, held)
        clear_solve_cache()
        real_try_lock = DiskSolveCache.try_lock

        def leader_lands_first(self, key):
            os.replace(held, entry_path)
            return real_try_lock(self, key)

        monkeypatch.setattr(DiskSolveCache, "try_lock", leader_lands_first)
        replay = solve(problem, solver="gap-dp")
        assert replay == first
        assert solve_cache_stats()["fresh_solves"] == 0
        assert not [
            name for _d, _s, names in os.walk(tmp_path) for name in names
            if name.endswith(".lock")
        ]

    def test_waiter_gets_the_leaders_entry(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), ("flight",))
        entry = (True, 3, ((0, 0),), {"name": "interval-dp"})
        assert cache.try_lock(key)
        cache.put(key, entry)
        cache.unlock(key)
        assert cache.wait_for_entry(key, timeout=1.0) == entry

    def test_wait_returns_none_when_flight_aborts(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), ("aborted",))
        # no lock, no entry: the "flight" is already gone
        assert cache.wait_for_entry(key, timeout=0.5) is None

    def test_clear_sweeps_lock_files(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path))
        key = (("gaps",), ("sweep",))
        assert cache.try_lock(key)
        cache.clear()
        assert cache.try_lock(key) is True  # the old lock file is gone
        cache.unlock(key)

    def test_concurrent_processes_solve_once(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_same_key, args=(str(tmp_path), barrier, queue)
            )
            for _ in range(3)
        ]
        for proc in procs:
            proc.start()
        outs = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join()
        values = {value for value, _fresh in outs}
        assert len(values) == 1
        assert sum(fresh for _value, fresh in outs) == 1  # single flight


def _race_same_key(cache_dir, barrier, queue):
    configure_disk_cache(cache_dir)
    clear_solve_cache()
    inst = OneIntervalInstance.from_pairs([(3 * i, 3 * i + 7) for i in range(90)])
    barrier.wait()
    result = solve(Problem(objective="gaps", instance=inst), solver="gap-dp")
    queue.put((result.value, solve_cache_stats()["fresh_solves"]))


def _differential_instance():
    # n = 450: the heuristics plateau one gap above the optimum (local-search
    # local minimum), and the certified lower bound sits far below both — so
    # no heuristic can ever pin ratio == 1.0, only the exact DP can.  The
    # instance decomposes into many small windows, so the DP finishes in
    # well under a second inside its racing worker.
    rng = random.Random(0)
    pairs = []
    for cluster in range(150):
        base = 25 * cluster
        for _ in range(3):
            release = base + rng.randrange(20)
            deadline = release + 1 + rng.randrange(20)
            pairs.append((release, min(deadline, base + 40)))
    return OneIntervalInstance.from_pairs(pairs)


class TestPreemptiveRacing:
    def test_exact_dp_wins_the_race_whatever_the_batch_backend(self, monkeypatch):
        # The batch backend setting must not change a budgeted answer: the
        # race always runs on the warm pool, where the exact DP races from
        # t=0 and certifies the optimum the heuristics cannot reach.
        problem = Problem(objective="gaps", instance=_differential_instance())
        previous = configured_backend()
        configure_backend("serial")
        try:
            configured = run_portfolio(problem, budget=10.0)
        finally:
            configure_backend(previous)
        clear_solve_cache()
        shutdown_worker_pool()
        monkeypatch.setenv("REPRO_BACKEND", "process")
        from_env = run_portfolio(problem, budget=10.0)

        exact = solve(problem, solver="gap-dp")
        for result in (configured, from_env):
            assert result.status == "optimal"
            assert result.value == exact.value
            assert result.extra["optimality_gap"]["ratio"] == pytest.approx(1.0)
            assert certify_result(problem, result).ok

    def test_race_leaves_no_orphan_processes(self):
        problem = Problem(objective="gaps", instance=_differential_instance())
        run_portfolio(problem, budget=10.0)
        shutdown_worker_pool()
        deadline = time.time() + 10.0
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.02)
        assert multiprocessing.active_children() == []

    def test_tiny_budget_still_returns_feasible_answer(self):
        inst = OneIntervalInstance.from_pairs(
            [(5 * i, 5 * i + 9) for i in range(2000)]
        )
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=1e-3)
        assert result.feasible
        assert result.schedule is not None
        assert len(result.schedule.assignment) == 2000
        assert certify_result(problem, result).ok

    def test_killed_member_cache_state_is_consistent(self, tmp_path):
        # Hard-kill the DP mid-solve, then verify the two-tier cache still
        # behaves: no partial disk entry answers for the killed solve, the
        # single-flight lock is released (stale-broken), and a subsequent
        # serial solve of the same problem runs cleanly and caches.
        configure_disk_cache(str(tmp_path))
        inst = OneIntervalInstance.from_pairs(
            [(i, i + 4000) for i in range(4000)]  # one giant window: slow DP
        )
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=0.5)
        assert result.feasible  # a heuristic answered; the DP was killed
        # no torn disk entries: every file parses or is ignored as a miss
        disk = DiskSolveCache(str(tmp_path))
        for path in disk._walk_entries():
            assert not os.path.basename(path).startswith(".tmp-")
        # the killed DP's single-flight lock must not wedge a retry
        clear_solve_cache()
        follow_up = solve(
            Problem(
                objective="gaps",
                instance=OneIntervalInstance.from_pairs([(0, 3), (2, 6)]),
            ),
            solver="gap-dp",
        )
        assert follow_up.status == "optimal"

    def test_stream_and_service_teardown_leave_no_orphans(self):
        problems = [
            Problem(
                objective="gaps",
                instance=OneIntervalInstance.from_pairs(
                    [(3 * i + j, 3 * i + j + 5) for i in range(20)]
                ),
            )
            for j in range(6)
        ]
        results = list(solve_stream(problems, backend="process", workers=2))
        assert all(res.feasible for res in results)
        shutdown_worker_pool()
        deadline = time.time() + 10.0
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.02)
        assert multiprocessing.active_children() == []
