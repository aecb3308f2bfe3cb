"""Preemptive-runtime tests: the worker pool, hard kills, incumbents,
concurrent misses on a shared disk tier, and the differential racing
acceptance case.

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
from repro.core.canonical import canonical_form
from repro.core.jobs import OneIntervalInstance
from repro.runtime import (
    configure_disk_cache,
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


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _chain_problem(num_jobs):
    pairs = [(3 * i, 3 * i + 5) for i in range(num_jobs)]
    return Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(pairs))


class TestWorkerPool:
    def test_basic_round_trip(self):
        pool = get_worker_pool()
        with pool.session(_square, workers=2) as session:
            for tag, item in enumerate([2, 3, 4]):
                session.submit(tag, item)
            got = {}
            while session.in_flight:
                tag, out = session.pop()
                got[tag] = out
        assert got == {0: 4, 1: 9, 2: 16}

    def test_workers_are_warm_across_sessions(self):
        pool = get_worker_pool()
        with pool.session(_worker_pid, workers=1) as session:
            session.submit(0, None)
            _tag, first_pid = session.pop()
        spawned_before = worker_pool_stats()["spawned"]
        with pool.session(_worker_pid, workers=1) as session:
            session.submit(0, None)
            _tag, second_pid = session.pop()
        assert second_pid == first_pid  # the very same warm process
        assert worker_pool_stats()["spawned"] == spawned_before

    def test_kill_terminates_and_spares_siblings(self):
        pool = get_worker_pool()
        with pool.session(_slow_task, workers=2) as session:
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

    def test_kill_drops_a_pending_tag(self):
        pool = get_worker_pool()
        with pool.session(_nap, workers=1) as session:
            killed_before = worker_pool_stats()["killed"]
            session.submit(0, 0.3)  # the one worker is busy with this
            session.submit(1, 0.0)
            session.submit(2, 0.0)
            assert session.in_flight == 3
            assert session.kill(1) is True
            assert session.in_flight == 2
            assert session.kill(1) is False
            assert [session.pop()[0] for _ in range(2)] == [0, 2]
            assert session.in_flight == 0
            assert worker_pool_stats()["killed"] == killed_before

    def test_kill_after_the_result_landed_is_a_completion(self):
        pool = get_worker_pool()
        with pool.session(_nap, workers=1) as session:
            killed_before = worker_pool_stats()["killed"]
            session.submit(0, 0.0)
            session.submit(1, 0.2)  # waits for the one worker
            (worker,) = session._running
            assert worker.conn.poll(10.0)  # task 0's result is in the pipe
            assert session.kill(0) is False
            # The freed worker took task 1, which the kill must not touch.
            assert session.in_flight == 2
            assert session.pop(timeout=0) == (0, 0.0)
            assert session.pop() == (1, 0.2)
            assert worker_pool_stats()["killed"] == killed_before

    def test_warm_worker_follows_disk_cache_changes(self, tmp_path):
        def solve_on_the_pool(num_jobs):
            (result,) = solve_batch(
                [_chain_problem(num_jobs)], backend="process", workers=1
            )
            assert result.status == "optimal"

        def entries(name):
            return len(list(DiskSolveCache(str(tmp_path / name))._walk_entries()))

        solve_on_the_pool(3)  # the worker forks with the disk tier off
        spawned = worker_pool_stats()["spawned"]
        configure_disk_cache(str(tmp_path / "a"))
        solve_on_the_pool(4)
        assert (entries("a"), entries("b")) == (1, 0)
        configure_disk_cache(str(tmp_path / "b"))
        solve_on_the_pool(5)
        assert (entries("a"), entries("b")) == (1, 1)
        configure_disk_cache(None)
        solve_on_the_pool(6)
        assert (entries("a"), entries("b")) == (1, 1)
        assert worker_pool_stats()["spawned"] == spawned  # one warm worker

    def test_killed_task_leaves_its_incumbent(self):
        pool = get_worker_pool()
        with pool.session(_slow_task, workers=1) as session:
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
        with pool.session(_square, workers=2) as session:
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


def _leftovers(root):
    """Temp and lock files anywhere under ``root``: a clean tier has none."""
    return [
        name
        for _dirpath, _dirnames, names in os.walk(root)
        for name in names
        if name.startswith(".tmp-") or name.endswith(".lock")
    ]


class TestConcurrentMisses:
    def test_leftover_lock_does_not_stall_a_solve(self, tmp_path):
        # Older versions left a lock file naming its owner's pid; after a
        # kill and pid reuse that pid names a live process.  Nothing reads
        # lock files now, so the solve runs at once.
        cache = configure_disk_cache(str(tmp_path))
        problem = Problem(
            objective="gaps",
            instance=OneIntervalInstance.from_pairs([(0, 3), (2, 6), (9, 12)]),
        )
        digest = cache_key_digest((("gaps",), canonical_form(problem.instance).key))
        lock = tmp_path / cache.version_tag / digest[:2] / f"{digest}.lock"
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text(str(os.getpid()), encoding="ascii")
        start = time.monotonic()
        result = solve(problem, solver="gap-dp")
        assert time.monotonic() - start < 1.0
        assert result.status == "optimal"
        assert solve_cache_stats()["fresh_solves"] == 1

    def test_clear_sweeps_temp_and_lock_files(self, tmp_path):
        # A writer killed between its temp file and the rename leaves a
        # .tmp- file, and older versions left .lock files: clear() removes
        # both without counting them as entries.
        cache = DiskSolveCache(str(tmp_path))
        cache.put((("gaps",), ("sweep",)), (False, None, None, None))
        prefix_dir = tmp_path / cache.version_tag / "ab"
        prefix_dir.mkdir(parents=True, exist_ok=True)
        (prefix_dir / ".tmp-killed").write_text("{", encoding="utf-8")
        (prefix_dir / f"ab{'0' * 62}.lock").write_text("1", encoding="ascii")
        assert cache.clear() == 1
        assert not any(names for _d, _s, names in os.walk(tmp_path))

    def test_concurrent_misses_leave_one_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()

        def race(count):
            barrier = ctx.Barrier(count)
            procs = [
                ctx.Process(
                    target=_solve_staircase, args=(str(tmp_path), barrier, queue)
                )
                for _ in range(count)
            ]
            for proc in procs:
                proc.start()
            outs = [queue.get(timeout=120) for _ in procs]
            for proc in procs:
                proc.join(timeout=30)
                assert proc.exitcode == 0
            return outs

        outs = race(3)
        values = {value for value, _fresh in outs}
        assert len(values) == 1
        # Each process solves, or replays an entry that landed first.
        assert 1 <= sum(fresh for _value, fresh in outs) <= 3
        cache = DiskSolveCache(str(tmp_path))
        assert len(list(cache._walk_entries())) == 1
        entry = cache.get((("gaps",), canonical_form(_staircase()).key))
        assert entry is not None and entry[1] in values
        assert _leftovers(tmp_path) == []
        assert race(1) == [(entry[1], 0)]  # a later process replays it


def _staircase():
    return OneIntervalInstance.from_pairs([(3 * i, 3 * i + 7) for i in range(90)])


def _solve_staircase(cache_dir, barrier, queue):
    configure_disk_cache(cache_dir)
    clear_solve_cache()
    problem = Problem(objective="gaps", instance=_staircase())
    barrier.wait()
    result = solve(problem, solver="gap-dp")
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
        answers = []
        for backend in ("serial", "process"):
            clear_solve_cache()
            shutdown_worker_pool()
            monkeypatch.setenv("REPRO_BACKEND", backend)
            answers.append(run_portfolio(problem, budget=10.0))

        exact = solve(problem, solver="gap-dp")
        for result in answers:
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
        # behaves: the killed solve leaves no temp or lock file, and a
        # subsequent serial solve runs cleanly and caches.
        configure_disk_cache(str(tmp_path))
        # No heuristic can certify this staircase, so the race runs to its
        # deadline and kills the DP (about 2 s alone) mid-solve.
        inst = OneIntervalInstance.from_pairs(
            [(3 * i, 3 * i + 40) for i in range(400)]
        )
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=0.5)
        assert result.feasible  # a heuristic answered; the DP was killed
        assert _leftovers(tmp_path) == []
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
