"""Tests for the budget-raced solver portfolio (``repro.portfolio``).

Includes the PR's acceptance criterion: a seeded n = 10^5 instance solved
under ``budget=5.0`` must return a feasible schedule with a finite
certified optimality gap in well under 1.5x the budget, and both the
result and the attached lower bound must re-verify independently.
"""

import random
import time

import pytest

from repro.api import (
    DEFAULT_EXACT_JOB_LIMIT,
    Problem,
    default_members,
    run_portfolio,
    solve,
)
from repro.core.exceptions import SolverError
from repro.core.jobs import (
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
)
from repro.verify import certify_bound, certify_result


def small_instance():
    return OneIntervalInstance.from_pairs(
        [(0, 3), (2, 6), (5, 9), (9, 14), (13, 17)]
    )


class TestDefaultMembers:
    def test_small_gaps_roster_includes_exact(self):
        roster = default_members(
            Problem(objective="gaps", instance=small_instance())
        )
        assert roster == ["edf-gap", "localsearch-gap", "gap-dp"]

    def test_large_instance_keeps_exact_in_roster(self):
        # Admission moved from roster construction to dispatch time: the
        # exact DP is always rostered; preemptive sessions race it under
        # hard kill, cooperative ones refuse it at dispatch ("admission").
        inst = OneIntervalInstance.from_pairs(
            [(3 * i, 3 * i + 5) for i in range(DEFAULT_EXACT_JOB_LIMIT + 1)]
        )
        roster = default_members(Problem(objective="gaps", instance=inst))
        assert roster == ["edf-gap", "localsearch-gap", "gap-dp"]

    def test_power_roster(self):
        roster = default_members(
            Problem(objective="power", instance=small_instance(), alpha=2.0)
        )
        assert roster == ["edf-power", "localsearch-power", "power-dp"]

    def test_multiproc_falls_back_to_auto(self):
        inst = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1)], num_processors=2
        )
        roster = default_members(Problem(objective="gaps", instance=inst))
        assert roster == ["gap-dp"]

    def test_throughput_falls_back_to_auto(self):
        inst = MultiIntervalInstance.from_time_lists([[0, 1], [2, 3]])
        roster = default_members(
            Problem(objective="throughput", instance=inst, max_gaps=1)
        )
        assert len(roster) == 1


class TestRunPortfolio:
    def test_small_instance_is_proven_optimal(self):
        problem = Problem(objective="gaps", instance=small_instance())
        result = run_portfolio(problem, budget=5.0)
        exact = solve(problem, solver="gap-dp")
        assert result.status == "optimal"
        assert result.value == exact.value
        assert result.solver == "portfolio"
        gap = result.extra["optimality_gap"]
        assert gap["lower"] == gap["upper"] == exact.value
        assert gap["ratio"] == pytest.approx(1.0)
        assert certify_result(problem, result).ok

    def test_power_instance_is_proven_optimal(self):
        problem = Problem(objective="power", instance=small_instance(), alpha=2.5)
        result = run_portfolio(problem, budget=5.0)
        exact = solve(problem, solver="power-dp")
        assert result.status == "optimal"
        assert result.value == pytest.approx(exact.value)
        assert certify_result(problem, result).ok

    def test_member_records_cover_roster(self):
        problem = Problem(objective="gaps", instance=small_instance())
        result = run_portfolio(problem, budget=5.0)
        race = result.extra["portfolio"]
        names = [member["name"] for member in race["members"]]
        assert names == ["edf-gap", "localsearch-gap", "gap-dp"]
        for member in race["members"]:
            # Preemptive racing may hard-kill beaten members; every record
            # still carries its state, kill reason and wall time.
            assert member["state"] in ("ran", "killed", "cancelled")
            if member["state"] == "ran":
                assert member["kill_reason"] is None
                assert member["wall_time"] >= 0
            elif member["state"] == "killed":
                assert member["kill_reason"] in ("beaten", "deadline", "error")
        assert any(member["state"] == "ran" for member in race["members"])
        assert race["winner"] in names
        assert race["budget"] == 5.0
        assert race["backend"] in ("serial", "thread", "process")

    def test_serial_backend_runs_every_member(self):
        # The cooperative path keeps the historical guarantee: with budget
        # headroom every rostered member actually runs to completion.
        problem = Problem(objective="gaps", instance=small_instance())
        result = run_portfolio(problem, budget=5.0, backend="serial")
        race = result.extra["portfolio"]
        assert race["preemptive"] is False
        assert all(member["state"] == "ran" for member in race["members"])

    def test_infeasible_instance_attaches_hall_certificate(self):
        bad = OneIntervalInstance.from_pairs([(0, 1), (0, 1), (0, 1)])
        problem = Problem(objective="gaps", instance=bad)
        result = run_portfolio(problem, budget=5.0)
        assert result.status == "infeasible"
        assert result.value is None and result.schedule is None
        cert = result.extra["portfolio"]["infeasibility"]
        assert cert["value"] > 0
        assert certify_bound(problem, cert).ok
        assert certify_result(problem, result).ok

    def test_budget_must_be_positive(self):
        problem = Problem(objective="gaps", instance=small_instance())
        with pytest.raises(ValueError):
            run_portfolio(problem, budget=0.0)

    def test_deterministic_given_budget_headroom(self):
        # Preemptive racing fixes the value, status and certified gap given
        # headroom; the winning member's *name* is timing-dependent by
        # design (whoever pins first kills the rest).
        problem = Problem(objective="gaps", instance=small_instance())
        first = run_portfolio(problem, budget=5.0)
        second = run_portfolio(problem, budget=5.0)
        assert first.value == second.value
        assert first.status == second.status
        assert first.extra["optimality_gap"] == second.extra["optimality_gap"]

    def test_serial_backend_fully_deterministic(self):
        # The cooperative path additionally fixes the winner and schedule.
        problem = Problem(objective="gaps", instance=small_instance())
        first = run_portfolio(problem, budget=5.0, backend="serial")
        second = run_portfolio(problem, budget=5.0, backend="serial")
        assert first.value == second.value
        assert first.extra["portfolio"]["winner"] == (
            second.extra["portfolio"]["winner"]
        )
        assert first.schedule.assignment == second.schedule.assignment

    def test_explicit_members_are_honored(self):
        problem = Problem(objective="gaps", instance=small_instance())
        result = run_portfolio(problem, budget=5.0, members=["edf-gap"])
        race = result.extra["portfolio"]
        assert [member["name"] for member in race["members"]] == ["edf-gap"]

    def test_tight_budget_cancels_exact_member(self):
        # A sub-millisecond budget still returns a feasible answer, and the
        # exact DP must not be allowed to blow the deadline: the
        # cooperative path refuses to dispatch it ("cancelled"), the
        # preemptive path hard-kills it ("killed" at the deadline).
        inst = OneIntervalInstance.from_pairs(
            [(3 * i, 3 * i + 5) for i in range(300)]
        )
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=1e-4)
        members = {
            member["name"]: member
            for member in result.extra["portfolio"]["members"]
        }
        assert result.feasible
        assert members["gap-dp"]["state"] in ("cancelled", "killed")

    def test_tight_budget_serial_cancels_with_reason(self):
        inst = OneIntervalInstance.from_pairs(
            [(3 * i, 3 * i + 5) for i in range(300)]
        )
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=1e-4, backend="serial")
        members = {
            member["name"]: member
            for member in result.extra["portfolio"]["members"]
        }
        assert result.feasible
        assert members["gap-dp"]["state"] == "cancelled"
        assert members["gap-dp"]["kill_reason"] == "deadline"


class TestFacadeBudget:
    def test_budget_routes_to_portfolio(self):
        result = solve(
            Problem(objective="gaps", instance=small_instance()), budget=5.0
        )
        assert result.solver == "portfolio"
        assert "optimality_gap" in result.extra

    def test_budget_rejects_forced_solver(self):
        with pytest.raises(ValueError):
            solve(
                Problem(objective="gaps", instance=small_instance()),
                solver="gap-dp",
                budget=1.0,
            )

    def test_on_infeasible_raise_still_works(self):
        from repro.core.exceptions import InfeasibleInstanceError

        bad = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        with pytest.raises(InfeasibleInstanceError):
            solve(
                Problem(objective="gaps", instance=bad),
                budget=1.0,
                on_infeasible="raise",
            )


class TestLargeNAcceptance:
    def test_n_100k_certified_under_budget(self):
        n = 100_000
        inst = OneIntervalInstance.from_pairs(
            [(7 * i, 7 * i + 30) for i in range(n)]
        )
        problem = Problem(objective="gaps", instance=inst)
        start = time.perf_counter()
        result = run_portfolio(problem, budget=5.0)
        wall = time.perf_counter() - start
        assert wall < 7.5  # ~1.5x budget
        assert result.feasible
        assert result.schedule is not None
        assert len(result.schedule.assignment) == n
        gap = result.extra["optimality_gap"]
        assert gap["ratio"] is not None and gap["ratio"] < float("inf")
        assert gap["lower"] <= result.value <= gap["upper"]
        assert certify_result(problem, result).ok
        bound = result.extra["portfolio"]["lower_bound"]
        assert bound is not None
        assert certify_bound(problem, bound).ok

    def test_large_power_instance_within_budget(self):
        rng = random.Random(0)
        pairs = []
        for cluster in range(400):
            base = 300 * cluster
            for _ in range(50):
                release = base + rng.randrange(100)
                pairs.append((release, base + 150 + rng.randrange(50)))
        inst = OneIntervalInstance.from_pairs(pairs)
        problem = Problem(objective="power", instance=inst, alpha=4.0)
        start = time.perf_counter()
        result = run_portfolio(problem, budget=5.0)
        wall = time.perf_counter() - start
        assert wall < 7.5
        assert result.feasible
        gap = result.extra["optimality_gap"]
        assert gap["ratio"] is not None
        assert certify_result(problem, result).ok
