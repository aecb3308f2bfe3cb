"""Tests for the budget-raced solver portfolio (``repro.portfolio``).

Includes the PR's acceptance criterion: a seeded n = 10^5 instance solved
under ``budget=5.0`` must return a feasible schedule with a finite
certified optimality gap in well under 1.5x the budget, and both the
result and the attached lower bound must re-verify independently.
"""

import random
import time

import pytest

import repro.bounds
from repro.api import (
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
from repro.portfolio import race as race_module
from repro.runtime import shutdown_worker_pool
from repro.verify import certify_bound, certify_result


def small_instance():
    return OneIntervalInstance.from_pairs(
        [(0, 3), (2, 6), (5, 9), (9, 14), (13, 17)]
    )


def staircase(n):
    """Local search meets the gap bound here, long before the exact DP ends."""
    return OneIntervalInstance.from_pairs([(7 * i, 7 * i + 30) for i in range(n)])


def dp_settled_instance():
    """Gap bound 2 below the optimum 3: only the exact DP can pin the race."""
    return OneIntervalInstance.from_pairs(
        [(7, 9), (3, 6), (15, 16), (2, 2), (0, 3), (17, 19), (25, 25), (7, 9)]
    )


class _CountingInstance(OneIntervalInstance):
    """Counts how often it is pickled; unpickles as a plain instance."""

    pickles = 0

    def __reduce_ex__(self, protocol):
        type(self).pickles += 1
        return (OneIntervalInstance, (self.jobs,))


class TestDefaultMembers:
    def test_small_gaps_roster_includes_exact(self):
        roster = default_members(
            Problem(objective="gaps", instance=small_instance())
        )
        assert roster == ["edf-gap", "localsearch-gap", "gap-dp"]

    def test_large_instance_keeps_exact_in_roster(self):
        # The exact DP is rostered at every size: the race hard-kills it
        # at the deadline.
        inst = OneIntervalInstance.from_pairs(
            [(3 * i, 3 * i + 5) for i in range(450)]
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
            # The race may hard-kill beaten members; every record still
            # carries its state, kill reason and wall time.
            assert member["state"] in ("ran", "killed")
            if member["state"] == "ran":
                assert member["kill_reason"] is None
                assert member["wall_time"] >= 0
            elif member["state"] == "killed":
                assert member["kill_reason"] in ("beaten", "deadline", "error")
        assert any(member["state"] == "ran" for member in race["members"])
        assert race["winner"] in names
        assert race["budget"] == 5.0
        assert set(race) == {"budget", "members", "winner", "lower_bound"}

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
        # The race fixes the value, status and certified gap given
        # headroom; the winning member's *name* is timing-dependent by
        # design (whoever pins first kills the rest).
        problem = Problem(objective="gaps", instance=small_instance())
        first = run_portfolio(problem, budget=5.0)
        second = run_portfolio(problem, budget=5.0)
        assert first.value == second.value
        assert first.status == second.status
        assert first.extra["optimality_gap"] == second.extra["optimality_gap"]

    def test_tight_budget_cancels_exact_member(self):
        # A sub-millisecond budget still returns a feasible answer, and the
        # exact DP must not be allowed to blow the deadline: the race
        # hard-kills it at the deadline.
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
        assert members["gap-dp"]["state"] == "killed"
        assert members["gap-dp"]["kill_reason"] == "deadline"


class TestLeanProtocol:
    """What crosses the process boundary in a race, and what comes back."""

    def test_heuristic_win_holds_the_callers_instance(self):
        inst = staircase(200)
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=5.0)
        assert result.extra["portfolio"]["winner"] in ("edf-gap", "localsearch-gap")
        assert result.schedule.instance is inst
        assert certify_result(problem, result).ok

    def test_dp_win_holds_the_callers_instance(self):
        inst = dp_settled_instance()
        problem = Problem(objective="gaps", instance=inst)
        result = run_portfolio(problem, budget=5.0)
        assert result.extra["portfolio"]["winner"] == "gap-dp"
        assert result.status == "optimal" and result.value == 3
        assert result.schedule.instance is inst
        assert certify_result(problem, result).ok

    def test_members_use_the_parents_bound(self, monkeypatch):
        problem = Problem(objective="gaps", instance=staircase(200))
        expected = run_portfolio(problem, budget=5.0)

        def refuse(_problem):
            raise RuntimeError("a race member recomputed the lower bound")

        monkeypatch.setattr(repro.bounds, "lower_bound_for", refuse)
        shutdown_worker_pool()  # the next race forks workers that see the patch
        try:
            result = run_portfolio(problem, budget=5.0)
        finally:
            shutdown_worker_pool()
        for member in result.extra["portfolio"]["members"]:
            assert member["status"] != "error" and member["kill_reason"] != "error", member
        assert result.value == expected.value
        assert result.status == expected.status
        assert result.extra["optimality_gap"] == expected.extra["optimality_gap"]
        assert certify_result(problem, result).ok

    def test_the_instance_is_pickled_once_per_race(self):
        inst = _CountingInstance(staircase(200).jobs)
        problem = Problem(objective="gaps", instance=inst)
        _CountingInstance.pickles = 0
        result = run_portfolio(problem, budget=5.0)
        assert result.feasible
        assert _CountingInstance.pickles == 1
        assert result.schedule.instance is inst

    @pytest.mark.parametrize(
        "problem",
        [
            Problem(objective="gaps", instance=staircase(200)),
            Problem(objective="power", instance=staircase(100), alpha=3.0),
        ],
        ids=["gaps", "power"],
    )
    def test_member_envelopes_match_unraced_solves(self, monkeypatch, problem):
        raced = {}
        race = race_module._race

        def capture(*args):
            outcome = race(*args)
            raced.update(outcome[0])  # completed members' envelopes
            return outcome

        monkeypatch.setattr(race_module, "_race", capture)
        run_portfolio(problem, budget=5.0)
        heuristics = [name for name in raced if not name.endswith("-dp")]
        assert any(name.startswith("localsearch-") for name in heuristics), raced
        for name in heuristics:
            alone = solve(problem, solver=name)
            inside = raced[name]
            assert inside.value == alone.value
            assert inside.status == alone.status
            assert inside.guarantee_factor == alone.guarantee_factor
            assert inside.extra["lower_bound"] == alone.extra["lower_bound"]


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
