"""The portfolio racer: concurrent members, hard kills, any-time incumbents.

Every budgeted race runs one discipline, on the warm worker pool
(:mod:`repro.runtime.pool`).  Every roster member — including the exact
DP, at any instance size — launches in its own worker process at t=0.
The first finisher that *pins* the race (a proven-optimal or
proven-infeasible answer, or a feasible value meeting the certified lower
bound) hard-kills the losers immediately (kill reason ``"beaten"``);
budget expiry hard-kills everything still running (``"deadline"``), and
a worker lost without an answer is recorded as ``"error"``.  Members
stream improving feasible schedules over the any-time incumbent channel
(:func:`repro.runtime.pool.publish_incumbent`) while they run, so a
member killed mid-solve still contributes its best published schedule to
the final answer.  When the deadline passes before *any* answer or
incumbent exists, the cheapest still-running member is spared the kill
and awaited — a tiny budget degrades to "one heuristic, slightly late",
never to "no answer".

The race never consults the batch backend (``configure_backend`` /
``REPRO_BACKEND``): that setting picks where batch work runs, and must not
change what a budgeted solve returns.

Each side of the race is sent only what it does not already hold.  The
parent pickles the race's problem and its certified lower bound once, and
every member payload carries those same bytes.  The heuristic members
stamp the parent's bound instead of recomputing it.  A member's reply
leaves out the instance its schedule sits on, and the parent re-attaches
its own ``problem.instance``, so a raced schedule holds the caller's
instance object, as an unraced :func:`~repro.api.solve` does.

Determinism: given budget headroom, the returned *value*, *status*, and
*optimality gap* are deterministic; the winning member name is
timing-dependent by design (any winner is certified equally).
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..api.problem import Problem
from ..api.registry import capable_solvers, solve
from ..api.result import SolveResult
from ..api.solvers import heuristic_deadline
from ..bounds import hall_deficiency, lower_bound_for
from ..core.exceptions import ReproError, SolverError
from ..core.jobs import OneIntervalInstance
from ..core.schedule import Schedule
from ..runtime.pool import WorkerLostError, get_worker_pool
from ..verify.certificates import values_close

__all__ = ["default_members", "run_portfolio"]

#: Member order per objective, cheapest first.  The exact DP rides last.
_HEURISTIC_MEMBERS = {
    "gaps": ("edf-gap", "localsearch-gap"),
    "power": ("edf-power", "localsearch-power"),
}
_EXACT_MEMBERS = {"gaps": "gap-dp", "power": "power-dp"}


def default_members(problem: Problem) -> List[str]:
    """The racing roster for ``problem``, cheapest member first.

    Single-processor one-interval instances get the scalable heuristics
    plus the exact DP — at *every* size: the DP races under hard kill, so
    a budget it cannot meet costs it the race, never the deadline.  Every
    other instance/objective combination degrades to the
    automatic-dispatch solver alone (still budget-accounted, still
    enveloped).
    """
    instance = problem.instance
    capable = {spec.name for spec in capable_solvers(problem)}
    members: List[str] = []
    if isinstance(instance, OneIntervalInstance):
        members = [
            name
            for name in _HEURISTIC_MEMBERS.get(problem.objective, ())
            if name in capable
        ]
        exact = _EXACT_MEMBERS.get(problem.objective)
        if exact in capable:
            members.append(exact)
    if not members:
        # Fallback roster: whatever automatic dispatch would run.
        auto = [spec.name for spec in capable_solvers(problem) if spec.kind != "baseline"]
        if not auto:
            raise SolverError(
                f"no portfolio member can handle objective "
                f"{problem.objective!r} on {type(instance).__name__}"
            )
        members = [auto[0]]
    return members


def _race_member(payload: Tuple[bytes, str, float]) -> SolveResult:
    """Worker-side member solve (module-level so the pool can pickle it).

    ``payload`` is ``(blob, member, remaining)``, where ``blob`` is the
    race's pickled ``(problem, bound)`` pair, shared by every member.  A
    schedule on this worker's copy of the instance comes back without it
    (and without its cached views); the parent re-attaches its own.
    """
    blob, member, remaining = payload
    problem, bound = pickle.loads(blob)
    deadline = time.perf_counter() + remaining
    try:
        with heuristic_deadline(deadline, bound):
            result = solve(problem, solver=member)
    except ReproError as exc:
        return SolveResult(
            status="error",
            objective=problem.objective,
            value=None,
            schedule=None,
            extra={"error_type": type(exc).__name__, "error": str(exc)},
        )
    schedule = result.schedule
    if schedule is not None and schedule.instance is problem.instance:
        schedule.instance = None
        schedule.invalidate_caches()
    return result


def _pins(result: SolveResult, bound) -> bool:
    """True when ``result`` settles the race: no other member can beat it."""
    if result.status in ("optimal", "infeasible"):
        return True
    if not result.feasible or result.value is None:
        return False
    if bound is None:
        return False
    return result.value <= bound.value or values_close(result.value, bound.value)


def _incumbent_result(problem: Problem, payload: Any) -> Optional[SolveResult]:
    """Rebuild a full result from a killed member's published incumbent.

    The payload is the worker's ``{"times": {job: slot}}`` map; it is
    re-validated here (a schedule published microseconds before a
    ``SIGTERM`` could in principle be torn) — an invalid payload is
    dropped, never returned.
    """
    if not isinstance(payload, dict):
        return None
    times = payload.get("times")
    if not isinstance(times, dict):
        return None
    try:
        schedule = Schedule(
            instance=problem.instance,
            assignment={int(j): int(t) for j, t in times.items()},
        )
        schedule.validate()
        if problem.objective == "gaps":
            value: float = schedule.num_gaps()
        elif problem.objective == "power":
            value = schedule.power_cost(problem.alpha)
        else:
            return None
    except (ReproError, TypeError, ValueError):
        return None
    return SolveResult(
        status="approximate",
        objective=problem.objective,
        value=value,
        schedule=schedule,
        extra={"any_time_incumbent": True},
    )


def _race(
    session,
    problem: Problem,
    roster: List[str],
    budget: float,
    deadline: float,
    start: float,
    bound,
) -> Tuple[Dict[str, SolveResult], Dict[str, str], Dict[str, SolveResult], Dict[str, float]]:
    """Race every member concurrently from t=0, killing the losers.

    Returns ``(results, killed, incumbents, wall)``: completed member
    results, kill reasons for the members stopped early, reconstructed
    incumbent results for killed members that published one, and
    per-member wall time (time-to-finish for completions, time-to-kill
    for the stopped ones).
    """
    results: Dict[str, SolveResult] = {}
    killed: Dict[str, str] = {}
    incumbents: Dict[str, SolveResult] = {}
    wall: Dict[str, float] = {}
    outstanding: Set[int] = set()

    blob = pickle.dumps((problem, bound), protocol=pickle.HIGHEST_PROTOCOL)
    for tag, name in enumerate(roster):
        session.submit(tag, (blob, name, budget))
        outstanding.add(tag)

    def note_finish(tag: int, result: SolveResult) -> None:
        outstanding.discard(tag)
        name = roster[tag]
        if result.schedule is not None and result.schedule.instance is None:
            result.schedule.instance = problem.instance
        results[name] = result
        elapsed = time.perf_counter() - start
        wall[name] = (
            result.wall_time if result.wall_time is not None else elapsed
        )

    def note_lost(tag: int) -> None:
        if tag in outstanding:
            outstanding.discard(tag)
            killed[roster[tag]] = "error"
            wall[roster[tag]] = time.perf_counter() - start

    def kill_tags(tags: List[int], reason: str) -> None:
        for tag in tags:
            if tag not in outstanding:
                continue
            if session.kill(tag):
                outstanding.discard(tag)
                name = roster[tag]
                killed[name] = reason
                wall[name] = time.perf_counter() - start
                payload = session.take_incumbent(tag)
                if payload is not None:
                    incumbent = _incumbent_result(problem, payload)
                    if incumbent is not None:
                        incumbents[name] = incumbent
            # kill() returning False means the member finished in the
            # kill window: its result is already buffered and the drain
            # below collects it as a normal completion.

    def drain(until: Optional[float]) -> None:
        """Collect completions until ``until`` (None: until all land)."""
        while outstanding:
            timeout = None if until is None else until - time.perf_counter()
            if timeout is not None and timeout <= 0:
                break
            try:
                item = session.pop(timeout=timeout)
            except WorkerLostError as exc:
                note_lost(exc.tag)
                continue
            except LookupError:
                break
            if item is None:
                break
            note_finish(*item)

    pinned = False
    while outstanding and not pinned:
        now = time.perf_counter()
        if now >= deadline:
            break
        try:
            item = session.pop(timeout=min(0.1, deadline - now))
        except WorkerLostError as exc:
            note_lost(exc.tag)
            continue
        if item is None:
            continue
        tag, result = item
        note_finish(tag, result)
        if _pins(result, bound):
            pinned = True
            kill_tags(sorted(outstanding), "beaten")
            # Members that completed while the kills were being issued
            # are already buffered; collect them within a short window.
            drain(time.perf_counter() + 1.0)

    if outstanding:
        # Budget expired.  Spare the cheapest still-running member when
        # nothing usable exists yet — a tiny budget must still return a
        # feasible answer.
        have_answer = bool(incumbents) or any(
            res.feasible or res.status == "infeasible"
            for res in results.values()
        )
        if have_answer:
            kill_tags(sorted(outstanding), "deadline")
            drain(time.perf_counter() + 1.0)
        else:
            spared = min(outstanding)
            kill_tags(sorted(outstanding - {spared}), "deadline")
            drain(None)  # block for the spared member
    return results, killed, incumbents, wall


def run_portfolio(problem: Problem, budget: float) -> SolveResult:
    """Race portfolio members under ``budget`` seconds of wall clock.

    Returns the best feasible member answer in the uniform envelope, with
    ``solver="portfolio"``, ``extra["optimality_gap"]`` carrying the
    certified ``lower/upper/ratio`` triple (when a lower bound exists for
    the instance class), and ``extra["portfolio"]`` recording the budget,
    the winner, and every member's outcome — wall time and kill reason
    included for the members stopped early.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    start = time.perf_counter()
    deadline = start + budget
    roster = default_members(problem)
    bound = lower_bound_for(problem)

    # One worker per member: the roster races concurrently even when the
    # host has fewer cores (any-time semantics want every member started,
    # not a queue).
    with get_worker_pool().session(_race_member, len(roster)) as session:
        results, killed, incumbents, wall = _race(
            session, problem, roster, budget, deadline, start, bound
        )

    records: List[Dict[str, object]] = []
    for name in roster:
        if name in results:
            res = results[name]
            records.append(
                {
                    "name": name,
                    "state": "ran",
                    "status": res.status,
                    "value": res.value,
                    "wall_time": wall.get(name, res.wall_time),
                    "kill_reason": None,
                }
            )
        elif name in killed:
            record: Dict[str, object] = {
                "name": name,
                "state": "killed",
                "status": None,
                "value": None,
                "wall_time": wall.get(name),
                "kill_reason": killed[name],
            }
            if name in incumbents:
                record["incumbent"] = True
                record["value"] = incumbents[name].value
            records.append(record)

    portfolio_extra: Dict[str, object] = {
        "budget": budget,
        "members": records,
        "winner": None,
        "lower_bound": bound.to_dict() if bound is not None else None,
    }

    completed = [
        (name, results[name]) for name in roster
        if name in results and results[name].status != "error"
    ]
    candidates = completed + [
        (name, incumbents[name]) for name in roster if name in incumbents
    ]
    if not candidates:
        errors = {
            name: results[name].extra for name in results
            if results[name].status == "error"
        }
        raise SolverError(
            f"every portfolio member failed within the {budget}s budget: {errors}"
        )

    feasible = [(name, res) for name, res in candidates if res.feasible]
    if not feasible:
        # The EDF members decide feasibility exactly on one-interval
        # instances; attach the scalable Hall certificate when budget
        # remains for it.
        if isinstance(problem.instance, OneIntervalInstance) and (
            time.perf_counter() < deadline
        ):
            cert = hall_deficiency(problem.instance)
            portfolio_extra["infeasibility"] = cert.to_dict()
        result = SolveResult(
            status="infeasible",
            objective=problem.objective,
            value=None,
            schedule=None,
            extra={"portfolio": portfolio_extra},
        )
        result.solver = "portfolio"
        result.wall_time = time.perf_counter() - start
        return result

    # Best value wins; ties prefer a proven-optimal member, then the
    # cheaper (earlier-roster) one.
    winner_name, winner = min(
        feasible,
        key=lambda item: (
            item[1].value,
            0 if item[1].status == "optimal" else 1,
            roster.index(item[0]),
        ),
    )
    portfolio_extra["winner"] = winner_name
    value = winner.value

    # A completed exact member pins the true optimum, which is the
    # tightest possible lower bound for the gap envelope.
    exact_values = [res.value for _name, res in feasible if res.status == "optimal"]
    exact_win = bool(exact_values)
    lower: Optional[float] = min(exact_values) if exact_win else (
        bound.value if bound is not None else None
    )
    ratio: Optional[float] = None
    if lower is not None:
        if lower > 0:
            ratio = value / lower
        elif values_close(value, 0.0):
            ratio = 1.0
    optimal = exact_win or (ratio is not None and values_close(ratio, 1.0))

    extra: Dict[str, object] = {
        "exact": optimal,
        "portfolio": portfolio_extra,
    }
    if lower is not None:
        extra["optimality_gap"] = {"lower": lower, "upper": value, "ratio": ratio}
    result = SolveResult(
        status="optimal" if optimal else "approximate",
        objective=problem.objective,
        value=value,
        schedule=winner.schedule,
        guarantee_factor=1.0 if optimal else ratio,
        extra=extra,
    )
    result.solver = "portfolio"
    result.wall_time = time.perf_counter() - start
    return result
