"""The solver registry and the :func:`solve` dispatch entry point.

Solvers declare their capabilities — objective, accepted instance types,
and kind (``exact`` / ``approximate`` / ``baseline``) — with the
:func:`register_solver` decorator.  :func:`solve` dispatches a
:class:`~repro.api.problem.Problem` to the best capable solver (exact
preferred over approximate, registration order breaking ties; baselines
are opt-in by name only) or to a solver named explicitly, and stamps the
solver name and wall time onto the returned
:class:`~repro.api.result.SolveResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..core.exceptions import InfeasibleInstanceError, SolverError
from .problem import Problem
from .result import SolveResult

__all__ = [
    "SolverSpec",
    "register_solver",
    "registry_generation",
    "get_solver",
    "list_solvers",
    "capable_solvers",
    "select_solver",
    "solve",
]

#: Preference order of solver kinds during ``solver="auto"`` dispatch.
KINDS = ("exact", "approximate", "baseline")

SolverFunc = Callable[[Problem], SolveResult]


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver and its declared capabilities."""

    name: str
    objective: str
    kind: str
    instance_types: Tuple[Type, ...]
    func: SolverFunc = field(compare=False)
    description: str = field(default="", compare=False)
    order: int = field(default=0, compare=False)

    def can_solve(self, problem: Problem) -> bool:
        """True when this solver handles the problem's objective and instance type."""
        return problem.objective == self.objective and isinstance(
            problem.instance, self.instance_types
        )


_REGISTRY: Dict[str, SolverSpec] = {}
#: Bumped by every registration: a worker process forked under an older
#: generation lacks the newer solvers (see :mod:`repro.runtime.pool`).
_GENERATION = 0


def register_solver(
    name: str,
    *,
    objective: str,
    kind: str,
    instance_types: Tuple[Type, ...],
    description: str = "",
) -> Callable[[SolverFunc], SolverFunc]:
    """Class-level decorator registering ``func(problem) -> SolveResult``.

    ``kind`` must be one of ``exact`` / ``approximate`` / ``baseline`` and
    drives automatic dispatch: exact solvers are preferred, baselines are
    only selected when named explicitly or when nothing better is capable.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown solver kind {kind!r}; expected one of {KINDS}")

    def decorator(func: SolverFunc) -> SolverFunc:
        global _GENERATION
        if name in _REGISTRY:
            raise ValueError(f"solver {name!r} is already registered")
        _REGISTRY[name] = SolverSpec(
            name=name,
            objective=objective,
            kind=kind,
            instance_types=tuple(instance_types),
            func=func,
            description=description,
            order=len(_REGISTRY),
        )
        _GENERATION += 1
        return func

    return decorator


def registry_generation() -> int:
    """The number of registrations made in this process so far."""
    return _GENERATION


def get_solver(name: str) -> SolverSpec:
    """Look a solver up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; registered solvers: {sorted(_REGISTRY)}"
        ) from None


def list_solvers(objective: Optional[str] = None) -> List[SolverSpec]:
    """All registered solvers, optionally filtered by objective.

    Sorted by (objective, kind preference, registration order) so the first
    capable entry is also the automatic-dispatch choice.
    """
    specs = [
        spec
        for spec in _REGISTRY.values()
        if objective is None or spec.objective == objective
    ]
    specs.sort(key=lambda s: (s.objective, KINDS.index(s.kind), s.order))
    return specs


def capable_solvers(problem: Problem) -> List[SolverSpec]:
    """Solvers able to handle ``problem``, in automatic-dispatch preference order."""
    return [spec for spec in list_solvers(problem.objective) if spec.can_solve(problem)]


def select_solver(problem: Problem, solver: str = "auto") -> SolverSpec:
    """Resolve ``solver`` ("auto" or a registry name) for ``problem``."""
    if solver != "auto":
        spec = get_solver(solver)
        if not spec.can_solve(problem):
            raise SolverError(
                f"solver {solver!r} cannot handle objective {problem.objective!r} "
                f"on {type(problem.instance).__name__} (accepts "
                f"{[t.__name__ for t in spec.instance_types]} for "
                f"objective {spec.objective!r})"
            )
        return spec
    candidates = capable_solvers(problem)
    # Baselines (including the exponential brute-force oracles) are opt-in
    # by name: auto dispatch refusing them beats silently hanging on an
    # enumeration, and keeps baseline numbers out of unsuspecting callers.
    auto_candidates = [spec for spec in candidates if spec.kind != "baseline"]
    if auto_candidates:
        return auto_candidates[0]
    if candidates:
        raise SolverError(
            f"only baseline solvers handle objective {problem.objective!r} on "
            f"{type(problem.instance).__name__}; select one explicitly, e.g. "
            f"solver={candidates[0].name!r}"
        )
    raise SolverError(
        f"no registered solver handles objective {problem.objective!r} "
        f"on {type(problem.instance).__name__}"
    )


def solve(
    problem: Problem,
    solver: str = "auto",
    on_infeasible: str = "result",
    budget: Optional[float] = None,
) -> SolveResult:
    """Solve one problem through the façade.

    Parameters
    ----------
    problem:
        The validated problem specification.
    solver:
        ``"auto"`` (default) picks the most capable registered solver;
        a registry name forces a specific solver (e.g. a baseline).
    on_infeasible:
        ``"result"`` (default) returns the uniform infeasible envelope
        (``status="infeasible"``, ``value=None``, ``schedule=None``);
        ``"raise"`` raises :class:`InfeasibleInstanceError` instead.
    budget:
        Wall-clock seconds.  When given, dispatch routes to the
        :mod:`repro.portfolio` racer instead of a single solver: scalable
        heuristics and the exact DP race on the warm worker pool, the
        members still running at the deadline are killed, and the best
        feasible answer comes back with a certified
        ``extra["optimality_gap"]``.  Requires ``solver="auto"`` — a
        forced solver name and a budget contradict each other.

    Returns
    -------
    :class:`~repro.api.result.SolveResult` with the solver name and wall
    time filled in.

    Notes
    -----
    Infeasibility is normalized *here*, not per solver: adapters may either
    return an infeasible envelope or raise
    :class:`~repro.core.exceptions.InfeasibleInstanceError`, and façade
    callers always observe the same uniform behavior either way.
    """
    if on_infeasible not in ("result", "raise"):
        raise ValueError(
            f"on_infeasible must be 'result' or 'raise', got {on_infeasible!r}"
        )
    if budget is not None:
        if solver != "auto":
            raise ValueError(
                "budget-raced solving picks its own members; "
                f"pass solver='auto', not {solver!r}"
            )
        from ..portfolio import run_portfolio  # local import: avoids a cycle

        result = run_portfolio(problem, budget)
        if on_infeasible == "raise":
            result.raise_for_status()
        return result
    spec = select_solver(problem, solver=solver)
    start = time.perf_counter()
    try:
        result = spec.func(problem)
    except InfeasibleInstanceError:
        result = SolveResult(
            status="infeasible",
            objective=problem.objective,
            value=None,
            schedule=None,
        )
    result.wall_time = time.perf_counter() - start
    result.solver = spec.name
    # Uniform exactness marker: adapters that know more (e.g. the interval-DP
    # engine's metadata) set it themselves; everyone else gets it derived
    # from the result status, so callers never have to special-case solvers.
    if result.feasible and "exact" not in result.extra:
        result.extra["exact"] = result.status == "optimal"
    if on_infeasible == "raise":
        result.raise_for_status()
    return result
