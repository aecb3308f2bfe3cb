"""``repro.api`` — the unified solve façade.

One stable surface in front of every algorithm of the reproduction:

* :class:`Problem` — objective + instance + parameters, validated in one
  place (:mod:`repro.api.problem`);
* :func:`solve` and the solver registry — capability-based dispatch to the
  exact DPs, the approximation algorithms, and the baselines
  (:mod:`repro.api.registry`, :mod:`repro.api.solvers`);
* :func:`solve_batch` — deterministic parallel fan-out over a
  ``multiprocessing`` pool (:mod:`repro.api.batch`);
* :func:`to_json` / :func:`from_json` — wire-ready round-trip for
  instances, problems, schedules and results
  (:mod:`repro.api.serialization`).

Quickstart::

    from repro.api import OneIntervalInstance, Problem, solve

    instance = OneIntervalInstance.from_pairs([(0, 3), (1, 5), (10, 13)])
    result = solve(Problem(objective="gaps", instance=instance))
    print(result.status, result.value, result.solver)

The instance and job classes are re-exported here so façade users never
need to import from ``repro.core`` directly.
"""

from ..core.exceptions import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
    SolverError,
)
from ..core.jobs import (
    Job,
    MultiIntervalInstance,
    MultiIntervalJob,
    MultiprocessorInstance,
    OneIntervalInstance,
    jobs_from_pairs,
)
from ..core.schedule import MultiprocessorSchedule, Schedule
from .problem import OBJECTIVES, InstanceLike, Problem
from .result import STATUSES, SolveResult
from .registry import (
    SolverSpec,
    capable_solvers,
    get_solver,
    list_solvers,
    register_solver,
    select_solver,
    solve,
)
from . import solvers as _builtin_solvers  # noqa: F401  (registers the built-ins)
from .solvers import (
    clear_solve_cache,
    configure_solve_cache,
    solve_cache_bypass,
    solve_cache_stats,
)
from ..bounds import (
    BoundCertificate,
    gap_lower_bound,
    hall_deficiency,
    lower_bound_for,
    matching_feasibility,
    power_lower_bound,
)
from .batch import solve_batch
from .decomposition import (
    decomposition_stats,
    reset_decomposition_stats,
    try_decomposed_solve,
)
from .serialization import from_dict, from_json, to_dict, to_json

# The portfolio races through this package's own solve façade, so importing
# it eagerly here would be circular; resolve its names on first access.
_PORTFOLIO_NAMES = ("run_portfolio", "default_members")


def __getattr__(name):
    if name in _PORTFOLIO_NAMES:
        from .. import portfolio

        return getattr(portfolio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # problem spec
    "OBJECTIVES",
    "InstanceLike",
    "Problem",
    # result envelope
    "STATUSES",
    "SolveResult",
    # registry + dispatch
    "SolverSpec",
    "register_solver",
    "get_solver",
    "list_solvers",
    "capable_solvers",
    "select_solver",
    "solve",
    # batch execution
    "solve_batch",
    # budget-raced portfolio + certified bounds
    "run_portfolio",
    "default_members",
    "BoundCertificate",
    "gap_lower_bound",
    "power_lower_bound",
    "hall_deficiency",
    "matching_feasibility",
    "lower_bound_for",
    # canonical solve cache
    "configure_solve_cache",
    "clear_solve_cache",
    "solve_cache_bypass",
    "solve_cache_stats",
    # decomposed solving
    "decomposition_stats",
    "reset_decomposition_stats",
    "try_decomposed_solve",
    # JSON round-trip
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
    # data model re-exports
    "Job",
    "MultiIntervalJob",
    "OneIntervalInstance",
    "MultiprocessorInstance",
    "MultiIntervalInstance",
    "jobs_from_pairs",
    "Schedule",
    "MultiprocessorSchedule",
    # exceptions
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleInstanceError",
    "InvalidScheduleError",
    "SolverError",
]
