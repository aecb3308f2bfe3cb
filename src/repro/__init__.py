"""repro — reproduction of "Scheduling to Minimize Gaps and Power Consumption".

This package implements the full algorithmic content of Demaine, Ghodsi,
Hajiaghayi, Sayedi-Roshkhar and Zadimoghaddam (SPAA 2007):

* exact multiprocessor gap scheduling and power minimization (Theorems 1-2),
* the (1 + (2/3 + eps) * alpha)-approximation for multi-interval power
  minimization (Theorem 3),
* the O(sqrt(n))-approximation for throughput under a gap budget (Theorem 11),
* executable versions of every hardness gadget (Theorems 4-10),
* the substrates they rely on (bipartite matching, set cover, set packing),
* instance generators, a power simulator, baselines, and a benchmark harness.

New code should use the unified façade in :mod:`repro.api`
(``Problem`` / ``solve`` / ``solve_batch`` / JSON round-trip); the
per-algorithm entry points re-exported below remain as thin deprecated
shims for existing callers.  See ``README.md`` for a quickstart and
``docs/architecture.md`` for the layer-by-layer system inventory.
"""

import warnings as _warnings

from .core import (
    BaptisteGapResult,
    BaptistePowerResult,
    GapSolution,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidScheduleError,
    Job,
    MultiIntervalInstance,
    MultiIntervalJob,
    MultiprocessorGapSolver,
    MultiprocessorInstance,
    MultiprocessorPowerSolver,
    MultiprocessorSchedule,
    OneIntervalInstance,
    PowerSolution,
    ReproError,
    Schedule,
    SolverError,
    complete_partial_schedule,
    edf_schedule,
    feasible_schedule,
    feasible_schedule_multiproc,
    gap_lengths_of_busy_times,
    gaps_of_busy_times,
    is_feasible,
    is_feasible_multiproc,
    jobs_from_pairs,
    power_cost_of_busy_times,
    spans_of_busy_times,
)

__version__ = "1.1.0"


def _deprecated(old: str, new: str) -> None:
    _warnings.warn(
        f"repro.{old} is deprecated; use repro.api: {new}",
        DeprecationWarning,
        stacklevel=3,
    )


def solve_multiprocessor_gap(instance, use_full_horizon=False):
    """Deprecated shim; use ``repro.api.solve(Problem(objective="gaps", ...))``."""
    _deprecated(
        "solve_multiprocessor_gap", 'solve(Problem(objective="gaps", instance=...))'
    )
    from .core.multiproc_gap_dp import solve_multiprocessor_gap as _impl

    return _impl(instance, use_full_horizon=use_full_horizon)


def solve_multiprocessor_power(instance, alpha, use_full_horizon=False):
    """Deprecated shim; use ``repro.api.solve(Problem(objective="power", ...))``."""
    _deprecated(
        "solve_multiprocessor_power",
        'solve(Problem(objective="power", instance=..., alpha=...))',
    )
    from .core.multiproc_power_dp import solve_multiprocessor_power as _impl

    return _impl(instance, alpha, use_full_horizon=use_full_horizon)


def minimize_gaps_single_processor(instance, use_full_horizon=False):
    """Deprecated shim; use ``repro.api.solve(Problem(objective="gaps", ...))``."""
    _deprecated(
        "minimize_gaps_single_processor",
        'solve(Problem(objective="gaps", instance=...))',
    )
    from .core.baptiste import minimize_gaps_single_processor as _impl

    return _impl(instance, use_full_horizon=use_full_horizon)


def minimize_power_single_processor(instance, alpha, use_full_horizon=False):
    """Deprecated shim; use ``repro.api.solve(Problem(objective="power", ...))``."""
    _deprecated(
        "minimize_power_single_processor",
        'solve(Problem(objective="power", instance=..., alpha=...))',
    )
    from .core.baptiste import minimize_power_single_processor as _impl

    return _impl(instance, alpha, use_full_horizon=use_full_horizon)


def approximate_power_schedule(instance, alpha, k=2, swap_size=2):
    """Deprecated shim; use ``repro.api.solve(..., solver="power-approx")``."""
    _deprecated(
        "approximate_power_schedule",
        'solve(Problem(objective="power", instance=..., alpha=...), '
        'solver="power-approx")',
    )
    from .core.power_approx import approximate_power_schedule as _impl

    return _impl(instance, alpha, k=k, swap_size=swap_size)


def greedy_throughput_schedule(instance, max_gaps):
    """Deprecated shim; use ``repro.api.solve(Problem(objective="throughput", ...))``."""
    _deprecated(
        "greedy_throughput_schedule",
        'solve(Problem(objective="throughput", instance=..., max_gaps=...))',
    )
    from .core.throughput import greedy_throughput_schedule as _impl

    return _impl(instance, max_gaps)

__all__ = [
    "__version__",
    "Job",
    "MultiIntervalJob",
    "OneIntervalInstance",
    "MultiprocessorInstance",
    "MultiIntervalInstance",
    "jobs_from_pairs",
    "Schedule",
    "MultiprocessorSchedule",
    "gaps_of_busy_times",
    "gap_lengths_of_busy_times",
    "spans_of_busy_times",
    "power_cost_of_busy_times",
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleInstanceError",
    "InvalidScheduleError",
    "SolverError",
    "is_feasible",
    "is_feasible_multiproc",
    "feasible_schedule",
    "feasible_schedule_multiproc",
    "edf_schedule",
    "complete_partial_schedule",
    "minimize_gaps_single_processor",
    "minimize_power_single_processor",
    "BaptisteGapResult",
    "BaptistePowerResult",
    "MultiprocessorGapSolver",
    "GapSolution",
    "solve_multiprocessor_gap",
    "MultiprocessorPowerSolver",
    "PowerSolution",
    "solve_multiprocessor_power",
    "approximate_power_schedule",
    "greedy_throughput_schedule",
]
