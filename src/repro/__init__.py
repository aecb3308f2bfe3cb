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

Every algorithm is called through one façade, :mod:`repro.api`
(``Problem`` / ``solve`` / ``solve_batch`` / JSON round-trip), or
``repro-sched solve`` on the command line.  This top level re-exports only
the data model, schedules, feasibility helpers and exceptions; the exact
binding :func:`repro.core.solve_exact` and the per-algorithm functions live
in :mod:`repro.core`.
See ``README.md`` for a quickstart and ``docs/architecture.md`` for the
layer-by-layer system inventory.
"""

from .core import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidScheduleError,
    Job,
    MultiIntervalInstance,
    MultiIntervalJob,
    MultiprocessorInstance,
    MultiprocessorSchedule,
    OneIntervalInstance,
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

__version__ = "8.0.0"

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
]
