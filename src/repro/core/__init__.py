"""Core algorithms of the reproduction: data model, exact DPs, approximations."""

from .exceptions import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
    SolverError,
)
from .jobs import (
    Job,
    MultiIntervalInstance,
    MultiIntervalJob,
    MultiprocessorInstance,
    OneIntervalInstance,
    jobs_from_pairs,
)
from .schedule import (
    MultiprocessorSchedule,
    Schedule,
    gap_lengths_of_busy_times,
    gaps_of_busy_times,
    power_cost_of_busy_times,
    spans_of_busy_times,
)
from .feasibility import (
    complete_partial_schedule,
    edf_schedule,
    feasible_schedule,
    feasible_schedule_multiproc,
    is_feasible,
    is_feasible_multiproc,
)
from .baptiste import (
    BaptisteGapResult,
    BaptistePowerResult,
    minimize_gaps_single_processor,
    minimize_power_single_processor,
)
from .decompose import (
    Component,
    Decomposition,
    clip_windows,
    decompose_instance,
)
from .interval_dp import (
    BOTTOM_UP_ENGINE_VERSION,
    ENGINE_NAME,
    ENGINE_VERSION,
    EngineStats,
    GapObjective,
    IntervalDPEngine,
    PowerObjective,
)
from .multiproc_gap_dp import GapSolution, MultiprocessorGapSolver, solve_multiprocessor_gap
from .multiproc_power_dp import (
    MultiprocessorPowerSolver,
    PowerSolution,
    solve_multiprocessor_power,
)

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleInstanceError",
    "InvalidScheduleError",
    "SolverError",
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
    "is_feasible",
    "is_feasible_multiproc",
    "feasible_schedule",
    "feasible_schedule_multiproc",
    "edf_schedule",
    "complete_partial_schedule",
    "BaptisteGapResult",
    "BaptistePowerResult",
    "minimize_gaps_single_processor",
    "minimize_power_single_processor",
    "Component",
    "Decomposition",
    "clip_windows",
    "decompose_instance",
    "ENGINE_NAME",
    "ENGINE_VERSION",
    "BOTTOM_UP_ENGINE_VERSION",
    "EngineStats",
    "IntervalDPEngine",
    "GapObjective",
    "PowerObjective",
    "MultiprocessorGapSolver",
    "GapSolution",
    "solve_multiprocessor_gap",
    "MultiprocessorPowerSolver",
    "PowerSolution",
    "solve_multiprocessor_power",
]
