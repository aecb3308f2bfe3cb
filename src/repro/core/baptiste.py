"""Single-processor optimal gap and power scheduling (Baptiste's problem).

Baptiste [Bap06] gave the first polynomial-time algorithm for scheduling
unit jobs with release times and deadlines on one machine while minimizing
the number of idle periods (gaps); the same dynamic program also minimizes
power with wake-up cost ``alpha``.  The paper's Theorem 1/2 dynamic program
contains Baptiste's algorithm as the special case ``p = 1``, and this module
exposes exactly that specialization by binding the gap/power objectives onto
the shared :class:`~repro.core.interval_dp.IntervalDPEngine` at ``p = 1``.
The engine's ``job -> time`` assignment is used directly, so schedules come
back as plain :class:`~repro.core.schedule.Schedule` objects with no
multiprocessor round-trip.

These functions are the exact baselines used throughout the experiment
harness (e.g. against the greedy 3-approximation of [FHKN06] and against the
online lower-bound family).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .dp_profile import IntervalDecomposition
from .exceptions import InfeasibleInstanceError
from .interval_dp import GapObjective, IntervalDPEngine, PowerObjective
from .jobs import MultiprocessorInstance, OneIntervalInstance
from .schedule import Schedule

__all__ = [
    "BaptisteGapResult",
    "BaptistePowerResult",
    "minimize_gaps_single_processor",
    "minimize_power_single_processor",
]


@dataclass
class BaptisteGapResult:
    """Optimal single-processor gap scheduling result."""

    feasible: bool
    num_gaps: Optional[int]
    schedule: Optional[Schedule]
    engine: Optional[Dict] = None


@dataclass
class BaptistePowerResult:
    """Optimal single-processor power minimization result."""

    feasible: bool
    power: Optional[float]
    schedule: Optional[Schedule]
    alpha: float
    engine: Optional[Dict] = None


def _as_single_processor(
    instance: Union[OneIntervalInstance, MultiprocessorInstance]
) -> OneIntervalInstance:
    if isinstance(instance, MultiprocessorInstance):
        if instance.num_processors != 1:
            raise InfeasibleInstanceError(
                "single-processor solver called with a multiprocessor instance; "
                "use MultiprocessorGapSolver / MultiprocessorPowerSolver instead"
            )
        return instance.single_processor_view()
    return instance


def _run_engine(
    single: OneIntervalInstance, objective, use_full_horizon: bool
) -> Tuple[Optional[Tuple[float, Schedule]], Dict]:
    """Run the shared engine at p = 1 and lift the assignment to a Schedule."""
    engine = IntervalDPEngine(
        IntervalDecomposition(
            single.to_multiprocessor(1), use_full_horizon=use_full_horizon
        ),
        objective,
    )
    outcome = engine.solve()
    if not outcome.feasible:
        return None, engine.metadata()
    schedule = Schedule(instance=single, assignment=dict(outcome.assignment))
    schedule.validate()
    return (outcome.value, schedule), engine.metadata()


def minimize_gaps_single_processor(
    instance: Union[OneIntervalInstance, MultiprocessorInstance],
    use_full_horizon: bool = False,
) -> BaptisteGapResult:
    """Minimize the number of gaps of a single-processor one-interval instance.

    Returns a :class:`BaptisteGapResult`; ``feasible`` is ``False`` when the
    jobs cannot all be scheduled.
    """
    single = _as_single_processor(instance)
    solved, metadata = _run_engine(single, GapObjective(1), use_full_horizon)
    if solved is None:
        return BaptisteGapResult(
            feasible=False, num_gaps=None, schedule=None, engine=metadata
        )
    value, schedule = solved
    return BaptisteGapResult(
        feasible=True, num_gaps=int(value), schedule=schedule, engine=metadata
    )


def minimize_power_single_processor(
    instance: Union[OneIntervalInstance, MultiprocessorInstance],
    alpha: float,
    use_full_horizon: bool = False,
) -> BaptistePowerResult:
    """Minimize the power cost of a single-processor one-interval instance."""
    single = _as_single_processor(instance)
    solved, metadata = _run_engine(single, PowerObjective(1, alpha), use_full_horizon)
    if solved is None:
        return BaptistePowerResult(
            feasible=False, power=None, schedule=None, alpha=float(alpha), engine=metadata
        )
    value, schedule = solved
    return BaptistePowerResult(
        feasible=True,
        power=float(value),
        schedule=schedule,
        alpha=float(alpha),
        engine=metadata,
    )
