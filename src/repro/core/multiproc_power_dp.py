"""Exact multiprocessor power minimization (Theorem 2 of the paper).

Problem
-------
As in multiprocessor gap scheduling, ``n`` unit jobs with release times and
deadlines run on ``p`` identical processors.  Each processor starts asleep,
pays ``alpha`` for every transition to the active state and one unit of
energy per active time unit, and may remain active while idle (so a gap of
length ``g`` costs ``min(g, alpha)``).  The objective is the total power:
active time plus ``alpha`` times the number of wake-ups, summed over
processors.

Algorithm
---------
A thin binding of :class:`~repro.core.interval_dp.PowerObjective` onto the
shared :class:`~repro.core.interval_dp.IntervalDPEngine` — the same interval
DP as the gap solver with the state reinterpreted exactly as in the proof of
Theorem 2: the boundary parameters count *active* processors rather than
busy processors, the subproblem value is a scalar, and idle-but-active
stretches between busy columns are folded into a closed-form *bridging*
charge (``min(stretch length, alpha)`` per processor active on both sides),
which keeps the DP on the polynomial set of candidate columns (Lemma 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from .dp_profile import IntervalDecomposition
from .exceptions import InfeasibleInstanceError
from .interval_dp import IntervalDPEngine, PowerObjective, staircase_schedule
from .jobs import MultiprocessorInstance, OneIntervalInstance
from .schedule import MultiprocessorSchedule

__all__ = ["MultiprocessorPowerSolver", "PowerSolution", "solve_multiprocessor_power"]


@dataclass
class PowerSolution:
    """Result of the exact power solver."""

    feasible: bool
    power: Optional[float]
    schedule: Optional[MultiprocessorSchedule]
    alpha: float

    def require_schedule(self) -> MultiprocessorSchedule:
        """Return the schedule, raising :class:`InfeasibleInstanceError` if absent."""
        if not self.feasible or self.schedule is None:
            raise InfeasibleInstanceError("instance admits no feasible schedule")
        return self.schedule


class MultiprocessorPowerSolver:
    """Exact solver for multiprocessor power minimization (Theorem 2).

    Parameters
    ----------
    instance:
        The multiprocessor instance (a one-interval instance is treated as a
        single-processor instance).
    alpha:
        Non-negative wake-up (transition) cost.
    use_full_horizon:
        Use all integer times as candidate columns (tests only).
    """

    def __init__(
        self,
        instance: Union[MultiprocessorInstance, OneIntervalInstance],
        alpha: float,
        use_full_horizon: bool = False,
    ) -> None:
        if isinstance(instance, OneIntervalInstance):
            instance = instance.to_multiprocessor(1)
        self.instance = instance
        self.alpha = float(alpha)
        self.p = instance.num_processors
        self.decomp = IntervalDecomposition(instance, use_full_horizon=use_full_horizon)
        # PowerObjective validates alpha >= 0.
        self.engine = IntervalDPEngine(self.decomp, PowerObjective(self.p, alpha))

    def solve(self) -> PowerSolution:
        """Solve the instance, returning the optimal power and a schedule."""
        outcome = self.engine.solve()
        if not outcome.feasible:
            return PowerSolution(
                feasible=False, power=None, schedule=None, alpha=self.alpha
            )
        schedule = staircase_schedule(self.instance, outcome.assignment)
        return PowerSolution(
            feasible=True,
            power=float(outcome.value),
            schedule=schedule,
            alpha=self.alpha,
        )

    def optimal_power(self) -> Optional[float]:
        """Convenience wrapper returning only the optimal power (None if infeasible)."""
        solution = self.solve()
        return solution.power if solution.feasible else None

    def engine_metadata(self) -> Dict:
        """Engine identification plus pruning/memo statistics (JSON-native)."""
        return self.engine.metadata()


def solve_multiprocessor_power(
    instance: Union[MultiprocessorInstance, OneIntervalInstance],
    alpha: float,
    use_full_horizon: bool = False,
) -> PowerSolution:
    """Solve multiprocessor power minimization exactly (Theorem 2 convenience wrapper)."""
    solver = MultiprocessorPowerSolver(
        instance, alpha=alpha, use_full_horizon=use_full_horizon
    )
    return solver.solve()
