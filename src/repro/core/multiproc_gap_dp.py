"""Exact multiprocessor gap scheduling (Theorem 1 of the paper).

Problem
-------
``n`` unit jobs with integer release times and deadlines must each be
assigned a distinct (processor, time) slot on ``p`` identical processors,
with the time inside the job's window.  A *gap* on a processor is a finite
maximal interval of idle time on that processor.  The objective is the total
number of gaps summed over processors.

Algorithm
---------
The solver is a thin binding of :class:`~repro.core.interval_dp.GapObjective`
onto the shared :class:`~repro.core.interval_dp.IntervalDPEngine`: the
occupancy-profile interval DP of Section 2, in the staircase form licensed
by Lemma 1, with the subproblem value kept as a vector indexed by the exact
maximum occupancy so the final ``- (used processors)`` correction can be
applied at the root.  See :mod:`repro.core.interval_dp` for the state space,
the branch-on-``t'`` recursion, and the pruning machinery; this module only
interprets the engine's outcome as a gap count plus a staircase schedule.

The solver returns both the optimal value and an explicit optimal schedule.
Correctness is validated against a brute-force oracle in the test-suite and
continuously by :mod:`repro.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from .dp_profile import IntervalDecomposition
from .exceptions import InfeasibleInstanceError
from .interval_dp import GapObjective, IntervalDPEngine, staircase_schedule
from .jobs import MultiprocessorInstance, OneIntervalInstance
from .schedule import MultiprocessorSchedule

__all__ = ["MultiprocessorGapSolver", "GapSolution", "solve_multiprocessor_gap"]


@dataclass
class GapSolution:
    """Result of the exact gap solver."""

    feasible: bool
    num_gaps: Optional[int]
    schedule: Optional[MultiprocessorSchedule]

    def require_schedule(self) -> MultiprocessorSchedule:
        """Return the schedule, raising :class:`InfeasibleInstanceError` if absent."""
        if not self.feasible or self.schedule is None:
            raise InfeasibleInstanceError("instance admits no feasible schedule")
        return self.schedule


class MultiprocessorGapSolver:
    """Exact solver for multiprocessor gap scheduling (Theorem 1).

    Parameters
    ----------
    instance:
        The multiprocessor instance to solve.  A plain
        :class:`~repro.core.jobs.OneIntervalInstance` is accepted and treated
        as a single-processor instance.
    use_full_horizon:
        Use every integer time in the horizon as a candidate column instead
        of the Baptiste candidate set; only sensible for small horizons
        (used by the tests to match the brute-force search space exactly).
    """

    def __init__(
        self,
        instance: Union[MultiprocessorInstance, OneIntervalInstance],
        use_full_horizon: bool = False,
    ) -> None:
        if isinstance(instance, OneIntervalInstance):
            instance = instance.to_multiprocessor(1)
        self.instance = instance
        self.p = instance.num_processors
        self.decomp = IntervalDecomposition(instance, use_full_horizon=use_full_horizon)
        self.engine = IntervalDPEngine(self.decomp, GapObjective(self.p))

    def solve(self) -> GapSolution:
        """Solve the instance, returning the optimal gap count and a schedule."""
        outcome = self.engine.solve()
        if not outcome.feasible:
            return GapSolution(feasible=False, num_gaps=None, schedule=None)
        schedule = staircase_schedule(self.instance, outcome.assignment)
        return GapSolution(
            feasible=True, num_gaps=int(outcome.value), schedule=schedule
        )

    def optimal_gaps(self) -> Optional[int]:
        """Convenience wrapper returning only the optimal gap count (None if infeasible)."""
        solution = self.solve()
        return solution.num_gaps if solution.feasible else None

    def engine_metadata(self) -> Dict:
        """Engine identification plus pruning/memo statistics (JSON-native)."""
        return self.engine.metadata()


def solve_multiprocessor_gap(
    instance: Union[MultiprocessorInstance, OneIntervalInstance],
    use_full_horizon: bool = False,
) -> GapSolution:
    """Solve multiprocessor gap scheduling exactly (Theorem 1 convenience wrapper)."""
    return MultiprocessorGapSolver(instance, use_full_horizon=use_full_horizon).solve()
