"""The uniform result envelope returned by every façade solver.

Whatever the underlying algorithm reports (``ExactSolution``,
``PowerApproxResult``, ``ThroughputResult``, bare tuples from the
brute-force oracles), the façade wraps it in a :class:`SolveResult` so
that callers — the CLI, the experiment harness, the batch executor, a
service boundary — see one shape.

``wall_time`` is measurement noise, not part of the answer: it is excluded
from equality comparisons and from the canonical JSON form, which is what
makes parallel and serial batch runs byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from ..core.exceptions import InfeasibleInstanceError, SolverError
from ..core.schedule import MultiprocessorSchedule, Schedule

__all__ = ["STATUSES", "SolveResult"]

#: Allowed values of :attr:`SolveResult.status`.
STATUSES = ("optimal", "approximate", "infeasible", "error")

ScheduleLike = Union[Schedule, MultiprocessorSchedule]


@dataclass
class SolveResult:
    """Outcome of one :func:`repro.api.solve` call.

    Attributes
    ----------
    status:
        ``"optimal"`` when the value is exactly optimal, ``"approximate"``
        for approximation algorithms and heuristic baselines,
        ``"infeasible"`` when the instance admits no feasible schedule,
        ``"error"`` when the solve itself failed — the batch pipeline
        captures a crashed task as an error result at its position
        (exception type, message and traceback under ``extra``) instead
        of poisoning the whole batch.
    objective:
        The problem objective (``gaps`` / ``power`` / ``throughput``).
    value:
        The objective value (gap count, power cost, or number of scheduled
        jobs); ``None`` when infeasible.
    solver:
        Registry name of the solver that produced the result; stamped by
        :func:`repro.api.solve` after dispatch (adapters leave it empty).
    schedule:
        The witnessing schedule, or ``None`` when infeasible.
    guarantee_factor:
        Proven worst-case approximation factor of the solver on this
        problem (``1.0`` for exact solvers), or ``None`` when no guarantee
        is known.
    extra:
        Solver-specific details as JSON-native values (lists / dicts /
        scalars only), e.g. the packing residue of the Theorem 3 algorithm
        or the working intervals of the throughput greedy.
    wall_time:
        Wall-clock seconds spent in the solver.  Excluded from equality
        and from canonical JSON.
    """

    status: str
    objective: str
    value: Optional[float]
    schedule: Optional[ScheduleLike]
    solver: str = ""
    guarantee_factor: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    wall_time: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; expected one of {STATUSES}"
            )
        if self.status in ("infeasible", "error") and (
            self.value is not None or self.schedule is not None
        ):
            raise ValueError(
                f"{self.status} results must carry value=None and schedule=None; "
                f"got value={self.value!r}, schedule={type(self.schedule).__name__}"
            )

    @property
    def feasible(self) -> bool:
        """True when the result carries an answer (not infeasible, not an error)."""
        return self.status not in ("infeasible", "error")

    def require_schedule(self) -> ScheduleLike:
        """Return the schedule, raising :class:`InfeasibleInstanceError` if absent."""
        if not self.feasible or self.schedule is None:
            raise InfeasibleInstanceError("instance admits no feasible schedule")
        return self.schedule

    def raise_for_status(self) -> "SolveResult":
        """Raise on non-answers (infeasible or error results), else return self.

        This is the uniform exception path of the façade: callers that prefer
        exceptions over status inspection chain
        ``solve(problem).raise_for_status()`` (or pass
        ``on_infeasible="raise"`` to :func:`repro.api.solve`) and get the same
        error type regardless of which solver ran.  Captured batch failures
        (``status="error"``) re-raise as :class:`SolverError` carrying the
        original exception type and message.
        """
        if self.status == "error":
            raise SolverError(
                f"solve failed with {self.extra.get('error_type', 'Exception')}: "
                f"{self.extra.get('error', '')}"
            )
        if not self.feasible:
            raise InfeasibleInstanceError(
                f"instance admits no feasible schedule "
                f"(objective={self.objective!r}, solver={self.solver!r})"
            )
        return self
