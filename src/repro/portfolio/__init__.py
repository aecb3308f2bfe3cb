"""``repro.portfolio`` — budget-raced solving with certified optimality gaps.

The portfolio answers one question: *what is the best certified answer you
can give me in this many seconds?*  It races the registry's scalable
heuristics and the exact DP — at every instance size — under a wall-clock
budget on the warm worker pool (:mod:`repro.runtime.pool`), hard-killing
the members that lose or run out of time, pairs the best feasible answer
with the cheap lower bounds of :mod:`repro.bounds`, and returns one
uniform :class:`~repro.api.result.SolveResult` whose
``extra["optimality_gap"]`` carries a re-checkable ``lower / upper /
ratio`` envelope.

Reached through the façade as ``solve(problem, budget=seconds)`` or on the
command line as ``repro-sched solve ... --budget SECONDS``.
"""

from .race import default_members, run_portfolio

__all__ = ["default_members", "run_portfolio"]
