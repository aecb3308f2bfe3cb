"""Shared machinery for the exact interval dynamic programs (Theorems 1 and 2).

Both exact solvers follow the same decomposition, lifted from Baptiste's
single-processor algorithm [Bap06] exactly as the paper does in Section 2:

* By Lemmas 1 and 2 there is an optimal schedule in *staircase* form: at
  every time column the busy (resp. active) processors form a prefix
  ``P_1..P_l``.  A staircase schedule is fully described by its occupancy
  profile, i.e. the number of busy/active processors per time column.
* Subproblems are intervals ``[t1, t2]`` of candidate time columns together
  with the ``k`` earliest-deadline jobs released inside the interval, the
  number ``q`` of processors already taken at column ``t2`` by jobs of
  enclosing subproblems, and boundary occupancies at ``t1`` and ``t2``.
* The recursion branches on the column ``t'`` at which the latest-deadline
  job of the subproblem executes.  Jobs released after ``t'`` form the right
  subproblem, the remaining jobs the left subproblem (the exchange argument
  in the proof of Theorem 1 shows this split loses nothing).

This module centralises the parts that are identical for the gap and power
objectives: the candidate columns, their index and the deadline ordering.
The job-set queries
that split subproblems live in the engine
(:class:`repro.core.interval_dp.IntervalDPEngine`), which builds each
interval's released-job list incrementally from its predecessor's.

One invariant of the candidate set is load-bearing elsewhere: every
release and every deadline is itself a candidate column (the set contains
``[r, r + n]`` and ``[d - n, d]`` clipped to the horizon).  It lets
:mod:`repro.core.canonical` express job windows in column coordinates and
lets the engine group jobs by release column and run its split counts and
Hall checks on column indices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .exceptions import InvalidInstanceError
from .jobs import Job, MultiprocessorInstance
from .timeutils import candidate_times_for_jobs

__all__ = ["IntervalDecomposition"]


class IntervalDecomposition:
    """Candidate columns and the deadline order shared by the exact DPs.

    Parameters
    ----------
    instance:
        The multiprocessor instance being solved.
    use_full_horizon:
        Force the candidate column set to be every integer time in the
        horizon (used by tests so that the DP and the brute-force oracle
        search exactly the same space).
    """

    def __init__(
        self,
        instance: MultiprocessorInstance,
        use_full_horizon: bool = False,
    ) -> None:
        if instance.num_processors < 1:
            raise InvalidInstanceError("need at least one processor")
        self.instance = instance
        self.num_processors = instance.num_processors
        self.jobs: Tuple[Job, ...] = instance.jobs
        self.columns: List[int] = candidate_times_for_jobs(
            self.jobs, use_full_horizon=use_full_horizon
        )
        self.column_index: Dict[int, int] = {t: i for i, t in enumerate(self.columns)}
        # Global deadline order; ties broken by release then index so the
        # order (and hence the DP decomposition) is deterministic.
        self.deadline_order: List[int] = sorted(
            range(len(self.jobs)),
            key=lambda i: (self.jobs[i].deadline, self.jobs[i].release, i),
        )
