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
objectives: candidate columns, the deadline ordering, and the job-set
queries used to split subproblems.

Two invariants of the candidate set are load-bearing elsewhere: every
release and every deadline is itself a candidate column (the set contains
``[r, r + n]`` and ``[d - n, d]`` clipped to the horizon), which lets
:mod:`repro.core.canonical` express job windows in column coordinates, and
the engine (:class:`repro.core.interval_dp.IntervalDPEngine`) groups
jobs by release column to build released-job lists incrementally instead
of re-scanning via :meth:`IntervalDecomposition.jobs_released_in`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from .exceptions import InvalidInstanceError
from .jobs import Job, MultiprocessorInstance
from .timeutils import candidate_times_for_jobs

__all__ = ["IntervalDecomposition"]


class IntervalDecomposition:
    """Candidate columns and job-set queries shared by the exact DPs.

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
        self._range_cache: Dict[Tuple[int, int], List[int]] = {}

    # -- column helpers -------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Number of candidate columns."""
        return len(self.columns)

    def column(self, index: int) -> int:
        """The time value of candidate column ``index``."""
        return self.columns[index]

    def index_of(self, time: int) -> int:
        """The index of an existing candidate column ``time``."""
        return self.column_index[time]

    def first_column_after(self, time: int) -> Optional[int]:
        """Index of the first candidate column strictly greater than ``time``."""
        idx = bisect.bisect_right(self.columns, time)
        if idx >= len(self.columns):
            return None
        return idx

    def columns_between(self, lo: int, hi: int) -> List[int]:
        """Indices of candidate columns with time in the inclusive range [lo, hi]."""
        start = bisect.bisect_left(self.columns, lo)
        end = bisect.bisect_right(self.columns, hi)
        return list(range(start, end))

    # -- job-set helpers ------------------------------------------------------
    def jobs_released_in(self, t1: int, t2: int) -> List[int]:
        """Job indices with release in ``[t1, t2]``, in global deadline order."""
        key = (t1, t2)
        cached = self._range_cache.get(key)
        if cached is None:
            cached = [
                j for j in self.deadline_order if t1 <= self.jobs[j].release <= t2
            ]
            self._range_cache[key] = cached
        return cached

    def node_jobs(self, t1: int, t2: int, k: int) -> Optional[List[int]]:
        """The ``k`` earliest-deadline jobs released in ``[t1, t2]``.

        Returns ``None`` when fewer than ``k`` jobs are released in the
        interval, in which case the DP state is unreachable/infeasible.
        """
        released = self.jobs_released_in(t1, t2)
        if k > len(released):
            return None
        return released[:k]

    def count_released_after(self, job_indices: Sequence[int], t: int) -> int:
        """Number of jobs among ``job_indices`` with release strictly after ``t``."""
        return sum(1 for j in job_indices if self.jobs[j].release > t)

    def candidate_columns_for_job(
        self, job_index: int, t1: int, t2: int
    ) -> List[int]:
        """Column indices where ``job_index`` may run inside ``[t1, t2]``."""
        job = self.jobs[job_index]
        lo = max(t1, job.release)
        hi = min(t2, job.deadline)
        if hi < lo:
            return []
        return self.columns_between(lo, hi)
