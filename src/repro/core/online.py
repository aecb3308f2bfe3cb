"""Online gap scheduling: baselines and the paper's lower-bound constructions.

The introduction of the paper explains why it focuses on offline problems:

* Any online algorithm for one-interval gap scheduling that is guaranteed to
  find a feasible schedule must be work-conserving (earliest deadline
  first), and there is an instance family on which this forces ``n`` gaps
  while the offline optimum uses ``O(1)`` gaps — so no online algorithm has
  competitive ratio better than ``n``.
* For multi-interval scheduling, no online algorithm can even guarantee
  feasibility: two jobs with allowed intervals ``{[0,1],[1,2]}`` and
  ``{[0,1],[2,3]}`` cannot be told apart at time 0, and an adversarial third
  job arriving later makes either choice wrong.

This module provides the work-conserving online scheduler, the lower-bound
instance family, and the multi-interval adversarial pair, all of which are
exercised by experiment E9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exceptions import InvalidInstanceError
from .feasibility import edf_schedule
from .jobs import Job, MultiIntervalInstance, MultiIntervalJob, OneIntervalInstance
from .schedule import Schedule

__all__ = [
    "online_gap_schedule",
    "online_lower_bound_instance",
    "online_lower_bound_alternative",
    "multi_interval_online_dilemma",
    "OnlineComparison",
]


@dataclass
class OnlineComparison:
    """Gap counts of the online policy versus the offline optimum."""

    online_gaps: int
    offline_gaps: int

    @property
    def ratio(self) -> float:
        """Competitive ratio on this instance (online / offline, with 0/0 = 1)."""
        if self.offline_gaps == 0:
            return float(self.online_gaps) if self.online_gaps else 1.0
        return self.online_gaps / self.offline_gaps


def online_gap_schedule(instance: OneIntervalInstance) -> Schedule:
    """The only safe online policy: work-conserving earliest deadline first.

    An online algorithm that must never sacrifice feasibility cannot idle
    while jobs are pending (a burst of tight-deadline jobs could arrive next
    time step), so its schedule is exactly the work-conserving EDF schedule.
    """
    return edf_schedule(instance)


def online_lower_bound_instance(n: int) -> OneIntervalInstance:
    """The paper's Omega(n) competitive-ratio family.

    ``n`` *flexible* jobs arrive at time 0 with deadline ``3n``; ``n``
    *urgent* jobs arrive at times ``n, n+2, n+4, ...`` each with a deadline
    one unit after its arrival.  The offline optimum delays the flexible
    jobs and slots them into the holes between urgent jobs (O(1) gaps); any
    feasibility-preserving online algorithm runs the flexible jobs
    immediately and then suffers a gap before every urgent job.
    """
    if n < 1:
        raise InvalidInstanceError(f"n must be positive, got {n}")
    jobs: List[Job] = []
    for i in range(n):
        jobs.append(Job(release=0, deadline=3 * n, name=f"flex{i}"))
    for i in range(n):
        arrival = n + 2 * i
        jobs.append(Job(release=arrival, deadline=arrival + 1, name=f"urgent{i}"))
    return OneIntervalInstance(jobs)


def online_lower_bound_alternative(n: int) -> OneIntervalInstance:
    """The adversary's alternative continuation: ``2n`` urgent back-to-back jobs.

    If the online algorithm *had* idled at the start, this variant (urgent
    jobs at times ``n, n+1, n+2, ...``) would be infeasible for it, which is
    why the online algorithm is forced to execute the flexible jobs
    immediately in :func:`online_lower_bound_instance`.
    """
    if n < 1:
        raise InvalidInstanceError(f"n must be positive, got {n}")
    jobs: List[Job] = []
    for i in range(n):
        jobs.append(Job(release=0, deadline=3 * n, name=f"flex{i}"))
    for i in range(2 * n):
        arrival = n + i
        jobs.append(Job(release=arrival, deadline=arrival, name=f"urgent{i}"))
    return OneIntervalInstance(jobs)


def multi_interval_online_dilemma() -> Tuple[MultiIntervalInstance, MultiIntervalInstance]:
    """The two-job multi-interval dilemma showing online infeasibility.

    Both returned instances share the same two jobs visible at time 0: job A
    with allowed times ``{0, 1, 2}`` (intervals [0,1] and [1,2] merged) and
    job B with allowed times ``{0, 1, 2, 3}`` shaped as [0,1] and [2,3].  In
    the first instance a third job arrives that must run at time 1; in the
    second, a third job must run at time 2.  Whatever the online algorithm
    runs at time 0, one of the two continuations defeats it, while each
    instance is feasible offline.
    """
    job_a = MultiIntervalJob.from_intervals([(0, 1), (1, 2)], name="A")
    job_b = MultiIntervalJob.from_intervals([(0, 1), (2, 3)], name="B")
    third_at_1 = MultiIntervalJob(times=[1], name="C1")
    third_at_2 = MultiIntervalJob(times=[2], name="C2")
    first = MultiIntervalInstance(jobs=[job_a, job_b, third_at_1])
    second = MultiIntervalInstance(jobs=[job_a, job_b, third_at_2])
    return first, second


def compare_online_offline(
    instance: OneIntervalInstance, offline_gaps: int
) -> OnlineComparison:
    """Package the online EDF gap count against a known offline optimum."""
    online = online_gap_schedule(instance)
    return OnlineComparison(online_gaps=online.num_gaps(), offline_gaps=offline_gaps)
