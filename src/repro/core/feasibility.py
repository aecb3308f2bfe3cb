"""Feasibility checks and baseline schedulers built on bipartite matching.

The paper repeatedly uses the observation that deciding whether all unit jobs
can be scheduled is a bipartite matching problem between jobs and time slots
(or (processor, time) slots).  This module provides:

* :func:`build_job_slot_graph` / :func:`build_multiproc_graph` — construct the
  job/slot bipartite graphs.
* :func:`is_feasible` / :func:`is_feasible_multiproc` — matching-based
  feasibility tests.
* :func:`feasible_schedule` / :func:`feasible_schedule_multiproc` — arbitrary
  feasible schedules (no objective), used as starting points by the
  approximation algorithms.
* :func:`edf_schedule` — the earliest-deadline-first schedule for one-interval
  instances, the classical baseline mentioned in Section 1.
* :func:`complete_partial_schedule` — Lemma 3: extend a partial schedule one
  augmenting path at a time, adding at most one gap per added job.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..matching import BipartiteGraph, extend_matching, hall_violation, hopcroft_karp
from .exceptions import InfeasibleInstanceError
from .jobs import (
    Job,
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
)
from .schedule import MultiprocessorSchedule, Schedule
from .timeutils import candidate_times_for_jobs

__all__ = [
    "build_job_slot_graph",
    "build_multiproc_graph",
    "is_feasible",
    "is_feasible_multiproc",
    "feasible_schedule",
    "feasible_schedule_multiproc",
    "edf_schedule",
    "complete_partial_schedule",
]

SingleInstance = Union[OneIntervalInstance, MultiIntervalInstance]


def _allowed_times_of(instance: SingleInstance) -> List[List[int]]:
    """Allowed execution times per job for one-interval or multi-interval instances."""
    allowed: List[List[int]] = []
    for job in instance.jobs:
        if isinstance(job, Job):
            allowed.append(list(job.allowed_times()))
        else:
            allowed.append(list(job.times))
    return allowed


def build_job_slot_graph(instance: SingleInstance) -> BipartiteGraph:
    """Bipartite graph with jobs on the left and integer time slots on the right."""
    allowed = _allowed_times_of(instance)
    graph = BipartiteGraph(n_left=len(allowed))
    for job_idx, times in enumerate(allowed):
        graph.add_edges(job_idx, times)
    return graph


def build_multiproc_graph(instance: MultiprocessorInstance) -> BipartiteGraph:
    """Bipartite graph with jobs on the left and (processor, time) slots on the right.

    Only candidate times are materialised; by the structural lemma used by the
    exact DP this does not affect feasibility, because feasibility only
    depends on how many jobs fit per time column and candidate times include
    every column any optimal (or greedy) schedule would use.
    """
    graph = BipartiteGraph(n_left=instance.num_jobs)
    times = candidate_times_for_jobs(instance.jobs)
    time_set = set(times)
    for job_idx, job in enumerate(instance.jobs):
        for t in job.allowed_times():
            if t not in time_set:
                continue
            for proc in range(1, instance.num_processors + 1):
                graph.add_edge(job_idx, (proc, t))
    return graph


def is_feasible(instance: SingleInstance) -> bool:
    """True when every job of a single-processor instance can be scheduled."""
    if instance.num_jobs == 0:
        return True
    graph = build_job_slot_graph(instance)
    match_left, _ = hopcroft_karp(graph)
    return all(m != -1 for m in match_left)


def is_feasible_multiproc(instance: MultiprocessorInstance) -> bool:
    """True when every job of a multiprocessor instance can be scheduled."""
    if instance.num_jobs == 0:
        return True
    graph = build_multiproc_graph(instance)
    match_left, _ = hopcroft_karp(graph)
    return all(m != -1 for m in match_left)


def feasible_schedule(instance: SingleInstance) -> Schedule:
    """Return an arbitrary feasible schedule, or raise :class:`InfeasibleInstanceError`."""
    graph = build_job_slot_graph(instance)
    match_left, _ = hopcroft_karp(graph)
    if any(m == -1 for m in match_left):
        detail = ""
        if isinstance(instance, OneIntervalInstance):
            violation = hall_violation([job.window for job in instance.jobs])
            if violation is not None:
                x, y, demand, capacity = violation
                detail = (
                    f" (window [{x}, {y}] must hold {demand} jobs "
                    f"but has only {capacity} slots)"
                )
        raise InfeasibleInstanceError(f"no feasible schedule exists{detail}")
    assignment = {
        job_idx: graph.right_label(rid) for job_idx, rid in enumerate(match_left)
    }
    return Schedule(instance=instance, assignment=assignment)


def feasible_schedule_multiproc(
    instance: MultiprocessorInstance,
) -> MultiprocessorSchedule:
    """Return an arbitrary feasible multiprocessor schedule, or raise."""
    graph = build_multiproc_graph(instance)
    match_left, _ = hopcroft_karp(graph)
    if any(m == -1 for m in match_left):
        violation = hall_violation(
            [job.window for job in instance.jobs], instance.num_processors
        )
        detail = ""
        if violation is not None:
            x, y, demand, capacity = violation
            detail = (
                f" (window [{x}, {y}] must hold {demand} jobs "
                f"but has only {capacity} slots)"
            )
        raise InfeasibleInstanceError(f"no feasible schedule exists{detail}")
    assignment = {
        job_idx: graph.right_label(rid) for job_idx, rid in enumerate(match_left)
    }
    return MultiprocessorSchedule(instance=instance, assignment=assignment)


def edf_schedule(instance: OneIntervalInstance) -> Schedule:
    """Earliest-deadline-first schedule for a one-interval instance.

    At each time step, among released unscheduled jobs, run the one with the
    earliest deadline.  The machine never idles while a job is pending (the
    classical work-conserving online policy); this is the baseline whose
    gap count the paper's introduction contrasts with the offline optimum.
    Raises :class:`InfeasibleInstanceError` when a deadline is missed, which
    for one-interval unit jobs happens exactly when the instance is
    infeasible.
    """
    n = instance.num_jobs
    if n == 0:
        return Schedule(instance=instance, assignment={})

    order = sorted(range(n), key=lambda i: (instance.jobs[i].release, i))
    released: List[Tuple[int, int]] = []  # heap of (deadline, job index)
    assignment: Dict[int, int] = {}
    pointer = 0
    t = min(job.release for job in instance.jobs)
    horizon_end = max(job.deadline for job in instance.jobs)

    while len(assignment) < n and t <= horizon_end:
        while pointer < n and instance.jobs[order[pointer]].release <= t:
            idx = order[pointer]
            heapq.heappush(released, (instance.jobs[idx].deadline, idx))
            pointer += 1
        if not released:
            # Jump to the next release to keep the loop linear in events.
            if pointer < n:
                t = instance.jobs[order[pointer]].release
                continue
            break
        deadline, idx = heapq.heappop(released)
        if deadline < t:
            raise InfeasibleInstanceError(
                f"EDF misses the deadline of job {idx} (deadline {deadline}, time {t})"
            )
        assignment[idx] = t
        t += 1

    if len(assignment) < n:
        missing = sorted(set(range(n)) - set(assignment))
        raise InfeasibleInstanceError(f"EDF could not schedule jobs {missing}")
    return Schedule(instance=instance, assignment=assignment)


def complete_partial_schedule(
    instance: SingleInstance, partial: Dict[int, int]
) -> Schedule:
    """Extend a partial schedule to all jobs via augmenting paths (Lemma 3).

    ``partial`` maps job indices to times.  If a feasible complete schedule
    exists, the returned schedule contains all jobs and uses at most
    ``len(partial gaps) + (n - len(partial))`` gaps, as guaranteed by Lemma 3
    of the paper.  Raises :class:`InfeasibleInstanceError` otherwise.
    """
    graph = build_job_slot_graph(instance)
    result = extend_matching(graph, dict(partial))
    if len(result) < instance.num_jobs:
        missing = sorted(set(range(instance.num_jobs)) - set(result))
        raise InfeasibleInstanceError(
            f"partial schedule cannot be extended to jobs {missing}"
        )
    return Schedule(instance=instance, assignment={k: int(v) for k, v in result.items()})
