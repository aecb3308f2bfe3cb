"""Scalable gap/power heuristics: EDF list scheduling plus block-merge local search.

The exact interval DPs are impractical at n = 10^5; these heuristics trade
optimality for ``O(n log n)``-style running time and pair with the
certified lower bounds of :mod:`repro.bounds` to produce *a-posteriori*
approximation factors (``upper / lower``) instead of worst-case ones.

* :func:`edf_list_schedule` — the work-conserving EDF list schedule
  (feasibility-exact for unit one-interval jobs: it raises
  :class:`~repro.core.exceptions.InfeasibleInstanceError` exactly when no
  schedule exists).
* :func:`merge_local_search` — a local-search pass over gap boundaries:
  repeatedly try to close the gap between two adjacent busy blocks by
  shifting one block flush against the other (re-placing its jobs with an
  EDF fit into the target slots).  Merging always removes one gap; for the
  power objective a move is accepted only when the net cost delta
  (closed gap vs. the widened gap on the block's far side) is negative.

The local search is budgeted: a move budget linear in ``n`` plus an
optional wall-clock deadline keep the worst case (one giant cascading
block) from degenerating to quadratic work.  Stopping early is always
sound — the current schedule is a valid upper bound at every point.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .feasibility import edf_schedule
from .jobs import OneIntervalInstance
from .schedule import Schedule

__all__ = ["LocalSearchResult", "edf_list_schedule", "merge_local_search"]

#: Job-placement budget of one local-search call, as a multiple of ``n``.
DEFAULT_MOVE_BUDGET_FACTOR = 8
#: Hard cap on improvement sweeps (each sweep scans every gap boundary once).
DEFAULT_MAX_SWEEPS = 32

_EPS = 1e-12


@dataclass
class LocalSearchResult:
    """Outcome of :func:`merge_local_search`."""

    schedule: Schedule
    sweeps: int = 0
    merges: int = 0
    moves: int = 0
    exhausted: bool = False  # stopped on budget/deadline, not at a local optimum


def edf_list_schedule(instance: OneIntervalInstance) -> Schedule:
    """Work-conserving EDF; raises ``InfeasibleInstanceError`` iff infeasible."""
    return edf_schedule(instance)


def _fit_block(
    jobs, indices: List[int], start: int
) -> Optional[Dict[int, int]]:
    """EDF-fit ``indices`` into the contiguous slots ``start .. start+k-1``.

    Returns the job -> time map, or ``None`` when no feasible placement of
    exactly these jobs into exactly these slots exists (EDF is exact for
    this sub-problem: unit jobs, contiguous slots).
    """
    k = len(indices)
    order = sorted(indices, key=lambda i: (jobs[i].release, i))
    heap: List[Tuple[int, int]] = []
    placed: Dict[int, int] = {}
    p = 0
    for slot in range(start, start + k):
        while p < k and jobs[order[p]].release <= slot:
            idx = order[p]
            heapq.heappush(heap, (jobs[idx].deadline, idx))
            p += 1
        if not heap:
            return None
        deadline, idx = heapq.heappop(heap)
        if deadline < slot:
            return None
        placed[idx] = slot
    return placed


def _blocks_of(times: Dict[int, int]) -> List[List[Tuple[int, int]]]:
    """Maximal runs of consecutive busy slots as ``[(time, job), ...]`` lists."""
    items = sorted((t, j) for j, t in times.items())
    blocks: List[List[Tuple[int, int]]] = []
    for t, j in items:
        if blocks and t == blocks[-1][-1][0] + 1:
            blocks[-1].append((t, j))
        else:
            blocks.append([(t, j)])
    return blocks


def merge_local_search(
    instance: OneIntervalInstance,
    schedule: Optional[Schedule] = None,
    objective: str = "gaps",
    alpha: Optional[float] = None,
    deadline: Optional[float] = None,
    move_budget_factor: int = DEFAULT_MOVE_BUDGET_FACTOR,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    on_improve: Optional[Callable[[Dict[int, int]], None]] = None,
) -> LocalSearchResult:
    """Improve ``schedule`` (default: the EDF list schedule) by merging blocks.

    Parameters
    ----------
    objective:
        ``"gaps"`` (every merge is an improvement) or ``"power"`` (a merge
        is accepted only when the net power delta is negative; requires
        ``alpha``).
    deadline:
        Absolute ``time.perf_counter()`` value after which the search
        stops cooperatively and returns the best schedule so far.
    move_budget_factor:
        The search re-places at most ``factor * n + 64`` jobs in total,
        keeping adversarial cascades (one ever-growing block re-placed at
        every boundary) from going quadratic.
    on_improve:
        Called with the current ``job -> time`` map after the starting
        schedule is fixed and again after every accepted merge.  Every
        map passed is a feasible schedule of the full instance — this is
        the any-time hook the portfolio racer uses to harvest incumbents
        from a search that is later hard-killed mid-sweep.  The callback
        must not mutate the map it is handed.
    """
    if objective not in ("gaps", "power"):
        raise ValueError(f"unsupported local-search objective {objective!r}")
    if objective == "power":
        if alpha is None:
            raise ValueError("the 'power' objective requires alpha")
        alpha = float(alpha)
    if schedule is None:
        schedule = edf_list_schedule(instance)
    jobs = instance.jobs
    times = dict(schedule.assignment)
    n = len(times)
    budget = move_budget_factor * n + 64
    result = LocalSearchResult(schedule=schedule)
    if n == 0:
        return result
    if on_improve is not None:
        on_improve(times)

    def gap_cost(length: int) -> float:
        return float(min(length, alpha)) if objective == "power" else 0.0

    improved = True
    while improved and result.sweeps < max_sweeps and not result.exhausted:
        improved = False
        result.sweeps += 1
        blocks = _blocks_of(times)
        b = 0
        while b + 1 < len(blocks):
            if deadline is not None and _time.perf_counter() >= deadline:
                result.exhausted = True
                break
            left, right = blocks[b], blocks[b + 1]
            gap = right[0][0] - left[-1][0] - 1
            options: List[Tuple[float, int, Dict[int, int], List[Tuple[int, int]]]] = []
            # Try the smaller block first: its EDF fit is the cheaper probe.
            order = (0, 1) if len(right) <= len(left) else (1, 0)
            for which in order:
                if result.moves + len(blocks[b + which]) > budget:
                    result.exhausted = True
                    break
                if which == 0:
                    # shift the right block flush against the left one
                    movers, target = right, left[-1][0] + 1
                    far_gap = (
                        blocks[b + 2][0][0] - right[-1][0] - 1
                        if b + 2 < len(blocks)
                        else None
                    )
                else:
                    # shift the left block flush against the right one
                    movers, target = left, right[0][0] - len(left)
                    far_gap = (
                        left[0][0] - blocks[b - 1][-1][0] - 1
                        if b > 0
                        else None
                    )
                indices = [j for _t, j in movers]
                result.moves += len(indices)
                fit = _fit_block(jobs, indices, target)
                if fit is None:
                    continue
                if objective == "gaps":
                    delta = -1.0
                else:
                    widened = (
                        gap_cost(far_gap + gap) - gap_cost(far_gap)
                        if far_gap is not None
                        else 0.0
                    )
                    delta = widened - gap_cost(gap)
                if delta < -_EPS:
                    options.append((delta, which, fit, movers))
                    break  # first feasible improving direction wins
            if result.exhausted:
                break
            if not options:
                b += 1
                continue
            _delta, which, fit, movers = options[0]
            times.update(fit)
            result.merges += 1
            improved = True
            if on_improve is not None:
                on_improve(times)
            merged = sorted(
                [(t, j) for j, t in fit.items()]
                + (left if which == 0 else right)
            )
            blocks[b : b + 2] = [merged]
            # Stay at the same boundary: the merged block may now close the
            # next gap too (rightward cascade), or b stays valid anyway.

    result.schedule = Schedule(instance=instance, assignment=times)
    return result
