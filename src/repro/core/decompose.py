"""Split-aware instance decomposition for the exact interval DPs.

The interval dynamic programs are polynomial but superlinear, so an
instance whose jobs fall into *time-disjoint clusters* is much cheaper to
solve cluster by cluster than as one monolith — and the clusters are
independent: no feasible schedule moves work across an interval that no
job window covers.  This module finds those clusters; the orchestration
(solving the components one by one and merging their schedules) lives in
:mod:`repro.api.decomposition`.

Two detection mechanisms compose:

* **Idle-seam sweep** — sort jobs by release and track the running
  maximum deadline ``D``; when the next release ``r`` satisfies
  ``r - D - 1 >= min_seam`` the instances separate there.  ``min_seam``
  is objective-dependent: the gap objective needs at least one forbidden
  integer time between clusters (``min_seam = 1``) so busy runs can never
  merge across the seam, while the power objective needs the seam to be
  at least ``alpha`` so every cross-seam bridge saturates at
  ``min(stretch, alpha) = alpha`` and per-component wake-up costs add
  exactly (``min_seam = alpha``).
* **Hall-count saturation clipping** — anchored at the global horizon
  ends: whenever the jobs with deadline ``<= y`` *exactly* fill the
  ``p * (y - min_release + 1)`` slots of the prefix ``[min_release, y]``,
  every other job is forced past ``y`` and its release clips to
  ``y + 1`` (symmetrically for suffixes and deadlines).  Counts
  *exceeding* capacity prove infeasibility outright — the caller can
  short-circuit without running any DP.  Clipping runs to a fixpoint
  (releases only ever grow and deadlines only ever shrink) and preserves
  the instance's feasible-schedule set exactly, so components are built
  from the clipped windows.

A subtle honesty note on the second rule: a clip lands the affected
window *adjacent* to the saturated region (seam length 0), so for
objectives with ``min_seam >= 1`` saturation clipping does not by itself
mint new split points — its value here is the free infeasibility check,
tightened component windows, and genuine splits for ``min_seam = 0``
objectives (power with ``alpha = 0``).

Everything in this module is pure structure: no solver imports, no
caches, no threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .jobs import Job

__all__ = [
    "Component",
    "Decomposition",
    "clip_windows",
    "decompose_instance",
]


@dataclass(frozen=True)
class Component:
    """One independent cluster of jobs, in original absolute time.

    ``jobs`` carry the (possibly Hall-clipped) windows; ``job_indices``
    maps each position back to the job's index in the original instance,
    so merged schedules can be expressed against the caller's jobs.
    """

    jobs: Tuple[Job, ...]
    job_indices: Tuple[int, ...]
    start: int  # min release over the component (clipped)
    end: int  # max deadline over the component (clipped)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Decomposition:
    """The outcome of split detection on one instance.

    ``seams`` holds the idle-interval length between consecutive
    components (``len(components) - 1`` entries, each ``>= min_seam``).
    ``infeasible`` is a *proof* from Hall counting — when set, the
    instance admits no feasible schedule and ``components`` is empty.
    """

    components: Tuple[Component, ...]
    seams: Tuple[int, ...]
    min_seam: float
    num_processors: int
    infeasible: bool = False
    clipped_jobs: int = 0

    @property
    def is_split(self) -> bool:
        """True when there is more than one component to solve."""
        return len(self.components) > 1


def _prefix_clip(
    windows: List[List[int]], num_processors: int
) -> Tuple[bool, bool]:
    """One prefix-saturation pass; returns ``(changed, infeasible)``.

    For every distinct deadline ``y`` (ascending), the jobs with
    ``deadline <= y`` must all run inside ``[min_release, y]``.  A count
    above ``p * (y - min_release + 1)`` is a Hall violation; an exact
    count pins every one of those slots busy, forcing all other windows
    past ``y``.
    """
    if not windows:
        return False, False
    min_release = min(w[0] for w in windows)
    changed = False
    by_deadline = sorted(range(len(windows)), key=lambda i: windows[i][1])
    count = 0
    idx = 0
    deadlines = sorted({w[1] for w in windows})
    for y in deadlines:
        while idx < len(by_deadline) and windows[by_deadline[idx]][1] <= y:
            count += 1
            idx += 1
        capacity = num_processors * (y - min_release + 1)
        if count > capacity:
            return changed, True
        if count == capacity:
            for w in windows:
                if w[1] > y and w[0] <= y:
                    w[0] = y + 1
                    changed = True
    return changed, False


def _suffix_clip(
    windows: List[List[int]], num_processors: int
) -> Tuple[bool, bool]:
    """Mirror of :func:`_prefix_clip` anchored at the maximum deadline."""
    if not windows:
        return False, False
    max_deadline = max(w[1] for w in windows)
    changed = False
    by_release = sorted(range(len(windows)), key=lambda i: -windows[i][0])
    count = 0
    idx = 0
    releases = sorted({w[0] for w in windows}, reverse=True)
    for x in releases:
        while idx < len(by_release) and windows[by_release[idx]][0] >= x:
            count += 1
            idx += 1
        capacity = num_processors * (max_deadline - x + 1)
        if count > capacity:
            return changed, True
        if count == capacity:
            for w in windows:
                if w[0] < x and w[1] >= x:
                    w[1] = x - 1
                    changed = True
    return changed, False


def clip_windows(
    jobs: Sequence[Job], num_processors: int
) -> Tuple[Tuple[Tuple[int, int], ...], bool, int]:
    """Hall-saturation window clipping, run to a fixpoint.

    Returns ``(windows, infeasible, clipped_jobs)`` where ``windows`` is
    the per-job ``(release, deadline)`` after clipping (original order)
    and ``clipped_jobs`` counts jobs whose window changed.  The clipped
    instance has exactly the same feasible schedules as the original.
    Termination: each pass only ever raises releases or lowers deadlines,
    both bounded by the finite horizon.
    """
    windows = [[job.release, job.deadline] for job in jobs]
    infeasible = False
    while True:
        changed_pre, bad = _prefix_clip(windows, num_processors)
        if bad:
            infeasible = True
            break
        changed_suf, bad = _suffix_clip(windows, num_processors)
        if bad:
            infeasible = True
            break
        if any(w[0] > w[1] for w in windows):
            infeasible = True
            break
        if not (changed_pre or changed_suf):
            break
    clipped = sum(
        1
        for job, w in zip(jobs, windows)
        if (job.release, job.deadline) != (w[0], w[1])
    )
    return tuple((w[0], w[1]) for w in windows), infeasible, clipped


def decompose_instance(
    jobs: Sequence[Job], num_processors: int, min_seam: float
) -> Decomposition:
    """Split ``jobs`` into independent components separated by idle seams.

    ``min_seam`` is the smallest number of window-free integer times that
    makes two clusters independent for the caller's objective (``1`` for
    gaps, ``alpha`` for power).  Windows are Hall-clipped first; a Hall
    violation (or a window inverted by clipping) yields an infeasibility
    proof with no components.
    """
    if num_processors < 1:
        raise ValueError(f"num_processors must be >= 1, got {num_processors}")
    if min_seam < 0:
        raise ValueError(f"min_seam must be >= 0, got {min_seam}")
    if not jobs:
        return Decomposition(
            components=(),
            seams=(),
            min_seam=min_seam,
            num_processors=num_processors,
        )
    windows, infeasible, clipped = clip_windows(jobs, num_processors)
    if infeasible:
        return Decomposition(
            components=(),
            seams=(),
            min_seam=min_seam,
            num_processors=num_processors,
            infeasible=True,
            clipped_jobs=clipped,
        )
    order = sorted(range(len(jobs)), key=lambda i: (windows[i][0], windows[i][1], i))
    groups: List[List[int]] = [[order[0]]]
    seams: List[int] = []
    max_deadline = windows[order[0]][1]
    for idx in order[1:]:
        release, deadline = windows[idx]
        seam = release - max_deadline - 1
        if seam >= min_seam:
            seams.append(seam)
            groups.append([idx])
        else:
            groups[-1].append(idx)
        max_deadline = max(max_deadline, deadline)
    components = []
    for group in groups:
        group_jobs = tuple(
            Job(
                release=windows[i][0],
                deadline=windows[i][1],
                name=jobs[i].name,
            )
            for i in group
        )
        components.append(
            Component(
                jobs=group_jobs,
                job_indices=tuple(group),
                start=min(w.release for w in group_jobs),
                end=max(w.deadline for w in group_jobs),
            )
        )
    return Decomposition(
        components=tuple(components),
        seams=tuple(seams),
        min_seam=min_seam,
        num_processors=num_processors,
        clipped_jobs=clipped,
    )
