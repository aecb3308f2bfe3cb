"""Candidate ("relevant") time columns for the exact dynamic programs.

Baptiste [Bap06] proved that for unit jobs there is always an optimal
schedule in which the execution time of every job lies within distance ``n``
of some release time or deadline.  The paper extends the same argument to
the multiprocessor case (proof of Theorem 1).  The dynamic programs in
:mod:`repro.core.multiproc_gap_dp` and :mod:`repro.core.multiproc_power_dp`
therefore only ever place jobs at *candidate columns*:

``candidates = union over jobs j of [r_j, r_j + n] and [d_j - n, d_j]``,

clipped to the instance horizon.  For small horizons (at most
``SMALL_HORIZON_FACTOR * n + SMALL_HORIZON_SLACK`` columns) the full set of
integer times is used instead; this removes any reliance on the structural
lemma in the regime where the exhaustive test oracles run, so the
property-based tests compare solvers on exactly the same search space.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .jobs import Job, MultiprocessorInstance, OneIntervalInstance

__all__ = [
    "candidate_times",
    "candidate_times_for_jobs",
    "stretch_lengths",
    "SMALL_HORIZON_FACTOR",
    "SMALL_HORIZON_SLACK",
]

SMALL_HORIZON_FACTOR = 4
SMALL_HORIZON_SLACK = 16


def candidate_times_for_jobs(
    jobs: Sequence[Job], use_full_horizon: bool = False
) -> List[int]:
    """Sorted candidate execution times for ``jobs``.

    Parameters
    ----------
    jobs:
        The unit jobs of the instance.
    use_full_horizon:
        When true, return every integer time in the instance horizon
        regardless of size.  Used by test oracles.
    """
    if not jobs:
        return []
    n = len(jobs)
    lo = min(job.release for job in jobs)
    hi = max(job.deadline for job in jobs)
    horizon = hi - lo + 1

    if use_full_horizon or horizon <= SMALL_HORIZON_FACTOR * n + SMALL_HORIZON_SLACK:
        return list(range(lo, hi + 1))

    # Merge the 2n clipped windows in start order; adding each window's
    # times to a set instead costs O(n^2) once the windows overlap.
    windows = sorted(
        [(job.release, min(hi, job.release + n)) for job in jobs]
        + [(max(lo, job.deadline - n), job.deadline) for job in jobs]
    )
    candidates: List[int] = []
    run_start, run_end = windows[0]
    for start, end in windows:
        if start > run_end + 1:
            candidates.extend(range(run_start, run_end + 1))
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    candidates.extend(range(run_start, run_end + 1))
    return candidates


def candidate_times(
    instance: "OneIntervalInstance | MultiprocessorInstance",
    use_full_horizon: bool = False,
) -> List[int]:
    """Candidate execution times for a one-interval or multiprocessor instance."""
    return candidate_times_for_jobs(instance.jobs, use_full_horizon=use_full_horizon)


def stretch_lengths(columns: Sequence[int]) -> Tuple[int, ...]:
    """Idle-stretch lengths between consecutive candidate columns.

    ``stretch_lengths(columns)[i]`` is the number of integer times strictly
    between ``columns[i]`` and ``columns[i + 1]``.  Together with the column
    count, the stretch vector determines the time geometry the interval DPs
    see: the gap objective reads only column adjacency from it and the power
    objective charges ``min(stretch, alpha)`` bridges over it, which is why
    :mod:`repro.core.canonical` preserves it exactly in the canonical key.
    """
    return tuple(
        columns[i + 1] - columns[i] - 1 for i in range(len(columns) - 1)
    )
