"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  The concrete subclasses distinguish between
malformed inputs, infeasible instances and invalid schedules, because the
three situations call for different user reactions (fix the data, relax the
instance, or report a solver bug respectively).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class InvalidInstanceError(ReproError, ValueError):
    """Raised when an instance is structurally malformed.

    Examples: a job with a deadline earlier than its release time, a
    multi-interval job with an empty allowed-time set, a non-positive
    processor count, or a negative wake-up cost ``alpha``.
    """


class InfeasibleInstanceError(ReproError):
    """Raised when an instance admits no feasible schedule.

    Solvers that are asked for a schedule (rather than a feasibility flag)
    raise this exception when the underlying bipartite matching cannot
    saturate all jobs.
    """


class InvalidScheduleError(ReproError, ValueError):
    """Raised when a schedule object violates the problem constraints.

    This covers double-booked processor/time slots, jobs scheduled outside
    their allowed times, and schedules that reference unknown jobs.
    """


class SolverError(ReproError, RuntimeError):
    """Raised when a solver reaches an internal inconsistency.

    This should never happen for valid inputs; it indicates a bug and is
    used by internal assertions that are cheap enough to keep enabled.
    """


class CacheConfigurationError(ReproError, OSError):
    """Raised when a requested cache directory cannot be used.

    Covers paths shadowed by an existing file, unwritable directories, and
    filesystem errors while preparing the layout.  Raised eagerly at
    configuration time (``configure_disk_cache`` / ``--cache-dir`` /
    ``REPRO_CACHE_DIR``) so a misconfigured cache fails before the first
    solve instead of during an arbitrary later write.  Also an
    :class:`OSError`, so pre-existing ``except OSError`` callers keep
    working.
    """
