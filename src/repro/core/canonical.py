"""Instance canonicalization for the exact interval DPs.

The interval dynamic programs behind Theorems 1 and 2 never read absolute
time: the engine consumes the candidate-column list only through column
*adjacency* and idle-*stretch* lengths (the gap objective's run-start
charges and the power objective's ``min(stretch, alpha)`` bridges), and job
windows only through their column indices.  Two instances that agree on

* the number of processors,
* the idle-stretch vector between consecutive candidate columns, and
* the multiset of job windows in dense column coordinates

are therefore *isomorphic*: they have the same feasibility, the same
optimal gap count, the same optimal power cost for every ``alpha``, and
their optimal schedules map onto each other by translating column indices
back to times and canonical job slots back to job indices.  This covers
every instance reachable from another by a time shift, a job permutation,
or renaming among jobs with identical windows.

:func:`canonical_form` computes that structure:

* **Job sorting and dedup with multiplicities** — jobs are sorted by their
  column-coordinate window; identical windows collapse into
  ``(window, count)`` runs in the key, and the permutation from canonical
  slots back to original job indices is retained for schedule remapping.
* **Time-coordinate compression** — candidate columns are remapped to
  dense indices ``0..C-1`` while the stretch vector records exactly how
  many forbidden integer times separate consecutive columns.  Stretch
  lengths are preserved verbatim (never clamped), because the power
  objective's bridge charges depend on them for every possible ``alpha``.
* **A stable canonical hash** — :attr:`CanonicalForm.digest` is the
  SHA-256 of the key's deterministic serialization, usable as a
  cross-process cache key or a corpus fingerprint.

:class:`CanonicalSolveCache` is the bounded LRU the solver adapters in
:mod:`repro.api.solvers` key by ``(objective, parameters, canonical key)``
so that ``solve_batch`` workloads with repeated or isomorphic instances
skip the DP entirely; :func:`canonical_assignment` and
:func:`restore_assignment` translate witnessing schedules into and out of
canonical coordinates.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

from .exceptions import InvalidInstanceError
from .jobs import Job, MultiprocessorInstance, OneIntervalInstance
from .timeutils import candidate_times_for_jobs, stretch_lengths

__all__ = [
    "CanonicalForm",
    "CanonicalSolveCache",
    "canonical_form",
    "canonical_instance",
    "canonical_assignment",
    "restore_assignment",
]

CanonicalizableInstance = Union[OneIntervalInstance, MultiprocessorInstance]

#: Canonical assignment: sorted ``(canonical job slot, column index)`` pairs.
CanonicalAssignment = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical structure of one instance plus the maps back to it.

    ``key`` is shared by every isomorphic instance; ``column_times`` and
    ``perm`` are instance-specific and translate canonical-coordinate
    schedules back into this instance's times and job indices.
    """

    key: Tuple
    num_processors: int
    column_times: Tuple[int, ...]
    stretches: Tuple[int, ...]
    job_windows: Tuple[Tuple[int, int], ...]  # per canonical slot, sorted
    perm: Tuple[int, ...]  # canonical slot -> original job index

    @property
    def digest(self) -> str:
        """Stable SHA-256 hex digest of the canonical key."""
        return hashlib.sha256(repr(self.key).encode("utf-8")).hexdigest()


def canonical_form(instance: CanonicalizableInstance) -> CanonicalForm:
    """Compute the canonical form of a one-interval or multiprocessor instance."""
    if isinstance(instance, MultiprocessorInstance):
        num_processors = instance.num_processors
    elif isinstance(instance, OneIntervalInstance):
        num_processors = 1
    else:
        raise InvalidInstanceError(
            f"cannot canonicalize {type(instance).__name__}; expected a "
            "one-interval or multiprocessor instance"
        )
    jobs = instance.jobs
    columns = tuple(candidate_times_for_jobs(jobs))
    column_index = {t: i for i, t in enumerate(columns)}
    # Releases and deadlines are always candidate columns (the candidate set
    # contains [r, r + n] and [d - n, d] clipped to the horizon).
    decorated = sorted(
        (column_index[job.release], column_index[job.deadline], idx)
        for idx, job in enumerate(jobs)
    )
    job_windows = tuple((lo, hi) for lo, hi, _idx in decorated)
    perm = tuple(idx for _lo, _hi, idx in decorated)
    stretches = stretch_lengths(columns)
    # Dedup with multiplicities: identical windows collapse to (window, count).
    compressed = []
    for window in job_windows:
        if compressed and compressed[-1][0] == window:
            compressed[-1][1] += 1
        else:
            compressed.append([window, 1])
    key = (
        num_processors,
        stretches,
        tuple((window, count) for window, count in compressed),
    )
    return CanonicalForm(
        key=key,
        num_processors=num_processors,
        column_times=columns,
        stretches=stretches,
        job_windows=job_windows,
        perm=perm,
    )


def canonical_instance(form: CanonicalForm) -> MultiprocessorInstance:
    """Materialise the canonical representative instance of ``form``.

    Columns are laid out densely from time 0 with the original stretch
    lengths between them, and jobs appear in canonical slot order.  Solving
    the representative yields the same objective values as solving any
    instance with the same canonical key (the metamorphic test-suite pins
    this for both objectives, including stretch-sensitive power cases).
    """
    times = [0]
    for stretch in form.stretches:
        times.append(times[-1] + 1 + stretch)
    jobs = [
        Job(release=times[lo], deadline=times[hi], name=f"c{slot}")
        for slot, (lo, hi) in enumerate(form.job_windows)
    ]
    return MultiprocessorInstance(jobs=jobs, num_processors=form.num_processors)


def canonical_assignment(
    form: CanonicalForm, times: Mapping[int, int]
) -> CanonicalAssignment:
    """Translate a ``job -> execution time`` map into canonical coordinates.

    The exact engines only ever place jobs at candidate columns, so every
    execution time has a column index; a time off the candidate grid is a
    caller error and raises ``KeyError``.
    """
    slot_of = {orig: slot for slot, orig in enumerate(form.perm)}
    column_index = {t: i for i, t in enumerate(form.column_times)}
    return tuple(
        sorted((slot_of[job_idx], column_index[t]) for job_idx, t in times.items())
    )


def restore_assignment(
    form: CanonicalForm, assignment: CanonicalAssignment
) -> Dict[int, int]:
    """Translate a canonical assignment into this instance's jobs and times.

    Jobs with identical windows are interchangeable, so any form with the
    same canonical key restores a valid, value-preserving schedule.
    """
    perm = form.perm
    column_times = form.column_times
    return {perm[slot]: column_times[col] for slot, col in assignment}


class CanonicalSolveCache:
    """A bounded LRU cache keyed by canonical solve keys.

    Values are opaque to the cache (the solver adapters store
    ``(feasible, value, canonical assignment)`` triples).  ``maxsize <= 0``
    disables the cache entirely — gets always miss and puts are dropped —
    so callers can turn caching off without branching.

    Every operation (including the hit/miss accounting) holds one lock, so
    threads of one process share a single cache with exact counters (the
    scheduling service reads them on its HTTP handler threads while its
    executor thread solves); uncontended acquisition is cheap enough not to
    matter on the serial path.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disabled_gets = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key):
        """Return the cached value for ``key``, or ``None`` on a miss.

        Lookups while the cache is disabled count as ``disabled_gets``,
        not misses — a disabled cache has no hit rate, and folding these
        into ``misses`` would report a fake 0% to every stats surface.
        """
        with self._lock:
            if self.maxsize <= 0:
                self.disabled_gets += 1
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key):
        """Like :meth:`get` but counter- and LRU-neutral (cache introspection)."""
        with self._lock:
            if self.maxsize <= 0:
                return None
            return self._entries.get(key)

    def put(self, key, value) -> None:
        """Insert ``key -> value``, evicting least-recently-used overflow."""
        with self._lock:
            if self.maxsize <= 0:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def configure(self, maxsize: int) -> None:
        """Resize (and, when shrinking, trim) the cache; ``<= 0`` disables it."""
        with self._lock:
            self.maxsize = int(maxsize)
            if self.maxsize <= 0:
                self._entries.clear()
                return
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/disabled counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disabled_gets = 0

    def stats(self) -> Dict[str, int]:
        """JSON-native snapshot: size, capacity, hits, misses, disabled gets."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "disabled_gets": self.disabled_gets,
            }
