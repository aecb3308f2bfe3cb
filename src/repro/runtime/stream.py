"""The streaming batch pipeline: chunked, bounded-memory task execution.

Two entry points, built on the same windowed admit/drain/pop pattern
(:func:`solve_stream` adds dedupe and cache hooks inside its loop):

* :func:`run_tasks` — the generic primitive: map a picklable function over
  an iterable on either backend (:mod:`repro.runtime.backends`),
  yielding :class:`TaskOutcome`\\ s as tasks finish.  Per-task exceptions
  are captured into the outcome instead of poisoning the run; the fuzz
  driver, the bench runner and the experiment harness all fan out
  through this.
* :func:`solve_stream` — the façade-aware pipeline: solve a stream of
  :class:`~repro.api.problem.Problem`\\ s, yielding
  :class:`~repro.api.result.SolveResult`\\ s as they complete.
  :func:`repro.api.solve_batch` is a thin compatibility wrapper that
  collects an ordered stream into a list.

``solve_stream`` adds three solve-specific behaviors on top of the loop:

* **Deterministic-order mode** (``ordered=True``, the default) re-sequences
  completions so results come back in input order regardless of which
  worker finished first — the historical ``solve_batch`` guarantee, and
  what makes a parallel run serialize byte-identically to a serial one.
  ``ordered=False`` yields strictly in completion order for
  latency-sensitive consumers.
* **In-flight dedupe of canonically-identical tasks.**  Before dispatch,
  each problem is keyed by its canonical digest (exact duplicates and
  time-shift/job-permutation isomorphs share a key).  While a
  representative is in flight its duplicates are parked, not dispatched —
  two workers never burn the same DP concurrently.  When the
  representative lands: exact duplicates receive independent deep copies
  of its result; isomorphic duplicates are replayed through the canonical
  solve cache (seeded from the representative's result) so their
  schedules are remapped onto their own instances.
* **Per-task error capture.**  A crashing worker task becomes one
  ``status="error"`` :class:`~repro.api.result.SolveResult` (exception
  type, message, and traceback in ``extra``) at that task's position;
  every other task in the batch is unaffected.  ``on_error="raise"``
  restores fail-fast behavior.

Memory is bounded by the in-flight window (roughly ``2 × workers ×
chunksize`` tasks plus their buffered results) and a fixed-size LRU of
completed representatives kept for dedupe; the input iterable is consumed
lazily, never materialized.
"""

from __future__ import annotations

import copy
import traceback as _traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .backends import open_session, resolve_backend
from .diskcache import configure_disk_cache, disk_cache_dir
from .observe import notify_task_observers

__all__ = ["TaskOutcome", "run_tasks", "solve_stream"]

#: Completed representatives retained (problem + result) for stream dedupe.
DEDUPE_WINDOW = 1024


@dataclass
class TaskOutcome:
    """What happened to one task: a value, or a captured exception."""

    ok: bool
    value: Any = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None

    def unwrap(self) -> Any:
        """Return the value, re-raising captured task errors."""
        if self.ok:
            return self.value
        raise RuntimeError(
            f"task failed with {self.error_type}: {self.error}\n{self.traceback}"
        )


class _Guarded:
    """Picklable wrapper turning exceptions into transportable outcomes."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Tuple:
        try:
            return ("ok", self.fn(item))
        except Exception as exc:  # noqa: BLE001 — per-task isolation is the point
            return ("error", type(exc).__name__, str(exc), _traceback.format_exc())


def _to_outcome(raw: Tuple) -> TaskOutcome:
    if raw[0] == "ok":
        return TaskOutcome(ok=True, value=raw[1])
    return TaskOutcome(ok=False, error_type=raw[1], error=raw[2], traceback=raw[3])


def _default_window(workers: int, chunksize: int, window: Optional[int]) -> int:
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        return window
    return max(4, 2 * workers * max(1, chunksize))


# ---------------------------------------------------------------------------
# the generic primitive
# ---------------------------------------------------------------------------
def run_tasks(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    ordered: bool = True,
    window: Optional[int] = None,
    chunksize: int = 1,
) -> Iterator[Tuple[int, TaskOutcome]]:
    """Map ``fn`` over ``items`` through a backend, streaming the outcomes.

    Yields ``(index, outcome)`` pairs — in input order when ``ordered``,
    else in completion order.  ``fn`` and the items must be picklable for
    the process backend.  At most ``window`` tasks are in flight or
    buffered at any moment and ``items`` is consumed lazily, so the
    pipeline runs in bounded memory over arbitrarily long inputs.
    """
    name, count = resolve_backend(backend, workers)
    limit = _default_window(count, chunksize, window)
    with open_session(name, count, _Guarded(fn), chunksize) as session:
        iterator = iter(enumerate(items))
        pending: Dict[int, TaskOutcome] = {}
        next_emit = 0
        exhausted = False
        while True:
            while not exhausted and session.in_flight + len(pending) < limit:
                try:
                    index, item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                session.submit(index, item)
            if ordered:
                while next_emit in pending:
                    yield next_emit, pending.pop(next_emit)
                    next_emit += 1
            if session.in_flight == 0:
                if exhausted:
                    break
                continue
            tag, raw = session.pop()
            outcome = _to_outcome(raw)
            if ordered:
                pending[tag] = outcome
            else:
                yield tag, outcome


# ---------------------------------------------------------------------------
# the solve pipeline
# ---------------------------------------------------------------------------
def _solve_task(payload: Tuple) -> "Any":
    """Worker-side task: sync the disk-cache tier, then solve.

    Module-level (and payload-only) so every backend can transport it.
    The parent's disk-cache directory rides along in the payload because
    process workers under ``spawn`` — or long-lived workers that outlive a
    reconfiguration — would otherwise drift from the caller's cache setup.
    """
    problem, solver, cache_dir = payload
    if disk_cache_dir() != cache_dir:
        configure_disk_cache(cache_dir)
    from ..api.registry import solve

    return solve(problem, solver=solver)


def _error_result(problem, outcome: TaskOutcome):
    """Build the uniform per-task error envelope from a captured failure."""
    from ..api.result import SolveResult

    return SolveResult(
        status="error",
        objective=problem.objective,
        value=None,
        schedule=None,
        extra={
            "error_type": outcome.error_type,
            "error": outcome.error,
            "traceback": outcome.traceback,
        },
    )


def _dedupe_key(problem, solver: str) -> Tuple:
    """Stream-dedupe key: canonical digest when the instance supports it.

    Canonically identical problems (equal, time-shifted, or job-permuted
    instances with the same objective parameters) collapse to one key;
    everything else falls back to structural problem equality.
    """
    from ..core.canonical import canonical_form
    from ..core.jobs import MultiprocessorInstance, OneIntervalInstance

    if isinstance(problem.instance, (OneIntervalInstance, MultiprocessorInstance)):
        digest = canonical_form(problem.instance).digest
        return (
            "canonical",
            solver,
            problem.objective,
            problem.alpha,
            problem.max_gaps,
            digest,
        )
    return ("structural", solver, problem)


def _parent_solve(problem, solver: str, on_error: str):
    """Solve in the calling process (used for cache-replayable duplicates)."""
    from ..api.registry import solve

    try:
        return solve(problem, solver=solver)
    except Exception as exc:  # noqa: BLE001 — same isolation as worker tasks
        if on_error == "raise":
            raise
        return _error_result(
            problem,
            TaskOutcome(
                ok=False,
                error_type=type(exc).__name__,
                error=str(exc),
                traceback=_traceback.format_exc(),
            ),
        )


def solve_stream(
    problems: Iterable[Any],
    solver: str = "auto",
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunksize: int = 1,
    ordered: bool = True,
    dedupe: bool = True,
    window: Optional[int] = None,
    on_error: str = "result",
    with_index: bool = False,
) -> Iterator[Any]:
    """Solve a stream of problems, yielding results as they complete.

    Parameters
    ----------
    problems:
        Any iterable of :class:`~repro.api.problem.Problem`; consumed
        lazily, so generators of unbounded workloads stream in bounded
        memory.
    solver:
        Passed through to :func:`repro.api.solve` for every problem.
    backend / workers:
        Execution backend name, ``"serial"`` or ``"process"`` (see
        :func:`~repro.runtime.backends.resolve_backend`); ``workers``
        sizes the process backend.
    chunksize:
        Tasks per worker round-trip on the process backend.
    ordered:
        ``True`` yields results in input order (the ``solve_batch``
        determinism guarantee); ``False`` yields in completion order.
    dedupe:
        Park canonically identical in-flight tasks behind one
        representative solve; exact duplicates get independent deep
        copies, isomorphic ones are replayed through the canonical cache.
        Completed representatives are remembered in a bounded LRU
        (:data:`DEDUPE_WINDOW` entries), so duplicates also collapse
        across the stream, not just while in flight.
    window:
        In-flight + buffered task bound (default ``2 × workers ×
        chunksize``, at least 4).
    on_error:
        ``"result"`` (default) converts a crashed task into a
        ``status="error"`` result at its position; ``"raise"`` re-raises
        the first failure as :class:`~repro.core.exceptions.SolverError`.
    with_index:
        Yield ``(input index, result)`` pairs instead of bare results —
        essential for correlating an unordered stream.
    """
    if on_error not in ("result", "raise"):
        raise ValueError(
            f"on_error must be 'result' or 'raise', got {on_error!r}"
        )
    name, count = resolve_backend(backend, workers)
    limit = _default_window(count, chunksize, window)
    cache_dir = disk_cache_dir()

    pending: Dict[int, Any] = {}  # ordered-mode reorder buffer
    ready: deque = deque()  # unordered-mode emission queue
    next_emit = 0
    reps: Dict[Tuple, int] = {}  # dedupe key -> in-flight representative
    key_of: Dict[int, Tuple] = {}  # in-flight index -> dedupe key
    problem_of: Dict[int, Any] = {}  # in-flight index -> problem
    parked: Dict[int, List[Tuple[int, Any]]] = {}  # rep index -> duplicates
    parked_count = 0
    finished: "OrderedDict[Tuple, Tuple[Any, Any, bool]]" = OrderedDict()

    def deliver(index: int, problem: Any, result: Any) -> None:
        # Every emission path funnels through here exactly once per task,
        # so this is where registered task observers see the traffic.
        notify_task_observers(problem, result)
        if ordered:
            pending[index] = result
        else:
            ready.append((index, result))

    def occupancy(session) -> int:
        return session.in_flight + len(pending) + len(ready) + parked_count

    def resolve_outcome(index: int, raw: Tuple) -> Any:
        outcome = _to_outcome(raw)
        if outcome.ok:
            return outcome.value
        if on_error == "raise":
            from ..core.exceptions import SolverError

            raise SolverError(
                f"batch task {index} failed with {outcome.error_type}: "
                f"{outcome.error}\n{outcome.traceback}"
            )
        return _error_result(problem_of[index], outcome)

    def seed_from(problem, result) -> bool:
        # Seeding the canonical cache can never be load-bearing: a failure
        # just means parked isomorphic duplicates are dispatched normally.
        from ..api.solvers import seed_solve_cache

        try:
            return seed_solve_cache(problem, result)
        except Exception:  # noqa: BLE001
            return False

    def cache_ready(problem) -> bool:
        # A seeded key does not guarantee a cheap replay forever: the memory
        # tier may have evicted the entry since (it is smaller than the
        # dedupe LRU).  Solving in the parent is only allowed when a cache
        # tier verifiably holds the answer — otherwise the duplicate would
        # run a full DP inline and stall the pipeline; dispatch it instead.
        from ..api.solvers import solve_cache_contains

        try:
            return solve_cache_contains(problem)
        except Exception:  # noqa: BLE001
            return False

    with open_session(name, count, _Guarded(_solve_task), chunksize) as session:

        def dispatch(index: int, problem, key: Optional[Tuple]) -> None:
            problem_of[index] = problem
            if key is not None:
                key_of[index] = key
            session.submit(index, (problem, solver, cache_dir))

        def admit(index: int, problem) -> None:
            nonlocal parked_count
            if not dedupe:
                dispatch(index, problem, None)
                return
            key = _dedupe_key(problem, solver)
            hit = finished.get(key)
            if hit is not None:
                finished.move_to_end(key)
                rep_problem, rep_result, seeded = hit
                if problem == rep_problem:
                    deliver(index, problem, copy.deepcopy(rep_result))
                    return
                if seeded and cache_ready(problem):
                    deliver(index, problem, _parent_solve(problem, solver, on_error))
                    return
                dispatch(index, problem, key)
                return
            rep = reps.get(key)
            if rep is not None:
                parked.setdefault(rep, []).append((index, problem))
                parked_count += 1
                return
            reps[key] = index
            dispatch(index, problem, key)

        def complete(index: int, raw: Tuple) -> None:
            nonlocal parked_count
            result = resolve_outcome(index, raw)
            problem = problem_of.pop(index)
            deliver(index, problem, result)
            key = key_of.pop(index, None)
            if key is None:
                return
            if reps.get(key) != index:
                return  # a re-dispatched former duplicate, not a representative
            del reps[key]
            duplicates = parked.pop(index, [])
            if getattr(result, "status", None) == "error":
                # A failed representative must not speak for its duplicates:
                # the failure may be transient (disk hiccup, killed worker),
                # so it is neither remembered in the dedupe LRU nor fanned
                # out.  The first parked duplicate is promoted to
                # representative and re-dispatched; the rest stay parked
                # behind it.
                if duplicates:
                    new_rep_index, new_rep_problem = duplicates[0]
                    parked_count -= 1
                    reps[key] = new_rep_index
                    dispatch(new_rep_index, new_rep_problem, key)
                    if len(duplicates) > 1:
                        parked[new_rep_index] = duplicates[1:]
                return
            seeded = seed_from(problem, result)
            finished[key] = (problem, result, seeded)
            while len(finished) > DEDUPE_WINDOW:
                finished.popitem(last=False)
            for dup_index, dup_problem in duplicates:
                parked_count -= 1
                if dup_problem == problem:
                    deliver(dup_index, dup_problem, copy.deepcopy(result))
                elif seeded and cache_ready(dup_problem):
                    deliver(
                        dup_index,
                        dup_problem,
                        _parent_solve(dup_problem, solver, on_error),
                    )
                else:
                    dispatch(dup_index, dup_problem, key)

        iterator = iter(enumerate(problems))
        exhausted = False
        while True:
            while not exhausted and occupancy(session) < limit:
                try:
                    index, problem = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                admit(index, problem)
            if ordered:
                while next_emit in pending:
                    result = pending.pop(next_emit)
                    yield (next_emit, result) if with_index else result
                    next_emit += 1
            else:
                while ready:
                    index, result = ready.popleft()
                    yield (index, result) if with_index else result
            if session.in_flight == 0:
                # Nothing in flight: every admitted task has been delivered
                # and the emit pass above drained it, so either the input is
                # done or the next loop iteration can admit more.
                if exhausted:
                    break
                continue
            tag, raw = session.pop()
            complete(tag, raw)
