"""The streaming batch pipeline: chunked, bounded-memory task execution.

Two entry points, built on the same windowed admit/drain/pop pattern
(:func:`solve_stream` adds dedupe inside its loop):

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
  time-shift/job-permutation isomorphs share a key); its canonical form
  is computed once and kept for the remap.  While a representative is in
  flight its duplicates are parked, not dispatched — two workers never
  burn the same DP concurrently.  When the representative lands: exact
  duplicates receive independent deep copies of its result; isomorphic
  duplicates get its exact-DP answer moved onto their own instances
  (:func:`repro.api.solvers.replay_isomorph`), with no DP and no cache
  lookup.  A duplicate whose representative's answer cannot move (a
  heuristic result, or a decomposed schedule off the candidate grid) is
  dispatched like any other task.
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
    """Worker-side task: solve one ``(problem, solver)`` payload.

    Module-level so every backend can transport it.  A pool worker gets
    the caller's settings from the pool's config snapshot, not from here.
    """
    problem, solver = payload
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


def _dedupe_key(problem, solver: str) -> Tuple[Tuple, Any]:
    """Stream-dedupe key plus the canonical form it came from (or ``None``).

    Canonically identical problems (equal, time-shifted, or job-permuted
    instances with the same objective parameters) collapse to one key;
    everything else falls back to structural problem equality.
    """
    from ..core.canonical import canonical_form
    from ..core.jobs import MultiprocessorInstance, OneIntervalInstance

    if isinstance(problem.instance, (OneIntervalInstance, MultiprocessorInstance)):
        form = canonical_form(problem.instance)
        key = (
            "canonical",
            solver,
            problem.objective,
            problem.alpha,
            problem.max_gaps,
            form.digest,
        )
        return key, form
    return ("structural", solver, problem), None


def _replay(problem, form, rep_problem, rep_result, rep_form):
    """A duplicate's result from its representative's, or ``None`` to solve it."""
    if problem == rep_problem:
        return copy.deepcopy(rep_result)
    from ..api.solvers import replay_isomorph

    return replay_isomorph(problem, form, rep_result, rep_form)


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
        copies, isomorphic ones get its answer remapped onto their own
        instances.  Completed representatives are remembered in a bounded
        LRU (:data:`DEDUPE_WINDOW` entries), so duplicates also collapse
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

    pending: Dict[int, Any] = {}  # ordered-mode reorder buffer
    ready: deque = deque()  # unordered-mode emission queue
    next_emit = 0
    reps: Dict[Tuple, int] = {}  # dedupe key -> in-flight representative
    key_of: Dict[int, Tuple] = {}  # in-flight index -> (dedupe key, form)
    problem_of: Dict[int, Any] = {}  # in-flight index -> problem
    parked: Dict[int, List[Tuple[int, Any, Any]]] = {}  # rep index -> duplicates
    parked_count = 0
    # dedupe key -> (problem, result, canonical form) of a representative
    finished: "OrderedDict[Tuple, Tuple[Any, Any, Any]]" = OrderedDict()

    def deliver(index: int, result: Any) -> None:
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

    with open_session(name, count, _Guarded(_solve_task), chunksize) as session:

        def dispatch(index: int, problem, key: Optional[Tuple], form) -> None:
            problem_of[index] = problem
            if key is not None:
                key_of[index] = (key, form)
            session.submit(index, (problem, solver))

        def admit(index: int, problem) -> None:
            nonlocal parked_count
            if not dedupe:
                dispatch(index, problem, None, None)
                return
            key, form = _dedupe_key(problem, solver)
            hit = finished.get(key)
            if hit is not None:
                finished.move_to_end(key)
                result = _replay(problem, form, *hit)
                if result is None:
                    dispatch(index, problem, key, form)
                else:
                    deliver(index, result)
                return
            rep = reps.get(key)
            if rep is not None:
                parked.setdefault(rep, []).append((index, problem, form))
                parked_count += 1
                return
            reps[key] = index
            dispatch(index, problem, key, form)

        def complete(index: int, raw: Tuple) -> None:
            nonlocal parked_count
            result = resolve_outcome(index, raw)
            problem = problem_of.pop(index)
            deliver(index, result)
            if index not in key_of:
                return
            key, form = key_of.pop(index)
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
                    new_rep_index, new_rep_problem, new_rep_form = duplicates[0]
                    parked_count -= 1
                    reps[key] = new_rep_index
                    dispatch(new_rep_index, new_rep_problem, key, new_rep_form)
                    if len(duplicates) > 1:
                        parked[new_rep_index] = duplicates[1:]
                return
            finished[key] = (problem, result, form)
            while len(finished) > DEDUPE_WINDOW:
                finished.popitem(last=False)
            for dup_index, dup_problem, dup_form in duplicates:
                parked_count -= 1
                replayed = _replay(dup_problem, dup_form, problem, result, form)
                if replayed is None:
                    dispatch(dup_index, dup_problem, key, dup_form)
                else:
                    deliver(dup_index, replayed)

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
