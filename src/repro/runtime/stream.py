"""The streaming batch pipeline: bounded-memory task execution.

Two entry points, built on the same windowed admit/drain/pop pattern
(:func:`solve_stream` adds dedupe inside its loop):

* :func:`run_tasks` — the generic primitive: map a picklable function over
  an iterable on either backend (:mod:`repro.runtime.backends`),
  yielding :class:`TaskOutcome`\\ s in input order.  Per-task exceptions
  are captured into the outcome instead of poisoning the run; the fuzz
  driver and the experiment harness fan out through this.
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
  latency-sensitive consumers (the service daemon).
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
* **Per-task error capture.**  A failed task becomes one
  ``status="error"`` :class:`~repro.api.result.SolveResult` (exception
  type, message, and traceback in ``extra``) at that task's position;
  every other task in the batch is unaffected.  A task whose result does
  not pickle fails with its own error type (the message names the
  pickling error); a task whose pool worker died under it (``os._exit``,
  a signal) fails with ``error_type="WorkerLostError"``.

Both entry points size their in-flight window themselves
(:func:`_window`): one task at a time inline, so each result is yielded
before the next task runs, and ``max(4, 2 × workers)`` tasks plus their
buffered results on the pool.  Memory is bounded by that window and a
fixed-size LRU of completed representatives kept for dedupe; the input
iterable is consumed lazily, never materialized.
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
from .pool import TaskCrashError, WorkerLostError

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


def _window(backend: str, workers: int) -> int:
    """Tasks in flight or buffered at once on a resolved backend.

    One inline, so each result is yielded before the next task runs; on
    the pool, enough to keep every worker busy while the next task waits.
    """
    if backend == "serial":
        return 1
    return max(4, 2 * workers)


def _pop(session) -> Tuple[int, Tuple]:
    """The next ``(tag, raw outcome)``; a crash or lost worker fails one task."""
    try:
        return session.pop()
    except TaskCrashError as exc:
        return exc.tag, ("error", exc.error_type, exc.error, exc.traceback)
    except WorkerLostError as exc:
        return exc.tag, (
            "error", "WorkerLostError", str(exc), _traceback.format_exc()
        )


# ---------------------------------------------------------------------------
# the generic primitive
# ---------------------------------------------------------------------------
def run_tasks(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> Iterator[Tuple[int, TaskOutcome]]:
    """Map ``fn`` over ``items`` through a backend, streaming the outcomes.

    Yields ``(index, outcome)`` pairs in input order.  ``fn`` and the
    items must be picklable for the process backend.  At most
    :func:`_window` tasks are in flight or buffered at any moment and
    ``items`` is consumed lazily, so the pipeline runs in bounded memory
    over arbitrarily long inputs.
    """
    name, count = resolve_backend(backend, workers)
    limit = _window(name, count)
    with open_session(name, count, _Guarded(fn)) as session:
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
            while next_emit in pending:
                yield next_emit, pending.pop(next_emit)
                next_emit += 1
            if session.in_flight == 0:
                if exhausted:
                    break
                continue
            tag, raw = _pop(session)
            pending[tag] = _to_outcome(raw)


# ---------------------------------------------------------------------------
# the solve pipeline
# ---------------------------------------------------------------------------
def _solve_task(payload: Tuple) -> "Any":
    """Worker-side task: solve one ``(problem, solver)`` payload.

    Module-level so every backend can transport it.  A pool worker gets
    the caller's disk-cache directory with each task, not from here.
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
    ordered: bool = True,
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
        sizes the process backend and its in-flight window.
    ordered:
        ``True`` yields results in input order (the ``solve_batch``
        determinism guarantee); ``False`` yields in completion order.
    with_index:
        Yield ``(input index, result)`` pairs instead of bare results —
        essential for correlating an unordered stream.

    Canonically identical tasks always collapse onto one representative
    solve (see the module docstring); completed representatives are
    remembered in a bounded LRU (:data:`DEDUPE_WINDOW` entries), so
    duplicates collapse across the stream, not just while in flight.  A
    failed task always becomes a ``status="error"`` result at its
    position.
    """
    name, count = resolve_backend(backend, workers)
    limit = _window(name, count)

    pending: Dict[int, Any] = {}  # ordered-mode reorder buffer
    ready: deque = deque()  # unordered-mode emission queue
    next_emit = 0
    reps: Dict[Tuple, int] = {}  # dedupe key -> in-flight representative
    running: Dict[int, Tuple] = {}  # in-flight index -> (problem, dedupe key, form)
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

    with open_session(name, count, _Guarded(_solve_task)) as session:

        def dispatch(index: int, problem, key: Tuple, form) -> None:
            running[index] = (problem, key, form)
            session.submit(index, (problem, solver))

        def admit(index: int, problem) -> None:
            nonlocal parked_count
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
            problem, key, form = running.pop(index)
            outcome = _to_outcome(raw)
            result = outcome.value if outcome.ok else _error_result(problem, outcome)
            deliver(index, result)
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
            tag, raw = _pop(session)
            complete(tag, raw)
