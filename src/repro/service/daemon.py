"""The scheduler thread: drain the persistent queue through the runtime.

One plain thread with one job: claim a queued job from the
:class:`~repro.service.queue.JobQueue` (atomically marking it
``running``) each time :func:`repro.runtime.run_tasks` has a free task
slot, solve it as one task on the execution backend resolved at
construction, and write its :class:`~repro.api.result.SolveResult`
envelope back the moment the task finishes (the store's commit wakes any
result request held on that job).  On the serial backend that is one job
at a time, so only the job being solved is ``running``; on the process
backend, up to ``max(4, 2 × workers)`` jobs, refilled as each finishes.

Everything the runtime layer already does for batch work carries over
for free: the backend (serial, or the warm process pool), the two-tier
solve cache (a repeat of a solved job is a cache hit), and per-task
error capture (a crashing solve becomes one ``status="error"`` envelope
stored on that job, not a dead daemon).

Crash safety comes from the store, not the thread: claimed jobs are
``running`` rows in SQLite, so a killed process leaves a trail that
:meth:`~repro.service.queue.JobQueue.recover` re-enqueues on the next
start; since a job is claimed only when it can start, a job that kills
the server spends only its own attempts.  Graceful drain is the inverse:
:meth:`SchedulerDaemon.request_stop` ends the claims and lets the jobs
in flight write back before the thread exits — nothing is left
``running`` after a clean stop.

A round is one busy period: it ends when a claim finds the queue empty.
The thread then sleeps on a :class:`threading.Event` for at most
:data:`IDLE_POLL_S`; the HTTP layer calls :meth:`SchedulerDaemon.kick`
after each accepted submission to set it, so idle-service latency is not
bounded by the poll.  The event is cleared *before* each claim, so a
submit that commits after the claim's read still finds it set: no kick
is lost, and each wake costs one claim.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Any, Dict, Iterator, Optional, Tuple

from ..api.serialization import from_json, to_json
from ..runtime import TaskOutcome, resolve_backend, run_tasks
from ..runtime.stream import _error_result, _solve_task
from .queue import JobQueue, JobRecord
from .stats import TaskMetrics

__all__ = ["SchedulerDaemon"]

#: Seconds an idle scheduler sleeps before it claims again; an accepted
#: submit wakes it sooner with :meth:`SchedulerDaemon.kick`.
IDLE_POLL_S = 0.05


class SchedulerDaemon:
    """Drains a :class:`JobQueue` through the runtime's task pipeline.

    Parameters
    ----------
    store:
        The persistent job queue to drain.
    backend / workers:
        Execution backend selection, resolved once here (an unknown name
        raises ``ValueError`` before the thread starts) and used for every
        job; the backend's task window bounds the jobs in flight.

    The daemon owns :attr:`metrics`, a :class:`TaskMetrics` that observes
    every result it writes back (``GET /v1/stats`` reads it).
    """

    def __init__(
        self,
        store: JobQueue,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.backend, self.workers = resolve_backend(backend, workers)
        self.store = store
        self.metrics = TaskMetrics()
        self.state = "idle"  # idle -> running -> draining -> stopped
        #: ``"Type: message"`` of the exception that ended the thread, if any.
        self.error: Optional[str] = None
        self.rounds = 0
        self.completed = 0
        self._stop_requested = threading.Event()
        self._started = threading.Event()
        self._wake = threading.Event()

    # -- cross-thread controls ----------------------------------------------
    def kick(self) -> None:
        """Wake the thread now (called by the HTTP layer after a submit)."""
        self._wake.set()

    def wait_started(self, timeout: float) -> bool:
        """Block until :meth:`run` runs; ``False`` after ``timeout`` s."""
        return self._started.wait(timeout)

    def request_stop(self) -> None:
        """Begin a graceful drain: claim nothing more, finish in-flight jobs."""
        if self.state == "running":
            self.state = "draining"
        self._stop_requested.set()
        self.kick()

    @property
    def failed(self) -> bool:
        """The thread has stopped although no stop was requested: it died."""
        return self.state == "stopped" and not self._stop_requested.is_set()

    # -- the scheduler thread ------------------------------------------------
    def run(self) -> None:
        """Claim, solve and write back until :meth:`request_stop`.

        The scheduler thread's target; safe to call once per instance.
        """
        self.state = "running"
        self._started.set()
        try:
            while True:
                claimed: Dict[int, Tuple[JobRecord, Any]] = {}
                tasks = self._claim_tasks(claimed)
                # Claim the first job here, so an empty poll opens no session.
                first = next(tasks, None)
                if first is not None:
                    self.rounds += 1
                    # A stop request ends the claims; the jobs in flight
                    # still write back before the thread exits.
                    for index, outcome in run_tasks(
                        _solve_task,
                        chain([first], tasks),
                        backend=self.backend,
                        workers=self.workers,
                    ):
                        self._write_back(*claimed.pop(index), outcome)
                if self._stop_requested.is_set():
                    break
                # The last claim found the queue empty after clearing the
                # event, so a submit since then has set it and this wait
                # returns at once.
                self._wake.wait(IDLE_POLL_S)
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # SQLite connections are per thread: close this one now, or it
            # stays open until the GC runs.
            self.store.close()
            # The daemon owns the process tree it spawned: jobs run through
            # the shared warm pool, so a stopping daemon must reap those
            # workers or every drain leaks them.
            from ..runtime.pool import shutdown_worker_pool

            shutdown_worker_pool()
            self.state = "stopped"

    def _claim_tasks(
        self, claimed: Dict[int, Tuple[JobRecord, Any]]
    ) -> Iterator[Tuple[Any, str]]:
        """Claim one job per pull and yield its ``(problem, solver)`` task.

        Task ``i`` is recorded as ``claimed[i]``.  Ends at a stop request
        or when a claim finds the queue empty; a job whose payload does
        not decode is written back as an error job here.
        """
        index = 0
        while True:
            # Clear before the stop check and the claim: a stop request or
            # a submit that lands after either finds the event set.
            self._wake.clear()
            if self._stop_requested.is_set():
                return
            records = self.store.claim(1)
            if not records:
                return
            record = records[0]
            try:
                problem = from_json(record.problem)
            except Exception as exc:  # noqa: BLE001 — bad payloads become error jobs
                self.store.complete(
                    record.id,
                    result_json=None,
                    error=f"{type(exc).__name__}: {exc}",
                    failed=True,
                )
                continue
            claimed[index] = (record, problem)
            index += 1
            yield problem, record.solver

    def _write_back(
        self, record: JobRecord, problem: Any, outcome: TaskOutcome
    ) -> None:
        result = outcome.value if outcome.ok else _error_result(problem, outcome)
        self.metrics.observe(problem, result)
        failed = result.status == "error"
        error = None
        if failed:
            error_type = result.extra.get("error_type", "Exception")
            error = f"{error_type}: {result.extra.get('error', '')}"
        state = self.store.complete(
            record.id,
            result_json=to_json(result),
            error=error,
            failed=failed,
        )
        if state is not None:
            self.completed += 1

    def stats(self) -> Dict[str, object]:
        """Loop-level counters for the stats surface."""
        return {
            "state": self.state,
            "rounds": self.rounds,
            "completed": self.completed,
        }
