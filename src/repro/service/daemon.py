"""The scheduler thread: drain the persistent queue through the runtime.

One plain thread with one job: repeatedly *claim* a window of queued jobs
from the :class:`~repro.service.queue.JobQueue` (atomically marking them
``running``), push the window through :func:`repro.runtime.solve_stream`
on the execution backend resolved at construction, and write each
:class:`~repro.api.result.SolveResult` envelope back the moment it
completes — results stream back in completion order, so a fast job is
answered before its slower batchmates finish (the store's commit wakes
any result request held on that job).

Everything the runtime layer already does for batch solving carries over
for free: the backend (serial, or the warm process pool), in-flight
canonical dedupe (fifty isomorphic submissions burn one DP), the two-tier
solve cache, and per-task error capture (a crashing solve becomes one
``status="error"`` envelope stored on that job, not a dead daemon).

Crash safety comes from the store, not the thread: claimed jobs are
``running`` rows in SQLite, so a killed process leaves a trail that
:meth:`~repro.service.queue.JobQueue.recover` re-enqueues on the next
start.  Graceful drain is the inverse: :meth:`SchedulerDaemon.request_stop`
lets the in-flight window finish and write back before the thread exits —
nothing is left ``running`` after a clean stop.

When a claim finds the queue empty, the thread sleeps on a
:class:`threading.Event` for at most ``poll_interval``; the HTTP layer
calls :meth:`SchedulerDaemon.kick` after each accepted submission to set
it, so idle-service latency is not bounded by the poll.  The event is
cleared *before* each claim, so a submit that commits after the claim's
read still finds it set: no kick is lost, and each wake costs one claim.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..api.serialization import from_json, to_json
from ..runtime import resolve_backend, solve_stream
from .queue import JobQueue, JobRecord
from .stats import TaskMetrics

__all__ = ["SchedulerDaemon"]


class SchedulerDaemon:
    """Drains a :class:`JobQueue` through the runtime's solve pipeline.

    Parameters
    ----------
    store:
        The persistent job queue to drain.
    backend / workers:
        Execution backend selection, resolved once here (an unknown name
        raises ``ValueError`` before the thread starts) and used for every
        claimed window.
    window:
        Maximum jobs claimed (and therefore in flight) per scheduling
        round — the concurrency window.
    poll_interval:
        Seconds to sleep between polls of an empty queue.
    metrics:
        Optional :class:`TaskMetrics` that observes every result the
        daemon writes back.
    """

    def __init__(
        self,
        store: JobQueue,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        window: int = 4,
        poll_interval: float = 0.05,
        metrics: Optional[TaskMetrics] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.backend, self.workers = resolve_backend(backend, workers)
        self.store = store
        self.window = int(window)
        self.poll_interval = float(poll_interval)
        self.metrics = metrics
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
        """Begin a graceful drain: finish the in-flight window, then stop."""
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
                # Clear before the stop check and the claim: a stop request
                # or a submit that lands after either finds the event set,
                # and the wait below returns at once.
                self._wake.clear()
                if self._stop_requested.is_set():
                    break
                batch = self.store.claim(self.window)
                if not batch:
                    self._wake.wait(self.poll_interval)
                    continue
                self.rounds += 1
                # A stop request waits for this: the in-flight window
                # always writes back before the thread exits.
                self._execute_batch(batch)
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # SQLite connections are per thread: close this one now, or it
            # stays open until the GC runs.
            self.store.close()
            # The daemon owns the process tree it spawned: solve batches run
            # through the shared warm pool, so a stopping daemon must reap
            # those workers or every drain leaks them.
            from ..runtime.pool import shutdown_worker_pool

            shutdown_worker_pool()
            self.state = "stopped"

    # -- one claimed window ---------------------------------------------------
    def _execute_batch(self, batch: List[JobRecord]) -> None:
        """Solve one claimed window and write every envelope back."""
        # Jobs may name different solvers; solve_stream takes one solver per
        # call, so group while preserving claim order within each group.
        groups: "OrderedDict[str, List[Tuple[JobRecord, Any]]]" = OrderedDict()
        for record in batch:
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
            groups.setdefault(record.solver, []).append((record, problem))
        for solver, pairs in groups.items():
            problems = [problem for _record, problem in pairs]
            for index, result in solve_stream(
                problems,
                solver=solver,
                backend=self.backend,
                workers=self.workers,
                ordered=False,
                with_index=True,
                on_error="result",
            ):
                record, problem = pairs[index]
                if self.metrics is not None:
                    self.metrics.observe(problem, result)
                self._write_back(record, result)

    def _write_back(self, record: JobRecord, result: Any) -> None:
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
            "window": self.window,
            "rounds": self.rounds,
            "completed": self.completed,
        }
