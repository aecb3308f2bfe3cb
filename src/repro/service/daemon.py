"""The scheduler loop: drain the persistent queue through the runtime.

An asyncio loop with one job: repeatedly *claim* a window of queued jobs
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

Crash safety comes from the store, not the loop: claimed jobs are
``running`` rows in SQLite, so a killed process leaves a trail that
:meth:`~repro.service.queue.JobQueue.recover` re-enqueues on the next
start.  Graceful drain is the inverse: :meth:`SchedulerDaemon.request_stop`
lets the in-flight window finish and write back before the loop exits —
nothing is left ``running`` after a clean stop.

The loop sleeps ``poll_interval`` between empty polls; the HTTP layer
calls :meth:`SchedulerDaemon.kick` after each accepted submission to wake
it immediately, so idle-service latency is not bounded by the poll.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..api.serialization import from_json, to_json
from ..runtime import (
    add_task_observer,
    remove_task_observer,
    resolve_backend,
    solve_stream,
)
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
        raises ``ValueError`` before the loop starts) and used for every
        claimed window.
    window:
        Maximum jobs claimed (and therefore in flight) per scheduling
        round — the concurrency window.
    poll_interval:
        Seconds to sleep between polls of an empty queue.
    metrics:
        Optional :class:`TaskMetrics` registered as a runtime task
        observer for the daemon's lifetime.
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
        #: ``"Type: message"`` of the exception that ended the loop, if any.
        self.error: Optional[str] = None
        self.rounds = 0
        self.completed = 0
        self._stop_requested = threading.Event()
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None

    # -- cross-thread controls ----------------------------------------------
    def kick(self) -> None:
        """Wake the loop now (called by the HTTP layer after a submit)."""
        loop, wake = self._loop, self._wake
        if loop is not None and wake is not None:
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:
                pass  # loop already closed — nothing left to wake

    def wait_started(self, timeout: float) -> bool:
        """Block until :meth:`run` is looping and :meth:`kick` reaches it.

        Returns ``False`` if that has not happened within ``timeout`` s.
        """
        return self._started.wait(timeout)

    def request_stop(self) -> None:
        """Begin a graceful drain: finish the in-flight window, then stop."""
        if self.state == "running":
            self.state = "draining"
        self._stop_requested.set()
        self.kick()

    @property
    def failed(self) -> bool:
        """The loop has stopped although no stop was requested: it died."""
        return self.state == "stopped" and not self._stop_requested.is_set()

    # -- the loop ------------------------------------------------------------
    async def run(self) -> None:
        """Run until :meth:`request_stop`; safe to call once per instance."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        # One executor thread: windows run one at a time, and the store
        # connection it opens is closed on that thread when the loop stops.
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-batch"
        )
        if self.metrics is not None:
            add_task_observer(self.metrics.observe)
        self.state = "running"
        self._started.set()
        try:
            while not self._stop_requested.is_set():
                batch = self.store.claim(self.window)
                if not batch:
                    self._wake.clear()
                    # Re-check after clearing: a kick between claim() and
                    # clear() must not be lost.
                    if self._stop_requested.is_set():
                        break
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(), timeout=self.poll_interval
                        )
                    except asyncio.TimeoutError:
                        pass
                    continue
                self.rounds += 1
                # The blocking pipeline runs on an executor thread; awaiting
                # it here is what makes a stop request drain gracefully —
                # the in-flight window always writes back before the loop
                # exits.
                await self._loop.run_in_executor(executor, self._execute_batch, batch)
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # SQLite connections are per thread: close the executor's and
            # this loop thread's, or they stay open until the GC runs.
            executor.submit(self.store.close).result()
            executor.shutdown()
            self.store.close()
            if self.metrics is not None:
                remove_task_observer(self.metrics.observe)
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
                self._write_back(pairs[index][0], result)

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
