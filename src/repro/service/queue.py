"""The persistent job store of the scheduling service (SQLite, WAL mode).

One row per job, one file per deployment.  The store is the service's
source of truth: the daemon claims work out of it, the HTTP layer reads
status from it, and because every state transition is a committed SQLite
transaction, a killed daemon loses nothing — :meth:`JobQueue.recover`
re-enqueues whatever was mid-flight (or retires it as poison after
:data:`MAX_ATTEMPTS` claims) and the replacement process continues where
the dead one stopped.

Job lifecycle::

    queued ──claim──▶ running ──complete──▶ done | error
       │                 │
       │ cancel          │ cancel (flag) ──complete──▶ cancelled
       ▼                 ▼
    cancelled         cancel_requested=1

Transitions are atomic (``BEGIN IMMEDIATE`` transactions) and one-way:
``done`` / ``error`` / ``cancelled`` are terminal.  Cancelling a *queued*
job takes effect immediately; cancelling a *running* job sets a flag — the
in-flight DP is not interruptible — and the job lands in ``cancelled``
(result discarded) when the solve returns.

Concurrency: connections are per-thread (each keep-alive HTTP connection's
handler thread and the scheduler thread each get their own), WAL mode lets
readers proceed under a writer, and the claim transaction is the only
contended write path.  The store is set up once, by its constructor: WAL
mode persists in the file and the schema in the database, so a connection
opened later on another thread only sets its per-connection options.

Held waits: :meth:`JobQueue.wait` blocks a caller until one job is
terminal, without polling SQLite or holding a lock.  Each waiter parks on
its own event in an in-process registry keyed by job id; every terminal
transition (``complete``, ``request_cancel`` of a queued job, and
``claim``'s finalization of a cancel-requested queued job) sets the
events of that job only, after its commit.  The HTTP layer uses this for
``GET /v1/jobs/<id>/result?wait=``, so the daemon's write-back answers a
held request directly.

Jobs carry the serialized :class:`~repro.api.problem.Problem` JSON, the
submitting client id, a priority (higher first, FIFO within a priority),
and the full timestamp trail.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = [
    "JOB_STATES",
    "MAX_ATTEMPTS",
    "TERMINAL_STATES",
    "JobRecord",
    "JobQueue",
]

#: Every state a job can be in.
JOB_STATES = ("queued", "running", "done", "error", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "error", "cancelled"})

#: Claims a job gets.  A job still ``running`` at :meth:`JobQueue.recover`
#: after this many was interrupted on every one, most likely because it
#: kills the process that solves it: it goes to ``error`` as poison.
MAX_ATTEMPTS = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    client_id        TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    solver           TEXT NOT NULL DEFAULT 'auto',
    problem          TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'queued',
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    result           TEXT,
    error            TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state
    ON jobs (state, priority DESC);
CREATE INDEX IF NOT EXISTS jobs_by_client
    ON jobs (client_id, state);
"""


@dataclass(frozen=True)
class JobRecord:
    """One job as stored: identity, payload, state, and timestamp trail.

    ``problem`` and ``result`` hold canonical façade JSON *text* (or
    ``None`` for ``result`` until the job finishes), so a record is cheap
    to move around; ``repro.api.from_json`` decodes either.
    """

    id: str
    client_id: str
    priority: int
    solver: str
    problem: str
    state: str
    cancel_requested: bool
    attempts: int
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    result: Optional[str]
    error: Optional[str]

    def public_dict(self) -> Dict[str, object]:
        """The status view the HTTP API serves (no payload bodies)."""
        return {
            "id": self.id,
            "client_id": self.client_id,
            "priority": self.priority,
            "solver": self.solver,
            "state": self.state,
            "cancel_requested": self.cancel_requested,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }


class JobQueue:
    """SQLite-backed job store with atomic, crash-safe state transitions."""

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._local = threading.local()
        # Held waits (see wait()): job id -> the events of its waiters.
        self._waiters_lock = threading.Lock()
        self._waiters: Dict[str, List[threading.Event]] = {}
        self._waits_released = False
        self._held = 0
        self._woken = 0
        self._timed_out = 0
        # Create the file, switch it to WAL, and apply the schema, once:
        # both persist, so other threads' connections skip them.
        conn = self._conn()
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(_SCHEMA)

    # -- connection management ----------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=30.0)
            conn.row_factory = sqlite3.Row
            # Autocommit mode: transactions are explicit (BEGIN IMMEDIATE)
            # so multi-statement transitions hold the write lock they need.
            conn.isolation_level = None
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
        return conn

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def close(self) -> None:
        """Close this thread's connection (other threads' stay open)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- submission and lookup ----------------------------------------------
    def submit(
        self,
        problem_json: str,
        *,
        client_id: str = "anonymous",
        priority: int = 0,
        solver: str = "auto",
    ) -> JobRecord:
        """Append a job in state ``queued`` and return its record."""
        record = JobRecord(
            id=uuid.uuid4().hex,
            client_id=client_id,
            priority=int(priority),
            solver=solver,
            problem=problem_json,
            state="queued",
            cancel_requested=False,
            attempts=0,
            submitted_at=time.time(),
            started_at=None,
            finished_at=None,
            result=None,
            error=None,
        )
        with self._tx() as conn:
            conn.execute(
                "INSERT INTO jobs (id, client_id, priority, solver, problem,"
                " state, cancel_requested, attempts, submitted_at)"
                " VALUES (?, ?, ?, ?, ?, 'queued', 0, 0, ?)",
                (
                    record.id,
                    record.client_id,
                    record.priority,
                    record.solver,
                    record.problem,
                    record.submitted_at,
                ),
            )
        return record

    @staticmethod
    def _from_row(row: sqlite3.Row) -> JobRecord:
        return JobRecord(
            id=row["id"],
            client_id=row["client_id"],
            priority=row["priority"],
            solver=row["solver"],
            problem=row["problem"],
            state=row["state"],
            cancel_requested=bool(row["cancel_requested"]),
            attempts=row["attempts"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            result=row["result"],
            error=row["error"],
        )

    def get(self, job_id: str) -> Optional[JobRecord]:
        """Look a job up by id, or ``None``."""
        row = self._conn().execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return None if row is None else self._from_row(row)

    # -- scheduler-side transitions ------------------------------------------
    def claim(self, limit: int) -> List[JobRecord]:
        """Atomically move up to ``limit`` queued jobs to ``running``.

        Selection order is priority (higher first), then submission order.
        Queued jobs whose cancellation was requested are finalized to
        ``cancelled`` here instead of being dispatched — their slot is not
        refilled this round, which only costs one poll interval.
        """
        claimed: List[JobRecord] = []
        cancelled: List[str] = []
        now = time.time()
        with self._tx() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued'"
                " ORDER BY priority DESC, rowid ASC LIMIT ?",
                (int(limit),),
            ).fetchall()
            # time.time() is not monotonic, and sub-millisecond jobs make a
            # backwards step observable; clamping keeps the per-job
            # submitted <= started <= finished invariant unconditional.
            for row in rows:
                record = self._from_row(row)
                if record.cancel_requested:
                    conn.execute(
                        "UPDATE jobs SET state = 'cancelled',"
                        " finished_at = MAX(?, submitted_at) WHERE id = ?",
                        (now, record.id),
                    )
                    cancelled.append(record.id)
                    continue
                started = max(now, record.submitted_at)
                conn.execute(
                    "UPDATE jobs SET state = 'running', started_at = ?,"
                    " attempts = attempts + 1 WHERE id = ?",
                    (started, record.id),
                )
                claimed.append(
                    replace(
                        record,
                        state="running",
                        started_at=started,
                        attempts=record.attempts + 1,
                    )
                )
        self._wake(cancelled)
        return claimed

    def complete(
        self,
        job_id: str,
        *,
        result_json: Optional[str],
        error: Optional[str] = None,
        failed: bool = False,
    ) -> Optional[str]:
        """Finish a running job; returns the final state it landed in.

        ``failed=True`` records ``state="error"`` (with ``result_json``
        carrying the captured error envelope).  A pending cancellation wins
        over the computed result: the job lands in ``cancelled`` and the
        result is discarded.  Completing a job that is not running is a
        no-op returning its current state (``None`` for unknown ids) —
        this makes write-back safe against races with recovery.
        """
        now = time.time()
        with self._tx() as conn:
            row = conn.execute(
                "SELECT state, cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            if row["state"] != "running":
                return row["state"]
            if row["cancel_requested"]:
                state = "cancelled"
                result_json = error = None
            else:
                state = "error" if failed else "done"
            conn.execute(
                "UPDATE jobs SET state = ?,"
                " finished_at = MAX(?, COALESCE(started_at, submitted_at)),"
                " result = ?, error = ? WHERE id = ?",
                (state, now, result_json, error, job_id),
            )
        self._wake((job_id,))
        return state

    def recover(self) -> int:
        """Re-enqueue interrupted jobs (daemon startup after a crash).

        A ``running`` job with fewer than :data:`MAX_ATTEMPTS` attempts is
        queued again, its attempts kept; one at the cap goes to ``error``
        with an error starting ``poison:``, and its held waits are woken.
        Returns the number re-enqueued.
        """
        now = time.time()
        with self._tx() as conn:
            poisoned = [
                row["id"]
                for row in conn.execute(
                    "SELECT id FROM jobs WHERE state = 'running' AND attempts >= ?",
                    (MAX_ATTEMPTS,),
                )
            ]
            conn.execute(
                "UPDATE jobs SET state = 'error',"
                " finished_at = MAX(?, COALESCE(started_at, submitted_at)),"
                " error = 'poison: interrupted on each of its ' || attempts"
                " || ' attempts' WHERE state = 'running' AND attempts >= ?",
                (now, MAX_ATTEMPTS),
            )
            requeued = conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL"
                " WHERE state = 'running'"
            ).rowcount
        self._wake(poisoned)
        return requeued

    # -- client-side transitions ---------------------------------------------
    def request_cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns the transition outcome.

        ``"cancelled"`` — the job was queued and is now terminally
        cancelled; ``"cancelling"`` — the job is running, the flag is set,
        and it will land in ``cancelled`` when the solve returns; a
        terminal state name — the job already finished (the caller maps
        this to 409); ``None`` — unknown id.
        """
        now = time.time()
        with self._tx() as conn:
            row = conn.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            state = row["state"]
            if state == "running":
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
                )
                return "cancelling"
            if state != "queued":
                return state
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', cancel_requested = 1,"
                " finished_at = MAX(?, submitted_at) WHERE id = ?",
                (now, job_id),
            )
        self._wake((job_id,))
        return "cancelled"

    # -- held waits -------------------------------------------------------------
    def wait(self, job_id: str, timeout: float) -> Optional[JobRecord]:
        """The job's record once it is terminal, or once ``timeout`` passes.

        ``None`` for an unknown id.  The waiter is registered before the
        row is read, so a transition committed after that read still wakes
        it; while it waits it holds no lock and runs no query.  After
        :meth:`release_waiters` it returns the record as it stands, at once.
        """
        event = threading.Event()
        with self._waiters_lock:
            released = self._waits_released
            if not released:
                self._waiters.setdefault(job_id, []).append(event)
        if released:
            return self.get(job_id)
        held = woken = False
        try:
            record = self.get(job_id)
            if record is None or record.state in TERMINAL_STATES:
                return record
            with self._waiters_lock:
                self._held += 1
            held = True
            woken = event.wait(timeout)
            return self.get(job_id)
        finally:
            with self._waiters_lock:
                events = self._waiters[job_id]
                events.remove(event)
                if not events:
                    del self._waiters[job_id]
                if held:
                    self._held -= 1
                    if woken:
                        self._woken += 1
                    else:
                        self._timed_out += 1

    def _wake(self, job_ids: Iterable[str]) -> None:
        """Set the events of these jobs' waiters (after their commit)."""
        with self._waiters_lock:
            for job_id in job_ids:
                for event in self._waiters.get(job_id, ()):
                    event.set()

    def release_waiters(self) -> None:
        """Wake every held wait, and make later waits return at once."""
        with self._waiters_lock:
            self._waits_released = True
            for events in self._waiters.values():
                for event in events:
                    event.set()

    def wait_stats(self) -> Dict[str, int]:
        """Waits held now, and how many ended woken or timed out."""
        with self._waiters_lock:
            return {
                "held": self._held,
                "woken": self._woken,
                "timed_out": self._timed_out,
            }

    # -- operational views ----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Per-state job counts (every state present, zeros included)."""
        totals = {state: 0 for state in JOB_STATES}
        for row in self._conn().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            totals[row["state"]] = row["n"]
        return totals

    def pending_count(self) -> int:
        """Jobs still owed an answer (queued + running)."""
        row = self._conn().execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN ('queued', 'running')"
        ).fetchone()
        return row["n"]

    def client_load(self, client_id: str) -> int:
        """This client's queued + running jobs (the admission quota input)."""
        row = self._conn().execute(
            "SELECT COUNT(*) AS n FROM jobs"
            " WHERE client_id = ? AND state IN ('queued', 'running')",
            (client_id,),
        ).fetchone()
        return row["n"]

    def oldest_queued_age(self, now: Optional[float] = None) -> Optional[float]:
        """Age in seconds of the longest-waiting queued job, or ``None``."""
        row = self._conn().execute(
            "SELECT MIN(submitted_at) AS t FROM jobs WHERE state = 'queued'"
        ).fetchone()
        if row["t"] is None:
            return None
        return (time.time() if now is None else now) - row["t"]
