"""The persistent worker pool: warm processes, hard kills, incumbents.

One process-wide :class:`WorkerPool` runs the ``process`` batch backend
(:func:`repro.runtime.backends.open_session`) and every budgeted
portfolio race:

* **Warm reuse.**  Workers are spawned once and survive across sessions;
  a second ``solve_stream`` call finds interpreters already imported and
  caches already warm instead of paying a cold start before its first DP
  state.  Idle workers beyond :data:`DEFAULT_IDLE_TIMEOUT` seconds are
  reaped so a burst of parallel work does not pin processes forever.
* **Hard cancellation.**  :meth:`PoolSession.kill` terminates the worker
  process running a task mid-solve (``SIGTERM``-and-respawn) — the
  primitive the portfolio racer uses to kill losing members the moment a
  winner certifies, and to enforce budget expiry on the exact DP.
* **Config-generation re-sync.**  Each dispatched task carries a
  generation-stamped snapshot of the parent's process-wide settings a
  solve reads: the disk-cache directory and the decomposition switches
  (``enabled``, ``min_jobs``).  The snapshot is the only channel by
  which settings reach a worker; task payloads carry none.  Workers
  re-apply it only when the generation moves, so long-lived workers
  never drift from a caller that reconfigured after the fork, and the
  per-task cost is one integer comparison.
* **Registry generations.**  A forked worker knows only the solvers
  registered before its fork.  Each worker is stamped with the solver
  registry's generation at spawn, and :meth:`WorkerPool.acquire` retires
  idle workers forked under an older generation, so a solver registered
  after the pool warmed up is visible to the next session.
* **Any-time incumbent channel.**  Worker-side task code can call
  :func:`publish_incumbent` to stream improving feasible solutions back
  to the parent while the task is still running.  The parent reads them
  via :meth:`PoolSession.take_incumbent`; a task hard-killed mid-solve
  still contributes its best published answer.

Workers communicate over per-worker pipes (never a shared queue): a
worker terminated mid-``send`` can corrupt only its own channel, which
the pool discards and respawns, leaving its siblings untouched.  Workers
close the inherited parent pipe end, so losing the parent process (even
to ``SIGKILL``) delivers EOF and the worker exits instead of orphaning.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from collections import deque
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_IDLE_TIMEOUT",
    "PoolSession",
    "WorkerLostError",
    "WorkerPool",
    "get_worker_pool",
    "publish_incumbent",
    "shutdown_worker_pool",
    "worker_pool_stats",
]

#: Seconds a warm worker may sit idle before the pool reaps it.
DEFAULT_IDLE_TIMEOUT = 30.0

try:
    import multiprocessing as _multiprocessing

    _START_METHODS = _multiprocessing.get_all_start_methods()
except Exception:  # pragma: no cover - multiprocessing always importable
    _START_METHODS = []

#: Minimum seconds between two published incumbents from one worker task
#: (the first publication is never throttled).  Incumbent payloads can be
#: large (a full n = 10^5 assignment), so improvement cascades must not
#: saturate the pipe the final result needs.
INCUMBENT_MIN_INTERVAL = 0.25


# ---------------------------------------------------------------------------
# worker-side: the loop and the incumbent channel
# ---------------------------------------------------------------------------
#: True in a pool worker process (set by :func:`_worker_main`).
#: :func:`repro.runtime.backends.resolve_backend` reads it to run batch
#: work a task starts serially: a worker never forks a pool of its own.
_IN_WORKER = False

#: Worker-side incumbent publisher installed around the running task
#: (``None`` outside a pool worker, making publish_incumbent a no-op).
_PUBLISHER: List[Optional[Callable[[Any], None]]] = [None]
_LAST_PUBLISH: List[float] = [0.0]


def publish_incumbent(make_payload: Callable[[], Any]) -> bool:
    """Publish an improving feasible solution from inside a pool task.

    ``make_payload`` is a zero-argument factory; it is only invoked (and
    its result only pickled) when a publisher is installed and the
    :data:`INCUMBENT_MIN_INTERVAL` throttle allows a send, so hot solver
    loops can call this unconditionally.  Outside a pool worker this is a
    cheap no-op.  Returns ``True`` when a payload was actually sent.
    """
    publisher = _PUBLISHER[-1]
    if publisher is None:
        return False
    now = time.perf_counter()
    if _LAST_PUBLISH[0] and now - _LAST_PUBLISH[0] < INCUMBENT_MIN_INTERVAL:
        return False
    _LAST_PUBLISH[0] = now
    publisher(make_payload())
    return True


def _current_config() -> Dict[str, Any]:
    """Snapshot of the parent settings workers must mirror."""
    from ..api.decomposition import decomposition_config
    from .diskcache import disk_cache_dir

    return {"cache_dir": disk_cache_dir(), "decomposition": decomposition_config()}


def _registry_generation() -> int:
    from ..api.registry import registry_generation

    return registry_generation()


def _apply_config(config: Dict[str, Any]) -> None:
    from ..api.decomposition import configure_decomposition
    from .diskcache import configure_disk_cache, disk_cache_dir

    if disk_cache_dir() != config["cache_dir"]:
        configure_disk_cache(config["cache_dir"])
    configure_decomposition(**config["decomposition"])


def _worker_main(conn, parent_conn) -> None:
    """The persistent worker loop: recv a chunk, run it, send the results.

    Messages in: ``("task", chunk_id, fn, [(tag, item), ...], config)``
    or ``("stop",)``.  Messages out: ``("inc", tag, payload)`` for
    incumbents and ``("done", chunk_id, [(tag, outcome), ...])`` per
    chunk.  Task callables follow the session contract (they never
    raise); a raise anyway is reported as a ``("crash", ...)`` message
    and the worker keeps serving.
    """
    global _IN_WORKER
    _IN_WORKER = True
    parent_conn.close()  # our inherited copy; parent death must mean EOF
    applied_generation = -1
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone
        if message[0] == "stop":
            break
        _kind, chunk_id, fn, chunk, config = message
        if config["generation"] != applied_generation:
            _apply_config(config)
            applied_generation = config["generation"]
        outcomes: List[Tuple[int, Any]] = []
        for tag, item in chunk:
            _PUBLISHER[-1] = lambda payload, _tag=tag: conn.send(
                ("inc", _tag, payload)
            )
            _LAST_PUBLISH[0] = 0.0
            try:
                outcomes.append((tag, fn(item)))
            except BaseException as exc:  # noqa: BLE001 — report, keep serving
                _PUBLISHER[-1] = None
                try:
                    conn.send(("crash", chunk_id, type(exc).__name__, str(exc)))
                except (OSError, ValueError):
                    pass
                break
            finally:
                _PUBLISHER[-1] = None
        else:
            try:
                conn.send(("done", chunk_id, outcomes))
            except (OSError, ValueError):
                break  # parent pipe gone mid-send; nothing left to serve
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# parent-side: workers, the pool, sessions
# ---------------------------------------------------------------------------
class _Worker:
    """One warm worker process plus its private message pipe."""

    _ids = itertools.count(1)

    def __init__(self, context) -> None:
        self.id = next(self._ids)
        # Read before the fork: a registration racing the spawn then makes
        # the stamp too old (an early retirement), never too new.
        self.registry_generation = _registry_generation()
        self.conn, child_conn = context.Pipe(duplex=True)
        # Non-daemonic, so a task may still start processes of its own
        # (daemonic processes cannot have children); batch work it starts
        # runs serially (_IN_WORKER).  Orphan safety comes from the pipe
        # EOF, not from the daemon flag.
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, self.conn),
            name=f"repro-pool-{self.id}",
            daemon=False,
        )
        self.process.start()
        child_conn.close()
        self.idle_since = time.perf_counter()

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, graceful: bool = True) -> None:
        """Ask the worker to exit (or terminate it) and reap the process."""
        if graceful and self.alive():
            try:
                self.conn.send(("stop",))
            except (OSError, ValueError):
                graceful = False
        if not graceful and self.alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        # Release the Process bookkeeping eagerly (active_children() joins
        # finished processes lazily; close() makes the reap deterministic).
        close = getattr(self.process, "close", None)
        if close is not None:
            try:
                close()
            except ValueError:  # pragma: no cover - still alive somehow
                pass


class WorkerPool:
    """A process-wide pool of warm, preemptible worker processes.

    Sessions :meth:`acquire` workers for exclusive use and release them
    on close; the pool grows on demand, keeps released workers warm, and
    reaps the ones idle past ``idle_timeout`` seconds.  Thread-safe: the
    service's scheduler thread and the main thread may run sessions
    concurrently.
    """

    def __init__(self, idle_timeout: float = DEFAULT_IDLE_TIMEOUT) -> None:
        self.idle_timeout = float(idle_timeout)
        self._context = get_context("fork" if "fork" in _START_METHODS else None)
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._acquired = 0
        self._generation = 0
        self._last_config: Optional[Dict[str, Any]] = None
        self._spawned = 0
        self._killed = 0
        self._reaped = 0

    # -- configuration generations -----------------------------------------
    def config(self) -> Dict[str, Any]:
        """The generation-stamped config snapshot dispatched with tasks."""
        snapshot = _current_config()
        with self._lock:
            if snapshot != self._last_config:
                self._generation += 1
                self._last_config = snapshot
            return {"generation": self._generation, **snapshot}

    # -- worker lifecycle ---------------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(self._context)
        with self._lock:
            self._spawned += 1
        return worker

    def acquire(self, count: int) -> List[_Worker]:
        """Reserve ``count`` workers (warm ones first, spawning the rest).

        Idle workers forked before the latest solver registration are
        retired here instead of reused.
        """
        if count < 1:
            raise ValueError(f"must acquire at least one worker, got {count}")
        generation = _registry_generation()
        workers: List[_Worker] = []
        with self._lock:
            stale = [
                w for w in self._idle if w.registry_generation != generation
            ]
            self._idle = [
                w for w in self._idle if w.registry_generation == generation
            ]
            self._reaped += len(stale)
            while self._idle and len(workers) < count:
                worker = self._idle.pop()
                if worker.alive():
                    workers.append(worker)
                else:  # died while idle; replace it outside the lock
                    self._reaped += 1
            self._acquired += count
        for worker in stale:
            worker.stop()
        while len(workers) < count:
            workers.append(self._spawn())
        return workers

    def release(self, workers: List[_Worker]) -> None:
        """Return workers to the warm set and reap the long-idle ones."""
        now = time.perf_counter()
        with self._lock:
            self._acquired -= len(workers)
            for worker in workers:
                if worker.alive():
                    worker.idle_since = now
                    self._idle.append(worker)
                else:
                    self._reaped += 1
            stale = [
                w for w in self._idle if now - w.idle_since > self.idle_timeout
            ]
            self._idle = [
                w for w in self._idle if now - w.idle_since <= self.idle_timeout
            ]
            self._reaped += len(stale)
        for worker in stale:
            worker.stop()

    def replace(self, worker: _Worker) -> _Worker:
        """Hard-kill ``worker`` and hand back a fresh one (the kill primitive)."""
        worker.stop(graceful=False)
        with self._lock:
            self._killed += 1
        return self._spawn()

    def shutdown(self) -> None:
        """Stop every idle worker (acquired ones stop when released)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "idle": len(self._idle),
                "acquired": self._acquired,
                "spawned": self._spawned,
                "killed": self._killed,
                "reaped": self._reaped,
            }

    def session(
        self, fn: Callable, workers: int, chunksize: int = 1
    ) -> "PoolSession":
        return PoolSession(self, fn, workers, chunksize)


class WorkerLostError(RuntimeError):
    """A pool worker died without delivering its task's outcome.

    Raised from :meth:`PoolSession.pop` for *unexpected* deaths (a
    crashed or externally-killed worker).  Tasks killed deliberately via
    :meth:`PoolSession.kill` never raise — they simply produce no
    outcome.
    """

    def __init__(self, tags: List[int], detail: str) -> None:
        super().__init__(
            f"pool worker died while running task(s) {tags}: {detail}"
        )
        self.tags = tags


class PoolSession:
    """One task stream over exclusively-acquired pool workers.

    Implements the session surface the stream layer programs against
    (submit / pop / in_flight / close) plus the preemption
    extras: :meth:`pop` accepts a ``timeout``, :meth:`kill` terminates
    the worker running a tag, and :meth:`take_incumbent` drains the
    latest any-time payload a task published.
    """

    def __init__(
        self, pool: WorkerPool, fn: Callable, workers: int, chunksize: int
    ) -> None:
        self._pool = pool
        self._fn = fn
        self._chunksize = max(1, int(chunksize))
        self._workers = pool.acquire(max(1, int(workers)))
        self._idle: List[_Worker] = list(self._workers)
        self._running: Dict[_Worker, Tuple[int, List[int]]] = {}
        self._pending: deque = deque()  # (chunk_id, [(tag, item), ...])
        self._buffer: List[Tuple[int, Any]] = []
        self._ready: deque = deque()  # completed (tag, outcome)
        self._incumbents: Dict[int, Any] = {}
        self._chunk_ids = itertools.count()
        self._in_flight = 0
        self._killed_tags: set = set()
        self._closed = False

    # -- the session surface --------------------------------------------------
    def submit(self, tag: int, item: object) -> None:
        self._buffer.append((tag, item))
        self._in_flight += 1
        if len(self._buffer) >= self._chunksize:
            self.flush()

    def flush(self) -> None:
        """Queue any partially-filled chunk for dispatch."""
        if self._buffer:
            chunk, self._buffer = self._buffer, []
            self._pending.append((next(self._chunk_ids), chunk))
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle and self._pending:
            worker = self._idle.pop()
            if not worker.alive():
                # Died while idle (exceedingly rare); replace silently.
                self._replace_worker(worker)
                continue
            chunk_id, chunk = self._pending.popleft()
            try:
                worker.conn.send(
                    ("task", chunk_id, self._fn, chunk, self._pool.config())
                )
            except (OSError, ValueError):
                self._pending.appendleft((chunk_id, chunk))
                self._replace_worker(worker)
                continue
            self._running[worker] = (chunk_id, [tag for tag, _item in chunk])

    def _replace_worker(self, worker: _Worker) -> None:
        fresh = self._pool.replace(worker)
        self._workers[self._workers.index(worker)] = fresh
        self._idle.append(fresh)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def pop(self, timeout: Optional[float] = None) -> Optional[Tuple[int, object]]:
        """Return one completed ``(tag, outcome)``; ``None`` on timeout.

        Blocks forever when ``timeout`` is ``None`` (the plain session
        contract).  Killed tags never surface here.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            if self._ready:
                self._in_flight -= 1
                return self._ready.popleft()
            self.flush()
            if not self._running:
                if self._pending:  # no live worker could take it
                    self._dispatch()
                    continue
                raise LookupError("no task in flight")
            wait_for = None
            if deadline is not None:
                wait_for = max(0.0, deadline - time.perf_counter())
            ready_conns = _mp_connection.wait(
                [worker.conn for worker in self._running], timeout=wait_for
            )
            if not ready_conns:
                return None  # timeout
            for conn in ready_conns:
                worker = next(
                    w for w in self._running if w.conn is conn
                )
                self._drain_worker(worker)

    def _drain_worker(self, worker: _Worker) -> None:
        chunk_id, tags = self._running[worker]
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            del self._running[worker]
            self._replace_worker(worker)
            live = [t for t in tags if t not in self._killed_tags]
            self._in_flight -= len(live)
            raise WorkerLostError(live, "connection lost") from None
        kind = message[0]
        if kind == "inc":
            _kind, tag, payload = message
            if tag not in self._killed_tags:
                self._incumbents[tag] = payload
            return
        if kind == "crash":
            _kind, _chunk_id, error_type, error = message
            del self._running[worker]
            self._idle.append(worker)
            live = [t for t in tags if t not in self._killed_tags]
            self._in_flight -= len(live)
            raise WorkerLostError(live, f"task raised {error_type}: {error}")
        # "done"
        _kind, _chunk_id, outcomes = message
        del self._running[worker]
        self._idle.append(worker)
        self._dispatch()
        for tag, outcome in outcomes:
            # Killed tags were accounted at kill time and never surface.
            if tag not in self._killed_tags:
                self._ready.append((tag, outcome))

    # -- preemption extras --------------------------------------------------
    def kill(self, tag: int, drop_pending: bool = True) -> bool:
        """Hard-kill the task ``tag``; returns True when something stopped.

        A running tag terminates its worker mid-solve (the whole chunk it
        rode in dies with it — racing callers use ``chunksize=1``); a
        still-pending tag is simply dropped from the queue when
        ``drop_pending``.  Killed tags never come back from :meth:`pop`;
        any incumbent they published remains readable.
        """
        self.flush()
        if tag in self._killed_tags:
            return False
        for worker, (chunk_id, tags) in list(self._running.items()):
            if tag in tags:
                # Drain anything already in the pipe before pulling the
                # trigger: a final incumbent must not die with the worker,
                # and a member that finished microseconds ago is a
                # completion, not a kill.
                try:
                    while worker.conn.poll():
                        message = worker.conn.recv()
                        if message[0] == "inc":
                            _kind, inc_tag, payload = message
                            if inc_tag not in self._killed_tags:
                                self._incumbents[inc_tag] = payload
                        elif message[0] == "done":
                            del self._running[worker]
                            self._idle.append(worker)
                            self._dispatch()
                            for done_tag, outcome in message[2]:
                                if done_tag not in self._killed_tags:
                                    self._ready.append((done_tag, outcome))
                            return False  # finished before the kill landed
                        else:  # "crash": the task died on its own
                            break
                except (EOFError, OSError):
                    pass
                del self._running[worker]
                fresh = self._pool.replace(worker)
                self._workers[self._workers.index(worker)] = fresh
                self._idle.append(fresh)
                live = [t for t in tags if t not in self._killed_tags]
                self._killed_tags.update(live)
                self._in_flight -= len(live)
                self._dispatch()
                return True
        if drop_pending:
            for index, (chunk_id, chunk) in enumerate(self._pending):
                chunk_tags = [t for t, _item in chunk]
                if tag in chunk_tags:
                    remaining = [
                        (t, item) for t, item in chunk if t != tag
                    ]
                    if remaining:
                        self._pending[index] = (chunk_id, remaining)
                    else:
                        del self._pending[index]
                    self._killed_tags.add(tag)
                    self._in_flight -= 1
                    return True
        return False

    def take_incumbent(self, tag: int) -> Optional[Any]:
        """Pop and return the latest incumbent ``tag`` published, if any."""
        return self._incumbents.pop(tag, None)

    def close(self) -> None:
        """Kill whatever is still running and return the workers warm."""
        if self._closed:
            return
        self._closed = True
        for worker, (_chunk_id, tags) in list(self._running.items()):
            del self._running[worker]
            fresh = self._pool.replace(worker)
            self._workers[self._workers.index(worker)] = fresh
            self._killed_tags.update(tags)
        self._pending.clear()
        self._buffer.clear()
        self._pool.release(self._workers)
        self._workers = []
        self._idle = []

    def __enter__(self) -> "PoolSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the process-wide handle
# ---------------------------------------------------------------------------
_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()
_POOL_PID: Optional[int] = None


def get_worker_pool() -> WorkerPool:
    """The process-wide :class:`WorkerPool`, created on first use.

    Fork-aware: a child process that inherited the parent's handle gets
    its own fresh pool (the inherited worker pipes belong to the parent).
    """
    global _POOL, _POOL_PID
    with _POOL_LOCK:
        if _POOL is None or _POOL_PID != os.getpid():
            _POOL = WorkerPool()
            _POOL_PID = os.getpid()
        return _POOL


def shutdown_worker_pool() -> None:
    """Stop every warm worker of the process-wide pool (if one exists).

    Sessions still holding workers keep them until they close; callers
    that need a provably clean process tree (tests, the service daemon's
    final drain) call this after their last session exits.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None and _POOL_PID == os.getpid():
        pool.shutdown()


def worker_pool_stats() -> Dict[str, int]:
    """Counters of the process-wide pool (zeros when none was created)."""
    with _POOL_LOCK:
        pool = _POOL
    if pool is None or _POOL_PID != os.getpid():
        return {"idle": 0, "acquired": 0, "spawned": 0, "killed": 0, "reaped": 0}
    return pool.stats()


atexit.register(shutdown_worker_pool)
