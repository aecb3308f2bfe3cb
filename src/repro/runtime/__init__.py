"""``repro.runtime`` — the execution layer under every batch path.

Where :mod:`repro.api` defines *what* a solve is (problems, solvers,
results), this package owns *how* many of them run: which pool executes
the tasks, how task streams are windowed and reordered, and which cache
tiers a solve consults before doing DP work.

* :mod:`repro.runtime.backends` — the two batch backends, ``serial``
  (inline) and ``process`` (the warm pool), and the call site /
  ``REPRO_BACKEND`` / workers selection chain.
* :mod:`repro.runtime.pool` — the persistent :class:`WorkerPool` behind
  the ``process`` backend: warm worker processes reused across sessions,
  one task per message (each carrying the caller's one setting, the
  disk-cache directory), hard task kills (terminate-and-respawn), and
  the any-time incumbent channel (``publish_incumbent()``).
* :mod:`repro.runtime.stream` — :func:`solve_stream`, the
  bounded-memory pipeline with deterministic-order mode, in-flight
  canonical dedupe (isomorphic duplicates take the representative's
  answer remapped onto their own instances), and per-task error capture
  (a task whose worker died included); and :func:`run_tasks`, the
  generic fan-out primitive the fuzz and experiment harnesses use.
  Both size their own in-flight window: one task at a time inline,
  ``2 × workers`` (at least 4) on the pool.
* :mod:`repro.runtime.diskcache` — the content-addressed on-disk tier of
  the canonical solve cache (atomic writes, engine-version invalidation),
  enabled with ``configure_disk_cache()`` / ``--cache-dir`` /
  ``REPRO_CACHE_DIR``.

Quickstart::

    from repro.runtime import configure_disk_cache, solve_stream

    configure_disk_cache(".repro-cache")   # optional persistent tier
    for result in solve_stream(problem_iter, backend="process", workers=8):
        consume(result)                    # arrives in input order
"""

from .backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    open_session,
    resolve_backend,
)
from .pool import (
    PoolSession,
    TaskCrashError,
    WorkerLostError,
    WorkerPool,
    get_worker_pool,
    publish_incumbent,
    shutdown_worker_pool,
    worker_pool_stats,
)
from .diskcache import (
    CACHE_DIR_ENV_VAR,
    DiskSolveCache,
    configure_disk_cache,
    disk_cache_dir,
    get_disk_cache,
)
from .stream import TaskOutcome, run_tasks, solve_stream

__all__ = [
    # backends
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "open_session",
    "resolve_backend",
    # disk cache tier
    "CACHE_DIR_ENV_VAR",
    "DiskSolveCache",
    "configure_disk_cache",
    "disk_cache_dir",
    "get_disk_cache",
    # the persistent worker pool
    "PoolSession",
    "TaskCrashError",
    "WorkerLostError",
    "WorkerPool",
    "get_worker_pool",
    "publish_incumbent",
    "shutdown_worker_pool",
    "worker_pool_stats",
    # streaming pipeline
    "TaskOutcome",
    "run_tasks",
    "solve_stream",
]
