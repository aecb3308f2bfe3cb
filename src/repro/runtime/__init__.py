"""``repro.runtime`` — the execution layer under every batch path.

Where :mod:`repro.api` defines *what* a solve is (problems, solvers,
results), this package owns *how* many of them run: which pool executes
the tasks, how task streams are windowed and reordered, and which cache
tiers a solve consults before doing DP work.

* :mod:`repro.runtime.backends` — the two batch backends, ``serial``
  (inline) and ``process`` (the warm pool), and the call site /
  ``configure_backend()`` / ``REPRO_BACKEND`` / workers selection chain.
* :mod:`repro.runtime.pool` — the persistent :class:`WorkerPool` behind
  the ``process`` backend: warm worker processes reused across sessions,
  hard task kills (terminate-and-respawn), the config snapshot that alone
  carries the caller's one setting (the disk-cache directory) to workers,
  and the any-time incumbent channel (``publish_incumbent()``).
* :mod:`repro.runtime.stream` — :func:`solve_stream`, the chunked
  bounded-memory pipeline with deterministic-order mode, in-flight
  canonical dedupe (isomorphic duplicates take the representative's
  answer remapped onto their own instances), and per-task error capture;
  and :func:`run_tasks`, the generic fan-out primitive the
  fuzz/bench/experiment harnesses use.  Both size their own in-flight
  window: one task at a time inline, ``2 × workers × chunksize`` (at
  least 4) on the pool.
* :mod:`repro.runtime.diskcache` — the content-addressed on-disk tier of
  the canonical solve cache (atomic writes, engine-version invalidation),
  enabled with ``configure_disk_cache()`` / ``--cache-dir`` /
  ``REPRO_CACHE_DIR``.

Quickstart::

    from repro.runtime import configure_backend, configure_disk_cache, solve_stream

    configure_backend("process")           # or REPRO_BACKEND=process
    configure_disk_cache(".repro-cache")   # optional persistent tier
    for result in solve_stream(problem_iter, workers=8):
        consume(result)                    # arrives in input order
"""

from .backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    configure_backend,
    configured_backend,
    default_backend_name,
    open_session,
    resolve_backend,
)
from .pool import (
    PoolSession,
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
    "configure_backend",
    "configured_backend",
    "default_backend_name",
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
