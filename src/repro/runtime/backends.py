"""Where batch solve tasks run: inline, or on the warm worker pool.

Every batch path of the package — :func:`repro.runtime.solve_stream`, the
:func:`repro.api.solve_batch` compatibility wrapper, the fuzz driver, the
experiment harness and the service daemon — runs its tasks on one of two
backends, named by a string from :data:`BACKENDS`:

``serial``
    Runs each task inline in the calling process, in submission order,
    one at a time: a task starts only once the previous result has been
    handed on.  Zero setup cost, exact single-process semantics; the
    default whenever nothing asks for parallelism.
``process``
    Sessions on the process-wide warm :class:`~repro.runtime.pool.WorkerPool`.
    True parallelism for CPU-bound DP evaluation plus hard preemption;
    task functions and payloads must be picklable (every façade value
    object is).  Workers inherit the parent's configuration on fork, and
    each task carries the caller's disk-cache directory, the one setting
    a solve reads.

A single solve is not batch work: a decomposed exact solve runs its
components inline in the calling process on either backend, so the
backend changes neither what a solve returns nor where it runs.

There is no thread backend: the exact DPs are pure-Python loops, so under
the GIL a thread pool runs them no faster than one thread does.

Selection is layered, most explicit wins:

1. a ``backend=`` name at the call site (the CLI's top-level
   ``--backend`` flag passes it to the batch work it starts);
2. the ``REPRO_BACKEND`` environment variable (CI runs the whole test
   suite once per backend through it);
3. the legacy rule: serial unless the caller asked for ``workers > 1``,
   which selects the process backend — exactly the pre-runtime
   ``solve_batch`` behavior.

Inside a pool worker every choice resolves to ``serial``: a task never
forks a pool of its own for batch work.  A nested pool's workers would
inherit the write end of their parent worker's process sentinel, so a
kill of that worker would wait out its join timeout on them, and they
would keep running after it.

A budgeted solve (:mod:`repro.portfolio`) is a race, not batch work, and
never goes through this selection: it always runs on the warm worker
pool, which alone can hard-kill a losing member, so the selected
backend cannot change what a budgeted solve returns.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from . import pool as _pool

__all__ = [
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "open_session",
    "resolve_backend",
]

#: The backend names, in the order the CLI lists them.
BACKENDS = ("serial", "process")

#: Environment variable consulted when the call site names no backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class _SerialSession:
    """Runs every task inline at submit time; ``pop`` drains FIFO.

    It has the session surface the stream layer programs against, which
    :class:`~repro.runtime.pool.PoolSession` also implements: ``submit``
    ``(tag, payload)`` pairs, ``pop`` ``(tag, outcome)`` pairs in
    completion order, ``in_flight``, and use as a context manager.
    """

    def __init__(self, fn: Callable) -> None:
        self._fn = fn
        self._ready: Deque[Tuple[int, object]] = deque()

    def submit(self, tag: int, item: object) -> None:
        self._ready.append((tag, self._fn(item)))

    def pop(self, timeout: Optional[float] = None) -> Optional[Tuple[int, object]]:
        if not self._ready:
            raise LookupError("no task in flight")
        return self._ready.popleft()

    @property
    def in_flight(self) -> int:
        return len(self._ready)

    def __enter__(self) -> "_SerialSession":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def _checked(name: object, source: str = "backend") -> str:
    if not isinstance(name, str):
        raise TypeError(f"{source} must be a name, got {type(name).__name__}")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown {source} {name!r}; choose from {', '.join(BACKENDS)}"
        )
    return name


def resolve_backend(
    backend: Optional[str] = None, workers: Optional[int] = None
) -> Tuple[str, int]:
    """Resolve a call-site ``backend`` name into ``(name, worker count)``.

    ``backend=None`` defers to the ``REPRO_BACKEND`` environment
    variable, and then to the legacy workers rule (serial for
    ``workers in (None, 0, 1)``, else process).  The process backend
    uses ``workers`` processes (all cores when ``None``); serial is
    always one.  Inside a pool worker the answer is always
    ``("serial", 1)``.
    """
    env = os.environ.get(BACKEND_ENV_VAR)
    if backend is not None:
        name = _checked(backend)
    elif env:
        name = _checked(env, f"{BACKEND_ENV_VAR} value")
    else:
        name = "process" if workers is not None and workers > 1 else "serial"
    if name == "serial" or _pool._IN_WORKER:
        return "serial", 1
    if workers is None:
        return name, max(1, os.cpu_count() or 1)
    return name, max(1, int(workers))


def open_session(name: str, workers: int, fn: Callable):
    """Start one task stream on a resolved backend.

    ``name`` and ``workers`` come from :func:`resolve_backend`.  Serial
    runs ``fn`` inline; process sends tasks to ``workers`` warm pool
    workers, one task per message.
    """
    if name == "serial":
        return _SerialSession(fn)
    return _pool.get_worker_pool().session(fn, workers)
