"""Pluggable execution backends: where batch solve tasks actually run.

Every batch path of the package — :func:`repro.runtime.solve_stream`, the
:func:`repro.api.solve_batch` compatibility wrapper, the fuzz driver, the
bench runner, the experiment harness — dispatches work through one of
three interchangeable :class:`Backend` implementations:

``serial``
    Runs each task inline in the calling process, in submission order.
    Zero setup cost, exact single-process semantics; the default whenever
    nothing asks for parallelism.
``thread``
    A ``concurrent.futures.ThreadPoolExecutor``.  The DP solvers are pure
    Python, so threads buy little raw speed under the GIL, but the thread
    backend shares one in-memory solve cache across all workers (processes
    each warm their own) and is the cheapest way to overlap I/O-bound task
    streams.  The canonical solve cache is lock-protected for exactly this
    backend.
``process``
    Sessions on the process-wide warm :class:`~repro.runtime.pool.WorkerPool`.
    True parallelism for CPU-bound DP evaluation plus hard preemption;
    task functions and payloads must be picklable (every façade value
    object is).  Workers inherit the parent's configuration on fork and
    are re-synchronized by config generation where it matters (the
    on-disk cache tier).

Selection is layered, most explicit wins:

1. an explicit ``backend=`` argument (a name or a :class:`Backend`
   instance) at the call site;
2. a process-wide default installed with :func:`configure_backend` (the
   CLI's top-level ``--backend`` flag does this);
3. the ``REPRO_BACKEND`` environment variable (CI runs the whole test
   suite once per backend through it);
4. the legacy rule: serial unless the caller asked for ``workers > 1``,
   which selects the process backend — exactly the pre-runtime
   ``solve_batch`` behavior.

Third-party backends register with :func:`register_backend` and become
addressable by name everywhere a built-in is.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from typing import Callable, Deque, Dict, List, Optional, Tuple, Type

__all__ = [
    "Backend",
    "ExecutionSession",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "register_backend",
    "configure_backend",
    "configured_backend",
    "default_backend_name",
    "resolve_backend",
]

#: Environment variable consulted when no backend is configured explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def _run_chunk(fn: Callable, chunk: List[Tuple[int, object]]) -> List[Tuple[int, object]]:
    # One executor task carries ``chunksize`` stream tasks.
    return [(tag, fn(item)) for tag, item in chunk]


class ExecutionSession:
    """One streaming run of tasks through a backend.

    The session is the unit the stream layer programs against: it
    ``submit``\\ s ``(tag, payload)`` pairs (``tag`` is opaque, typically the
    input index) and ``pop``\\ s ``(tag, outcome)`` pairs as they complete,
    in whatever order the backend finishes them.  Sessions are context
    managers; exiting tears the underlying pool down.

    Task callables must never raise — the stream layer wraps them so every
    exception is captured as a per-task outcome.  A raising task is a
    programming error and propagates out of :meth:`pop`.

    Preemption is optional: sessions advertise it via :attr:`can_kill`.
    Only sessions backed by worker processes (the pool-backed process
    backend) can actually terminate a running task; the base surface
    keeps the other backends honest with explicit no-op semantics so the
    portfolio racer can feature-detect instead of type-checking.
    """

    #: True when :meth:`kill` can actually stop a *running* task.
    can_kill = False

    def submit(self, tag: int, item: object) -> None:
        raise NotImplementedError

    def pop(self, timeout: Optional[float] = None) -> Optional[Tuple[int, object]]:
        """Return one completed ``(tag, outcome)`` pair.

        Blocks until a task completes when ``timeout`` is ``None``;
        otherwise waits at most ``timeout`` seconds and returns ``None``
        when nothing finished in time.
        """
        raise NotImplementedError

    def kill(self, tag: int) -> bool:
        """Hard-stop task ``tag`` if this session can; returns ``True`` on stop.

        The base implementation cannot interrupt anything and returns
        ``False``; killed tags (where supported) never surface from
        :meth:`pop`.
        """
        return False

    def take_incumbent(self, tag: int) -> Optional[object]:
        """Latest any-time incumbent published by ``tag``, if the backend
        carries an incumbent channel (only the pool-backed process
        sessions do)."""
        return None

    @property
    def in_flight(self) -> int:
        """Tasks submitted but not yet popped."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _SerialSession(ExecutionSession):
    """Runs every task inline at submit time; ``pop`` drains FIFO."""

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


class _ExecutorSession(ExecutionSession):
    """Thread-backend session over a ``concurrent.futures`` executor.

    Submissions are grouped into chunks of ``chunksize`` to amortize
    per-future overhead for big batches of tiny tasks; a partial chunk is
    flushed whenever :meth:`pop` would otherwise block on it, so chunking
    can never deadlock the stream.
    """

    def __init__(self, fn: Callable, executor: Executor, chunksize: int) -> None:
        self._fn = fn
        self._executor = executor
        self._chunksize = max(1, int(chunksize))
        self._buffer: List[Tuple[int, object]] = []
        self._futures: Dict[object, None] = {}
        self._ready: Deque[Tuple[int, object]] = deque()
        self._in_flight = 0

    def submit(self, tag: int, item: object) -> None:
        self._buffer.append((tag, item))
        self._in_flight += 1
        if len(self._buffer) >= self._chunksize:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            chunk, self._buffer = self._buffer, []
            self._futures[self._executor.submit(_run_chunk, self._fn, chunk)] = None

    def pop(self, timeout: Optional[float] = None) -> Optional[Tuple[int, object]]:
        if self._ready:
            self._in_flight -= 1
            return self._ready.popleft()
        self._flush()
        if not self._futures:
            raise LookupError("no task in flight")
        done, _pending = wait(
            list(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            return None  # timeout expired with nothing finished
        for future in done:
            del self._futures[future]
            self._ready.extend(future.result())
        self._in_flight -= 1
        return self._ready.popleft()

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def close(self) -> None:
        self._executor.shutdown(wait=True)


class Backend:
    """A named execution strategy; :meth:`session` starts one task stream.

    Subclasses set :attr:`name` and implement :meth:`session`.
    ``effective_workers`` is the parallelism hint the stream layer sizes
    its in-flight window from.
    """

    name: str = "?"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = None if workers is None else max(1, int(workers))

    @property
    def effective_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        return max(1, os.cpu_count() or 1)

    def session(self, fn: Callable, chunksize: int = 1) -> ExecutionSession:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(Backend):
    """In-process, in-order execution (the zero-overhead reference backend)."""

    name = "serial"

    @property
    def effective_workers(self) -> int:
        return 1

    def session(self, fn: Callable, chunksize: int = 1) -> ExecutionSession:
        return _SerialSession(fn)


class ThreadBackend(Backend):
    """Thread-pool execution sharing the caller's in-memory solve cache."""

    name = "thread"

    @property
    def effective_workers(self) -> int:
        # Match ThreadPoolExecutor's own default — min(32, cpu_count + 4) —
        # rather than the base class's raw cpu_count, so the stream layer's
        # in-flight window is sized from the real pool parallelism.  The
        # pool is handed this number explicitly to keep the two in lock
        # step even if the executor default drifts.
        if self.workers is not None:
            return self.workers
        return min(32, (os.cpu_count() or 1) + 4)

    def session(self, fn: Callable, chunksize: int = 1) -> ExecutionSession:
        from concurrent.futures import ThreadPoolExecutor

        return _ExecutorSession(
            fn, ThreadPoolExecutor(max_workers=self.effective_workers), chunksize
        )


class ProcessBackend(Backend):
    """Process execution for CPU-bound DP work; tasks must pickle.

    Sessions draw warm workers from the process-wide
    :class:`~repro.runtime.pool.WorkerPool` — interpreters spawned once
    and reused across sessions — and support hard preemption
    (``can_kill``) plus the any-time incumbent channel.
    """

    name = "process"

    def session(self, fn: Callable, chunksize: int = 1) -> ExecutionSession:
        from .pool import get_worker_pool

        return get_worker_pool().session(fn, self.effective_workers, chunksize)


_BACKENDS: Dict[str, Type[Backend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}

#: Process-wide default backend name installed by :func:`configure_backend`.
_CONFIGURED: Optional[str] = None


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, built-ins first."""
    return tuple(_BACKENDS)


def register_backend(name: str, backend_cls: Optional[Type[Backend]] = None):
    """Register a backend class under ``name``.

    Call directly — ``register_backend("myqueue", MyBackend)`` — or as a
    decorator factory::

        @register_backend("myqueue")
        class MyBackend(Backend):
            ...
    """
    if backend_cls is None:
        return lambda cls: register_backend(name, cls)
    if name in _BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    if not (isinstance(backend_cls, type) and issubclass(backend_cls, Backend)):
        raise TypeError(f"backend {name!r} must subclass Backend")
    _BACKENDS[name] = backend_cls
    return backend_cls


def configure_backend(name: Optional[str]) -> None:
    """Install ``name`` as the process-wide default backend.

    ``None`` clears the configuration, falling back to the
    ``REPRO_BACKEND`` environment variable and then to the legacy
    workers-based rule.
    """
    global _CONFIGURED
    if name is not None and name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: {sorted(_BACKENDS)}"
        )
    _CONFIGURED = name


def configured_backend() -> Optional[str]:
    """The backend name installed with :func:`configure_backend`, if any."""
    return _CONFIGURED


def default_backend_name() -> Optional[str]:
    """The effective default backend name, or ``None`` for the legacy rule."""
    if _CONFIGURED is not None:
        return _CONFIGURED
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        if env not in _BACKENDS:
            raise ValueError(
                f"{BACKEND_ENV_VAR}={env!r} names no registered backend; "
                f"registered backends: {sorted(_BACKENDS)}"
            )
        return env
    return None


def resolve_backend(
    backend: "Optional[object]" = None, workers: Optional[int] = None
) -> Backend:
    """Resolve a call-site ``backend`` argument into a live :class:`Backend`.

    ``backend`` may be a :class:`Backend` instance (used as-is), a
    registered name, or ``None`` — in which case the configured default,
    the ``REPRO_BACKEND`` environment variable, and finally the legacy
    workers rule (serial for ``workers in (None, 0, 1)``, else process)
    decide.
    """
    if isinstance(backend, Backend):
        return backend
    if backend is not None:
        if not isinstance(backend, str):
            raise TypeError(
                f"backend must be a name or a Backend instance, got "
                f"{type(backend).__name__}"
            )
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; registered backends: "
                f"{sorted(_BACKENDS)}"
            )
        return _BACKENDS[backend](workers)
    name = default_backend_name()
    if name is not None:
        return _BACKENDS[name](workers)
    if workers is None or workers <= 1:
        return SerialBackend(workers)
    return ProcessBackend(workers)
