"""Batch execution: the list-shaped compatibility wrapper over the stream.

``solve_batch(problems, workers=N)`` predates the :mod:`repro.runtime`
layer; it is now a thin façade over
:func:`repro.runtime.solve_stream` that collects a deterministic-order
stream into a list.  Everything the stream provides applies here:

* **Ordering and determinism.**  Results come back in input order
  regardless of which worker finished first, and because every solver is
  deterministic and wall time is excluded from the canonical JSON form, a
  parallel run serializes byte-identically to a serial run of the same
  workload.
* **Backends.**  ``workers`` keeps its historical meaning (``None``/``0``/
  ``1`` serial, ``N > 1`` the warm process pool).  Pass
  ``backend="serial"`` or ``backend="process"``, or set
  ``REPRO_BACKEND``, to choose one whatever ``workers`` says.
* **Dedupe.**  Canonically identical tasks — exact duplicates *and*
  time-shift/job-permutation isomorphs — are solved once per stream
  window; duplicate positions receive independent copies.
* **Error capture.**  A failed task yields a ``status="error"`` result
  at its position (exception type, message, traceback in ``extra``)
  instead of poisoning the whole batch, and so does a task whose pool
  worker died under it; chain ``raise_for_status()`` on a result to
  raise its failure.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..runtime.stream import solve_stream
from .problem import Problem
from .result import SolveResult

__all__ = ["solve_batch"]


def solve_batch(
    problems: Iterable[Problem],
    solver: str = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[SolveResult]:
    """Solve many problems, optionally in parallel, with deterministic ordering.

    Parameters
    ----------
    problems:
        The problems to solve.
    solver:
        Passed through to :func:`repro.api.solve` for every problem
        (``"auto"`` or a registry name).
    workers:
        Pool size.  With no backend selected anywhere, ``None``, ``0`` or
        ``1`` solve serially in this process and ``N > 1`` use a process
        pool of ``N`` workers — the historical behavior.
    backend:
        Execution backend name, ``"serial"`` or ``"process"``; ``None``
        defers to ``REPRO_BACKEND`` / the workers rule above.

    Returns
    -------
    One :class:`~repro.api.result.SolveResult` per problem, in input
    order.  Each duplicate position receives an independent result (a
    deep copy, or the representative's answer remapped onto its own
    instance), so in-place post-processing of one position never leaks
    into another.
    """
    return list(
        solve_stream(problems, solver=solver, backend=backend, workers=workers)
    )
