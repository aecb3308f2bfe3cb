"""Operational statistics: one payload shape for CLI and HTTP surfaces.

``repro-sched stats`` and the daemon's ``GET /v1/stats`` must never drift
apart, so both render their output through :func:`operational_stats` here.
The payload has two process-level blocks that exist with or without a
running service:

* ``cache`` — :func:`repro.api.solve_cache_stats` verbatim: memory-tier
  size/hits/misses, fresh-solve count, and the disk tier's counters.
* ``engine`` / ``tasks`` — aggregated from a :class:`TaskMetrics`, which
  the scheduler daemon feeds every result it writes back, and which
  accumulates the interval-DP engine's pruning/memoization counters plus
  per-status task totals.

The daemon owns its :class:`TaskMetrics` for its lifetime; the bare CLI
has no daemon, so its engine and task blocks read zero (the cache block
still carries the on-disk inventory), and ``repro-sched stats --url``
fetches a live service's payload instead.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..core.interval_dp import fold_engine_stats

__all__ = ["TaskMetrics", "operational_stats"]


class TaskMetrics:
    """Thread-safe aggregation of delivered task results.

    The scheduler daemon calls ``observe(problem, result)`` once per
    result it writes back.  Engine counters fold through
    :func:`~repro.core.interval_dp.fold_engine_stats`, as the fuzz
    driver's engine profile does: additive counters sum across tasks,
    high-water marks (``peak_stack_depth``) take the maximum.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._statuses: Dict[str, int] = {}
        self._engine: Dict[str, int] = {}
        self._completed = 0

    def observe(self, problem: Any, result: Any) -> None:
        """Fold one delivered result into the counters."""
        status = str(getattr(result, "status", "unknown"))
        extra = getattr(result, "extra", None)
        with self._lock:
            self._completed += 1
            self._statuses[status] = self._statuses.get(status, 0) + 1
            if isinstance(extra, dict):
                fold_engine_stats(self._engine, extra)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._statuses.clear()
            self._engine.clear()
            self._completed = 0

    def snapshot(self) -> Dict[str, Any]:
        """Consistent copy: ``{"tasks": {...}, "engine": {...}}``."""
        with self._lock:
            return {
                "tasks": {
                    "completed": self._completed,
                    "by_status": dict(sorted(self._statuses.items())),
                },
                "engine": dict(sorted(self._engine.items())),
            }


def operational_stats(metrics: Optional[TaskMetrics] = None) -> Dict[str, Any]:
    """The shared stats payload: cache tiers + engine counters + task totals.

    Without ``metrics`` (the bare CLI) the engine and task blocks read
    zero; the daemon passes its own live instance and layers a
    ``service`` block on top.
    """
    from ..api.solvers import solve_cache_stats

    payload: Dict[str, Any] = {"cache": solve_cache_stats()}
    payload.update((metrics or TaskMetrics()).snapshot())
    return payload
