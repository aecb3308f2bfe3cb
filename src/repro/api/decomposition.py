"""Decomposed exact solves: cluster detection, concurrent component DPs, merge.

:mod:`repro.core.decompose` finds the time-disjoint clusters of an
instance; this module turns that structure into a faster *exact* solve.
The gap-dp / power-dp adapters call :func:`try_decomposed_solve` before
running the monolithic DP: when the instance splits, each component is
solved through the ordinary façade (so every component hits the two-tier
canonical solve cache independently and shared clusters dedupe across a
workload), the component solves run concurrently through
:func:`repro.runtime.run_tasks` under the configured backend, and the
sub-results merge back into one optimal schedule.

Merge semantics (both proved against the staircase-normalized optima the
engines compute):

* **Power** — every seam is at least ``alpha`` wide, so each cross-seam
  bridge saturates at ``min(stretch, alpha) = alpha`` and exactly
  replaces the wake-up charge a component pays standalone.  Component
  optima therefore *add*: each component is solved once (on
  ``min(p, n_c)`` processors — extra processors never help power) and
  the merged value is the component sum, accumulated in component order
  so the float result is deterministic.
* **Gaps** — gap counts do not simply add across processors: a staircase
  schedule with busy column sets ``S`` has ``gaps(S) = sum_c spans_c -
  max_c m_c`` where ``m_c`` is component ``c``'s maximum occupancy.  The
  orchestrator solves a small *frontier* per component — ``g_c(u)`` for
  ``u = 1..min(p, n_c)`` — and minimizes

      ``OPT = min over (u_1..u_C) of  sum_c (g_c(u_c) + u_c) - max_c u_c``

  exactly, by sweeping the candidate maximum ``M`` with per-component
  minima ``f_c(M) = min_{u <= M} (g_c(u) + u)`` plus a correction term
  that pins one component to ``u = M``.  The merged schedule realizes
  exactly that value (asserted; a mismatch falls back to the monolithic
  DP rather than ever returning a wrong answer).

An infeasible component at its full processor budget proves the whole
instance infeasible, so the orchestrator short-circuits without solving
the remaining components (exactly so under the serial backend, which
runs with an in-flight window of one).

Determinism contract: everything returned to the adapter — value, the
merged times, and the synthesized engine metadata (which embeds a
``decomposition`` block with per-component engine stats) — is a pure
function of the instance and configuration, never of backend timing, so
decomposed results stay byte-identical across backends and across
fresh-vs-cache-replay.  Wall-clock decomposition time is deliberately
*not* in the result envelope (it would break replay byte-identity);
it accumulates in :func:`decomposition_stats`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.decompose import Decomposition, decompose_instance
from ..core.interval_dp import (
    ENGINE_NAME,
    ENGINE_VERSION,
    schedule_from_times,
    times_from_schedule,
)
from ..core.jobs import MultiprocessorInstance, OneIntervalInstance
from ..core.timeutils import candidate_times_for_jobs
from ..runtime.backends import default_backend_name, resolve_backend
from ..runtime.diskcache import configure_disk_cache, disk_cache_dir
from ..runtime.stream import run_tasks

__all__ = [
    "DEFAULT_MIN_JOBS",
    "configure_decomposition",
    "decomposition_config",
    "decomposition_stats",
    "reset_decomposition_stats",
    "try_decomposed_solve",
]

#: Instances below this job count never decompose: the DP on a small
#: instance beats any orchestration overhead, and exact cache-counter
#: expectations in small-instance tests stay undisturbed.
DEFAULT_MIN_JOBS = 16

_UNSET = object()

_CONFIG_LOCK = threading.Lock()
_CONFIG: Dict[str, object] = {
    "enabled": True,
    "min_jobs": DEFAULT_MIN_JOBS,
    "backend": None,  # None -> configured default / REPRO_BACKEND / serial
    "workers": None,
}

_STATS_LOCK = threading.Lock()


def _zero_stats() -> Dict[str, object]:
    return {
        "attempts": 0,
        "decomposed": 0,
        "single_component": 0,
        "infeasible_short_circuits": 0,
        "component_solves": 0,
        "components": 0,
        "merge_fallbacks": 0,
        "detect_seconds": 0.0,
        "solve_seconds": 0.0,
    }


_STATS = _zero_stats()


def configure_decomposition(
    *,
    enabled: object = _UNSET,
    min_jobs: object = _UNSET,
    backend: object = _UNSET,
    workers: object = _UNSET,
) -> Dict[str, object]:
    """Update the process-wide decomposition configuration.

    Only the keyword arguments actually passed change; the new
    configuration snapshot is returned (and is round-trippable:
    ``configure_decomposition(**snapshot)`` restores it).

    ``enabled`` switches decomposed solving on or off; ``min_jobs`` is
    the smallest instance that may decompose; ``backend`` (a name) /
    ``workers`` pin the execution backend for component solves (``None``
    follows the configured default or ``REPRO_BACKEND``, else serial).
    """
    if backend is not _UNSET and backend is not None:
        resolve_backend(backend)  # raises for anything but a backend name
    with _CONFIG_LOCK:
        if enabled is not _UNSET:
            _CONFIG["enabled"] = bool(enabled)
        if min_jobs is not _UNSET:
            _CONFIG["min_jobs"] = max(0, int(min_jobs))  # type: ignore[arg-type]
        if backend is not _UNSET:
            _CONFIG["backend"] = backend
        if workers is not _UNSET:
            _CONFIG["workers"] = (
                None if workers is None else max(1, int(workers))  # type: ignore[arg-type]
            )
        return dict(_CONFIG)


def decomposition_config() -> Dict[str, object]:
    """Snapshot of the current configuration (safe to mutate)."""
    with _CONFIG_LOCK:
        return dict(_CONFIG)


def decomposition_stats() -> Dict[str, object]:
    """Process-wide decomposition counters (JSON-native snapshot).

    ``detect_seconds`` is time spent in split detection; ``solve_seconds``
    is end-to-end decomposed-solve time including component DPs and the
    merge.  Timing lives here rather than in result envelopes so cache
    replays stay byte-identical to the fresh solves that populated them.
    """
    with _STATS_LOCK:
        return dict(_STATS)


def reset_decomposition_stats() -> None:
    """Zero every counter (tests and benchmarks)."""
    global _STATS
    with _STATS_LOCK:
        _STATS = _zero_stats()


def _bump(**deltas) -> None:
    with _STATS_LOCK:
        for key, delta in deltas.items():
            _STATS[key] += delta


def _component_task(payload: Tuple) -> Tuple:
    """Worker-side component solve (module-level so every backend pickles it).

    The parent's disk-cache directory and decomposition thresholds ride
    along so process workers observe the caller's configuration.  Returns
    the essentials only — ``(feasible, value, times, engine_meta)`` — to
    keep IPC payloads small.
    """
    problem, solver_name, cache_dir, enabled, min_jobs = payload
    if disk_cache_dir() != cache_dir:
        configure_disk_cache(cache_dir)
    configure_decomposition(enabled=enabled, min_jobs=min_jobs)
    from .registry import solve

    result = solve(problem, solver=solver_name)
    if result.status == "infeasible":
        return (False, None, None, None)
    if result.status != "optimal" or result.schedule is None:
        raise RuntimeError(
            f"component solve returned status {result.status!r}"
        )
    engine = result.extra.get("engine")
    return (
        True,
        result.value,
        times_from_schedule(result.schedule),
        engine if isinstance(engine, dict) else None,
    )


def _component_backend() -> Tuple[str, int]:
    """Resolve the backend for component solves.

    Unlike the batch default this ignores ``workers > 1``: components run
    serially unless a backend is named.  Inside a pool worker they always
    run serially.
    """
    cfg = decomposition_config()
    backend = cfg["backend"] or default_backend_name() or "serial"
    return resolve_backend(backend, cfg["workers"])


def _min_seam_for(problem) -> Optional[Tuple[float, str]]:
    if problem.objective == "gaps":
        return 1.0, "gap-dp"
    if problem.objective == "power":
        return float(problem.alpha), "power-dp"
    return None


def _sub_instance(parent, jobs, processors: int):
    if isinstance(parent, OneIntervalInstance):
        return OneIntervalInstance(jobs=list(jobs))
    return MultiprocessorInstance(jobs=list(jobs), num_processors=processors)


def _synthesize_meta(
    problem,
    decomp: Decomposition,
    processors: List[int],
    chosen: List[Tuple],
) -> Dict:
    """Deterministic engine metadata for a decomposed solve.

    The ``decomposition`` block nests *inside* the engine metadata so it
    rides the canonical cache entry and replays verbatim on hits; summed
    integer counters keep the ``stats`` key's shape.
    """
    per_component = []
    summed: Dict[str, int] = {}
    for component, procs, (value, _times, meta) in zip(
        decomp.components, processors, chosen
    ):
        per_component.append(
            {
                "jobs": component.num_jobs,
                "start": component.start,
                "end": component.end,
                "processors": procs,
                "value": value,
                "engine": meta,
            }
        )
        stats = (meta or {}).get("stats")
        if isinstance(stats, dict):
            for key, val in stats.items():
                if isinstance(val, int):
                    summed[key] = summed.get(key, 0) + val
    return {
        "name": ENGINE_NAME,
        "version": ENGINE_VERSION,
        "objective": problem.objective,
        "decomposition": {
            "components": len(decomp.components),
            "seams": list(decomp.seams),
            "min_seam": decomp.min_seam,
            "clipped_jobs": decomp.clipped_jobs,
            "processors": processors,
            "per_component": per_component,
        },
        "stats": summed,
    }


def _run_component_solves(
    problem,
    decomp: Decomposition,
    solver_name: str,
    tasks: List[Tuple[int, int]],
    u_max: List[int],
) -> Optional[Dict[Tuple[int, int], Tuple]]:
    """Solve every ``(component, processors)`` task; ``None`` ⇒ infeasible.

    Tasks stream through the configured backend in completion order; an
    infeasible component at its full budget ``u_max`` proves the whole
    instance infeasible and stops the run (remaining tasks are abandoned,
    which under the serial backend's window of one means they were never
    started).
    """
    cfg = decomposition_config()
    backend, workers = _component_backend()
    cache_dir = disk_cache_dir()
    payloads = []
    for comp_idx, procs in tasks:
        component = decomp.components[comp_idx]
        sub = _sub_instance(problem.instance, component.jobs, procs)
        sub_problem = type(problem)(
            objective=problem.objective,
            instance=sub,
            alpha=problem.alpha,
            max_gaps=problem.max_gaps,
        )
        payloads.append(
            (sub_problem, solver_name, cache_dir, cfg["enabled"], cfg["min_jobs"])
        )
    results: Dict[Tuple[int, int], Tuple] = {}
    for index, outcome in run_tasks(
        _component_task,
        payloads,
        backend=backend,
        workers=workers,
        ordered=False,
        window=1 if backend == "serial" else None,
    ):
        comp_idx, procs = tasks[index]
        feasible, value, times, meta = outcome.unwrap()
        _bump(component_solves=1)
        results[(comp_idx, procs)] = (value, times, meta) if feasible else None
        if not feasible and procs == u_max[comp_idx]:
            return None
    return results


def _combine_gaps(
    results: Dict[Tuple[int, int], Tuple], u_max: List[int]
) -> Optional[Tuple[int, List[int]]]:
    """Minimize ``sum_c (g_c(u_c) + u_c) - max_c u_c`` over the frontier.

    Returns ``(optimal value, chosen u per component)``; ties break
    deterministically (smallest ``M``, smallest ``u``, lowest component
    index).  ``None`` only if some component has no feasible budget —
    impossible when the caller already short-circuited infeasibility.
    """
    count = len(u_max)
    feasible_u: List[List[int]] = [[] for _ in range(count)]
    for (comp_idx, procs), entry in results.items():
        if entry is not None:
            feasible_u[comp_idx].append(procs)
    if any(not options for options in feasible_u):
        return None
    u_min = [min(options) for options in feasible_u]
    best: Optional[Tuple[int, int, int, List[int]]] = None  # value, M, c0, us
    for cap in range(max(u_min), max(u_max) + 1):
        f_val: List[int] = []
        f_arg: List[int] = []
        skip = False
        for comp_idx in range(count):
            candidates = [
                (results[(comp_idx, u)][0] + u, u)
                for u in feasible_u[comp_idx]
                if u <= cap
            ]
            if not candidates:
                skip = True
                break
            val, arg = min(candidates)
            f_val.append(val)
            f_arg.append(arg)
        if skip:
            continue
        delta = None
        for comp_idx in range(count):
            if cap > u_max[comp_idx] or results.get((comp_idx, cap)) is None:
                continue
            excess = (results[(comp_idx, cap)][0] + cap) - f_val[comp_idx]
            if delta is None or excess < delta[0]:
                delta = (excess, comp_idx)
        if delta is None:
            continue
        value = sum(f_val) + delta[0] - cap
        if best is None or value < best[0]:
            chosen = list(f_arg)
            chosen[delta[1]] = cap
            best = (value, cap, delta[1], chosen)
    if best is None:
        return None
    return best[0], best[3]


def try_decomposed_solve(problem):
    """Attempt a decomposed exact solve; ``None`` means "run the monolith".

    On success returns the adapter's ``solve_fresh`` tuple extended with a
    cacheability flag: ``(feasible, value, schedule, times, engine_meta,
    cacheable)``.  ``cacheable`` is false when the merged schedule uses a
    (Hall-clipped) execution time off the original instance's candidate
    grid, which the canonical cache cannot encode.
    """
    from . import solvers as _solvers

    if _solvers._BYPASS_DEPTH:
        return None
    cfg = decomposition_config()
    if not cfg["enabled"]:
        return None
    instance = problem.instance
    if not isinstance(instance, (OneIntervalInstance, MultiprocessorInstance)):
        return None
    jobs = instance.jobs
    if len(jobs) < cfg["min_jobs"]:  # type: ignore[operator]
        return None
    seam_solver = _min_seam_for(problem)
    if seam_solver is None:
        return None
    min_seam, solver_name = seam_solver
    processors = (
        instance.num_processors
        if isinstance(instance, MultiprocessorInstance)
        else 1
    )
    start = time.perf_counter()
    decomp = decompose_instance(jobs, processors, min_seam)
    detect_elapsed = time.perf_counter() - start
    _bump(attempts=1, detect_seconds=detect_elapsed)
    if decomp.infeasible:
        _bump(infeasible_short_circuits=1, solve_seconds=time.perf_counter() - start)
        return (False, None, None, None, None, True)
    if not decomp.is_split:
        _bump(single_component=1)
        return None
    _bump(decomposed=1, components=len(decomp.components))
    try:
        outcome = _solve_decomposed(problem, decomp, solver_name, processors)
    finally:
        _bump(solve_seconds=time.perf_counter() - start)
    return outcome


def _solve_decomposed(problem, decomp: Decomposition, solver_name: str, processors: int):
    gaps = problem.objective == "gaps"
    u_max = [min(processors, c.num_jobs) for c in decomp.components]
    if gaps and processors > 1:
        # Frontier: g_c(u) for every budget, feasibility-deciding solve first.
        tasks = [
            (comp_idx, u)
            for comp_idx in range(len(decomp.components))
            for u in range(u_max[comp_idx], 0, -1)
        ]
    else:
        tasks = [(comp_idx, u_max[comp_idx]) for comp_idx in range(len(decomp.components))]
    results = _run_component_solves(problem, decomp, solver_name, tasks, u_max)
    if results is None:
        return (False, None, None, None, None, True)
    if gaps and processors > 1:
        combined = _combine_gaps(results, u_max)
        if combined is None:  # pragma: no cover - shielded by the short-circuit
            return None
        predicted, chosen_u = combined
    else:
        chosen_u = u_max
        predicted = None
    chosen = [results[(idx, chosen_u[idx])] for idx in range(len(decomp.components))]
    merged_times: Dict[int, int] = {}
    for component, (_value, times, _meta) in zip(decomp.components, chosen):
        for sub_idx, t in times.items():
            merged_times[component.job_indices[sub_idx]] = t
    instance = problem.instance
    schedule = schedule_from_times(instance, merged_times)
    if gaps:
        value = schedule.num_gaps()
        if predicted is not None and value != predicted:
            # The merge math disagrees with the realized schedule; never
            # trust either — let the monolithic DP answer.
            _bump(merge_fallbacks=1)
            return None
    else:
        value = 0.0
        for entry in chosen:
            value += entry[0]
        realized = schedule.power_cost(problem.alpha)
        if abs(realized - value) > 1e-6 * max(1.0, abs(value)):
            _bump(merge_fallbacks=1)
            return None
    meta = _synthesize_meta(problem, decomp, chosen_u, chosen)
    cacheable = set(merged_times.values()) <= set(candidate_times_for_jobs(jobs=instance.jobs))
    return (True, value, schedule, merged_times, meta, cacheable)
