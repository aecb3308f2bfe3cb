"""Decomposed exact solves: cluster detection, component DPs, merge.

:mod:`repro.core.decompose` finds the time-disjoint clusters of an
instance; this module turns that structure into a faster *exact* solve.
The gap-dp / power-dp adapters call :func:`try_decomposed_solve` before
running the monolithic DP, on every instance of at least
:data:`DEFAULT_MIN_JOBS` jobs.  When the instance splits, each component
is solved in the calling process, in frontier order, through the
ordinary façade — so every component hits the two-tier canonical solve
cache independently and shared clusters dedupe across a workload — and
the sub-results merge back into one optimal schedule.  No setting
switches this on or off; :func:`repro.core.solve_exact` is the
monolithic answer.

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
instance infeasible, so the orchestrator stops there and never solves
the remaining components.

Determinism contract: everything returned to the adapter — value, the
merged times, and the synthesized engine metadata (which embeds a
``decomposition`` block with per-component engine stats) — is a pure
function of the instance, never of the batch backend or of timing, so
decomposed results stay byte-identical across backends and across
fresh-vs-cache-replay.  They equal the monolithic DP's *values*; the
envelope differs from the monolith's (the ``decomposition`` block, and
possibly another optimal schedule).  Wall-clock decomposition time is
deliberately *not* in the result envelope (it would break replay
byte-identity); it accumulates in :func:`decomposition_stats`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.decompose import Decomposition, decompose_instance
from ..core.interval_dp import (
    ENGINE_NAME,
    ENGINE_VERSION,
    ExactSolution,
    schedule_from_times,
    times_from_schedule,
)
from ..core.jobs import MultiprocessorInstance, OneIntervalInstance

__all__ = [
    "DEFAULT_MIN_JOBS",
    "decomposition_stats",
    "reset_decomposition_stats",
    "try_decomposed_solve",
]

#: Instances below this job count never decompose: the DP on a small
#: instance beats any orchestration overhead, and exact cache-counter
#: expectations in small-instance tests stay undisturbed.
DEFAULT_MIN_JOBS = 16

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
) -> Optional[Dict[Tuple[int, int], Optional[Tuple]]]:
    """Solve every ``(component, processors)`` task; ``None`` ⇒ infeasible.

    Tasks run in order, in this process, through the façade's ``solve``.
    An infeasible component at its full budget ``u_max`` proves the whole
    instance infeasible, and the remaining tasks never start.
    """
    from .registry import solve

    results: Dict[Tuple[int, int], Optional[Tuple]] = {}
    for comp_idx, procs in tasks:
        component = decomp.components[comp_idx]
        sub_problem = type(problem)(
            objective=problem.objective,
            instance=_sub_instance(problem.instance, component.jobs, procs),
            alpha=problem.alpha,
            max_gaps=problem.max_gaps,
        )
        result = solve(sub_problem, solver=solver_name)
        _bump(component_solves=1)
        if result.status == "infeasible":
            if procs == u_max[comp_idx]:
                return None
            results[(comp_idx, procs)] = None
            continue
        if result.status != "optimal" or result.schedule is None:
            raise RuntimeError(
                f"component solve returned status {result.status!r}"
            )
        engine = result.extra.get("engine")
        results[(comp_idx, procs)] = (
            result.value,
            times_from_schedule(result.schedule),
            engine if isinstance(engine, dict) else None,
        )
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


def _infeasible() -> ExactSolution:
    # The envelope of an infeasible answer carries no engine metadata.
    return ExactSolution(False, None, None, None, {})


def try_decomposed_solve(problem) -> Optional[ExactSolution]:
    """Attempt a decomposed exact solve; ``None`` means "run the monolith".

    On success returns the :class:`~repro.core.ExactSolution` that
    :func:`repro.core.solve_exact` returns, with the merged schedule and
    the synthesized engine metadata.  Instances of fewer than
    :data:`DEFAULT_MIN_JOBS` jobs, and every solve under
    :func:`~repro.api.solve_cache_bypass`, get ``None``.
    """
    from . import solvers as _solvers

    if _solvers._BYPASS_DEPTH:
        return None
    instance = problem.instance
    if not isinstance(instance, (OneIntervalInstance, MultiprocessorInstance)):
        return None
    jobs = instance.jobs
    if len(jobs) < DEFAULT_MIN_JOBS:
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
        return _infeasible()
    if not decomp.is_split:
        _bump(single_component=1)
        return None
    _bump(decomposed=1, components=len(decomp.components))
    try:
        outcome = _solve_decomposed(problem, decomp, solver_name, processors)
    finally:
        _bump(solve_seconds=time.perf_counter() - start)
    return outcome


def _solve_decomposed(
    problem, decomp: Decomposition, solver_name: str, processors: int
) -> Optional[ExactSolution]:
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
        return _infeasible()
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
    return ExactSolution(True, value, schedule, merged_times, meta)
