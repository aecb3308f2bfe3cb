"""Per-layer probes: each layer's public function, timed from outside.

The traced run calls these on every request's input after the request
itself has been answered and timed, so the request's latency is never
perturbed by the probes.  Every probe returns seconds (and counts where
the layer reports them); the runner normalizes and aggregates.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.api import (
    OneIntervalInstance,
    Problem,
    from_json,
    lower_bound_for,
    to_json,
    try_decomposed_solve,
)
from repro.core.baptiste import (
    minimize_gaps_single_processor,
    minimize_power_single_processor,
)
from repro.core.canonical import canonical_form
from repro.core.list_heuristics import edf_list_schedule, merge_local_search
from repro.core.multiproc_gap_dp import MultiprocessorGapSolver
from repro.core.multiproc_power_dp import MultiprocessorPowerSolver


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def engine_probe(problem: Problem) -> Dict[str, float]:
    """The interval-DP engine entry, called directly (no façade, no cache)."""
    instance = problem.instance
    single = isinstance(instance, OneIntervalInstance) or instance.num_processors == 1
    if single and problem.objective == "gaps":
        seconds, out = _timed(minimize_gaps_single_processor, instance)
        meta = out.engine
    elif single:
        seconds, out = _timed(minimize_power_single_processor, instance, problem.alpha)
        meta = out.engine
    else:
        cls = MultiprocessorGapSolver if problem.objective == "gaps" else MultiprocessorPowerSolver
        kwargs = {} if problem.objective == "gaps" else {"alpha": problem.alpha}
        start = time.perf_counter()
        solver = cls(instance, **kwargs)
        solver.solve()
        seconds = time.perf_counter() - start
        meta = solver.engine_metadata()
    # States computed, and the share of staged nodes the numpy kernels took.
    stats = (meta or {}).get("stats") or {}
    probe = {"engine_s": seconds, "states": stats.get("states_computed", 0)}
    staged = stats.get("vector_nodes", 0) + stats.get("vector_fallback_nodes", 0)
    if staged:
        probe["vector_frac"] = stats.get("vector_nodes", 0) / staged
    return probe


def common_probes(problem: Problem, result) -> Dict[str, float]:
    """Canonicalization and the JSON codec, on every workload."""
    canon_s, _ = _timed(canonical_form, problem.instance)
    problem_s, problem_text = _timed(to_json, problem)
    result_s, result_text = _timed(to_json, result)
    back_problem_s, _ = _timed(from_json, problem_text)
    back_result_s, _ = _timed(from_json, result_text)
    return {
        "canonical_s": canon_s,
        "to_json_s": problem_s + result_s,
        "from_json_s": back_problem_s + back_result_s,
    }


def decomposition_probe(problem: Problem) -> float:
    """``try_decomposed_solve`` with the cache live but cold for this input.

    Under ``solve_cache_bypass()`` the function returns at once, so the
    probe runs it plainly: a rejected split costs only detection, and an
    accepted one solves its components fresh (no earlier call of this
    process has seen them).
    """
    seconds, _ = _timed(try_decomposed_solve, problem)
    return seconds


def portfolio_probes(problem: Problem) -> Dict[str, float]:
    """Lower bound and both heuristics, run to completion."""
    bound_s, _ = _timed(lower_bound_for, problem)
    edf_s, _ = _timed(edf_list_schedule, problem.instance)
    search_s, _ = _timed(
        merge_local_search, problem.instance, objective=problem.objective, alpha=problem.alpha
    )
    return {"lower_bound_s": bound_s, "edf_s": edf_s, "localsearch_s": search_s}


#: Seconds the busy worker runs before the kill probe stops it.
KILL_SETTLE_S = 0.02


def kill_probe(busy_problem: Problem) -> float:
    """Seconds :meth:`PoolSession.kill` takes on a worker busy with a DP."""
    from repro.api import solve
    from repro.runtime.pool import get_worker_pool

    with get_worker_pool().session(solve, 1) as session:
        session.submit(0, busy_problem)
        session.flush()
        time.sleep(KILL_SETTLE_S)
        seconds, _ = _timed(session.kill, 0)
    return seconds
