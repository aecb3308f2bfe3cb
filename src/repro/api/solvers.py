"""Built-in solver registrations: every algorithm of the paper plus baselines.

Each adapter translates between the façade's :class:`~repro.api.problem.Problem`
/ :class:`~repro.api.result.SolveResult` types and one underlying algorithm:

========================  ==========  ===========  ======================================
registry name             objective   kind         algorithm
========================  ==========  ===========  ======================================
``gap-dp``                gaps        exact        Theorem 1 interval DP (Baptiste at p=1)
``power-dp``              power       exact        Theorem 2 interval DP
``power-approx``          power       approximate  Theorem 3 set-packing approximation
``throughput-greedy``     throughput  approximate  Theorem 11 greedy
``edf-gap``               gaps        approximate  EDF list schedule, a-posteriori certified
``localsearch-gap``       gaps        approximate  EDF + block-merge local search
``edf-power``             power       approximate  EDF list schedule, a-posteriori certified
``localsearch-power``     power       approximate  EDF + power-aware block-merge local search
``greedy-gap``            gaps        baseline     [FHKN06] greedy 3-approximation
``online-edf``            gaps        baseline     work-conserving online EDF
``brute-force-gaps``      gaps        baseline     exponential oracle (small n only)
``brute-force-power``     power       baseline     exponential oracle (small n only)
``brute-force-throughput``  throughput  baseline   exponential oracle (small n only)
========================  ==========  ===========  ======================================

The brute-force oracles return exactly optimal values (their results carry
``status="optimal"``) but are registered as baselines so that automatic
dispatch never prefers an exponential enumeration over the polynomial DPs.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..bounds.certificate import BoundCertificate
from ..core.brute_force import (
    brute_force_gap_multiproc,
    brute_force_gap_single,
    brute_force_power_multi_interval,
    brute_force_power_multiproc,
    brute_force_throughput,
)
from ..core.canonical import (
    CanonicalForm,
    CanonicalSolveCache,
    canonical_assignment,
    canonical_form,
    restore_assignment,
)
from ..core.greedy_gap import greedy_gap_schedule
from ..core.interval_dp import schedule_from_times, solve_exact, times_from_schedule
from ..core.list_heuristics import edf_list_schedule, merge_local_search
from ..core.jobs import (
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
)
from ..core.online import online_gap_schedule
from ..core.power_approx import approximate_power_schedule
from ..core.throughput import greedy_throughput_schedule
from ..runtime.diskcache import get_disk_cache
from ..runtime.pool import publish_incumbent
from .decomposition import try_decomposed_solve
from .problem import Problem
from .registry import register_solver
from .result import SolveResult

__all__: List[str] = [
    "clear_solve_cache",
    "heuristic_deadline",
    "solve_cache_bypass",
    "solve_cache_stats",
]

# ---------------------------------------------------------------------------
# cross-call canonical solve cache (exact DP adapters)
# ---------------------------------------------------------------------------
#: Default capacity of the canonical solve cache (entries, LRU-evicted).
DEFAULT_SOLVE_CACHE_SIZE = 256

#: Bounded LRU keyed by (objective, parameters, canonical instance key).
#: Shared by the exact gap-dp / power-dp adapters so repeated or
#: shift/permutation-isomorphic instances — the common shape of
#: ``solve_batch`` traffic — skip the DP entirely.  Per-process state,
#: lock-protected because threads share it: the service's HTTP handler
#: threads read its counters while the daemon's scheduler thread solves.
#: Pool workers each warm their own copy.  When a disk tier is configured
#: (:func:`repro.runtime.configure_disk_cache`), a memory miss falls
#: through to the content-addressed store and a fresh solve populates
#: both tiers, so warm entries survive the process and are shared across
#: pool workers through the filesystem.
_SOLVE_CACHE = CanonicalSolveCache(maxsize=DEFAULT_SOLVE_CACHE_SIZE)

#: Count of solves that actually ran a DP (neither tier answered).  The
#: cross-backend equivalence suite asserts this stays zero on a warm disk
#: cache; lock-protected like the cache.
_FRESH_SOLVES = 0
_FRESH_LOCK = threading.Lock()


def clear_solve_cache() -> None:
    """Empty this process's memory tier and reset this process's counters.

    Only the calling process is cleared: a warm pool worker keeps its own
    memory tier, whose entries stay correct answers.  The disk tier's
    files are untouched (use :meth:`repro.runtime.DiskSolveCache.clear`
    or ``repro-sched cache clear`` for that), but its per-process
    hit/miss/write counters reset.
    """
    global _FRESH_SOLVES
    _SOLVE_CACHE.clear()
    with _FRESH_LOCK:
        _FRESH_SOLVES = 0
    disk = get_disk_cache()
    if disk is not None:
        disk.reset_counters()


def solve_cache_stats() -> Dict[str, object]:
    """Counters of both cache tiers plus the fresh-DP-solve count.

    The memory tier's ``size``/``maxsize``/``hits``/``misses`` keep their
    historical meaning; ``fresh_solves`` counts solves neither tier could
    answer, and ``disk`` holds the disk tier's per-process counters (or
    ``{"configured": False}`` when no directory is configured).
    """
    stats: Dict[str, object] = dict(_SOLVE_CACHE.stats())
    with _FRESH_LOCK:
        stats["fresh_solves"] = _FRESH_SOLVES
    disk = get_disk_cache()
    if disk is None:
        stats["disk"] = {"configured": False}
    else:
        stats["disk"] = {"configured": True, "path": disk.root, **disk.counters()}
    return stats


_BYPASS_DEPTH = 0


@contextmanager
def solve_cache_bypass():
    """Temporarily run the exact adapters without the canonical cache.

    Inside the context, lookups are skipped (no canonical form is even
    computed), nothing is stored in either tier, and the hit/miss
    counters are untouched; this is the one way to solve without the
    cache.  The verification harness uses it so metamorphic relations
    (shift/permutation invariance) keep testing the DP itself rather than
    the cache's schedule remapping.
    """
    global _BYPASS_DEPTH
    _BYPASS_DEPTH += 1
    try:
        yield
    finally:
        _BYPASS_DEPTH -= 1


def _replay_engine_meta(engine_meta: Optional[Dict]) -> Optional[Dict]:
    # Cache hits replay the original solve's engine metadata verbatim, so a
    # hit result is byte-identical to the miss that populated it — batch
    # runs stay deterministic regardless of cache state.  Hit/miss traffic
    # is observable through solve_cache_stats() instead of the envelope.
    if engine_meta is None:
        return None
    copied = dict(engine_meta)
    stats = copied.get("stats")
    if isinstance(stats, dict):
        copied["stats"] = dict(stats)
    return copied


def _replay_hit(
    problem: Problem, form: CanonicalForm, cached: Tuple, extra_base: Dict
) -> SolveResult:
    """Rebuild a full result for this problem from a canonical cache entry."""
    feasible, value, assignment, engine_meta = cached
    if not feasible:
        return _infeasible(problem)
    schedule = schedule_from_times(
        problem.instance, restore_assignment(form, assignment)
    )
    extra = dict(extra_base)
    extra["engine"] = _replay_engine_meta(engine_meta)
    return SolveResult(
        status="optimal",
        objective=problem.objective,
        value=value,
        schedule=schedule,
        guarantee_factor=1.0,
        extra=extra,
    )


def replay_isomorph(
    problem: Problem,
    form: CanonicalForm,
    result: SolveResult,
    result_form: CanonicalForm,
) -> Optional[SolveResult]:
    """Move an exact-DP answer onto a canonically isomorphic problem.

    ``result`` answered a problem whose canonical form is ``result_form``;
    ``form`` is ``problem``'s, with the same key.  Returns the envelope a
    cache replay of ``problem`` builds, or ``None`` unless ``result`` is an
    optimal or infeasible ``gap-dp``/``power-dp`` answer whose schedule
    lies on the candidate grid — exactly the answers the cache stores.
    :func:`repro.runtime.solve_stream` finishes isomorphic duplicates
    with it.
    """
    start = time.perf_counter()
    if result.solver not in ("gap-dp", "power-dp"):
        return None
    if result.status == "infeasible":
        entry: Tuple = (False, None, None, None)
    elif result.status == "optimal" and result.schedule is not None:
        times = times_from_schedule(result.schedule)
        if not _on_grid(result_form, times):
            return None
        entry = (
            True,
            result.value,
            canonical_assignment(result_form, times),
            result.extra.get("engine"),
        )
    else:
        return None
    replay = _replay_hit(problem, form, entry, _exact_extra_base(problem))
    replay.solver = result.solver
    replay.wall_time = time.perf_counter() - start
    return replay


def _lookup_canonical(
    objective_key: Tuple, instance
) -> Tuple[Optional[CanonicalForm], Optional[Tuple]]:
    # Bypassed, skip canonicalization entirely: no per-solve overhead.
    if _BYPASS_DEPTH:
        return None, None
    form = canonical_form(instance)
    key = (objective_key, form.key)
    cached = _SOLVE_CACHE.get(key)
    if cached is None:
        disk = get_disk_cache()
        cached = None if disk is None else disk.get(key)
        if cached is not None:
            # Promote into the memory tier so the next isomorphic solve in
            # this process never touches the filesystem.
            _SOLVE_CACHE.put(key, cached)
    return form, cached


def _store_canonical(
    objective_key: Tuple,
    form: Optional[CanonicalForm],
    feasible: bool,
    value,
    times: Optional[Dict[int, int]],
    engine_meta: Optional[Dict] = None,
) -> None:
    if form is None:  # bypassed lookup — do not populate either
        return
    if times is not None and not _on_grid(form, times):
        return
    assignment = canonical_assignment(form, times) if times is not None else None
    entry = (feasible, value, assignment, engine_meta)
    _SOLVE_CACHE.put((objective_key, form.key), entry)
    disk = get_disk_cache()
    if disk is not None:
        disk.put((objective_key, form.key), entry)


def _on_grid(form: CanonicalForm, times: Dict[int, int]) -> bool:
    # A decomposed merge can place a job at a Hall-clipped time off the
    # candidate grid, which canonical coordinates cannot hold.
    return set(times.values()) <= set(form.column_times)


def _objective_key_for(problem: Problem) -> Optional[Tuple]:
    """The adapter cache key for ``problem``, or ``None`` when uncacheable."""
    if problem.objective == "gaps":
        return ("gaps",)
    if problem.objective == "power":
        return ("power", problem.alpha)
    return None


def _infeasible(problem: Problem) -> SolveResult:
    # Adapters for flag-based cores translate ``feasible=False`` into the
    # uniform envelope; adapters for raising cores simply let
    # InfeasibleInstanceError propagate — registry.solve normalizes both.
    return SolveResult(
        status="infeasible",
        objective=problem.objective,
        value=None,
        schedule=None,
    )


def _exact_extra_base(problem: Problem) -> Dict:
    """The ``extra`` keys of an exact-DP result, before its engine metadata."""
    extra_base: Dict = {}
    if problem.objective == "power":
        extra_base["alpha"] = problem.alpha
    if isinstance(problem.instance, MultiprocessorInstance):
        extra_base["num_processors"] = problem.instance.num_processors
    extra_base["exact"] = True
    return extra_base


def _solve_exact_dp(problem: Problem) -> SolveResult:
    """The ``gap-dp`` and ``power-dp`` adapter: decomposed or monolithic, cached.

    Every call takes one path: memory tier, disk tier, solve, store in
    both tiers.  The cache stores a *copy* of the engine metadata (via
    :func:`_replay_engine_meta`): the same dict is returned in the
    result's ``extra``, and a caller mutating it must not poison later
    hits.
    """
    global _FRESH_SOLVES
    objective_key = _objective_key_for(problem)
    extra_base = _exact_extra_base(problem)
    form, cached = _lookup_canonical(objective_key, problem.instance)
    if cached is not None:
        return _replay_hit(problem, form, cached, extra_base)
    with _FRESH_LOCK:
        _FRESH_SOLVES += 1
    solution = try_decomposed_solve(problem)
    if solution is None:
        solution = solve_exact(problem.instance, problem.objective, problem.alpha)
    if not solution.feasible:
        _store_canonical(objective_key, form, False, None, None)
        return _infeasible(problem)
    _store_canonical(
        objective_key, form, True, solution.value, solution.times,
        _replay_engine_meta(solution.engine),
    )
    return SolveResult(
        status="optimal",
        objective=problem.objective,
        value=solution.value,
        schedule=solution.schedule,
        guarantee_factor=1.0,
        extra={**extra_base, "engine": solution.engine},
    )


register_solver(
    "gap-dp",
    objective="gaps",
    kind="exact",
    instance_types=(OneIntervalInstance, MultiprocessorInstance),
    description="Theorem 1 exact interval DP (Baptiste's algorithm at p = 1)",
)(_solve_exact_dp)
register_solver(
    "power-dp",
    objective="power",
    kind="exact",
    instance_types=(OneIntervalInstance, MultiprocessorInstance),
    description="Theorem 2 exact interval DP for power minimization",
)(_solve_exact_dp)


@register_solver(
    "power-approx",
    objective="power",
    kind="approximate",
    instance_types=(MultiIntervalInstance,),
    description="Theorem 3 (1 + (2/3)alpha)-approximation via set packing",
)
def _solve_power_approx(problem: Problem) -> SolveResult:
    approx = approximate_power_schedule(problem.instance, alpha=problem.alpha)
    return SolveResult(
        status="approximate",
        objective="power",
        value=approx.power,
        schedule=approx.schedule,
        guarantee_factor=approx.guarantee_factor,
        extra={
            "alpha": approx.alpha,
            "k": approx.k,
            "residue": approx.residue,
            "packed_jobs": approx.packed_jobs,
            "num_gaps": approx.num_gaps,
        },
    )


@register_solver(
    "throughput-greedy",
    objective="throughput",
    kind="approximate",
    instance_types=(MultiIntervalInstance,),
    description="Theorem 11 greedy O(sqrt(n))-approximation under a gap budget",
)
def _solve_throughput_greedy(problem: Problem) -> SolveResult:
    greedy = greedy_throughput_schedule(problem.instance, max_gaps=problem.max_gaps)
    n = problem.instance.num_jobs
    return SolveResult(
        status="approximate",
        objective="throughput",
        value=greedy.num_scheduled,
        schedule=greedy.schedule,
        guarantee_factor=2.0 * math.sqrt(n) + 1.0 if n else 1.0,
        extra={
            "max_gaps": greedy.max_gaps,
            "num_internal_gaps": greedy.num_internal_gaps,
            "working_intervals": [
                {"start": w.start, "end": w.end, "jobs": list(w.jobs)}
                for w in greedy.working_intervals
            ],
        },
    )


@register_solver(
    "greedy-gap",
    objective="gaps",
    kind="baseline",
    instance_types=(OneIntervalInstance,),
    description="[FHKN06] greedy 3-approximation for single-processor gaps",
)
def _solve_greedy_gap(problem: Problem) -> SolveResult:
    greedy = greedy_gap_schedule(problem.instance)
    if not greedy.feasible:
        return _infeasible(problem)
    return SolveResult(
        status="approximate",
        objective="gaps",
        value=greedy.num_gaps,
        schedule=greedy.schedule,
        guarantee_factor=3.0,
        extra={
            "removed_intervals": [list(pair) for pair in greedy.removed_intervals]
        },
    )


@register_solver(
    "online-edf",
    objective="gaps",
    kind="baseline",
    instance_types=(OneIntervalInstance,),
    description="work-conserving online EDF (the only feasibility-safe online policy)",
)
def _solve_online_edf(problem: Problem) -> SolveResult:
    schedule = online_gap_schedule(problem.instance)
    return SolveResult(
        status="approximate",
        objective="gaps",
        value=schedule.num_gaps(),
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# scalable heuristics with a-posteriori certified factors (PR 9)
# ---------------------------------------------------------------------------
#: Wall-clock deadline (``time.perf_counter()`` value) the local-search
#: adapters stop at; set by the portfolio racer via :func:`heuristic_deadline`.
_HEURISTIC_DEADLINE: List[Optional[float]] = [None]
#: Lower bound the heuristic adapters stamp instead of computing one; set
#: alongside the deadline.
_HEURISTIC_BOUND: List[Optional[BoundCertificate]] = [None]


@contextmanager
def heuristic_deadline(
    deadline: Optional[float], bound: Optional[BoundCertificate] = None
):
    """Run the heuristic adapters under a cooperative wall-clock deadline.

    ``deadline`` is an absolute ``time.perf_counter()`` value.  The
    local-search solvers stop sweeping when it passes and return the best
    schedule found so far — stopping early never invalidates the answer,
    it only loosens the certified factor.

    ``bound``, when given, must be :func:`~repro.bounds.lower_bound_for`
    of the problem solved inside the context: the adapters certify with
    it instead of computing the same bound again.
    """
    _HEURISTIC_DEADLINE.append(deadline)
    _HEURISTIC_BOUND.append(bound)
    try:
        yield
    finally:
        _HEURISTIC_DEADLINE.pop()
        _HEURISTIC_BOUND.pop()


def _publish_times(times: Dict[int, int]) -> None:
    """Stream a feasible ``job -> time`` map over the any-time channel.

    A no-op outside pool workers; inside one, the racer's parent process
    can harvest the latest published map as this member's incumbent even
    after hard-killing it mid-search.  The payload dict is copied only
    when the throttle actually lets a send through.
    """
    publish_incumbent(lambda: {"times": dict(times)})


def _certified_heuristic_result(problem: Problem, schedule, extra: Dict) -> SolveResult:
    """Wrap a heuristic schedule with an honest a-posteriori certificate.

    The stamped ``guarantee_factor`` is instance-specific: with a certified
    lower bound ``L <= opt`` and heuristic value ``U``, the value is within
    ``U / L`` of optimal.  When ``L == 0`` (a gapless optimum cannot be
    ruled out) no finite multiplicative factor exists and the stamp is
    honestly ``None`` — matching the precedent of ``online-edf``.
    """
    from ..bounds import lower_bound_for

    if problem.objective == "gaps":
        value: float = schedule.num_gaps()
    else:
        value = schedule.power_cost(problem.alpha)
    cert = _HEURISTIC_BOUND[-1]
    if cert is None:
        cert = lower_bound_for(problem)
    ratio: Optional[float] = None
    lower: Optional[float] = None
    if cert is not None:
        lower = cert.value
        if lower > 0:
            ratio = value / lower
        elif value <= 0:
            ratio = 1.0
        extra["lower_bound"] = cert.to_dict()
        extra["optimality_gap"] = {"lower": lower, "upper": value, "ratio": ratio}
    return SolveResult(
        status="approximate",
        objective=problem.objective,
        value=value,
        schedule=schedule,
        guarantee_factor=ratio,
        extra=extra,
    )


def _solve_edf(problem: Problem) -> SolveResult:
    """The ``edf-gap`` and ``edf-power`` adapter."""
    schedule = edf_list_schedule(problem.instance)
    _publish_times(schedule.assignment)
    return _certified_heuristic_result(problem, schedule, {"heuristic": "edf"})


def _solve_localsearch(problem: Problem) -> SolveResult:
    """The ``localsearch-gap`` and ``localsearch-power`` adapter."""
    search = merge_local_search(
        problem.instance,
        objective=problem.objective,
        alpha=problem.alpha,
        deadline=_HEURISTIC_DEADLINE[-1],
        on_improve=_publish_times,
    )
    return _certified_heuristic_result(
        problem,
        search.schedule,
        {
            "heuristic": "edf+localsearch",
            "sweeps": search.sweeps,
            "merges": search.merges,
            "exhausted": search.exhausted,
        },
    )


register_solver(
    "edf-gap",
    objective="gaps",
    kind="approximate",
    instance_types=(OneIntervalInstance,),
    description="O(n log n) EDF list schedule with an a-posteriori certified gap factor",
)(_solve_edf)
register_solver(
    "localsearch-gap",
    objective="gaps",
    kind="approximate",
    instance_types=(OneIntervalInstance,),
    description="EDF plus block-merge local search over gap boundaries",
)(_solve_localsearch)
register_solver(
    "edf-power",
    objective="power",
    kind="approximate",
    instance_types=(OneIntervalInstance,),
    description="O(n log n) EDF list schedule with an a-posteriori certified power factor",
)(_solve_edf)
register_solver(
    "localsearch-power",
    objective="power",
    kind="approximate",
    instance_types=(OneIntervalInstance,),
    description="EDF plus power-aware block-merge local search",
)(_solve_localsearch)


@register_solver(
    "brute-force-gaps",
    objective="gaps",
    kind="baseline",
    instance_types=(OneIntervalInstance, MultiprocessorInstance, MultiIntervalInstance),
    description="exponential enumeration oracle for gap minimization (small n)",
)
def _solve_brute_force_gaps(problem: Problem) -> SolveResult:
    instance = problem.instance
    if isinstance(instance, MultiprocessorInstance):
        value, schedule = brute_force_gap_multiproc(instance)
    else:
        value, schedule = brute_force_gap_single(instance)
    if value is None:
        return _infeasible(problem)
    return SolveResult(
        status="optimal",
        objective="gaps",
        value=value,
        schedule=schedule,
        guarantee_factor=1.0,
    )


@register_solver(
    "brute-force-power",
    objective="power",
    kind="baseline",
    instance_types=(OneIntervalInstance, MultiprocessorInstance, MultiIntervalInstance),
    description="exponential enumeration oracle for power minimization (small n)",
)
def _solve_brute_force_power(problem: Problem) -> SolveResult:
    instance = problem.instance
    if isinstance(instance, MultiprocessorInstance):
        value, schedule = brute_force_power_multiproc(instance, alpha=problem.alpha)
    else:
        value, schedule = brute_force_power_multi_interval(instance, alpha=problem.alpha)
    if value is None:
        return _infeasible(problem)
    return SolveResult(
        status="optimal",
        objective="power",
        value=value,
        schedule=schedule,
        guarantee_factor=1.0,
        extra={"alpha": problem.alpha},
    )


@register_solver(
    "brute-force-throughput",
    objective="throughput",
    kind="baseline",
    instance_types=(MultiIntervalInstance,),
    description="exponential enumeration oracle for throughput under a gap budget",
)
def _solve_brute_force_throughput(problem: Problem) -> SolveResult:
    value, schedule = brute_force_throughput(problem.instance, max_gaps=problem.max_gaps)
    return SolveResult(
        status="optimal",
        objective="throughput",
        value=value,
        schedule=schedule,
        guarantee_factor=1.0,
        extra={"max_gaps": problem.max_gaps},
    )
