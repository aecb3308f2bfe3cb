"""Timed runners for the interval-DP engines over the generator families.

Each :class:`BenchCase` pins one instance (family + parameters + seed) and
is solved by up to three implementations — the v2 bottom-up engine, the v1
trampoline engine, and the frozen pre-engine seed solver — with warmup and
repeat control; solvers are constructed fresh for every timed run so memo
tables never leak between repetitions.  The runner differentially asserts
that every measured implementation agrees on feasibility and value for
every case — a benchmark that silently timed a wrong answer would be worse
than no benchmark.

``run_bench(quick=True)`` is the CI smoke matrix (small instances, a couple
of seconds); the default full matrix adds the medium (n >= 40, p >= 3) and
large (n = 60/80, p = 3/4) instances whose seed -> v1 -> v2 trajectory is
the headline artifact in ``BENCH_dp.json``.  The largest cases skip the
seed baseline (``seed_baseline=False``): the recursive seed solvers take
tens of seconds there and their column is already anchored by the shared
medium cases.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.jobs import MultiprocessorInstance
from ..core.multiproc_gap_dp import MultiprocessorGapSolver
from ..core.multiproc_power_dp import MultiprocessorPowerSolver
from ..core.interval_dp import ENGINE_NAME, ENGINE_VERSION
from ..generators import (
    clustered_release_instance,
    random_multiprocessor_instance,
    splittable_instance,
    tight_window_instance,
)
from .report import BENCH_SCHEMA, environment_fingerprint
from .seed_baseline import SeedGapSolver, SeedPowerSolver

__all__ = [
    "BenchCase",
    "default_cases",
    "portfolio_cases",
    "time_callable",
    "run_bench",
]

#: Default timing discipline; CLI flags override.
DEFAULT_REPEATS = 3
DEFAULT_WARMUP = 1


@dataclass(frozen=True)
class BenchCase:
    """One benchmark instance: a generator family pinned to exact parameters."""

    name: str
    objective: str  # "gaps" | "power"
    family: str  # "uniform" | "tight" | "clustered" | "sparse-wide" | "splittable"
    num_jobs: int
    num_processors: int
    horizon: int  # splittable: per-cluster horizon
    alpha: Optional[float] = None
    window: int = 4  # sparse-wide only: per-job window length
    seed_baseline: bool = True  # time the frozen seed solver on this case
    v1_baseline: bool = True  # time the v1 trampoline engine on this case
    clusters: int = 4  # splittable only: number of time-disjoint clusters
    seam: int = 8  # splittable only: idle integers between clusters
    slack: int = 6  # splittable only: max window slack inside a cluster
    periodic: bool = False  # splittable only: identical (shifted) clusters
    decompose: bool = False  # also time the decomposed facade solve
    decompose_backend: Optional[str] = None  # component backend (None: default chain)
    portfolio: bool = False  # time the budget-raced portfolio, not the DP engines
    budget: Optional[float] = None  # portfolio only: wall-clock budget in seconds

    def make_instance(self, seed: int) -> MultiprocessorInstance:
        """Build the case's instance deterministically from ``seed``."""
        if self.family == "uniform":
            return random_multiprocessor_instance(
                num_jobs=self.num_jobs,
                num_processors=self.num_processors,
                horizon=self.horizon,
                seed=seed,
            )
        if self.family == "tight":
            return tight_window_instance(
                num_jobs=self.num_jobs,
                horizon=self.horizon,
                seed=seed,
                num_processors=self.num_processors,
            )
        if self.family == "clustered":
            return clustered_release_instance(
                num_jobs=self.num_jobs,
                horizon=self.horizon,
                num_clusters=3,
                seed=seed,
                num_processors=self.num_processors,
            )
        if self.family == "splittable":
            return splittable_instance(
                num_jobs=self.num_jobs,
                num_clusters=self.clusters,
                cluster_horizon=self.horizon,
                seam=self.seam,
                max_slack=self.slack,
                seed=seed,
                num_processors=self.num_processors,
                periodic=self.periodic,
            )
        if self.family == "sparse-wide":
            # Long-horizon staircase: sparse releases, overlapping windows.
            # This is the family that drove the seed solvers deepest into the
            # native stack; both engines evaluate it iteratively.
            step = max(1, self.horizon // max(1, self.num_jobs))
            pairs = [
                (i * step, i * step + self.window) for i in range(self.num_jobs)
            ]
            return MultiprocessorInstance.from_pairs(
                pairs, num_processors=self.num_processors
            )
        if self.family == "bursty":
            # Well-separated bursts of 50 jobs each, feasible by
            # construction: every deadline sits at least h/2 past every
            # release of its burst, so any release suffix of a burst has
            # h/2 + 2 >= 52 slots of capacity.  ``horizon`` is the
            # per-burst release span h.
            import random as _random

            rng = _random.Random(seed)
            h = self.horizon
            burst = 50
            pairs = []
            for cluster in range(self.num_jobs // burst):
                base = 3 * h * cluster
                for _ in range(burst):
                    release = base + rng.randrange(h)
                    deadline = base + h + h // 2 + rng.randrange(h // 2)
                    pairs.append((release, deadline))
            return MultiprocessorInstance.from_pairs(
                pairs, num_processors=self.num_processors
            )
        raise ValueError(f"unknown bench family {self.family!r}")


def default_cases(quick: bool = False) -> List[BenchCase]:
    """The benchmark matrix; ``quick`` keeps only the CI smoke subset."""
    cases = [
        BenchCase("gap/uniform-n16-p2", "gaps", "uniform", 16, 2, 18),
        BenchCase("gap/tight-n20-p2", "gaps", "tight", 20, 2, 16),
        BenchCase("power/uniform-n16-p2-a2", "power", "uniform", 16, 2, 18, alpha=2.0),
        BenchCase("gap/baptiste-n30-p1", "gaps", "uniform", 30, 1, 40),
        # Smoke coverage for the decomposition path: small clusters, serial
        # components (stable on shared CI runners), value-agreement asserted
        # between the decomposed facade solve and the monolithic engine.
        BenchCase(
            "gap/splittable-n24-p2",
            "gaps",
            "splittable",
            24,
            2,
            12,
            seed_baseline=False,
            clusters=3,
            seam=6,
            decompose=True,
        ),
    ]
    if quick:
        return cases
    cases += [
        BenchCase("gap/uniform-n40-p3", "gaps", "uniform", 40, 3, 30),
        BenchCase("gap/clustered-n44-p3", "gaps", "clustered", 44, 3, 28),
        BenchCase("power/uniform-n40-p3-a2", "power", "uniform", 40, 3, 30, alpha=2.0),
        BenchCase(
            "power/clustered-n42-p3-a05", "power", "clustered", 42, 3, 26, alpha=0.5
        ),
        BenchCase("gap/baptiste-n36-p1", "gaps", "uniform", 36, 1, 46),
        BenchCase("gap/sparse-wide-n60-p1", "gaps", "sparse-wide", 60, 1, 120),
        BenchCase(
            "power/sparse-wide-n60-p1-a3", "power", "sparse-wide", 60, 1, 120, alpha=3.0
        ),
        # Large exact families (engine v2 headline cases).  The n = 80
        # cases skip the seed baseline: the frozen recursive solvers need
        # tens of seconds per run there, and the seed column is already
        # anchored by the shared n <= 60 cases.
        BenchCase("gap/uniform-n60-p3", "gaps", "uniform", 60, 3, 40),
        BenchCase("power/uniform-n60-p3-a2", "power", "uniform", 60, 3, 40, alpha=2.0),
        BenchCase("gap/uniform-n60-p4", "gaps", "uniform", 60, 4, 36),
        BenchCase(
            "gap/uniform-n80-p4", "gaps", "uniform", 80, 4, 48, seed_baseline=False
        ),
        BenchCase(
            "power/uniform-n80-p4-a2",
            "power",
            "uniform",
            80,
            4,
            48,
            alpha=2.0,
            seed_baseline=False,
        ),
        # Power at p = 4: the most combine arithmetic per branch node in
        # the matrix (the traffic the retired numpy kernels served best),
        # so these two track the scalar combine's heaviest regime.  They
        # skip the seed baseline for the same reason the n = 80 cases do.
        BenchCase(
            "power/uniform-n60-p4-a2",
            "power",
            "uniform",
            60,
            4,
            36,
            alpha=2.0,
            seed_baseline=False,
        ),
        BenchCase(
            "power/uniform-n70-p4-a2",
            "power",
            "uniform",
            70,
            4,
            42,
            alpha=2.0,
            seed_baseline=False,
        ),
        # Decomposition headline cases: three *identical* (time-shifted)
        # clusters of 30 wide-window jobs — the repeating-shift workload —
        # with process-backend component solves.  These skip the seed and
        # v1 columns; the column of interest is decomposed-vs-monolithic-v2
        # (``speedup_vs_mono``).  The decomposed win here is algorithmic,
        # not parallelism: the clusters are canonically isomorphic, so one
        # component DP runs and the rest replay from the solve cache (see
        # ``_time_decomposed`` for the cold-cache timing discipline) — the
        # speedup therefore holds even on a single-core CI runner, and
        # extra cores only widen it.
        BenchCase(
            "gap/splittable-periodic-n90-p3",
            "gaps",
            "splittable",
            90,
            3,
            20,
            seed_baseline=False,
            v1_baseline=False,
            clusters=3,
            slack=14,
            periodic=True,
            decompose=True,
            decompose_backend="process",
        ),
        BenchCase(
            "power/splittable-periodic-n90-p3-a2",
            "power",
            "splittable",
            90,
            3,
            20,
            alpha=2.0,
            seed_baseline=False,
            v1_baseline=False,
            clusters=3,
            slack=14,
            periodic=True,
            decompose=True,
            decompose_backend="process",
        ),
    ]
    return cases


def portfolio_cases(quick: bool = False) -> List[BenchCase]:
    """The budget-raced large-n portfolio family (``bench --portfolio``).

    These cases time :func:`repro.portfolio.run_portfolio` end to end (the
    ``engine`` column) and record per-member times plus the realized
    certified gap in the ``portfolio`` block.  Their wall time is pinned
    by the budget, so :func:`~repro.perf.report.compare_reports` skips
    them instead of gating.  The quick list is a prefix of the full list,
    mirroring :func:`default_cases`.
    """
    cases = [
        BenchCase(
            "portfolio/gap-sparse-n1000",
            "gaps",
            "sparse-wide",
            1000,
            1,
            7000,
            window=30,
            portfolio=True,
            budget=1.0,
        ),
        BenchCase(
            "portfolio/power-bursty-n1000-a4",
            "power",
            "bursty",
            1000,
            1,
            100,
            alpha=4.0,
            portfolio=True,
            budget=1.0,
        ),
    ]
    if quick:
        return cases
    cases += [
        BenchCase(
            "portfolio/gap-sparse-n10000",
            "gaps",
            "sparse-wide",
            10_000,
            1,
            70_000,
            window=30,
            portfolio=True,
            budget=2.0,
        ),
        BenchCase(
            "portfolio/power-bursty-n10000-a4",
            "power",
            "bursty",
            10_000,
            1,
            100,
            alpha=4.0,
            portfolio=True,
            budget=2.0,
        ),
        BenchCase(
            "portfolio/gap-sparse-n100000",
            "gaps",
            "sparse-wide",
            100_000,
            1,
            700_000,
            window=30,
            portfolio=True,
            budget=5.0,
        ),
    ]
    return cases


def time_callable(
    fn: Callable[[], object], repeats: int, warmup: int
) -> Dict[str, object]:
    """Time ``fn`` (freshly, ``repeats`` times after ``warmup`` untimed runs)."""
    for _ in range(warmup):
        fn()
    runs: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return {
        "best": min(runs),
        "median": statistics.median(runs),
        "mean": statistics.fmean(runs),
        "runs": runs,
    }


def _engine_solve(case: BenchCase, instance, engine: str = "v2"):
    """Solve with an engine-backed solver; returns (feasible, value, stats)."""
    if case.objective == "gaps":
        solver = MultiprocessorGapSolver(instance, engine=engine)
        solution = solver.solve()
        value = solution.num_gaps
    else:
        solver = MultiprocessorPowerSolver(instance, alpha=case.alpha, engine=engine)
        solution = solver.solve()
        value = solution.power
    return solution.feasible, value, solver.engine.stats.as_dict()


def _decomposed_solve(case: BenchCase, instance):
    """Solve through the façade with decomposition on; (feasible, value, extra)."""
    from ..api.problem import Problem
    from ..api.registry import solve

    if case.objective == "gaps":
        problem = Problem(objective="gaps", instance=instance)
        solver = "gap-dp"
    else:
        problem = Problem(objective="power", instance=instance, alpha=case.alpha)
        solver = "power-dp"
    result = solve(problem, solver=solver)
    return result.status != "infeasible", result.value, result.extra


def _time_decomposed(
    case: BenchCase, instance, repeats: int, warmup: int
) -> Tuple[Dict[str, object], Tuple[bool, object]]:
    """Time the decomposed façade solve from a cold canonical cache.

    Each timed run clears the in-memory solve cache first (a dict clear,
    nanoseconds against the millisecond DPs) and runs with the disk tier
    off, so no run ever answers from a previous run's work: every repeat
    re-detects the split and pays for its own component DPs end-to-end.
    *Within* one run the memory cache stays live, because per-component
    cache traffic is the product feature being measured — on periodic
    instances the isomorphic clusters collapse onto one component solve,
    which is how the decomposed column beats the monolith even on a
    single-core runner.  The solve-cache, disk-cache and decomposition
    configurations are snapshotted and restored so a bench sweep leaves
    the process exactly as it found it.
    """
    from ..api.decomposition import configure_decomposition, decomposition_config
    from ..api.solvers import clear_solve_cache, configure_solve_cache, solve_cache_stats
    from ..runtime.diskcache import configure_disk_cache, disk_cache_dir

    saved_decomp = decomposition_config()
    saved_maxsize = solve_cache_stats()["maxsize"]
    saved_disk = disk_cache_dir()

    def cold_solve():
        clear_solve_cache()
        return _decomposed_solve(case, instance)

    try:
        configure_solve_cache(max(saved_maxsize, 256))
        if saved_disk is not None:
            configure_disk_cache(None)
        configure_decomposition(
            enabled=True, min_jobs=2, backend=case.decompose_backend
        )
        feasible, value, extra = cold_solve()
        engine_meta = (extra or {}).get("engine") or {}
        if feasible and "decomposition" not in engine_meta:
            raise AssertionError(
                f"bench case {case.name}: decomposed solve did not take the "
                "decomposition path (no 'decomposition' block in engine meta)"
            )
        timing = time_callable(cold_solve, repeats, warmup)
    finally:
        configure_decomposition(**saved_decomp)
        configure_solve_cache(saved_maxsize)
        clear_solve_cache()
        if saved_disk is not None:
            configure_disk_cache(saved_disk)
    return timing, (feasible, value)


def _baseline_solve(case: BenchCase, instance):
    """Solve with the frozen seed baseline; returns (feasible, value)."""
    if case.objective == "gaps":
        feasible, value, _schedule = SeedGapSolver(instance).solve()
    else:
        feasible, value, _schedule = SeedPowerSolver(instance, alpha=case.alpha).solve()
    return feasible, value


def _values_agree(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= 1e-6


def _assert_agreement(case: BenchCase, label: str, feasible, value, other) -> None:
    other_feasible, other_value = other
    if other_feasible != feasible or not _values_agree(value, other_value):
        raise AssertionError(
            f"bench case {case.name}: engine v2 value {value!r} (feasible="
            f"{feasible}) disagrees with {label} {other_value!r} "
            f"(feasible={other_feasible})"
        )


def _run_portfolio_case(
    case: BenchCase, instance, repeats: int, warmup: int
) -> Dict:
    """Measure one budget-raced portfolio case; returns its report record.

    The ``engine`` timing block here is the end-to-end
    :func:`~repro.portfolio.run_portfolio` call; the DP comparison columns
    are all null (the exact engines are exactly what these instances are
    too large for).  One representative run supplies the member records
    and the realized certified gap.
    """
    from ..api.problem import Problem
    from ..portfolio import run_portfolio

    if case.budget is None or case.budget <= 0:
        raise ValueError(f"portfolio case {case.name} needs a positive budget")
    single = instance.single_processor_view()
    problem = Problem(objective=case.objective, instance=single, alpha=case.alpha)
    representative = run_portfolio(problem, case.budget)
    if not representative.feasible:
        raise AssertionError(
            f"bench case {case.name}: portfolio returned {representative.status} "
            "on a feasible-by-construction instance"
        )
    gap = representative.extra.get("optimality_gap") or {}
    if gap.get("ratio") is None:
        raise AssertionError(
            f"bench case {case.name}: portfolio produced no finite certified gap"
        )
    timing = time_callable(
        lambda: run_portfolio(problem, case.budget), repeats, warmup
    )
    race = representative.extra["portfolio"]
    return {
        "name": case.name,
        "objective": case.objective,
        "family": case.family,
        "num_jobs": instance.num_jobs,
        "num_processors": case.num_processors,
        "alpha": case.alpha,
        "value": float(representative.value),
        "engine": timing,
        "engine_v1": None,
        "baseline": None,
        "speedup": None,
        "speedup_vs_v1": None,
        "decomposed": None,
        "speedup_vs_mono": None,
        "portfolio": {
            "budget": case.budget,
            "status": representative.status,
            "winner": race["winner"],
            "upper": float(gap["upper"]),
            "lower": None if gap.get("lower") is None else float(gap["lower"]),
            "ratio": None if gap.get("ratio") is None else float(gap["ratio"]),
            "backend": race.get("backend", "serial"),
            "preemptive": bool(race.get("preemptive", False)),
            "members": [
                {
                    "name": member["name"],
                    "state": member["state"],
                    "status": member.get("status"),
                    "wall_time": member.get("wall_time"),
                    "kill_reason": member.get("kill_reason"),
                }
                for member in race["members"]
            ],
        },
        "engine_stats": {},
    }


def _run_case(payload: Tuple) -> Dict:
    """Measure one benchmark case end to end; returns its report record.

    Module-level (with a picklable payload) so :func:`run_bench` can fan
    cases out through any :mod:`repro.runtime` backend.
    """
    case, case_seed, repeats, warmup, baseline, compare_v1 = payload
    instance = case.make_instance(case_seed)
    if case.portfolio:
        return _run_portfolio_case(case, instance, repeats, warmup)
    feasible, value, stats = _engine_solve(case, instance)
    engine_timing = time_callable(
        lambda: _engine_solve(case, instance), repeats, warmup
    )
    v1_timing = None
    speedup_vs_v1 = None
    if compare_v1 and case.v1_baseline:
        v1_feasible, v1_value, _v1_stats = _engine_solve(case, instance, engine="v1")
        _assert_agreement(case, "engine v1", feasible, value, (v1_feasible, v1_value))
        v1_timing = time_callable(
            lambda: _engine_solve(case, instance, engine="v1"), repeats, warmup
        )
        speedup_vs_v1 = v1_timing["median"] / max(engine_timing["median"], 1e-12)
    baseline_timing = None
    speedup = None
    if baseline and case.seed_baseline:
        _assert_agreement(
            case, "seed baseline", feasible, value, _baseline_solve(case, instance)
        )
        baseline_timing = time_callable(
            lambda: _baseline_solve(case, instance), repeats, warmup
        )
        speedup = baseline_timing["median"] / max(engine_timing["median"], 1e-12)
    decomposed_timing = None
    speedup_vs_mono = None
    if case.decompose:
        decomposed_timing, decomposed_answer = _time_decomposed(
            case, instance, repeats, warmup
        )
        _assert_agreement(case, "decomposed solve", feasible, value, decomposed_answer)
        speedup_vs_mono = engine_timing["median"] / max(
            decomposed_timing["median"], 1e-12
        )
    return {
        "name": case.name,
        "objective": case.objective,
        "family": case.family,
        "num_jobs": instance.num_jobs,
        "num_processors": case.num_processors,
        "alpha": case.alpha,
        "value": None if value is None else float(value),
        "engine": engine_timing,
        "engine_v1": v1_timing,
        "baseline": baseline_timing,
        "speedup": speedup,
        "speedup_vs_v1": speedup_vs_v1,
        "decomposed": decomposed_timing,
        "speedup_vs_mono": speedup_vs_mono,
        "portfolio": None,
        "engine_stats": stats,
    }


def run_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: int = 0,
    baseline: bool = True,
    compare_v1: bool = True,
    cases: Optional[List[BenchCase]] = None,
    progress: Optional[Callable[[Dict], None]] = None,
    backend: Optional[object] = None,
    workers: Optional[int] = None,
    portfolio: bool = False,
    name_filter: Optional[str] = None,
) -> Dict:
    """Run the benchmark matrix and return a schema-conformant report dict.

    Parameters
    ----------
    quick:
        Use the reduced CI smoke matrix.
    repeats / warmup:
        Timing discipline (defaults: 3 timed runs after 1 warmup).
    seed:
        Master seed for the instance generators.
    baseline:
        Also time the frozen seed solvers (on cases that allow it) and
        report speedups; disabling this leaves baseline/speedup null.
    compare_v1:
        Also time the v1 trampoline engine and report ``speedup_vs_v1``;
        disabling this leaves engine_v1/speedup_vs_v1 null.
    cases:
        Explicit case list overriding :func:`default_cases`.
    progress:
        Optional callback invoked with each finished case record (in
        matrix order on every backend).
    portfolio:
        Also run the budget-raced large-n :func:`portfolio_cases`
        (appended after the DP matrix so the quick-prefix property of the
        case list is preserved).
    name_filter:
        Regular expression matched (``re.search``) against case names;
        non-matching cases are dropped.  Raises ``ValueError`` when
        nothing matches — a silently empty benchmark would look like
        success.
    backend / workers:
        Execution backend for the case sweep.  Unlike the other harnesses
        this deliberately ignores ``configure_backend``/``REPRO_BACKEND``
        and stays strictly serial unless a backend is passed explicitly:
        co-scheduled cases contend for cores and distort each other's
        timings, so parallel runs are for quick value-agreement sweeps,
        never for committed reports.

    Every measured implementation is asserted to agree with the v2 engine
    on feasibility and value before any timing is recorded; a case that
    fails mid-sweep aborts the whole run (a benchmark with holes would
    silently pass the regression gate).
    """
    from ..runtime.stream import run_tasks

    repeats = DEFAULT_REPEATS if repeats is None else repeats
    warmup = DEFAULT_WARMUP if warmup is None else warmup
    if repeats < 1 or warmup < 0:
        raise ValueError("repeats must be >= 1 and warmup >= 0")
    case_list = default_cases(quick) if cases is None else list(cases)
    if portfolio:
        case_list = case_list + portfolio_cases(quick)
    if name_filter is not None:
        import re

        pattern = re.compile(name_filter)
        case_list = [case for case in case_list if pattern.search(case.name)]
        if not case_list:
            raise ValueError(f"--filter {name_filter!r} matches no bench case")

    payloads = [
        (case, seed + index, repeats, warmup, baseline, compare_v1)
        for index, case in enumerate(case_list)
    ]
    records: List[Dict] = []
    for _index, outcome in run_tasks(
        _run_case, payloads, backend=backend or "serial", workers=workers
    ):
        record = outcome.unwrap()
        records.append(record)
        if progress is not None:
            progress(record)

    return {
        "schema": BENCH_SCHEMA,
        "engine": {"name": ENGINE_NAME, "version": ENGINE_VERSION},
        "quick": quick,
        "seed": seed,
        "repeats": repeats,
        "warmup": warmup,
        "environment": environment_fingerprint(),
        "cases": records,
    }
