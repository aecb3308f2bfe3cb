"""Timed runner for the interval-DP engine over the generator families.

Each :class:`BenchCase` pins one instance (family + parameters + seed) and
is solved by the engine with warmup and repeat control; solvers are
constructed fresh for every timed run so memo tables never leak between
repetitions.  Just before each timed engine repeat the runner times
:func:`host_kernel`, a frozen stdlib-only workload that shares no code
with the engine, and the case's ``engine_per_host`` is the median of the
per-repeat engine/host ratios.  The host kernel moves with the machine
(clock, cache, co-tenants) but never with the engine, so the ratio is a
machine-independent measure that the regression gate
(:func:`benchdp.report.compare_reports`) keys on.

Optima are not re-derived here: the exact engine is the only
implementation timed, and the gate compares each case's ``value`` with
the history instead.  The decomposed column is still checked against
the monolithic solve in the same run.  It times the façade's decomposed
solve from a cold cache in this process: components run inline, so its
speedup on the periodic cases comes from the solve cache collapsing
isomorphic clusters, not from extra cores.

``run_bench(quick=True)`` is the CI smoke matrix (small instances, a couple
of seconds); the full matrix adds the medium (n >= 40, p >= 3) and large
(n = 60/80, p = 3/4) instances that make up the headline artifact
``BENCH_dp.json``.  Cases run one after another in this process: cases
timed side by side would contend for cores and distort each other.

Budget-raced solves are not timed here: their wall time is pinned by the
budget, not by the engine.  The repository's ``perfbench`` ``portfolio``
workload measures them end to end, with every answer certified.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Problem, clear_solve_cache, solve
from repro.core.interval_dp import ENGINE_NAME, ENGINE_VERSION, solve_exact
from repro.core.jobs import MultiprocessorInstance
from repro.generators import (
    clustered_release_instance,
    random_multiprocessor_instance,
    splittable_instance,
    tight_window_instance,
)
from repro.runtime import configure_disk_cache, disk_cache_dir

from .report import BENCH_SCHEMA, environment_fingerprint, values_agree

__all__ = [
    "BenchCase",
    "default_cases",
    "host_kernel",
    "time_callable",
    "time_against_host",
    "run_bench",
]

#: Master seed of the instance generators: case ``i`` solves the instance
#: of seed ``SEED + i``, so every report times the same instances.
SEED = 0


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
    clusters: int = 4  # splittable only: number of time-disjoint clusters
    seam: int = 8  # splittable only: idle integers between clusters
    slack: int = 6  # splittable only: max window slack inside a cluster
    periodic: bool = False  # splittable only: identical (shifted) clusters
    decompose: bool = False  # also time the decomposed facade solve

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
            # Its node DAG nests dozens of levels deep, which the engine
            # evaluates iteratively.
            step = max(1, self.horizon // max(1, self.num_jobs))
            pairs = [
                (i * step, i * step + self.window) for i in range(self.num_jobs)
            ]
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
        # Smoke coverage for the decomposition path: small clusters,
        # value-agreement asserted between the decomposed facade solve and
        # the monolithic engine.
        BenchCase(
            "gap/splittable-n24-p2",
            "gaps",
            "splittable",
            24,
            2,
            12,
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
        # Large exact families (the engine's headline cases).
        BenchCase("gap/uniform-n60-p3", "gaps", "uniform", 60, 3, 40),
        BenchCase("power/uniform-n60-p3-a2", "power", "uniform", 60, 3, 40, alpha=2.0),
        BenchCase("gap/uniform-n60-p4", "gaps", "uniform", 60, 4, 36),
        BenchCase("gap/uniform-n80-p4", "gaps", "uniform", 80, 4, 48),
        BenchCase(
            "power/uniform-n80-p4-a2", "power", "uniform", 80, 4, 48, alpha=2.0
        ),
        # Power at p = 4: the most combine arithmetic per branch node in
        # the matrix (the traffic the retired numpy kernels served best),
        # so these two track the scalar combine's heaviest regime.
        BenchCase(
            "power/uniform-n60-p4-a2", "power", "uniform", 60, 4, 36, alpha=2.0
        ),
        BenchCase(
            "power/uniform-n70-p4-a2", "power", "uniform", 70, 4, 42, alpha=2.0
        ),
        # Decomposition headline cases: three *identical* (time-shifted)
        # clusters of 30 wide-window jobs — the repeating-shift workload.
        # The column of interest is decomposed-vs-monolithic
        # (``speedup_vs_mono``).  The win is algorithmic: the clusters are
        # canonically isomorphic, so each frontier DP runs once and the
        # other clusters replay it from the solve cache (see
        # ``_time_decomposed`` for the cold-cache timing discipline).  The
        # components run inline, one after another, so core count does
        # not enter it.
        BenchCase(
            "gap/splittable-periodic-n90-p3",
            "gaps",
            "splittable",
            90,
            3,
            20,
            clusters=3,
            slack=14,
            periodic=True,
            decompose=True,
        ),
        BenchCase(
            "power/splittable-periodic-n90-p3-a2",
            "power",
            "splittable",
            90,
            3,
            20,
            alpha=2.0,
            clusters=3,
            slack=14,
            periodic=True,
            decompose=True,
        ),
    ]
    return cases


def host_kernel() -> int:
    """Frozen host-speed reference workload: about 10 ms of list and dict work.

    A min-plus product of two fixed 36x36 integer matrices, then a walk
    over a dict built from the product.  It runs the same kinds of
    interpreter operations as the engine's combine loop (list indexing,
    comparisons, small-tuple dict keys) but shares no code with it, so a
    slower or busier machine moves both timings while an engine change
    moves only the engine's.  Every committed ``engine_per_host`` ratio is
    relative to exactly this code: changing it invalidates the history.
    """
    size = 36
    a = [[(i * 37 + j * 11) % 97 for j in range(size)] for i in range(size)]
    b = [[(i * 13 + j * 29) % 89 for j in range(size)] for i in range(size)]
    product = []
    for row in a:
        out = []
        for j in range(size):
            best = float("inf")
            for k in range(size):
                cost = row[k] + b[k][j]
                if cost < best:
                    best = cost
            out.append(best)
        product.append(out)
    table: Dict[Tuple[int, int], int] = {}
    for i, row in enumerate(product):
        for j, value in enumerate(row):
            key = (value % 61, j)
            table[key] = table.get(key, 0) + i
    total = 0
    key = (0, 0)
    for step in range(20000):
        got = table.get(key)
        if got is None:
            key = (step % 61, step % size)
            continue
        total += got
        key = ((got + step) % 61, (key[1] + 1) % size)
    return total


def _timing_block(runs: List[float]) -> Dict[str, object]:
    return {
        "best": min(runs),
        "median": statistics.median(runs),
        "mean": statistics.fmean(runs),
        "runs": runs,
    }


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
    return _timing_block(runs)


def time_against_host(
    fn: Callable[[], object], repeats: int, warmup: int
) -> Tuple[Dict[str, object], Dict[str, object], float]:
    """Time ``fn`` with :func:`host_kernel` timed just before each repeat.

    Returns ``(fn timing block, host timing block, ratio)`` where
    ``ratio`` is the median of the per-repeat ``fn / host`` time ratios:
    pairing each repeat with its own host measurement cancels machine
    speed drift within the run, and the median discards a repeat that a
    co-tenant disturbed on one side only.
    """
    for _ in range(warmup):
        host_kernel()
        fn()
    runs: List[float] = []
    host_runs: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        host_kernel()
        middle = time.perf_counter()
        fn()
        end = time.perf_counter()
        host_runs.append(middle - start)
        runs.append(end - middle)
    ratio = statistics.median(run / host for run, host in zip(runs, host_runs))
    return _timing_block(runs), _timing_block(host_runs), ratio


def _engine_solve(case: BenchCase, instance):
    """The engine plus the schedule lift; returns (feasible, value, stats)."""
    solution = solve_exact(instance, case.objective, case.alpha)
    return solution.feasible, solution.value, solution.engine["stats"]


def _decomposed_solve(case: BenchCase, instance):
    """Solve through the façade, which decomposes; (feasible, value, extra)."""
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

    Each timed run clears this process's memory cache first (a dict
    clear, nanoseconds against the millisecond DPs) and runs with the
    disk tier off, so no run ever answers from a previous run's work:
    every repeat re-detects the split and pays for its own component DPs
    end-to-end.  The components run inline in this process, so the
    clear reaches every cache they could read.  *Within* one run the
    memory cache stays live, because per-component cache traffic is the
    product feature being measured — on periodic instances the isomorphic
    clusters collapse onto one solve per frontier budget, which is how
    the decomposed column beats the monolith without extra cores.  The
    disk-cache configuration is snapshotted and restored, and the memory
    tier cleared, so a bench sweep leaves the process as it found it.
    """
    saved_disk = disk_cache_dir()

    def cold_solve():
        clear_solve_cache()
        return _decomposed_solve(case, instance)

    try:
        if saved_disk is not None:
            configure_disk_cache(None)
        feasible, value, extra = cold_solve()
        engine_meta = (extra or {}).get("engine") or {}
        if feasible and "decomposition" not in engine_meta:
            raise AssertionError(
                f"bench case {case.name}: decomposed solve did not take the "
                "decomposition path (no 'decomposition' block in engine meta)"
            )
        timing = time_callable(cold_solve, repeats, warmup)
    finally:
        clear_solve_cache()
        if saved_disk is not None:
            configure_disk_cache(saved_disk)
    return timing, (feasible, value)


def _assert_agreement(case: BenchCase, label: str, feasible, value, other) -> None:
    other_feasible, other_value = other
    if other_feasible != feasible or not values_agree(value, other_value):
        raise AssertionError(
            f"bench case {case.name}: engine value {value!r} (feasible="
            f"{feasible}) disagrees with {label} {other_value!r} "
            f"(feasible={other_feasible})"
        )


def _run_case(case: BenchCase, case_seed: int, repeats: int, warmup: int) -> Dict:
    """Measure one benchmark case end to end; returns its report record."""
    instance = case.make_instance(case_seed)
    feasible, value, stats = _engine_solve(case, instance)
    engine_timing, host_timing, engine_per_host = time_against_host(
        lambda: _engine_solve(case, instance), repeats, warmup
    )
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
        "host": host_timing,
        "engine_per_host": engine_per_host,
        "decomposed": decomposed_timing,
        "speedup_vs_mono": speedup_vs_mono,
        "engine_stats": stats,
    }


def run_bench(
    quick: bool,
    repeats: int,
    warmup: int,
    progress: Optional[Callable[[Dict], None]] = None,
) -> Dict:
    """Run the benchmark matrix and return a schema-conformant report dict.

    ``quick`` selects the reduced CI smoke matrix; each case takes
    ``warmup`` untimed runs, then ``repeats`` timed ones.  ``progress``,
    when given, is called with each finished case record, in matrix
    order.

    The decomposed solve is asserted to agree with the monolithic engine
    on feasibility and value before its timing is recorded; a case that
    fails mid-sweep aborts the whole run (a benchmark with holes would
    silently pass the regression gate).
    """
    if repeats < 1 or warmup < 0:
        raise ValueError("repeats must be >= 1 and warmup >= 0")
    records: List[Dict] = []
    for index, case in enumerate(default_cases(quick)):
        record = _run_case(case, SEED + index, repeats, warmup)
        records.append(record)
        if progress is not None:
            progress(record)
    return {
        "schema": BENCH_SCHEMA,
        "engine": {"name": ENGINE_NAME, "version": ENGINE_VERSION},
        "quick": quick,
        "seed": SEED,
        "repeats": repeats,
        "warmup": warmup,
        "environment": environment_fingerprint(),
        "cases": records,
    }
