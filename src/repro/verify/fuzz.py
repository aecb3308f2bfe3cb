"""Seedable differential fuzzing driver with a JSON failure corpus.

``fuzz(seed=..., n=...)`` draws problems from every generator family the
package ships — uniform random, the structured fuzzers (tight-window,
clustered-release, Hall-violating near-infeasible), the motivating
workloads, and the adversarial online lower-bound family — and pushes each
one through the differential harness and the metamorphic relations.  Every
failure is recorded with the fully serialized problem, so a saved corpus
replays exactly (``replay(path)`` or ``repro-sched fuzz --replay path``)
even on a machine with a different default seed or generator mix.

Everything is driven by one ``random.Random(seed)``; two runs with the same
seed, count, and objectives generate byte-identical problem streams.
Generation is sequential (it owns the RNG), but the differential and
metamorphic evaluation of each case is independent and fans out through
:func:`repro.runtime.run_tasks` — pass ``backend="process"`` (or set
``REPRO_BACKEND`` / the CLI's top-level ``--backend``) to fuzz on every
core; the report folds completions back in case order, so the outcome is
backend-invariant.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.problem import OBJECTIVES, Problem
from ..api.serialization import from_dict, to_dict
from ..core.jobs import MultiIntervalInstance
from ..generators import (
    bursty_server_instance,
    clustered_release_instance,
    hall_violating_instance,
    random_multi_interval_instance,
    random_multiprocessor_instance,
    random_one_interval_instance,
    tight_window_instance,
)
from ..generators.adversarial import online_lower_bound_instance
from .differential import DifferentialReport, run_differential
from .metamorphic import (
    _exact_solver_for,
    check_processor_relabeling,
    run_metamorphic,
)

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "metamorphic_issues",
    "replay",
    "save_corpus",
    "load_corpus",
]

ALPHAS = (0, 1, 2, 2.5, 5)


@dataclass
class FuzzFailure:
    """One failing fuzz case, with enough context to replay it exactly.

    ``meta_seed`` records the RNG seed that drove the metamorphic transforms
    for this case, so replay re-draws the *same* shift deltas and
    permutations the failing run used.
    """

    index: int
    kind: str  # "differential", "metamorphic" or "crash"
    objective: str
    generator: str
    issues: List[str]
    problem: Dict  # to_dict(Problem) — JSON-native
    meta_seed: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "objective": self.objective,
            "generator": self.generator,
            "issues": list(self.issues),
            "problem": self.problem,
            "meta_seed": self.meta_seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzFailure":
        return cls(
            index=int(data["index"]),
            kind=data["kind"],
            objective=data["objective"],
            generator=data.get("generator", "?"),
            issues=list(data.get("issues", [])),
            problem=data["problem"],
            meta_seed=data.get("meta_seed"),
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    seed: Optional[int]
    n: int
    objectives: Tuple[str, ...]
    num_problems: int = 0
    num_solver_runs: int = 0
    num_metamorphic_checks: int = 0
    num_infeasible: int = 0
    solver_counts: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    # Aggregated interval-DP engine counters (summed over every engine-backed
    # solver run) and the number of runs they came from; rendered by
    # ``repro-sched fuzz --profile``.
    engine_runs: int = 0
    engine_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def engine_profile(self) -> List[str]:
        """Human-readable per-run pruning/memo statistics of the engine."""
        if not self.engine_runs:
            return ["engine profile: no engine-backed solver runs"]
        lines = [f"engine profile: {self.engine_runs} engine-backed solver runs"]
        for name in sorted(self.engine_stats):
            value = self.engine_stats[name]
            if name.startswith("peak_"):
                lines.append(f"  {name:<20} max   {value:>10}")
            else:
                lines.append(
                    f"  {name:<20} total {value:>10}  per-run {value / self.engine_runs:>10.1f}"
                )
        return lines

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"FAIL ({len(self.failures)} failures)"
        solvers = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.solver_counts.items())
        )
        return (
            f"fuzz seed={self.seed} n={self.n} "
            f"objectives={'/'.join(self.objectives)}: {verdict} — "
            f"{self.num_problems} problems, {self.num_solver_runs} solver runs "
            f"({solvers}), {self.num_metamorphic_checks} metamorphic checks, "
            f"{self.num_infeasible} certified infeasible"
        )


# ---------------------------------------------------------------------------
# problem generation
# ---------------------------------------------------------------------------
def _gen_one_interval(rng: random.Random):
    maker = rng.choice(["uniform", "tight", "clustered", "hall", "bursty", "online-lb"])
    seed = rng.randrange(2**31)
    if maker == "uniform":
        n = rng.randint(1, 8)
        instance = random_one_interval_instance(
            num_jobs=n,
            horizon=rng.randint(max(2, n), 12),
            seed=seed,
            ensure_feasible=False,
        )
    elif maker == "tight":
        instance = tight_window_instance(
            num_jobs=rng.randint(1, 8), horizon=rng.randint(2, 9), seed=seed
        )
    elif maker == "clustered":
        instance = clustered_release_instance(
            num_jobs=rng.randint(2, 8),
            horizon=rng.randint(4, 12),
            num_clusters=rng.randint(1, 3),
            seed=seed,
        )
    elif maker == "hall":
        instance = hall_violating_instance(
            num_jobs=rng.randint(2, 7),
            horizon=rng.randint(3, 9),
            seed=seed,
            slack=rng.choice([-1, -1, 0]),
        )
    elif maker == "bursty":
        instance = bursty_server_instance(
            num_bursts=rng.randint(1, 3),
            jobs_per_burst=rng.randint(1, 3),
            burst_spacing=rng.randint(2, 4),
            slack=rng.randint(1, 3),
            num_processors=1,
            seed=seed,
        ).single_processor_view()
    else:
        instance = online_lower_bound_instance(rng.randint(1, 2))
    return maker, instance


def _gen_multiproc(rng: random.Random):
    maker = rng.choice(["uniform", "tight", "clustered", "hall"])
    seed = rng.randrange(2**31)
    p = rng.randint(2, 3)
    if maker == "uniform":
        instance = random_multiprocessor_instance(
            num_jobs=rng.randint(1, 7),
            num_processors=p,
            horizon=rng.randint(3, 8),
            seed=seed,
            ensure_feasible=False,
        )
    elif maker == "tight":
        instance = tight_window_instance(
            num_jobs=rng.randint(2, 8),
            horizon=rng.randint(2, 6),
            seed=seed,
            num_processors=p,
        )
    elif maker == "clustered":
        instance = clustered_release_instance(
            num_jobs=rng.randint(2, 8),
            horizon=rng.randint(3, 8),
            num_clusters=rng.randint(1, 3),
            seed=seed,
            num_processors=p,
        )
    else:
        instance = hall_violating_instance(
            num_jobs=rng.randint(2, 7),
            horizon=rng.randint(3, 7),
            seed=seed,
            num_processors=p,
            slack=rng.choice([-1, -1, 0]),
        )
    return maker, instance


def _gen_multi_interval(rng: random.Random) -> Tuple[str, MultiIntervalInstance]:
    maker = rng.choice(["uniform", "tight-as-multi"])
    seed = rng.randrange(2**31)
    if maker == "uniform":
        instance = random_multi_interval_instance(
            num_jobs=rng.randint(1, 6),
            horizon=rng.randint(4, 10),
            intervals_per_job=rng.randint(1, 2),
            interval_length=rng.randint(1, 2),
            seed=seed,
            ensure_feasible=False,
        )
    else:
        instance = tight_window_instance(
            num_jobs=rng.randint(1, 6), horizon=rng.randint(2, 8), seed=seed
        ).to_multi_interval()
    return maker, instance


def generate_problem(rng: random.Random, objective: str) -> Tuple[str, Problem]:
    """Draw one random problem of the given objective from a random family."""
    if objective == "throughput":
        maker, instance = _gen_multi_interval(rng)
        return maker, Problem(
            objective="throughput", instance=instance, max_gaps=rng.randint(0, 3)
        )
    if objective == "power":
        shape = rng.choice(["one", "multi", "interval-set"])
        if shape == "one":
            maker, instance = _gen_one_interval(rng)
        elif shape == "multi":
            maker, instance = _gen_multiproc(rng)
        else:
            maker, instance = _gen_multi_interval(rng)
        return maker, Problem(
            objective="power", instance=instance, alpha=rng.choice(ALPHAS)
        )
    # gaps: one-interval and multiprocessor shapes (the multi-interval gap
    # problem has only the brute-force oracle, exercised via metamorphic runs)
    if rng.random() < 0.5:
        maker, instance = _gen_one_interval(rng)
    else:
        maker, instance = _gen_multiproc(rng)
    return maker, Problem(objective="gaps", instance=instance)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------
@dataclass
class _FuzzCasePayload:
    """One generated case, ready to evaluate on any backend (picklable)."""

    index: int
    objective: str
    generator: str
    problem: Problem
    meta_seed: int
    metamorphic: bool


@dataclass
class _FuzzCaseOutcome:
    """What one evaluated case reports back to the driver."""

    diff: DifferentialReport
    meta_issues: List[str]
    meta_checked: bool


def _evaluate_case(payload: _FuzzCasePayload) -> _FuzzCaseOutcome:
    """Worker-side case evaluation: differential run plus metamorphic checks.

    Module-level so the process backend can ship cases to pool workers;
    exceptions are captured per-case by the runtime and folded back into
    ``kind="crash"`` failures by the driver.
    """
    diff = run_differential(payload.problem)
    meta_issues: List[str] = []
    meta_checked = False
    if payload.metamorphic:
        meta_issues = metamorphic_issues(payload.problem, diff, payload.meta_seed)
        meta_checked = True
    return _FuzzCaseOutcome(diff=diff, meta_issues=meta_issues, meta_checked=meta_checked)


def _fold_case(
    report: FuzzReport,
    payload: _FuzzCasePayload,
    outcome: _FuzzCaseOutcome,
) -> None:
    """Fold one evaluated case into the aggregate report (driver side)."""
    diff = outcome.diff
    report.num_solver_runs += len(diff.runs)
    for run in diff.runs:
        report.solver_counts[run.name] = report.solver_counts.get(run.name, 0) + 1
    _accumulate_engine_stats(report, diff)
    if (
        diff.runs
        and diff.runs[0].result is not None
        and not diff.runs[0].result.feasible
    ):
        report.num_infeasible += 1
    if not diff.ok:
        report.failures.append(
            FuzzFailure(
                index=payload.index,
                kind="differential",
                objective=payload.objective,
                generator=payload.generator,
                issues=list(diff.issues),
                problem=to_dict(payload.problem),
                meta_seed=payload.meta_seed,
            )
        )
    if outcome.meta_checked:
        report.num_metamorphic_checks += 1
        if outcome.meta_issues:
            report.failures.append(
                FuzzFailure(
                    index=payload.index,
                    kind="metamorphic",
                    objective=payload.objective,
                    generator=payload.generator,
                    issues=outcome.meta_issues,
                    problem=to_dict(payload.problem),
                    meta_seed=payload.meta_seed,
                )
            )


def fuzz(
    seed: int = 0,
    n: int = 100,
    objectives: Sequence[str] = OBJECTIVES,
    metamorphic: bool = True,
    corpus_path: Optional[str] = None,
    progress: Optional[Callable[[int, DifferentialReport], None]] = None,
    backend: Optional[object] = None,
    workers: Optional[int] = None,
) -> FuzzReport:
    """Run ``n`` differential fuzz cases, cycling through ``objectives``.

    Parameters
    ----------
    seed:
        Master seed; the whole run is a pure function of (seed, n, objectives).
    n:
        Number of generated problems (at least 1).
    objectives:
        Subset of :data:`~repro.api.problem.OBJECTIVES` to cycle through.
    metamorphic:
        Also check the metamorphic relations on each problem.
    corpus_path:
        When given, the failure corpus is flushed to this JSON file after
        every failing case (so an interrupted run keeps what it found) and
        rewritten at the end (so a green run clears stale failures).
    progress:
        Optional callback ``(index, report)`` invoked after every case.
    backend / workers:
        Execution backend for case evaluation (see
        :func:`repro.runtime.resolve_backend`); generation stays
        sequential and the report is folded in case order, so every
        backend produces the same report.
    """
    from ..runtime.stream import run_tasks

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for objective in objectives:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; expected ones of {OBJECTIVES}"
            )
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, n=n, objectives=tuple(objectives))

    def flush() -> None:
        if corpus_path is not None:
            # Flush after every failing case so a killed run (CI timeout,
            # OOM) still leaves the failures found so far on disk.
            save_corpus(report.failures, corpus_path)

    # Phase 1 — sequential generation (the RNG stream must not depend on
    # evaluation order or backend).  A generator crash is itself a finding:
    # it is recorded — and flushed to the corpus — the moment it happens,
    # so even a run killed mid-evaluation keeps it.
    payloads: List[_FuzzCasePayload] = []
    for index in range(n):
        objective = objectives[index % len(objectives)]
        report.num_problems += 1
        generator, problem, meta_seed = "?", None, None
        try:
            generator, problem = generate_problem(rng, objective)
            # Draw the metamorphic seed unconditionally so the problem
            # stream is identical with and without metamorphic checking.
            meta_seed = rng.randrange(2**31)
        except Exception as exc:  # noqa: BLE001 — a crash *is* a finding
            report.failures.append(
                FuzzFailure(
                    index=index,
                    kind="crash",
                    objective=objective,
                    generator=generator,
                    issues=[f"unhandled {type(exc).__name__}: {exc}"],
                    problem=to_dict(problem) if problem is not None else {},
                    meta_seed=meta_seed,
                )
            )
            flush()
            continue
        payloads.append(
            _FuzzCasePayload(
                index=index,
                objective=objective,
                generator=generator,
                problem=problem,
                meta_seed=meta_seed,
                metamorphic=metamorphic,
            )
        )

    # Phase 2 — evaluation through the runtime, folded back in case order.
    payload_iter = iter(payloads)
    outcomes = run_tasks(
        _evaluate_case, payloads, backend=backend, workers=workers, ordered=True
    )
    for _position, outcome in outcomes:
        payload = next(payload_iter)
        failures_before = len(report.failures)
        if outcome.ok:
            _fold_case(report, payload, outcome.value)
        else:
            # Never lose the crashing instance: record it in the corpus and
            # keep fuzzing the rest of the run.
            report.failures.append(
                FuzzFailure(
                    index=payload.index,
                    kind="crash",
                    objective=payload.objective,
                    generator=payload.generator,
                    issues=[f"unhandled {outcome.error_type}: {outcome.error}"],
                    problem=to_dict(payload.problem),
                    meta_seed=payload.meta_seed,
                )
            )
        if len(report.failures) > failures_before:
            flush()
        if progress is not None and outcome.ok:
            progress(payload.index, outcome.value.diff)
    # Generation failures were recorded (and flushed) ahead of evaluation
    # failures; restore the sequential driver's index order for the final
    # report and corpus.
    report.failures.sort(key=lambda failure: failure.index)
    if corpus_path is not None:
        # Always (re)write, so a green run clears a stale corpus from a
        # previous failing run of the same command.
        save_corpus(report.failures, corpus_path)
    return report


def _accumulate_engine_stats(report: FuzzReport, diff: DifferentialReport) -> None:
    """Fold interval-DP engine counters from a differential run into the report."""
    for run in diff.runs:
        if run.result is None:
            continue
        engine = run.result.extra.get("engine")
        if not isinstance(engine, dict):
            continue
        stats = engine.get("stats")
        if not isinstance(stats, dict):
            continue
        report.engine_runs += 1
        for name, value in stats.items():
            # Peak-type counters are per-run maxima; summing them would be
            # meaningless, so they aggregate by max instead.
            if name.startswith("peak_"):
                report.engine_stats[name] = max(
                    report.engine_stats.get(name, 0), int(value)
                )
            else:
                report.engine_stats[name] = report.engine_stats.get(name, 0) + int(value)


def metamorphic_issues(problem: Problem, diff: DifferentialReport, meta_seed: int) -> List[str]:
    """The metamorphic checks of one fuzz case, reproducible from meta_seed."""
    meta_rng = random.Random(meta_seed)
    # The differential run already solved the problem with the exact solver
    # the relations compare against; reuse its result as the base.
    exact_solver = _exact_solver_for(problem)
    base = next(
        (r.result for r in diff.runs if r.name == exact_solver and r.result is not None),
        None,
    )
    issues = run_metamorphic(problem, rng=meta_rng, base_result=base)
    for run in diff.runs:
        if run.result is not None and run.result.feasible:
            issues.extend(
                check_processor_relabeling(problem, run.result, rng=meta_rng)
            )
    return issues


# ---------------------------------------------------------------------------
# corpus round-trip and replay
# ---------------------------------------------------------------------------
def save_corpus(failures: Sequence[FuzzFailure], path: str) -> None:
    """Write failing cases to a JSON corpus file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([f.to_dict() for f in failures], handle, indent=2, sort_keys=True)


def load_corpus(path: str) -> List[FuzzFailure]:
    """Read a JSON corpus written by :func:`save_corpus`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return [FuzzFailure.from_dict(entry) for entry in data]


def replay(corpus_path: str, metamorphic: bool = True) -> FuzzReport:
    """Re-run every problem of a saved corpus through the harness.

    The corpus stores the fully serialized problem *and* the metamorphic
    RNG seed of the original run, so replay re-draws the same transforms:
    a fixed bug turns the corresponding cases green regardless of generator
    drift, and a live one keeps reproducing.
    """
    failures = load_corpus(corpus_path)
    report = FuzzReport(
        seed=None,
        n=len(failures),
        objectives=tuple(sorted({f.objective for f in failures})),
    )
    for entry in failures:
        report.num_problems += 1
        try:
            problem = from_dict(entry.problem)
            diff = run_differential(problem)
            report.num_solver_runs += len(diff.runs)
            for run in diff.runs:
                report.solver_counts[run.name] = (
                    report.solver_counts.get(run.name, 0) + 1
                )
            _accumulate_engine_stats(report, diff)
            issues = list(diff.issues)
            kind = "differential" if issues else entry.kind
            # Crash entries may have crashed in either phase, so replay the
            # metamorphic checks for them too.
            if metamorphic and entry.kind in ("metamorphic", "crash"):
                meta_seed = entry.meta_seed if entry.meta_seed is not None else entry.index
                meta_issues = metamorphic_issues(problem, diff, meta_seed)
                report.num_metamorphic_checks += 1
                if meta_issues and not issues:
                    kind = "metamorphic"
                issues.extend(meta_issues)
        except Exception as exc:  # noqa: BLE001 — crashes must keep reproducing
            issues = [f"unhandled {type(exc).__name__}: {exc}"]
            kind = "crash"
        if issues:
            report.failures.append(
                FuzzFailure(
                    index=entry.index,
                    kind=kind,
                    objective=entry.objective,
                    generator=entry.generator,
                    issues=issues,
                    problem=entry.problem,
                    meta_seed=entry.meta_seed,
                )
            )
    return report
