"""Differential fuzzing of the budget-raced portfolio against the exact DPs.

Small seeded instances (n <= 14, where the exact DP always finishes well
inside the budget) are solved both ways, and every certified claim the
portfolio makes is checked against the known optimum:

* feasibility verdicts agree;
* the portfolio's answer equals the optimum (the exact member is on the
  roster at these sizes, so the race must return it or tie it);
* the certified envelope brackets the optimum:
  ``lower <= opt <= upper`` and ``upper <= guarantee_factor * opt``;
* the result re-certifies through
  :func:`repro.verify.certificates.certify_result` and the attached lower
  bound through :func:`~repro.verify.certificates.certify_bound`.

Exposed on the command line as ``repro-sched fuzz --portfolio``; CI runs
it in the race smoke job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..api.problem import Problem
from ..api.registry import solve
from ..core.jobs import OneIntervalInstance
from .certificates import TOLERANCE, certify_bound, certify_result

__all__ = ["PortfolioFuzzFailure", "PortfolioFuzzReport", "portfolio_fuzz"]

#: Largest fuzz instance; small enough that the raced exact DP always
#: finishes inside the budget, so the optimum is available for comparison.
MAX_FUZZ_JOBS = 14

_ALPHAS = (0.5, 1.0, 2.0, 3.5)


@dataclass
class PortfolioFuzzFailure:
    """One portfolio fuzz case whose checks failed."""

    index: int
    objective: str
    alpha: Optional[float]
    pairs: List[Tuple[int, int]]
    issues: List[str]


@dataclass
class PortfolioFuzzReport:
    """Aggregate outcome of one :func:`portfolio_fuzz` run."""

    seed: int
    cases: int = 0
    feasible_cases: int = 0
    infeasible_cases: int = 0
    optimal_matches: int = 0
    failures: List[PortfolioFuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"portfolio fuzz seed={self.seed}: {self.cases} cases "
            f"({self.feasible_cases} feasible, {self.infeasible_cases} "
            f"infeasible, {self.optimal_matches} optimum matches) — {verdict}"
        )


def _random_problem(
    rng: random.Random,
) -> Tuple[str, Optional[float], List[Tuple[int, int]], Problem]:
    objective = rng.choice(("gaps", "power"))
    num_jobs = rng.randint(1, MAX_FUZZ_JOBS)
    horizon = rng.randint(max(2, num_jobs // 2), 3 * num_jobs + 4)
    pairs = []
    for _ in range(num_jobs):
        release = rng.randrange(horizon)
        deadline = release + rng.randint(0, horizon - release)
        pairs.append((release, deadline))
    alpha = rng.choice(_ALPHAS) if objective == "power" else None
    problem = Problem(
        objective=objective,
        instance=OneIntervalInstance.from_pairs(pairs),
        alpha=alpha,
    )
    return objective, alpha, pairs, problem


def _check_case(problem: Problem, budget: float) -> Tuple[List[str], str]:
    """Run one portfolio-vs-exact comparison; returns (issues, port status)."""
    from ..portfolio import run_portfolio

    exact_name = "gap-dp" if problem.objective == "gaps" else "power-dp"
    exact = solve(problem, solver=exact_name)
    port = run_portfolio(problem, budget)
    issues: List[str] = []

    if (exact.status == "infeasible") != (port.status == "infeasible"):
        issues.append(
            f"feasibility disagreement: exact={exact.status} "
            f"portfolio={port.status}"
        )
        return issues, port.status

    cert = certify_result(problem, port)
    if not cert.ok:
        issues.extend(f"certify_result: {issue}" for issue in cert.issues)

    race = (port.extra or {}).get("portfolio") or {}
    attached_bound = race.get("lower_bound")
    if attached_bound is not None:
        bound_cert = certify_bound(problem, attached_bound)
        if not bound_cert.ok:
            issues.extend(f"certify_bound: {issue}" for issue in bound_cert.issues)

    if port.status == "infeasible":
        return issues, port.status

    opt = float(exact.value)
    value = float(port.value)
    if abs(value - opt) > TOLERANCE:
        # The exact member is on every n <= 14 roster, so the race has no
        # excuse for returning anything worse than the optimum.
        issues.append(f"portfolio value {value} != optimum {opt}")

    gap = (port.extra or {}).get("optimality_gap")
    if gap is None:
        issues.append("feasible portfolio result carries no optimality_gap")
        return issues, port.status
    lower, upper = gap.get("lower"), gap.get("upper")
    if lower is None or upper is None:
        issues.append(f"optimality_gap is not a full envelope: {gap}")
        return issues, port.status
    if lower > opt + TOLERANCE:
        issues.append(f"lower bound {lower} exceeds optimum {opt}")
    if opt > upper + TOLERANCE:
        issues.append(f"optimum {opt} exceeds upper bound {upper}")
    factor = port.guarantee_factor
    if factor is not None and upper > factor * opt + TOLERANCE:
        issues.append(
            f"upper bound {upper} exceeds guarantee_factor * optimum "
            f"({factor} * {opt})"
        )
    return issues, port.status


def portfolio_fuzz(
    seed: int = 0, n: int = 100, budget: float = 2.0
) -> PortfolioFuzzReport:
    """Fuzz ``n`` seeded small instances through the portfolio racer."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    rng = random.Random(seed)
    report = PortfolioFuzzReport(seed=seed)
    for index in range(n):
        objective, alpha, pairs, problem = _random_problem(rng)
        report.cases += 1
        issues, status = _check_case(problem, budget)
        if status == "infeasible":
            report.infeasible_cases += 1
        else:
            report.feasible_cases += 1
            if not issues:
                report.optimal_matches += 1
        if issues:
            report.failures.append(
                PortfolioFuzzFailure(
                    index=index,
                    objective=objective,
                    alpha=alpha,
                    pairs=pairs,
                    issues=issues,
                )
            )
    return report
