"""The experiment harness: one function per validation experiment E1-E12.

The source paper is a theory paper without an empirical evaluation, so the
"tables" regenerated here are this reproduction's own validation tables
(E1-E12, listed in :data:`ALL_EXPERIMENTS`): each one exercises a theorem's
algorithm or gadget on synthetic workloads and reports the quantities the
theorem speaks about (optimal values, approximation ratios, correspondence
checks, runtimes).

Every experiment accepts a ``scale`` argument:

* ``"smoke"`` — a few seconds, used by the test-suite and CI;
* ``"paper"`` — the full sizes (still laptop-scale).

All experiments are deterministic (fixed seeds), so every table except its
measured runtime columns regenerates byte-for-byte.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from ..api import Problem, solve
from ..core.jobs import MultiIntervalInstance, MultiprocessorInstance, OneIntervalInstance
from ..generators.adversarial import online_lower_bound_instance
from ..generators.random_jobs import (
    random_multi_interval_instance,
    random_multiprocessor_instance,
    random_one_interval_instance,
    random_set_cover_instance,
)
from ..generators.workloads import bursty_server_instance, periodic_sensor_instance
from ..power.model import PowerModel, SleepStatePolicy
from ..power.simulator import simulate_schedule
from ..reductions import (
    build_disjoint_unit_gadget,
    build_gap_gadget,
    build_power_gadget,
    build_three_unit_gadget,
    build_two_interval_gadget,
    disjoint_unit_to_two_unit,
    multiprocessor_as_multi_interval,
)
from ..reductions.multiproc_as_intervals import gap_correspondence
from ..setcover import exact_set_cover, greedy_set_cover
from .metrics import approximation_ratio
from .reporting import ExperimentTable

__all__ = ["ALL_EXPERIMENTS", "run_experiment", "run_all_experiments"]


def _sizes(scale: str, smoke: Sequence, paper: Sequence) -> Sequence:
    return smoke if scale == "smoke" else paper


# ---------------------------------------------------------------------------
# E1: exact multiprocessor gap DP — optimality and scaling (Theorem 1)
# ---------------------------------------------------------------------------
def experiment_e1(scale: str = "paper") -> ExperimentTable:
    """Optimality of the Theorem 1 DP against brute force plus runtime scaling."""
    table = ExperimentTable(
        experiment_id="E1",
        title="Theorem 1: exact multiprocessor gap DP vs brute force",
        columns=["n", "p", "horizon", "dp_gaps", "brute_gaps", "match", "dp_seconds"],
        notes="brute force omitted (-) for sizes where enumeration is impractical",
    )
    configs = _sizes(
        scale,
        smoke=[(4, 1, 8), (5, 2, 8), (6, 2, 10)],
        paper=[(4, 1, 8), (5, 2, 8), (6, 2, 10), (7, 3, 10), (10, 2, 20), (14, 2, 30), (16, 3, 30)],
    )
    for n, p, horizon in configs:
        instance = random_multiprocessor_instance(
            num_jobs=n, num_processors=p, horizon=horizon, max_window=max(2, horizon // 2), seed=n * 100 + p
        )
        problem = Problem(objective="gaps", instance=instance)
        solution = solve(problem)
        if n <= 7:
            brute = solve(problem, solver="brute-force-gaps").value
            match = "yes" if brute == solution.value else "NO"
        else:
            brute, match = None, "-"
        table.add_row(n, p, horizon, solution.value, brute, match, solution.wall_time)
    return table


# ---------------------------------------------------------------------------
# E2: exact multiprocessor power DP — optimality and alpha sweep (Theorem 2)
# ---------------------------------------------------------------------------
def experiment_e2(scale: str = "paper") -> ExperimentTable:
    """Optimality of the Theorem 2 power DP and its behaviour as alpha grows."""
    table = ExperimentTable(
        experiment_id="E2",
        title="Theorem 2: exact multiprocessor power DP vs brute force (alpha sweep)",
        columns=["n", "p", "alpha", "dp_power", "brute_power", "match", "gaps_of_power_opt"],
    )
    alphas = _sizes(scale, smoke=[0.5, 2.0], paper=[0.5, 1.0, 2.0, 4.0, 8.0])
    n, p, horizon = (5, 2, 10) if scale == "smoke" else (6, 2, 12)
    instance = random_multiprocessor_instance(
        num_jobs=n, num_processors=p, horizon=horizon, max_window=horizon // 2, seed=42
    )
    for alpha in alphas:
        problem = Problem(objective="power", instance=instance, alpha=alpha)
        solution = solve(problem)
        brute = solve(problem, solver="brute-force-power").value
        match = (
            "yes"
            if brute is not None
            and solution.value is not None
            and abs(brute - solution.value) < 1e-9
            else "NO"
        )
        gaps = solution.schedule.num_gaps() if solution.schedule is not None else None
        table.add_row(n, p, alpha, solution.value, brute, match, gaps)
    return table


# ---------------------------------------------------------------------------
# E3: Theorem 3 approximation factor for multi-interval power minimization
# ---------------------------------------------------------------------------
def experiment_e3(scale: str = "paper") -> ExperimentTable:
    """Measured approximation ratio of the Theorem 3 algorithm vs the bound 1 + (2/3)alpha."""
    table = ExperimentTable(
        experiment_id="E3",
        title="Theorem 3: (1 + 2/3 alpha)-approximation for multi-interval power",
        columns=["n", "alpha", "approx_power", "opt_power", "ratio", "bound", "within_bound"],
        notes="opt_power from brute force on small n; ratio must stay below bound",
    )
    alphas = _sizes(scale, smoke=[1.0, 3.0], paper=[0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    n = 6 if scale == "smoke" else 7
    for alpha in alphas:
        instance = random_multi_interval_instance(
            num_jobs=n, horizon=4 * n, intervals_per_job=2, interval_length=2, seed=7
        )
        problem = Problem(objective="power", instance=instance, alpha=alpha)
        result = solve(problem, solver="power-approx")
        opt = solve(problem, solver="brute-force-power").value
        ratio = approximation_ratio(result.value, opt) if opt else 1.0
        bound = 1.0 + (2.0 / 3.0) * alpha + 1e-9
        table.add_row(
            n, alpha, result.value, opt, ratio, 1.0 + (2.0 / 3.0) * alpha,
            "yes" if ratio <= bound else "NO",
        )
    return table


# ---------------------------------------------------------------------------
# E4: greedy 3-approximation vs exact DP (one-interval gap scheduling)
# ---------------------------------------------------------------------------
def experiment_e4(scale: str = "paper") -> ExperimentTable:
    """[FHKN06] greedy vs the exact single-processor optimum."""
    table = ExperimentTable(
        experiment_id="E4",
        title="Greedy 3-approximation vs exact DP (single processor)",
        columns=["n", "horizon", "greedy_gaps", "optimal_gaps", "ratio", "within_3x"],
    )
    configs = _sizes(
        scale,
        smoke=[(5, 12), (6, 15)],
        paper=[(5, 12), (6, 15), (8, 20), (10, 25), (12, 30)],
    )
    for n, horizon in configs:
        instance = random_one_interval_instance(
            num_jobs=n, horizon=horizon, max_window=max(3, horizon // 3), seed=n * 13
        )
        problem = Problem(objective="gaps", instance=instance)
        greedy = solve(problem, solver="greedy-gap")
        exact = solve(problem)
        ratio = approximation_ratio(float(greedy.value), float(exact.value))
        within = "yes" if greedy.value <= max(3 * exact.value, exact.value) or exact.value == 0 else "NO"
        table.add_row(n, horizon, greedy.value, exact.value, ratio, within)
    return table


# ---------------------------------------------------------------------------
# E5: Theorem 4/6 set-cover gadgets
# ---------------------------------------------------------------------------
def experiment_e5(scale: str = "paper") -> ExperimentTable:
    """Cost correspondence of the set-cover hardness gadgets."""
    table = ExperimentTable(
        experiment_id="E5",
        title="Theorems 4 and 6: set-cover gadget correspondences",
        columns=[
            "elements", "sets", "opt_cover", "gadget_opt_gaps", "claimed_gaps",
            "gadget_opt_power", "claimed_power", "match",
        ],
    )
    configs = _sizes(scale, smoke=[(4, 4, 3)], paper=[(4, 4, 3), (5, 5, 3), (6, 5, 4)])
    for num_elements, num_sets, max_size in configs:
        source = random_set_cover_instance(
            num_elements=num_elements, num_sets=num_sets, max_set_size=max_size, seed=num_elements
        )
        opt_cover = len(exact_set_cover(source))
        gap_gadget = build_gap_gadget(source)
        power_gadget = build_power_gadget(source)
        opt_gaps = solve(
            Problem(objective="gaps", instance=gap_gadget.instance),
            solver="brute-force-gaps",
        ).value
        opt_power = solve(
            Problem(
                objective="power",
                instance=power_gadget.instance,
                alpha=power_gadget.alpha,
            ),
            solver="brute-force-power",
        ).value
        claimed_gaps = gap_gadget.gaps_of_cover_size(opt_cover)
        claimed_power = power_gadget.power_of_cover_size(opt_cover)
        match = (
            "yes"
            if opt_gaps == claimed_gaps and opt_power is not None and abs(opt_power - claimed_power) < 1e-9
            else "NO"
        )
        table.add_row(
            num_elements, num_sets, opt_cover, opt_gaps, claimed_gaps, opt_power, claimed_power, match
        )
    return table


# ---------------------------------------------------------------------------
# E6: Theorem 7/8 interval gadgets
# ---------------------------------------------------------------------------
def experiment_e6(scale: str = "paper") -> ExperimentTable:
    """2-interval and 3-unit gadgets preserve the optimum up to the extra block."""
    table = ExperimentTable(
        experiment_id="E6",
        title="Theorems 7 and 8: 2-interval and 3-unit gadget optima",
        columns=["source_jobs", "opt_multi", "opt_2interval", "opt_3unit", "relation_holds"],
        notes="claimed relation: opt_multi <= gadget optimum <= opt_multi + 1",
    )
    configs = _sizes(scale, smoke=[(3, 14)], paper=[(3, 14), (4, 16)])
    for n, horizon in configs:
        source = random_multi_interval_instance(
            num_jobs=n, horizon=horizon, intervals_per_job=3, interval_length=1, seed=n * 3
        )
        opt_multi = solve(
            Problem(objective="gaps", instance=source), solver="brute-force-gaps"
        ).value
        gadget2 = build_two_interval_gadget(source)
        gadget3 = build_three_unit_gadget(source)
        opt_two = solve(
            Problem(objective="gaps", instance=gadget2.instance),
            solver="brute-force-gaps",
        ).value
        opt_three = solve(
            Problem(objective="gaps", instance=gadget3.instance),
            solver="brute-force-gaps",
        ).value
        holds = (
            opt_multi is not None
            and opt_two is not None
            and opt_three is not None
            and opt_multi <= opt_two <= opt_multi + 1
            and opt_multi <= opt_three <= opt_multi + 1
        )
        table.add_row(n, opt_multi, opt_two, opt_three, "yes" if holds else "NO")
    return table


# ---------------------------------------------------------------------------
# E7: Theorem 9/10 unit gadgets
# ---------------------------------------------------------------------------
def experiment_e7(scale: str = "paper") -> ExperimentTable:
    """2-unit <-> disjoint-unit equivalence and the B-set-cover gadget."""
    table = ExperimentTable(
        experiment_id="E7",
        title="Theorems 9 and 10: unit gadget correspondences",
        columns=["elements", "B", "opt_cover", "gadget_spans", "two_unit_jobs", "match"],
    )
    configs = _sizes(scale, smoke=[(4, 2)], paper=[(4, 2), (5, 3), (6, 3)])
    for num_elements, b in configs:
        source = random_set_cover_instance(
            num_elements=num_elements, num_sets=num_elements, max_set_size=b, seed=num_elements * 7
        )
        opt_cover = len(exact_set_cover(source))
        gadget = build_disjoint_unit_gadget(source)
        schedule = gadget.cover_to_schedule(exact_set_cover(source))
        spans = schedule.num_spans()
        two_unit = disjoint_unit_to_two_unit(gadget.instance)
        max_times = max(job.num_times for job in two_unit.instance.jobs)
        match = "yes" if spans == opt_cover and max_times <= 2 else "NO"
        table.add_row(num_elements, b, opt_cover, spans, two_unit.instance.num_jobs, match)
    return table


# ---------------------------------------------------------------------------
# E8: Theorem 11 throughput greedy
# ---------------------------------------------------------------------------
def experiment_e8(scale: str = "paper") -> ExperimentTable:
    """Greedy throughput under a gap budget vs the optimum and the sqrt(n) bound."""
    table = ExperimentTable(
        experiment_id="E8",
        title="Theorem 11: greedy throughput vs optimum under a gap budget",
        columns=["n", "budget_k", "greedy_jobs", "opt_jobs", "ratio", "sqrt_bound_ok"],
    )
    configs = _sizes(scale, smoke=[(6, 1), (6, 2)], paper=[(6, 1), (6, 2), (7, 2), (8, 3)])
    for n, k in configs:
        instance = random_multi_interval_instance(
            num_jobs=n, horizon=3 * n, intervals_per_job=2, interval_length=2, seed=n + k
        )
        problem = Problem(objective="throughput", instance=instance, max_gaps=k)
        greedy = solve(problem)
        opt_jobs = solve(problem, solver="brute-force-throughput").value
        ratio = approximation_ratio(float(opt_jobs), float(max(greedy.value, 1)))
        bound_ok = greedy.value * (2 * math.sqrt(n) + 1) >= opt_jobs
        table.add_row(n, k, greedy.value, opt_jobs, ratio, "yes" if bound_ok else "NO")
    return table


# ---------------------------------------------------------------------------
# E9: online lower bound
# ---------------------------------------------------------------------------
def experiment_e9(scale: str = "paper") -> ExperimentTable:
    """The Omega(n) online lower-bound family: online EDF vs offline optimum."""
    table = ExperimentTable(
        experiment_id="E9",
        title="Online gap scheduling lower bound (competitive ratio grows with n)",
        columns=["n", "online_gaps", "offline_gaps", "online_minus_offline"],
    )
    sizes = _sizes(scale, smoke=[3, 5], paper=[3, 5, 8, 12, 16])
    for n in sizes:
        instance = online_lower_bound_instance(n)
        problem = Problem(objective="gaps", instance=instance)
        online = solve(problem, solver="online-edf")
        offline = solve(problem)
        table.add_row(n, online.value, offline.value, online.value - offline.value)
    return table


# ---------------------------------------------------------------------------
# E10: multiprocessor instance as arithmetic multi-interval instance
# ---------------------------------------------------------------------------
def experiment_e10(scale: str = "paper") -> ExperimentTable:
    """Gap correspondence of the Section 2 arithmetic-interval view."""
    table = ExperimentTable(
        experiment_id="E10",
        title="Multiprocessor instance as arithmetic multi-interval instance",
        columns=["n", "p", "mp_gaps", "mi_gaps", "used", "relation_holds"],
        notes="claimed relation: mi_gaps = mp_gaps + used - 1",
    )
    configs = _sizes(scale, smoke=[(5, 2)], paper=[(5, 2), (6, 2), (6, 3), (8, 3)])
    for n, p in configs:
        instance = random_multiprocessor_instance(
            num_jobs=n, num_processors=p, horizon=2 * n, max_window=n, seed=n * p
        )
        solution = solve(Problem(objective="gaps", instance=instance))
        view = multiprocessor_as_multi_interval(instance)
        mp_gaps, mi_gaps, used = gap_correspondence(view, solution.require_schedule())
        holds = mi_gaps == mp_gaps + used - 1 if used >= 1 else mi_gaps == 0
        table.add_row(n, p, mp_gaps, mi_gaps, used, "yes" if holds else "NO")
    return table


# ---------------------------------------------------------------------------
# E11: runtime scaling micro-benchmarks
# ---------------------------------------------------------------------------
def experiment_e11(scale: str = "paper") -> ExperimentTable:
    """Wall-clock scaling of the exact DPs and the approximation algorithms."""
    table = ExperimentTable(
        experiment_id="E11",
        title="Runtime scaling of the main solvers (seconds)",
        columns=["solver", "n", "p_or_alpha", "seconds"],
    )
    gap_sizes = _sizes(scale, smoke=[(8, 2)], paper=[(8, 2), (12, 2), (16, 2), (16, 3)])
    for n, p in gap_sizes:
        instance = random_multiprocessor_instance(
            num_jobs=n, num_processors=p, horizon=3 * n, max_window=n, seed=n
        )
        gap_result = solve(Problem(objective="gaps", instance=instance))
        table.add_row("gap_dp", n, p, gap_result.wall_time)
        power_result = solve(Problem(objective="power", instance=instance, alpha=2.0))
        table.add_row("power_dp", n, p, power_result.wall_time)
    approx_sizes = _sizes(scale, smoke=[10], paper=[10, 20, 40])
    for n in approx_sizes:
        instance = random_multi_interval_instance(
            num_jobs=n, horizon=4 * n, intervals_per_job=2, interval_length=2, seed=n
        )
        approx_result = solve(
            Problem(objective="power", instance=instance, alpha=3.0),
            solver="power-approx",
        )
        table.add_row("power_approx", n, 3.0, approx_result.wall_time)
    return table


# ---------------------------------------------------------------------------
# E12: simulator vs analytical power accounting
# ---------------------------------------------------------------------------
def experiment_e12(scale: str = "paper") -> ExperimentTable:
    """The discrete-time simulator agrees with the analytical power accounting."""
    table = ExperimentTable(
        experiment_id="E12",
        title="Power simulator vs analytical accounting",
        columns=["workload", "alpha", "analytic_power", "simulated_energy", "match"],
    )
    alphas = _sizes(scale, smoke=[1.0], paper=[0.5, 1.0, 2.0, 4.0])
    for alpha in alphas:
        instance = bursty_server_instance(
            num_bursts=3, jobs_per_burst=2, burst_spacing=6, slack=3, num_processors=2, seed=1
        )
        solution = solve(Problem(objective="power", instance=instance, alpha=alpha))
        schedule = solution.require_schedule()
        analytic = schedule.power_cost(alpha)
        sim = simulate_schedule(
            schedule, PowerModel(alpha=alpha), SleepStatePolicy.OPTIMAL_OFFLINE
        )
        match = "yes" if abs(analytic - sim.total_energy) < 1e-9 else "NO"
        table.add_row("bursty(3x2,p=2)", alpha, analytic, sim.total_energy, match)
    return table


ALL_EXPERIMENTS: Dict[str, Callable[[str], ExperimentTable]] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
}


def run_experiment(experiment_id: str, scale: str = "paper") -> ExperimentTable:
    """Run one experiment by id (e.g. ``"E3"``)."""
    key = experiment_id.upper()
    if key not in ALL_EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(ALL_EXPERIMENTS)}"
        )
    return ALL_EXPERIMENTS[key](scale)


def _experiment_task(payload) -> ExperimentTable:
    # Module-level so the process backend can fan experiments out.
    experiment_id, scale = payload
    return run_experiment(experiment_id, scale=scale)


def run_all_experiments(
    scale: str = "paper",
    backend: "str | None" = None,
    workers: "int | None" = None,
) -> List[ExperimentTable]:
    """Run every experiment in id order.

    Experiments are independent (each fixes its own seeds), so they fan
    out through :func:`repro.runtime.run_tasks`; the tables are put back
    in id order on every backend, and every column except the measured
    wall-time ones (timing is noise, not part of an answer) is
    backend-invariant.  A failing experiment aborts the run with its
    captured traceback.
    """
    from ..runtime.stream import run_tasks

    ordered_ids = sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:]))
    payloads = [(key, scale) for key in ordered_ids]
    outcomes = run_tasks(_experiment_task, payloads, backend=backend, workers=workers)
    tables = {index: outcome.unwrap() for index, outcome in outcomes}
    return [tables[index] for index in range(len(payloads))]
