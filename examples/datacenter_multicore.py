#!/usr/bin/env python3
"""Multicore power management for a bursty request trace (Theorems 1 and 2).

Scenario: a small multicore node receives bursts of short requests with a
completion-time SLA (slack).  Each core can sleep, but waking it costs
``alpha`` energy.  We compare three policies:

* the exact gap-minimal schedule (Theorem 1) evaluated under the power model,
* the exact power-minimal schedule (Theorem 2),
* the naive policy of running every request the moment it arrives (EDF) and
  sleeping whenever idle.

The example prints a table over a range of wake-up costs, then cross-checks
the analytical numbers against the discrete-time simulator.

Run with ``python examples/datacenter_multicore.py``.
"""

from repro.analysis import ExperimentTable, format_table
from repro.api import Problem, solve
from repro.core.feasibility import feasible_schedule_multiproc
from repro.generators import bursty_server_instance
from repro.power import PowerModel, SleepStatePolicy, simulate_schedule


def main() -> None:
    instance = bursty_server_instance(
        num_bursts=4,
        jobs_per_burst=3,
        burst_spacing=9,
        slack=4,
        num_processors=3,
        seed=7,
    )
    print(
        f"workload: {instance.num_jobs} requests in 4 bursts on "
        f"{instance.num_processors} cores, slack 4\n"
    )

    gap_result = solve(Problem(objective="gaps", instance=instance))
    gap_schedule = gap_result.require_schedule()
    naive_schedule = feasible_schedule_multiproc(instance).staircase()

    table = ExperimentTable(
        experiment_id="DC",
        title="Energy by policy and wake-up cost alpha",
        columns=["alpha", "power_optimal", "gap_optimal_energy", "naive_energy", "saving_vs_naive"],
    )
    for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
        optimal = solve(Problem(objective="power", instance=instance, alpha=alpha)).value
        gap_energy = gap_schedule.power_cost(alpha)
        naive_energy = naive_schedule.power_cost(alpha)
        saving = 100.0 * (naive_energy - optimal) / naive_energy
        table.add_row(alpha, optimal, gap_energy, naive_energy, f"{saving:.1f}%")
    print(format_table(table))
    print()

    # Cross-check one configuration against the explicit simulator.
    alpha = 4.0
    power_result = solve(Problem(objective="power", instance=instance, alpha=alpha))
    schedule = power_result.require_schedule()
    sim = simulate_schedule(schedule, PowerModel(alpha=alpha), SleepStatePolicy.OPTIMAL_OFFLINE)
    print(
        f"simulator check (alpha={alpha}): analytic={power_result.value:.2f}, "
        f"simulated={sim.total_energy:.2f}, wakeups={sim.total_wakeups}"
    )
    print(f"total gaps of the power-optimal schedule: {schedule.num_gaps()}")
    print(f"total gaps of the gap-optimal schedule:   {gap_result.value}")


if __name__ == "__main__":
    main()
