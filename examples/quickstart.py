#!/usr/bin/env python3
"""Quickstart: minimize gaps and power for a handful of unit jobs.

This example sends three tiny hand-written problems through the library's
one entry point, :func:`repro.api.solve`:

1. exact single-processor gap minimization (Baptiste's problem, the p = 1
   case of Theorem 1),
2. exact multiprocessor gap minimization (Theorem 1),
3. exact multiprocessor power minimization (Theorem 2) for two different
   wake-up costs, showing how the optimal schedule changes shape.

Run with ``python examples/quickstart.py``.
"""

from repro.analysis import schedule_summary
from repro.api import MultiprocessorInstance, OneIntervalInstance, Problem, solve


def single_processor_demo() -> None:
    """Five jobs with loose windows: the optimum packs them into two blocks."""
    print("=== single processor (Baptiste) ===")
    instance = OneIntervalInstance.from_pairs(
        [(0, 3), (1, 5), (2, 6), (10, 13), (11, 14)]
    )
    result = solve(Problem(objective="gaps", instance=instance))
    print(f"optimal number of gaps: {result.value}")
    for job_idx, name, time in result.require_schedule().as_table():
        print(f"  t={time:>3}  {name} (#{job_idx})")
    print()


def multiprocessor_demo() -> None:
    """The same jobs on two processors: stacking bursts removes the gap."""
    print("=== two processors (Theorem 1) ===")
    instance = MultiprocessorInstance.from_pairs(
        [(0, 1), (0, 1), (1, 2), (5, 6), (5, 6), (6, 7)], num_processors=2
    )
    result = solve(Problem(objective="gaps", instance=instance))
    print(f"optimal total gaps: {result.value}")
    for job_idx, name, proc, time in result.require_schedule().as_table():
        print(f"  t={time:>3}  P{proc}  {name} (#{job_idx})")
    print()


def power_demo() -> None:
    """Wake-up cost changes the shape of the optimal schedule (Theorem 2)."""
    print("=== power minimization (Theorem 2) ===")
    instance = MultiprocessorInstance.from_pairs(
        [(0, 8), (0, 8), (9, 10), (15, 17)], num_processors=1
    )
    for alpha in (0.5, 6.0):
        result = solve(Problem(objective="power", instance=instance, alpha=alpha))
        schedule = result.require_schedule()
        summary = schedule_summary(schedule, alpha=alpha)
        times = sorted(t for _p, t in schedule.assignment.values())
        print(
            f"alpha={alpha:>4}: power={result.value:6.2f}  "
            f"gaps={int(summary['num_gaps'])}  execution times={times}"
        )
    print()


if __name__ == "__main__":
    single_processor_demo()
    multiprocessor_demo()
    power_demo()
