"""Metrics, reporting and the experiment harness.

* :mod:`repro.analysis.metrics` — derived quantities (approximation ratios,
  gap statistics, energy breakdowns) shared by tests, examples and benches.
* :mod:`repro.analysis.reporting` — plain-text table rendering used by the
  CLI, the examples and the benchmark suite.
* :mod:`repro.analysis.experiments` — one validation experiment E1-E12 per
  theorem or gadget of the paper; each returns an
  :class:`~repro.analysis.reporting.ExperimentTable` and is callable both
  from the benchmark suite and from ``repro-sched experiment``.
"""

from .metrics import (
    approximation_ratio,
    gap_statistics,
    power_breakdown,
    schedule_summary,
)
from .reporting import ExperimentTable, format_table, render_tables
from .experiments import (
    ALL_EXPERIMENTS,
    run_experiment,
    run_all_experiments,
)

__all__ = [
    "approximation_ratio",
    "gap_statistics",
    "power_breakdown",
    "schedule_summary",
    "ExperimentTable",
    "format_table",
    "render_tables",
    "ALL_EXPERIMENTS",
    "run_experiment",
    "run_all_experiments",
]
