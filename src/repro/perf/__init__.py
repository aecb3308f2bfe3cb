"""Benchmark subsystem: measured trajectories for the interval-DP hot path.

This package times the engine-backed Theorem 1/2 solvers over the
generator families, with warmup/repeat control, against a frozen
stdlib-only host kernel timed just before each repeat
(:func:`repro.perf.bench.host_kernel`); the per-case engine/host ratio is
the machine-independent figure the regression gate compares.  Reports go
to machine-readable JSON (``BENCH_dp.json``) with a stable, validated
schema (:mod:`repro.perf.report`) and accumulate in an append-only history
(:mod:`repro.perf.history`).  The ``repro-sched bench`` CLI subcommand is
a thin wrapper around :func:`repro.perf.bench.run_bench`.

This package times the engine only.  End-to-end costs of the layers above
it (the service, the warm worker pool, the solve cache) are measured with
fresh solves by the repository's ``perfbench/`` harness.
"""

from .bench import (
    BenchCase,
    default_cases,
    run_bench,
    time_callable,
)
from .history import (
    HISTORY_SCHEMA,
    append_history,
    latest_history_report,
    load_comparison_report,
    read_history,
    rolling_median_reference,
)
from .report import (
    BENCH_SCHEMA,
    DEFAULT_REGRESSION_MIN_MEDIAN,
    DEFAULT_REGRESSION_THRESHOLD,
    BenchSchemaError,
    compare_reports,
    load_report,
    validate_report,
    validate_report_file,
    write_report,
)

__all__ = [
    "BenchCase",
    "default_cases",
    "run_bench",
    "time_callable",
    "BENCH_SCHEMA",
    "HISTORY_SCHEMA",
    "BenchSchemaError",
    "append_history",
    "read_history",
    "latest_history_report",
    "rolling_median_reference",
    "load_comparison_report",
    "compare_reports",
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_REGRESSION_MIN_MEDIAN",
    "load_report",
    "validate_report",
    "validate_report_file",
    "write_report",
]
