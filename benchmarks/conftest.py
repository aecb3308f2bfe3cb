"""Shared fixtures for the benchmark harness.

Every benchmark module corresponds to one experiment E1-E12 of
:mod:`repro.analysis.experiments`.
Benchmarks are run with ``pytest benchmarks/ --benchmark-only``; each module
both times its solver (via the ``benchmark`` fixture) and re-asserts the
correctness facts of the corresponding experiment so that a benchmark run is
also a validation run.
"""

from __future__ import annotations

import pytest

from repro.generators import (
    bursty_server_instance,
    periodic_sensor_instance,
    random_multi_interval_instance,
    random_multiprocessor_instance,
    random_one_interval_instance,
)


@pytest.fixture(scope="session")
def medium_multiproc_instance():
    """12 jobs on 2 processors: the standard timing workload for the exact DPs."""
    return random_multiprocessor_instance(
        num_jobs=12, num_processors=2, horizon=30, max_window=8, seed=1234
    )


@pytest.fixture(scope="session")
def small_multiproc_instance():
    """6 jobs on 2 processors: small enough for the brute-force oracle."""
    return random_multiprocessor_instance(
        num_jobs=6, num_processors=2, horizon=10, max_window=5, seed=99
    )


@pytest.fixture(scope="session")
def medium_one_interval_instance():
    """10 single-processor jobs for the greedy-vs-exact comparison."""
    return random_one_interval_instance(num_jobs=10, horizon=25, max_window=8, seed=55)


@pytest.fixture(scope="session")
def medium_multi_interval_instance():
    """20 multi-interval jobs for the approximation benchmarks."""
    return random_multi_interval_instance(
        num_jobs=20, horizon=60, intervals_per_job=2, interval_length=2, seed=77
    )


@pytest.fixture(scope="session")
def sensor_instance():
    """Structured sensor workload used by E3/E8 style benches."""
    return periodic_sensor_instance(
        num_sensors=5, readings_per_sensor=2, period=12, window=3, seed=5
    )


@pytest.fixture(scope="session")
def bursty_instance():
    """Structured bursty multicore workload used by E1/E2/E12 style benches."""
    return bursty_server_instance(
        num_bursts=4, jobs_per_burst=3, burst_spacing=8, slack=3, num_processors=3, seed=8
    )
