"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import Job, MultiIntervalInstance, MultiprocessorInstance, OneIntervalInstance
from repro.api.registry import registry_generation
from repro.runtime import shutdown_worker_pool


@pytest.fixture(autouse=True)
def retire_workers_after_a_registration():
    """Stop warm pool workers forked while a test's throwaway solver existed.

    Tests remove their solvers from the private registry dict, which does
    not move the registry generation, so workers forked in between would
    keep the removed solver for the rest of the session.
    """
    before = registry_generation()
    yield
    if registry_generation() != before:
        shutdown_worker_pool()


def random_window_pairs(
    rng: random.Random, num_jobs: int, horizon: int, max_window: int
) -> List[Tuple[int, int]]:
    """Random (release, deadline) pairs inside [0, horizon)."""
    pairs = []
    for _ in range(num_jobs):
        release = rng.randrange(horizon)
        deadline = min(horizon - 1, release + rng.randint(0, max_window - 1))
        pairs.append((release, deadline))
    return pairs


@pytest.fixture
def tight_chain_instance() -> OneIntervalInstance:
    """Three jobs forced into three consecutive slots: zero gaps, unique schedule."""
    return OneIntervalInstance.from_pairs([(0, 0), (1, 1), (2, 2)])


@pytest.fixture
def forced_gap_instance() -> OneIntervalInstance:
    """Two jobs pinned with an idle slot between them: exactly one gap."""
    return OneIntervalInstance.from_pairs([(0, 0), (2, 2)])


@pytest.fixture
def flexible_instance() -> OneIntervalInstance:
    """Four jobs with generous windows: an optimal schedule has zero gaps."""
    return OneIntervalInstance.from_pairs([(0, 6), (0, 6), (2, 8), (3, 9)])


@pytest.fixture
def two_processor_instance() -> MultiprocessorInstance:
    """Five jobs on two processors with overlapping windows."""
    return MultiprocessorInstance.from_pairs(
        [(0, 2), (0, 2), (1, 3), (4, 6), (4, 6)], num_processors=2
    )


@pytest.fixture
def small_multi_interval_instance() -> MultiIntervalInstance:
    """Four multi-interval jobs with two short intervals each."""
    return MultiIntervalInstance.from_time_lists(
        [[0, 1, 6, 7], [1, 2, 7, 8], [4, 5, 10, 11], [0, 5, 9]]
    )
