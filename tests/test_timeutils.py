"""Unit tests for the candidate-time-column computation."""

import random
import time

from repro import Job, MultiprocessorInstance, OneIntervalInstance
from repro.core.timeutils import (
    SMALL_HORIZON_FACTOR,
    SMALL_HORIZON_SLACK,
    candidate_times,
    candidate_times_for_jobs,
)


def _set_union_oracle(jobs):
    """Reference: the per-job set union of every clipped window."""
    n = len(jobs)
    lo = min(job.release for job in jobs)
    hi = max(job.deadline for job in jobs)
    if hi - lo + 1 <= SMALL_HORIZON_FACTOR * n + SMALL_HORIZON_SLACK:
        return list(range(lo, hi + 1))
    candidates = set()
    for job in jobs:
        candidates.update(range(max(lo, job.release), min(hi, job.release + n) + 1))
        candidates.update(range(max(lo, job.deadline - n), min(hi, job.deadline) + 1))
    return sorted(candidates)


class TestCandidateTimes:
    def test_small_horizon_uses_every_time(self):
        jobs = [Job(0, 3), Job(2, 6)]
        assert candidate_times_for_jobs(jobs) == list(range(0, 7))

    def test_empty_job_list(self):
        assert candidate_times_for_jobs([]) == []

    def test_full_horizon_flag(self):
        jobs = [Job(0, 500)]
        times = candidate_times_for_jobs(jobs, use_full_horizon=True)
        assert times == list(range(0, 501))

    def test_sparse_horizon_restricts_to_neighbourhoods(self):
        jobs = [Job(0, 2), Job(1000, 1002)]
        times = candidate_times_for_jobs(jobs)
        assert 0 in times and 1002 in times
        assert 500 not in times
        # Within distance n of a release or a deadline.
        n = len(jobs)
        for t in times:
            assert any(
                job.release - n <= t <= job.release + n
                or job.deadline - n <= t <= job.deadline + n
                for job in jobs
            )

    def test_candidates_are_sorted_and_unique(self):
        jobs = [Job(0, 100), Job(3, 120), Job(90, 200)]
        times = candidate_times_for_jobs(jobs)
        assert times == sorted(set(times))

    def test_instance_wrappers(self):
        one = OneIntervalInstance.from_pairs([(0, 4), (2, 5)])
        multi = MultiprocessorInstance.from_pairs([(0, 4), (2, 5)], num_processors=2)
        assert candidate_times(one) == candidate_times(multi)

    def test_candidates_include_all_releases_and_deadlines(self):
        jobs = [Job(0, 3), Job(400, 405), Job(800, 808)]
        times = set(candidate_times_for_jobs(jobs))
        for job in jobs:
            assert job.release in times
            assert job.deadline in times


class TestMatchesSetUnionOracle:
    def test_random_instances(self):
        rng = random.Random(20)
        sparse = 0
        for _ in range(600):
            n = rng.randint(1, 40)
            horizon = rng.choice([n, 4 * n + 16, 6 * n + 20, 40 * n, 500 * n])
            window = rng.randint(1, max(1, horizon // rng.choice([1, 4, 50])))
            jobs = []
            for _ in range(n):
                release = rng.randrange(-50, horizon)
                jobs.append(Job(release, release + rng.randrange(window)))
            expected = _set_union_oracle(jobs)
            hi = max(job.deadline for job in jobs)
            lo = min(job.release for job in jobs)
            sparse += hi - lo + 1 > SMALL_HORIZON_FACTOR * n + SMALL_HORIZON_SLACK
            assert candidate_times_for_jobs(jobs) == expected, jobs
        # Most draws take the window-merge branch, not the full horizon.
        assert sparse > 300

    def test_staircase_past_the_small_horizon(self):
        # Overlapping n-wide windows: the case the set union made quadratic.
        jobs = [Job(7 * i, 7 * i + 30) for i in range(400)]
        assert 7 * 400 + 30 > SMALL_HORIZON_FACTOR * 400 + SMALL_HORIZON_SLACK
        assert candidate_times_for_jobs(jobs) == _set_union_oracle(jobs)

    def test_large_staircase_is_fast(self):
        jobs = [Job(7 * i, 7 * i + 30) for i in range(3000)]
        start = time.perf_counter()
        times = candidate_times_for_jobs(jobs)
        # The set union needs most of a second at this size; the merge a
        # few milliseconds.
        assert time.perf_counter() - start < 0.25
        assert times == list(range(0, 7 * 2999 + 31))
