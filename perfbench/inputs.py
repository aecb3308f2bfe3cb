"""Seeded request streams for the three workloads.

Every stream is a pure function of ``(seed, index)``: request ``i`` is the
same problem in every run with the same seed, whatever the timing.  Each
request carries its *design*: the cache traffic (``fresh``, ``hits``) and,
for portfolio races, the race class it must produce.  The runner checks
what the program did against this design after each run.

Instance shapes cycle through a fixed list, so every run, whatever its
seed, solves the same mix of families, sizes and objectives; the seed
only draws the windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.api import MultiprocessorInstance, OneIntervalInstance, Problem
from repro.bounds import lower_bound_for
from repro.core.canonical import canonical_form
from repro.core.decompose import decompose_instance
from repro.core.feasibility import is_feasible_multiproc
from repro.core.jobs import Job
from repro.core.list_heuristics import edf_list_schedule, merge_local_search
from repro.generators.fuzzers import clustered_release_instance, tight_window_instance
from repro.generators.random_jobs import random_multiprocessor_instance
from repro.verify.certificates import values_close

#: Portfolio race classes: who settles the race.
HEURISTIC, DP, BUDGET = "heuristic", "dp", "budget"


@dataclass
class Request:
    """One workload request and what the program is designed to do with it."""

    index: int
    problem: Problem
    kind: str
    fresh: int = 1  # fresh DP solves the request must cause
    hits: int = 0  # solve-cache hits the request must cause
    race: Optional[str] = None  # portfolio only: HEURISTIC / DP / BUDGET
    client: int = 0  # service only: which client thread sends it


def _problem(objective: str, instance, alpha: Optional[float]) -> Problem:
    if objective == "power":
        return Problem(objective="power", instance=instance, alpha=alpha)
    return Problem(objective="gaps", instance=instance)


def _cache_key(problem: Problem) -> Tuple:
    return (problem.objective, problem.alpha, canonical_form(problem.instance).key)


def _min_seam(objective: str, alpha: Optional[float]) -> float:
    return float(alpha) if objective == "power" else 1.0


def _as_instance(jobs: List[Job], processors: int):
    if processors == 1:
        return OneIntervalInstance(jobs)
    return MultiprocessorInstance(jobs=jobs, num_processors=processors)


# ---------------------------------------------------------------------------
# exact: canonically distinct, single-component, feasible DP inputs
# ---------------------------------------------------------------------------
#: (family, objective, alpha, processors, n_lo, n_hi)
EXACT_SHAPES = (
    ("uniform", "gaps", None, 1, 30, 40),
    ("uniform", "gaps", None, 2, 40, 55),
    ("clustered", "power", 2.0, 3, 40, 60),
    ("uniform", "power", 2.0, 2, 40, 55),
    ("tight", "gaps", None, 3, 30, 50),
    ("uniform", "gaps", None, 3, 45, 60),
    ("uniform", "power", 0.5, 3, 45, 60),
    ("clustered", "gaps", None, 2, 30, 50),
    ("uniform", "power", 0.5, 1, 30, 40),
    ("tight", "power", 0.5, 4, 40, 60),
    ("uniform", "power", 2.0, 4, 45, 60),
    ("clustered", "gaps", None, 4, 40, 60),
)


def _exact_instance(family: str, n: int, p: int, seed: int):
    if family == "uniform":
        horizon = max(4, round(n / p / 0.8))
        return random_multiprocessor_instance(n, p, horizon, seed=seed, ensure_feasible=False)
    horizon = max(4, round(n / p / 0.6))
    if family == "tight":
        return tight_window_instance(n, horizon, seed=seed, num_processors=p)
    return clustered_release_instance(
        n, horizon, num_clusters=3, max_slack=max(4, horizon // 2), seed=seed, num_processors=p
    )


def exact_requests(seed: int) -> Iterator[Request]:
    """Feasible instances the decomposer rejects, each new to the cache."""
    seen: Set[Tuple] = set()
    index = 0
    while True:
        family, objective, alpha, p, n_lo, n_hi = EXACT_SHAPES[index % len(EXACT_SHAPES)]
        rng = random.Random(f"exact:{seed}:{index}")
        while True:
            n = rng.randint(n_lo, n_hi)
            multi = _exact_instance(family, n, p, rng.randrange(2**31))
            if not is_feasible_multiproc(multi):
                continue
            split = decompose_instance(multi.jobs, p, _min_seam(objective, alpha))
            if split.infeasible or split.is_split:
                continue
            problem = _problem(objective, _as_instance(list(multi.jobs), p), alpha)
            key = _cache_key(problem)
            if key not in seen:
                break
        seen.add(key)
        yield Request(index, problem, f"{family}-{objective}-p{p}")
        index += 1


# ---------------------------------------------------------------------------
# service: tiny jobs, cached repeats, two-cluster mid-size jobs
# ---------------------------------------------------------------------------
#: Per-client slot pattern: T tiny fresh job, R repeat of a recent tiny job
#: (24%), M mid-size two-cluster job (8%, so p90 does not sit on the edge
#: between tiny and mid-size latencies).
SERVICE_PATTERN = "TTTRTMTRTTTRTTTRTTMTRTTTR"

#: Job counts per client.  Disjoint sets keep the two clients' jobs
#: canonically distinct from each other without shared state.
_TINY_SIZES = ((8, 10, 12, 14), (9, 11, 13))
_CLUSTER_SIZES = ((12, 14), (13, 15))

#: Solve-cache lookups a decomposed mid-size job makes: the outer solve and
#: one per component, all fresh.
MID_FRESH = 3


def _uniform_jobs(rng: random.Random, n: int, p: int, offset: int = 0) -> List[Job]:
    horizon = max(3, round(n / p / 0.7))
    while True:
        multi = random_multiprocessor_instance(
            n, p, horizon, seed=rng.randrange(2**31), ensure_feasible=False
        )
        if is_feasible_multiproc(multi):
            return [Job(j.release + offset, j.deadline + offset) for j in multi.jobs]


def _tiny(rng: random.Random, client: int) -> Problem:
    n = rng.choice(_TINY_SIZES[client])
    p = rng.choice((1, 2))
    objective = rng.choice(("gaps", "power"))
    alpha = rng.choice((0.5, 2.0)) if objective == "power" else None
    return _problem(objective, _as_instance(_uniform_jobs(rng, n, p), p), alpha)


def _mid(rng: random.Random, client: int) -> Problem:
    objective = rng.choice(("gaps", "power"))
    alpha = 2.0 if objective == "power" else None
    first = _uniform_jobs(rng, rng.choice(_CLUSTER_SIZES[client]), 1)
    seam_start = max(job.deadline for job in first) + 1
    second = _uniform_jobs(rng, rng.choice(_CLUSTER_SIZES[client]), 1, seam_start + 4)
    return _problem(objective, OneIntervalInstance(first + second), alpha)


def _repeat(rng: random.Random, original: Problem) -> Problem:
    """The same job shifted in time and with its jobs in another order."""
    shift = rng.randint(1, 50)
    jobs = [Job(j.release + shift, j.deadline + shift) for j in original.instance.jobs]
    rng.shuffle(jobs)
    p = getattr(original.instance, "num_processors", 1)
    return _problem(original.objective, _as_instance(jobs, p), original.alpha)


def service_requests(seed: int, client: int) -> Iterator[Request]:
    """One client's closed-loop job stream."""
    seen: Set[Tuple] = set()
    recent: List[Problem] = []
    index = 0
    while True:
        slot = SERVICE_PATTERN[index % len(SERVICE_PATTERN)]
        rng = random.Random(f"service:{seed}:{client}:{index}")
        if slot == "R":
            yield Request(index, _repeat(rng, rng.choice(recent[-3:])), "repeat",
                          fresh=0, hits=1, client=client)
        else:
            while True:
                problem = _tiny(rng, client) if slot == "T" else _mid(rng, client)
                keys = [_cache_key(problem)]
                if slot == "M":
                    split = decompose_instance(
                        problem.instance.jobs, 1, _min_seam(problem.objective, problem.alpha)
                    )
                    if len(split.components) != 2:
                        continue
                    keys += [
                        _cache_key(_problem(problem.objective, OneIntervalInstance(
                            [problem.instance.jobs[i] for i in comp.job_indices]), problem.alpha))
                        for comp in split.components
                    ]
                if not seen.intersection(keys):
                    break
            seen.update(keys)
            if slot == "T":
                recent.append(problem)
                yield Request(index, problem, "tiny", client=client)
            else:
                yield Request(index, problem, "mid", fresh=MID_FRESH, client=client)
        index += 1


# ---------------------------------------------------------------------------
# portfolio: races whose winner is fixed by construction
# ---------------------------------------------------------------------------
#: S sparse staircase (local search certifies it), R random instance (only
#: the exact DP can pin it), B bursty power instance (runs to the budget).
PORTFOLIO_PATTERN = "SRSRSRSRSRSRSRSRSRBR"


def _staircase(rng: random.Random) -> Problem:
    n = rng.randint(1500, 3000)
    step = rng.randint(5, 9)
    window = rng.randint(step + 12, step + 30)
    offset = rng.randrange(1000)
    pairs = [(offset + i * step, offset + i * step + window) for i in range(n)]
    return Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(pairs))


def _random_one_interval(rng: random.Random) -> Problem:
    n = rng.randint(80, 120)
    jobs = _uniform_jobs_windowed(rng, n, horizon=round(n * 1.4), max_window=12)
    objective = rng.choice(("gaps", "power"))
    return _problem(objective, OneIntervalInstance(jobs), 2.0 if objective == "power" else None)


def _uniform_jobs_windowed(rng: random.Random, n: int, horizon: int, max_window: int) -> List[Job]:
    while True:
        multi = random_multiprocessor_instance(
            n, 1, horizon, max_window=max_window, seed=rng.randrange(2**31), ensure_feasible=False
        )
        if is_feasible_multiproc(multi):
            return list(multi.jobs)


def _bursty(rng: random.Random) -> Problem:
    h, burst, pairs = 100, 50, []
    for cluster in range(1000 // burst):
        base = 3 * h * cluster
        for _ in range(burst):
            pairs.append((base + rng.randrange(h), base + h + h // 2 + rng.randrange(h // 2)))
    return Problem(objective="power", instance=OneIntervalInstance.from_pairs(pairs), alpha=4.0)


def heuristic_best(problem: Problem) -> float:
    """Best value EDF or local search reach when run to exhaustion."""
    instance = problem.instance
    edf = edf_list_schedule(instance)
    search = merge_local_search(instance, objective=problem.objective, alpha=problem.alpha)
    if problem.objective == "gaps":
        return min(edf.num_gaps(), search.schedule.num_gaps())
    return min(edf.power_cost(problem.alpha), search.schedule.power_cost(problem.alpha))


def _heuristics_pin(problem: Problem) -> bool:
    bound = lower_bound_for(problem)
    best = heuristic_best(problem)
    return best <= bound.value or values_close(best, bound.value)


def portfolio_requests(seed: int) -> Iterator[Request]:
    """Races cycling through the three classes in a fixed proportion."""
    seen: Set[Tuple] = set()
    index = 0
    while True:
        slot = PORTFOLIO_PATTERN[index % len(PORTFOLIO_PATTERN)]
        rng = random.Random(f"portfolio:{seed}:{index}")
        if slot == "S":
            yield Request(index, _staircase(rng), "staircase", fresh=0, race=HEURISTIC)
        elif slot == "B":
            while True:
                problem = _bursty(rng)
                if not _heuristics_pin(problem):
                    break
            yield Request(index, problem, "bursty", fresh=0, race=BUDGET)
        else:
            while True:
                problem = _random_one_interval(rng)
                key = _cache_key(problem)
                if key not in seen and not _heuristics_pin(problem):
                    break
            seen.add(key)
            yield Request(index, problem, "random", fresh=0, race=DP)
        index += 1


STREAMS = {"exact": exact_requests, "portfolio": portfolio_requests}
