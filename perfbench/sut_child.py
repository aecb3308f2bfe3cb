"""The in-process caller for the ``exact`` and ``portfolio`` workloads.

Started fresh by the runner for every set-up; it imports the package,
answers one warm-up request, reports ready, then serves requests read
from stdin (pickled) and writes pickled replies to stdout:

* ``("solve", problem, budget, trace)`` -> ``("done", latency_s, result,
  counters, probes)``: ``latency_s`` times :func:`repro.api.solve` alone;
  ``counters`` are this request's solve-cache and worker-pool deltas;
  ``probes`` holds the traced run's per-layer timings (empty untraced).
* ``("exit",)`` stops the worker pool and exits.

Run as ``python3 perfbench/sut_child.py {exact|portfolio}``.
"""

from __future__ import annotations

import os
import pickle
import sys
import time

from repro.api import OneIntervalInstance, Problem, solve, solve_cache_stats
from repro.runtime.pool import shutdown_worker_pool, worker_pool_stats

import layers

#: A DP that runs far longer than any probe waits: the busy member the
#: kill probe terminates.
_BUSY = Problem(
    objective="gaps",
    instance=OneIntervalInstance.from_pairs([(7 * i, 7 * i + 30) for i in range(1500)]),
)


def _counters():
    cache = solve_cache_stats()
    return cache["fresh_solves"], cache["hits"], worker_pool_stats()["killed"]


def _probes(workload: str, problem: Problem, result, race_class) -> dict:
    probes = layers.common_probes(problem, result)
    if workload == "exact":
        probes.update(layers.engine_probe(problem))
        probes["decompose_s"] = layers.decomposition_probe(problem)
        return probes
    probes.update(layers.portfolio_probes(problem))
    if race_class == "dp":
        probes.update(layers.engine_probe(problem))
    probes["kill_s"] = layers.kill_probe(_BUSY)
    return probes


def _warm_up(workload: str) -> None:
    if workload == "exact":
        solve(Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(
            [(0, 3), (1, 5), (2, 4), (9, 12), (10, 14)])))
    else:
        # Forks the three race workers and exercises a kill and re-fork.
        staircase = [(5 * i, 5 * i + 20) for i in range(60)]
        solve(Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(staircase)),
              budget=1.0)


def main(workload: str) -> int:
    inbox = sys.stdin.buffer
    outbox = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr  # nothing but replies may reach the pipe
    _warm_up(workload)
    pickle.dump(("ready", os.getpid()), outbox)
    outbox.flush()
    while True:
        try:
            message = pickle.load(inbox)
        except EOFError:
            break
        if message[0] == "exit":
            break
        _kind, problem, budget, trace, race_class = message
        before = _counters()
        start = time.perf_counter()
        result = solve(problem, budget=budget)
        latency = time.perf_counter() - start
        after = _counters()
        counters = {
            "fresh": after[0] - before[0],
            "hits": after[1] - before[1],
            "killed": after[2] - before[2],
        }
        probes = _probes(workload, problem, result, race_class) if trace else {}
        pickle.dump(("done", latency, result, counters, probes), outbox)
        outbox.flush()
    shutdown_worker_pool()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
