#!/usr/bin/env python3
"""Scheduling-as-a-service: a self-contained tour of ``repro.service``.

This example boots the real service in-process — SQLite job store,
scheduler thread, HTTP API on an ephemeral port — then talks to it
exclusively over HTTP through :class:`repro.service.ServiceClient`,
exactly as a remote client would:

1. submit a mixed batch of gap and power jobs (with one high-priority
   straggler that jumps the queue);
2. wait for results and check they are byte-identical to direct ``solve()``
   calls — same engine, same canonical envelope, network boundary or not;
3. read the operational stats surface (queue depths, cache tiers,
   aggregated engine counters);
4. stop the service gracefully (drain, then shutdown).

In production the same thing runs as ``repro-sched serve --db jobs.db``
with clients using ``repro-sched submit/status/result/cancel --url ...``;
see docs/service.md.

Run with ``python examples/service_client.py``.
"""

import tempfile
from pathlib import Path

from repro.api import MultiprocessorInstance, Problem, solve, to_json
from repro.service import ServiceClient, start_service


def make_workload():
    """A small mixed gap/power workload on one and two processors."""
    problems = []
    for seed in range(6):
        pairs = [(seed % 3, seed % 3 + 4), (2, 7), (seed % 4 + 6, 12)]
        instance = MultiprocessorInstance.from_pairs(
            pairs, num_processors=1 + seed % 2
        )
        if seed % 2 == 0:
            problems.append(Problem(objective="gaps", instance=instance))
        else:
            problems.append(
                Problem(objective="power", instance=instance, alpha=2.0 + seed)
            )
    return problems


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db_path = str(Path(tmp) / "jobs.db")
        # Serial: the warm pool forks, and a fork from this multi-threaded
        # server can leave a worker deadlocked on a lock another thread held.
        server = start_service(db_path, port=0, backend="serial")
        print(f"service up at {server.url} (db: jobs.db, backend: serial)")

        with ServiceClient(server.url, client_id="example") as client:
            problems = make_workload()

            print("\n=== submit ===")
            job_ids = [client.submit(problem) for problem in problems]
            vip = client.submit(problems[0], priority=10)  # jumps the queue
            print(f"submitted {len(job_ids)} jobs + 1 high-priority rerun")

            print("\n=== results (vs direct solve) ===")
            for problem, job_id in zip(problems, job_ids):
                remote = client.result(job_id, timeout=60.0)
                local = solve(problem)
                match = "identical" if to_json(remote) == to_json(local) else "DIFFERENT"
                print(
                    f"job {job_id[:8]}  {problem.objective:<6} "
                    f"status={remote.status:<10} value={remote.value}  "
                    f"envelope vs local solve: {match}"
                )
            vip_status = client.status(vip)
            print(f"high-priority job finished as {vip_status['state']}")

            print("\n=== operational stats ===")
            stats = client.stats()
            jobs = stats["service"]["jobs"]
            print(f"jobs: {jobs['done']} done, {jobs['queued']} queued")
            print(
                f"tasks completed: {stats['tasks']['completed']} "
                f"(by status: {stats['tasks']['by_status']})"
            )
            print(f"solve cache: hits={stats['cache']['hits']} misses={stats['cache']['misses']}")
            engine = stats["engine"]
            if engine:
                print(
                    f"engine counters: states_computed={engine.get('states_computed')} "
                    f"memo_hits={engine.get('memo_hits')}"
                )

        server.stop()
        print("\nservice drained and stopped cleanly")


if __name__ == "__main__":
    main()
