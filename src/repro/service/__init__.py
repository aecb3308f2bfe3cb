"""repro.service — scheduling-as-a-service on top of the runtime layer.

The batch pipeline in :mod:`repro.runtime` answers "solve these N
instances"; this package answers "keep solving whatever arrives".  It is
a long-lived daemon with a persistent job queue, built entirely from the
standard library (a hard rule, enforced by a hygiene test):

* :mod:`~repro.service.queue` — SQLite-backed job store (WAL mode, set
  up once per store) with atomic ``queued → running → done|error|cancelled``
  transitions.  The store is the source of truth: a killed daemon loses
  nothing, and restart re-enqueues whatever was mid-flight.  Each terminal
  transition wakes the waits held on that job.
* :mod:`~repro.service.daemon` — the scheduler thread: claim a job
  whenever :func:`repro.runtime.run_tasks` has a free task slot on the
  configured backend, write each envelope back as its task finishes,
  drain gracefully on stop.
* :mod:`~repro.service.server` — the HTTP/JSON API (``POST /v1/jobs``,
  status/result/cancel, ``GET /v1/stats``, ``GET /healthz``) on stdlib
  ``http.server``, with keep-alive connections and Nagle's algorithm off.
  ``GET /v1/jobs/<id>/result?wait=<s>`` holds the request until the
  daemon writes the job back, so clients do not poll.
* :mod:`~repro.service.admission` — per-client token-bucket rate limits
  and an outstanding-jobs quota, surfaced as structured 429s.
* :mod:`~repro.service.client` — :class:`ServiceClient`, which holds one
  persistent HTTP connection (close it, or use it in a ``with`` block),
  behind the ``repro-sched submit/status/result/cancel`` CLI verbs.  Its
  ``result`` waits in held requests, and polls only a server that does
  not hold them.
* :mod:`~repro.service.stats` — the shared operational-stats payload
  (cache tiers, engine counters, task totals) used by both the CLI's
  ``stats`` subcommand and ``GET /v1/stats``.

Quickstart (in-process; see ``docs/service.md`` for the CLI flow)::

    from repro.service import start_service, ServiceClient
    from repro.api import Problem, OneIntervalInstance, Job

    server = start_service("jobs.db", port=0)
    with ServiceClient(server.url, client_id="demo") as client:
        job_id = client.submit(Problem(
            instance=OneIntervalInstance(jobs=[Job(0, 2), Job(1, 3)]),
            objective="gaps",
        ))
        result = client.result(job_id)   # a façade SolveResult, same bytes
    server.stop()                        # graceful drain
"""

from .admission import AdmissionController, AdmissionDecision
from .client import ServiceClient, ServiceError
from .daemon import SchedulerDaemon
from .queue import JOB_STATES, TERMINAL_STATES, JobQueue, JobRecord
from .server import ServiceServer, start_service
from .stats import TaskMetrics, operational_stats

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobQueue",
    "JobRecord",
    "AdmissionController",
    "AdmissionDecision",
    "SchedulerDaemon",
    "ServiceServer",
    "start_service",
    "ServiceClient",
    "ServiceError",
    "TaskMetrics",
    "operational_stats",
]
