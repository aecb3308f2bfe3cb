"""The ``service`` workload: two closed-loop clients against ``repro-sched serve``.

The server runs as its own process (default serial backend, fresh job
DB, rate limit off so a fast client is never refused).  Traffic runs in
phases of :data:`PHASE_S`: both client threads submit, poll and decode
until the phase ends, then both finish their request in flight and the
runner calibrates while the server is idle.
"""

from __future__ import annotations

import itertools
import re
import select
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

from calib import Calibrator, bracket, percentile, tree_cpu_s, tree_peak_rss_mb
from harness import (
    MIN_REQUESTS,
    REMAINDER_TOLERANCE,
    SETUPS,
    BenchError,
    Blocks,
    Context,
    Record,
    check_answer,
    end_to_end,
    diagnostics,
    measure_setups,
)
from inputs import service_requests
from report import layer_metrics

CLIENTS = 2
PHASE_S = 0.3
#: Result poll interval, well below the median request latency.
POLL_S = 0.002
TIMEOUT_S = 10.0
#: Requests each client keeps generated ahead of a phase.
PREFILL = 80


class Server:
    """``python -m repro serve`` in a fresh process; set-up ends on a warm answer."""

    def __init__(self, ctx: Context, index: int) -> None:
        from repro.api import OneIntervalInstance, Problem
        from repro.service import ServiceClient

        home = ctx.tmp / f"server{index}"
        home.mkdir()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", str(home / "jobs.db"),
             "--port", "0", "--rate", "0"],
            stdout=subprocess.PIPE, cwd=home, env=ctx.env(), text=True,
        )
        self.pid = self.proc.pid
        self.db = home / "jobs.db"
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise BenchError("service did not announce its address")
            self.url = match.group(1)
            self.client = ServiceClient(self.url, client_id="setup", timeout=TIMEOUT_S)
            warm = Problem(objective="gaps", instance=OneIntervalInstance.from_pairs(
                [(0, 3), (1, 5), (2, 4), (9, 12), (10, 14)]))
            self.client.result(self.client.submit(warm), timeout=30.0, poll_interval=POLL_S)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def cpu_s(self) -> float:
        return tree_cpu_s(self.pid)

    def stats(self) -> Dict:
        return self.client.stats()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate(timeout=30)
        else:
            self.proc.communicate()


class Client:
    """One closed-loop caller with its own deterministic job stream."""

    def __init__(self, ctx: Context, url: str, index: int) -> None:
        from repro.service import ServiceClient

        self.index = index
        self.api = ServiceClient(url, client_id=f"bench-{index}", timeout=TIMEOUT_S)
        self.stream = service_requests(ctx.seed, index)
        self.ahead = deque()
        self.sent = 0

    def top_up(self) -> None:
        while len(self.ahead) < PREFILL:
            self.ahead.append(next(self.stream))

    def phase(self, until: float) -> List[Record]:
        from repro.service import ServiceError

        done = []
        while time.perf_counter() < until:
            request = self.ahead.popleft() if self.ahead else next(self.stream)
            sent = time.time()
            start = time.perf_counter()
            record = Record(request, 0.0)
            try:
                record.times["job"] = self.api.submit(request.problem)
                record.result = self.api.result(
                    record.times["job"], timeout=TIMEOUT_S, poll_interval=POLL_S)
            except ServiceError as exc:
                record.issues.append(str(exc))
            record.latency_s = time.perf_counter() - start
            record.times.update(sent=sent, hand=time.time())
            done.append(record)
            self.sent += 1
        return done


def _cache_delta(before: Dict, after: Dict) -> Dict[str, int]:
    return {key: after["cache"][key] - before["cache"][key] for key in ("fresh_solves", "hits")}


def run(ctx: Context) -> Dict:
    expected = ctx.expected("service")
    calibrator = Calibrator(width=CLIENTS)
    counter = itertools.count()
    server = None
    records: List[Record] = []
    run_issues: List[str] = []
    try:
        server, setups = measure_setups(
            lambda: Server(ctx, next(counter)), calibrator, count=1 if ctx.trace else SETUPS)
        clients = [Client(ctx, server.url, c) for c in range(CLIENTS)]
        for client in clients:
            client.top_up()
        stats_before = server.stats()
        blocks = Blocks(calibrator)
        start = time.perf_counter()
        with ThreadPoolExecutor(CLIENTS) as pool:
            while len(records) < MIN_REQUESTS or time.perf_counter() - start < ctx.seconds:
                if expected is not None and any(
                    c.sent + 2 * PREFILL > len(expected[str(c.index)]) for c in clients
                ):
                    break
                phase_start = time.perf_counter()
                until = phase_start + PHASE_S
                phase = [r for f in [pool.submit(c.phase, until) for c in clients]
                         for r in f.result()]
                wall = time.perf_counter() - phase_start
                blocks.records.extend(phase)
                blocks.close(wall_s=wall)
                for record in phase:
                    check_answer(record, None if expected is None
                                 else expected[str(record.request.client)][record.request.index])
                records.extend(phase)
                for client in clients:
                    client.top_up()
        blocks.finish()
        stats_after = server.stats()
        peak_rss = tree_peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.close()
        calibrator.close()

    delta = _cache_delta(stats_before, stats_after)
    designed = {"fresh_solves": sum(r.request.fresh for r in records),
                "hits": sum(r.request.hits for r in records)}
    if delta != designed:
        run_issues.append(f"server cache traffic {delta}, designed {designed}")
    e2e = end_to_end(records, setups, blocks.timed_norm, blocks.timed_raw,
                     blocks.cpu_norm, blocks.cpu_raw, peak_rss)
    outcome = {"records": records, "e2e": e2e, "calibrator": calibrator,
               "sut_cpu_s": blocks.cpu_raw, "granted": blocks.granted, "issues": run_issues}
    if ctx.trace:
        extra = diagnostics(calibrator, e2e)
        extra.update(_row_spans(server.db, records))
        scheduler = (stats_after["service"]["scheduler"], stats_before["service"]["scheduler"])
        extra["service.daemon.jobs_per_round"] = (
            (scheduler[0]["completed"] - scheduler[1]["completed"])
            / max(scheduler[0]["rounds"] - scheduler[1]["rounds"], 1))
        extra["api.solvers.fresh_solves"] = delta["fresh_solves"] / max(len(records), 1)
        extra["api.solvers.cache_hit_frac"] = delta["hits"] / max(sum(delta.values()), 1)
        extra.update(_probe_layers(ctx, records, calibrator))
        outcome["layers"] = layer_metrics("service", records, extra)
    return outcome


def _row_spans(db, records: List[Record]) -> Dict[str, float]:
    """Split each latency at the job row's timestamps (normalized, ms)."""
    conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        rows = {
            row[0]: row[1:]
            for row in conn.execute("SELECT id, submitted_at, started_at, finished_at FROM jobs")
        }
    finally:
        conn.close()
    spans = {"submit": [], "wait": [], "run": [], "fetch": [], "rest": []}
    for r in records:
        row = rows.get(r.times.get("job"))
        if not r.ok or row is None or None in row:
            continue
        submitted, started, finished = row
        parts = {
            "submit": submitted - r.times["sent"],
            "wait": started - submitted,
            "run": finished - started,
            "fetch": r.times["hand"] - finished,
        }
        for name, seconds in parts.items():
            spans[name].append(seconds * 1000.0 / r.factor)
        spans["rest"].append((r.latency_s - sum(parts.values())) * 1000.0 / r.factor)
    if not spans["submit"]:
        return {}
    negative = sum(rest < -REMAINDER_TOLERANCE * 1000.0 * r.norm_s
                   for rest, r in zip(spans["rest"], [r for r in records if r.ok]))
    return {
        "service.http.submit_ms": statistics.median(spans["submit"]),
        "service.queue.wait_ms": statistics.median(spans["wait"]),
        "service.queue.wait_p90_ms": percentile(spans["wait"], 90),
        "service.daemon.run_ms": statistics.median(spans["run"]),
        "service.http.fetch_ms": statistics.median(spans["fetch"]),
        "trace.negative_remainder_frac": negative / len(spans["rest"]),
    }


def _probe_layers(ctx: Context, records: List[Record], calibrator: Calibrator) -> Dict[str, float]:
    """Run each layer's public function on the workload's inputs, in this process."""
    import layers
    from repro.api import to_json
    from repro.service.queue import JobQueue

    calibrator.sut_cpu = lambda: 0.0  # the server is gone; nothing to guard
    queue = JobQueue(str(ctx.tmp / "probe.db"))
    samples: Dict[str, List[float]] = {}
    states: List[float] = []
    before = calibrator.measure()
    chunk: List[Dict[str, float]] = []
    chunk_start = time.perf_counter()
    overhead = 0.0

    def flush() -> None:
        nonlocal before, chunk_start
        after = calibrator.measure()
        factor = bracket(before, after)
        for probe in chunk:
            for key, seconds in probe.items():
                samples.setdefault(key, []).append(seconds * 1000.0 / factor)
        chunk.clear()
        before, chunk_start = after, time.perf_counter()

    try:
        for r in records:
            if not r.ok:
                continue
            probe = layers.common_probes(r.request.problem, r.result)
            if r.request.kind != "repeat":
                engine = layers.engine_probe(r.request.problem)
                states.append(engine.pop("states"))
                engine.pop("vector_frac", None)
                probe.update(engine)
                probe["decompose_s"] = layers.decomposition_probe(r.request.problem)
            t0 = time.perf_counter()
            job = queue.submit(to_json(r.request.problem), client_id="probe")
            t1 = time.perf_counter()
            queue.claim(1)
            t2 = time.perf_counter()
            queue.complete(job.id, result_json=to_json(r.result))
            t3 = time.perf_counter()
            probe.update(queue_submit_s=t1 - t0, queue_claim_s=t2 - t1, queue_complete_s=t3 - t2)
            overhead += sum(probe.values())
            chunk.append(probe)
            if time.perf_counter() - chunk_start >= 0.25:
                flush()
        if chunk:
            flush()
    finally:
        queue.close()

    def med(key: str) -> float:
        return statistics.median(samples[key]) if samples.get(key) else 0.0

    return {
        "core.canonical.form_ms": med("canonical_s"),
        "api.serialization.to_json_ms": med("to_json_s"),
        "api.serialization.from_json_ms": med("from_json_s"),
        "core.interval_dp.solve_ms": med("engine_s"),
        "core.interval_dp.states": statistics.median(states) if states else 0.0,
        "api.decomposition.try_ms": med("decompose_s"),
        "service.queue.submit_ms": med("queue_submit_s"),
        "service.queue.claim_ms": med("queue_claim_s"),
        "service.queue.complete_ms": med("queue_complete_s"),
        "trace.overhead_frac": overhead / max(sum(r.latency_s for r in records), 1e-9),
    }
