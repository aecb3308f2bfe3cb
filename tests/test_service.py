"""End-to-end tests for the scheduling service (daemon + HTTP + client).

The in-process tests boot a real :class:`ServiceServer` on an ephemeral
port — the HTTP listener, scheduler thread, SQLite store, and admission
controller are all live; only the process boundary is skipped, which
lets the tests register throwaway solvers (a gate-controlled "sleepy"
solver for deterministic cancel-while-running coverage, a crashing one
for the error envelope).  The subprocess tests cover what in-process
cannot: SIGKILL + restart recovery and SIGTERM graceful drain of
``repro-sched serve``.
"""

import gc
import http.client
import json
import os
import random
import signal
import sqlite3
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import (
    MultiprocessorInstance,
    OneIntervalInstance,
    Problem,
    SolveResult,
    solve,
    to_dict,
    to_json,
)
from repro.api.registry import _REGISTRY, register_solver
from repro.service import ServiceClient, ServiceError, ServiceServer
from repro.service import daemon as daemon_module
from repro.service import server as server_module
from repro.service.client import RESULT_HOLD_S, _TurnLock
from repro.service.daemon import SchedulerDaemon
from repro.service.queue import JobQueue
from repro.service.server import MAX_BODY_BYTES, _Handler

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Gate the sleepy solver blocks on; tests set it to release held jobs.
SLEEP_GATE = threading.Event()


def _register_test_solvers() -> None:
    if "test-sleepy" in _REGISTRY:
        return

    @register_solver(
        "test-sleepy",
        objective="gaps",
        kind="exact",
        instance_types=(OneIntervalInstance,),
        description="test-only: blocks on a gate, then delegates to gap-dp",
    )
    def _sleepy(problem: Problem) -> SolveResult:
        SLEEP_GATE.wait(timeout=30.0)
        return solve(problem, solver="gap-dp")

    @register_solver(
        "test-crash",
        objective="gaps",
        kind="exact",
        instance_types=(OneIntervalInstance,),
        description="test-only: always raises",
    )
    def _crash(problem: Problem) -> SolveResult:
        raise RuntimeError("intentional test crash")

    @register_solver(
        "test-gated",
        objective="gaps",
        kind="exact",
        instance_types=(OneIntervalInstance,),
        description="test-only: three-job instances block on a gate",
    )
    def _gated(problem: Problem) -> SolveResult:
        if problem.instance.num_jobs == 3:
            SLEEP_GATE.wait(timeout=30.0)
        return solve(problem, solver="gap-dp")


@pytest.fixture(scope="module", autouse=True)
def test_solvers():
    """Register the throwaway solvers for this module only.

    The registry is process-global, so teardown must remove them — other
    test modules enumerate "every capable solver" and must never see a
    solver that blocks or crashes on purpose.
    """
    _register_test_solvers()
    yield
    _REGISTRY.pop("test-sleepy", None)
    _REGISTRY.pop("test-crash", None)
    _REGISTRY.pop("test-gated", None)


def gap_problem(seed: int) -> Problem:
    pairs = [(seed % 5, seed % 5 + 3), (seed % 3 + 1, seed % 3 + 6), (8, 11 + seed % 2)]
    return Problem(
        objective="gaps",
        instance=MultiprocessorInstance.from_pairs(pairs, num_processors=1 + seed % 2),
    )


def power_problem(seed: int) -> Problem:
    pairs = [(0, 4 + seed % 3), (2, 7), (seed % 4 + 5, 12)]
    return Problem(
        objective="power",
        instance=MultiprocessorInstance.from_pairs(pairs, num_processors=1),
        alpha=2.0 + seed % 3,
    )


def sleepy_problem(seed: int) -> Problem:
    # Distinct instances so the stream's canonical dedupe never merges them.
    return Problem(
        objective="gaps",
        instance=OneIntervalInstance.from_pairs([(0, 3 + seed), (1, 4 + seed)]),
    )


@pytest.fixture
def make_server(tmp_path):
    """Factory for in-process servers on ephemeral ports; stops them on exit."""
    servers = []
    counter = [0]

    def factory(**kwargs) -> ServiceServer:
        counter[0] += 1
        kwargs.setdefault("backend", "serial")
        kwargs.setdefault("window", 4)
        server = ServiceServer(
            str(tmp_path / f"jobs{counter[0]}.db"), port=0, **kwargs
        ).start()
        servers.append(server)
        return server

    SLEEP_GATE.clear()
    yield factory
    SLEEP_GATE.set()  # release anything still blocked before teardown
    for server in servers:
        server.stop()


@pytest.fixture
def connect():
    """Factory for clients of a server; closes their connections on exit."""
    clients = []

    def factory(server: ServiceServer, client_id: str = "client") -> ServiceClient:
        client = ServiceClient(server.url, client_id=client_id)
        clients.append(client)
        return client

    yield factory
    for client in clients:
        client.close()


def _urllib_request(server, method, path, body=None):
    """One request through urllib, which sends ``Connection: close``."""
    request = urllib.request.Request(
        server.url + path,
        data=body,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


def _wait_for_state(client, job_id, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        current = client.status(job_id)["state"]
        if current == state:
            return
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {state!r} (last: {current!r})")


class TestSubmitPollResult:
    def test_result_parity_with_direct_solve(self, make_server, connect):
        server = make_server()
        client = connect(server, "parity")
        problems = [gap_problem(3), power_problem(5)]
        for problem in problems:
            job_id = client.submit(problem)
            remote = client.result(job_id, timeout=30.0)
            # wall_time is excluded from canonical JSON, so envelopes from
            # the service and from a local call are byte-identical.
            assert to_json(remote) == to_json(solve(problem))

    def test_status_view_fields(self, make_server, connect):
        server = make_server()
        client = connect(server, "viewer")
        job_id = client.submit(gap_problem(1), priority=7)
        client.result(job_id, timeout=30.0)
        view = client.status(job_id)
        assert view["id"] == job_id
        assert view["client_id"] == "viewer"
        assert view["priority"] == 7
        assert view["state"] == "done"
        assert view["attempts"] == 1
        assert view["finished_at"] >= view["started_at"] >= view["submitted_at"]
        assert "problem" not in view  # payload bodies stay off the status view

    def test_fifty_job_mixed_workload(self, make_server, connect):
        # The acceptance scenario: 50 mixed gap/power jobs through the
        # service, every envelope byte-identical to solve().
        server = make_server(window=8)
        client = connect(server, "bulk")
        problems = [
            gap_problem(i) if i % 2 == 0 else power_problem(i) for i in range(50)
        ]
        job_ids = [client.submit(problem) for problem in problems]
        for problem, job_id in zip(problems, job_ids):
            remote = client.result(job_id, timeout=60.0)
            assert to_json(remote) == to_json(solve(problem))
        stats = client.stats()
        assert stats["service"]["jobs"]["done"] == 50
        assert stats["service"]["jobs"]["queued"] == 0
        assert stats["tasks"]["completed"] >= 1

    def test_error_job_carries_error_envelope(self, make_server, connect):
        server = make_server()
        client = connect(server, "crash")
        job_id = client.submit(sleepy_problem(0), solver="test-crash")
        _wait_for_state(client, job_id, "error")
        view = client.status(job_id)
        assert "RuntimeError" in view["error"]
        remote = client.result(job_id, timeout=10.0)
        assert remote.status == "error"
        assert remote.extra["error_type"] == "RuntimeError"

    def test_unknown_solver_becomes_error_job(self, make_server, connect):
        server = make_server()
        client = connect(server, "typo")
        job_id = client.submit(gap_problem(0), solver="no-such-solver")
        _wait_for_state(client, job_id, "error")
        assert "SolverError" in client.status(job_id)["error"]

    def test_priority_orders_execution(self, make_server, connect):
        # window=1 + a gated job holding the lane: everything submitted
        # behind it is still queued when the lane frees, so the high
        # priority job must run before the earlier-submitted low one.
        server = make_server(window=1)
        client = connect(server, "prio")
        blocker = client.submit(sleepy_problem(0), solver="test-sleepy")
        _wait_for_state(client, blocker, "running")
        low = client.submit(gap_problem(1), priority=0)
        high = client.submit(gap_problem(2), priority=9)
        SLEEP_GATE.set()
        client.result(low, timeout=30.0)
        assert (
            client.status(high)["started_at"] <= client.status(low)["started_at"]
        )


class TestSerialWindow:
    def test_fast_job_is_answered_while_a_slow_batchmate_is_held(self, tmp_path):
        # Both jobs are queued before the server starts, so its first
        # claim takes them together.  Serially the stream solves one job
        # at a time and yields it before the next starts: the fast job is
        # written back while the slow one still blocks on the gate.
        db_path = str(tmp_path / "jobs.db")
        store = JobQueue(db_path)
        fast = store.submit(to_json(sleepy_problem(0)), solver="test-gated").id
        slow_problem = Problem(
            objective="gaps",
            instance=OneIntervalInstance.from_pairs([(0, 3), (1, 4), (6, 9)]),
        )
        slow = store.submit(to_json(slow_problem), solver="test-gated").id
        store.close()
        SLEEP_GATE.clear()
        server = ServiceServer(db_path, port=0, backend="serial", window=2).start()
        try:
            with ServiceClient(server.url) as client:
                assert client.result(fast, timeout=10.0).status == "optimal"
                assert client.status(slow)["state"] == "running"
                assert server.daemon.rounds == 1
                SLEEP_GATE.set()
                assert client.result(slow, timeout=30.0).status == "optimal"
        finally:
            SLEEP_GATE.set()
            server.stop()


class TestTaskMetrics:
    """``/v1/stats`` counts each result the daemon writes back exactly once."""

    def test_every_written_back_result_is_counted(self, make_server, connect):
        server = make_server()
        client = connect(server, "metrics")
        problems = [gap_problem(1), gap_problem(2), power_problem(3)]
        for job_id in [client.submit(problem) for problem in problems]:
            client.result(job_id, timeout=30.0)
        payload = client.stats()
        statuses = {}
        for problem in problems:
            status = solve(problem).status
            statuses[status] = statuses.get(status, 0) + 1
        assert payload["tasks"]["completed"] == len(problems)
        assert payload["tasks"]["by_status"] == statuses
        assert payload["engine"]["states_computed"] > 0

    def test_exact_duplicates_count_once_each(self, make_server, connect):
        server = make_server(window=4)
        client = connect(server, "dupes")
        blocker = client.submit(sleepy_problem(0), solver="test-sleepy")
        _wait_for_state(client, blocker, "running")
        # Queued behind the blocker, the copies share one claimed window:
        # the stream solves one and hands the others copies of its result.
        copies = [client.submit(gap_problem(4)) for _ in range(3)]
        SLEEP_GATE.set()
        for job_id in [blocker] + copies:
            client.result(job_id, timeout=30.0)
        tasks = client.stats()["tasks"]
        assert tasks["completed"] == 4
        copy_status = solve(gap_problem(4)).status
        assert tasks["by_status"][copy_status] >= 3
        assert sum(tasks["by_status"].values()) == 4

    def test_error_envelopes_count_once_each(self, make_server, connect):
        server = make_server()
        client = connect(server, "errors")
        job_ids = [
            client.submit(sleepy_problem(seed), solver="test-crash")
            for seed in range(2)
        ]
        for job_id in job_ids:
            _wait_for_state(client, job_id, "error")
        tasks = client.stats()["tasks"]
        assert tasks["completed"] == 2
        assert tasks["by_status"] == {"error": 2}


class TestCancel:
    def test_cancel_queued_is_immediate(self, make_server, connect):
        server = make_server(window=1)
        client = connect(server, "cancel")
        blocker = client.submit(sleepy_problem(0), solver="test-sleepy")
        _wait_for_state(client, blocker, "running")
        queued = client.submit(sleepy_problem(1), solver="test-sleepy")
        assert client.cancel(queued)["state"] == "cancelled"
        assert client.status(queued)["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.result(queued, wait=False)
        assert excinfo.value.status == 410
        SLEEP_GATE.set()
        client.result(blocker, timeout=30.0)

    def test_cancel_running_lands_cancelled_and_discards_result(
        self, make_server, connect
    ):
        server = make_server(window=1)
        client = connect(server, "cancel")
        job_id = client.submit(sleepy_problem(2), solver="test-sleepy")
        _wait_for_state(client, job_id, "running")
        assert client.cancel(job_id)["state"] == "cancelling"
        SLEEP_GATE.set()
        _wait_for_state(client, job_id, "cancelled")
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 410

    def test_cancel_finished_job_conflicts(self, make_server, connect):
        server = make_server()
        client = connect(server, "cancel")
        job_id = client.submit(gap_problem(0))
        client.result(job_id, timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["state"] == "done"

    def test_cancel_unknown_job_404(self, make_server, connect):
        server = make_server()
        client = connect(server, "cancel")
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("deadbeef")
        assert excinfo.value.status == 404


class TestAdmission:
    def test_quota_429_with_structured_payload(self, make_server, connect):
        server = make_server(window=1, max_queued=2, rate=0.0)
        client = connect(server, "greedy")
        held = [
            client.submit(sleepy_problem(i), solver="test-sleepy") for i in range(2)
        ]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(sleepy_problem(9), solver="test-sleepy")
        assert excinfo.value.status == 429
        assert excinfo.value.payload["error"] == "quota_exceeded"
        assert excinfo.value.payload["retry_after"] is None
        # Another client is unaffected by greedy's quota.
        other = connect(server, "polite")
        done = other.submit(gap_problem(0))
        SLEEP_GATE.set()
        other.result(done, timeout=30.0)
        for job_id in held:
            client.result(job_id, timeout=30.0)
        # Outstanding jobs drained, the client may submit again.
        assert client.submit(gap_problem(1))

    def test_rate_limit_429_with_retry_after(self, make_server, connect):
        server = make_server(rate=0.001, burst=2, max_queued=0)
        client = connect(server, "chatty")
        client.submit(gap_problem(0))
        client.submit(gap_problem(1))
        with pytest.raises(ServiceError) as excinfo:
            client.submit(gap_problem(2))
        assert excinfo.value.status == 429
        assert excinfo.value.payload["error"] == "rate_limited"
        assert excinfo.value.payload["retry_after"] > 0


class TestHttpSurface:
    def test_healthz(self, make_server, connect):
        server = make_server()
        payload = connect(server).health()
        assert payload["status"] == "ok"
        assert payload["state"] == "running"

    @pytest.mark.filterwarnings(
        # The loop's exception reaches the thread's excepthook by design.
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_healthz_reports_a_dead_loop(self, make_server, connect, monkeypatch):
        def crash(self, batch):
            raise RuntimeError("scheduler crashed")

        monkeypatch.setattr(SchedulerDaemon, "_execute_batch", crash)
        server = make_server()
        client = connect(server)
        client.submit(gap_problem(0))
        server._daemon_thread.join(timeout=10.0)
        assert not server._daemon_thread.is_alive()
        status, payload = _urllib_request(server, "GET", "/healthz")
        assert status == 503
        assert payload["status"] == "down"
        assert payload["state"] == "stopped"
        assert payload["error"] == "RuntimeError: scheduler crashed"
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 503

    def test_unknown_backend_fails_at_construction(self, tmp_path):
        # A server that accepted jobs it could never run would leave them
        # queued forever; construction refuses the name instead, and closes
        # the store it opened.
        gc.disable()
        try:
            before = _open_sqlite_connections()
            for name in ("thread", "quantum"):
                with pytest.raises(ValueError, match="unknown backend"):
                    ServiceServer(str(tmp_path / "jobs.db"), port=0, backend=name)
            opened = len(_open_sqlite_connections().keys() - before.keys())
        finally:
            gc.enable()
        assert opened == 0, opened

    def test_start_returns_once_the_loop_runs(self, tmp_path):
        # start() must not return before the scheduler thread has set its
        # state; `python -X dev` slows start-up enough to show it.
        for cycle in range(20):
            server = ServiceServer(str(tmp_path / "jobs.db"), port=0).start()
            try:
                assert server.daemon.state == "running", cycle
            finally:
                server.stop()

    def test_start_raises_if_the_loop_never_starts(
        self, tmp_path, monkeypatch
    ):
        def never_starts(self):
            pass

        monkeypatch.setattr(SchedulerDaemon, "run", never_starts)
        monkeypatch.setattr(server_module, "START_TIMEOUT_S", 0.2)
        server = ServiceServer(str(tmp_path / "jobs.db"), port=0)
        try:
            with pytest.raises(RuntimeError, match="did not start"):
                server.start()
        finally:
            server.stop()

    def test_stats_shape_matches_cli_payload(self, make_server, connect):
        server = make_server()
        client = connect(server, "stats")
        job_id = client.submit(gap_problem(0))
        client.result(job_id, timeout=30.0)
        payload = client.stats()
        # The shared operational payload (same keys repro-sched stats prints)...
        assert set(payload) == {"cache", "engine", "tasks", "service"}
        assert {"hits", "misses", "fresh_solves", "disk"} <= set(payload["cache"])
        assert payload["tasks"]["completed"] >= 1
        assert payload["tasks"]["by_status"].get("optimal", 0) >= 1
        # ...plus the service block.
        service = payload["service"]
        assert service["jobs"]["done"] >= 1
        assert service["scheduler"]["window"] == 4
        assert service["admission"]["admitted"] >= 1

    def test_unknown_endpoints_and_bad_bodies(self, make_server):
        server = make_server()

        def raw_request(method, path, body=None):
            return _urllib_request(server, method, path, body)

        assert raw_request("GET", "/v1/nope")[0] == 404
        assert raw_request("POST", "/v1/nope")[0] == 404
        assert raw_request("GET", "/v1/jobs/deadbeef")[0] == 404
        assert raw_request("GET", "/v1/jobs/deadbeef/result")[0] == 404
        status, payload = raw_request("POST", "/v1/jobs", b"not json")
        assert status == 400
        assert "JSON" in payload["error"]
        status, payload = raw_request("POST", "/v1/jobs", b'{"problem": 42}')
        assert status == 400
        status, payload = raw_request(
            "POST", "/v1/jobs", b'{"problem": {"type": "job", "release": "x"}}'
        )
        assert status == 400

    def test_bad_content_length_is_400(self, make_server, connect):
        # Raw sockets: urllib never sends a malformed Content-Length.
        server = make_server()
        address = (server.host, server.port)
        for declared in ("abc", "-5", "-1"):
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + declared.encode() + b"\r\n\r\n"
                    b'{"problem": {}}'
                )
                reply = b""
                while True:  # the server closes after answering
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400"), (declared, reply)
            assert "Content-Length" in json.loads(body)["error"]
        # The server keeps serving.
        client = connect(server, "after-bad-length")
        assert client.health()["status"] == "ok"
        job_id = client.submit(gap_problem(0))
        assert client.result(job_id, timeout=30.0).status == "optimal"

    @staticmethod
    def _raw_post(server, head: bytes, body: bytes = b"") -> bytes:
        """Send one raw POST /v1/jobs and read until the server closes."""
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n" + head + b"\r\n\r\n" + body
            )
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    return reply
                reply += chunk

    def test_oversized_content_length_is_413_before_reading(
        self, make_server, connect
    ):
        # Nothing of the declared body is sent: a server that tried to read
        # (or allocate) it would hang or die instead of answering.
        server = make_server()
        for declared in (MAX_BODY_BYTES + 1, 10**12):
            reply = self._raw_post(server, b"Content-Length: %d" % declared)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 413"), (declared, reply)
            assert b"\r\nConnection: close" in head
            assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
        client = connect(server, "after-oversized")
        job_id = client.submit(gap_problem(0))
        assert client.result(job_id, timeout=30.0).status == "optimal"

    def test_unconvertible_json_number_is_400(self, make_server):
        # json.loads raises a plain ValueError (not JSONDecodeError) for an
        # integer past the interpreter's digit limit.
        server = make_server()
        payload = b'{"problem": ' + b"7" * 100_000 + b"}"
        reply = self._raw_post(
            server, b"Content-Length: %d\r\nConnection: close" % len(payload), payload
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), reply[:200]
        assert "JSON" in json.loads(body)["error"]

    def test_deeply_nested_json_is_400(self, make_server, connect):
        # json.loads raises RecursionError, not ValueError, on nesting past
        # the interpreter's recursion limit.
        server = make_server()
        payload = b"[" * 100_000 + b"]" * 100_000
        reply = self._raw_post(
            server, b"Content-Length: %d\r\nConnection: close" % len(payload), payload
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), reply[:200]
        assert "nests too deeply" in json.loads(body)["error"]
        client = connect(server, "after-nested")
        job_id = client.submit(gap_problem(0))
        assert client.result(job_id, timeout=30.0).status == "optimal"

    def test_http_connections_close_their_sqlite_handles(self, make_server):
        # Each HTTP connection is served on a fresh thread with its own
        # SQLite connection.  sqlite3.Connection objects sit in reference
        # cycles, so with the cyclic GC off an unclosed one stays open; the
        # handler must close it when the HTTP connection ends.  urllib
        # sends Connection: close, so every request here is a connection.
        server = make_server()
        gc.disable()
        try:
            before = _open_sqlite_connections()
            for seed in range(30):
                body = {"problem": to_dict(gap_problem(seed)), "client_id": "handles"}
                status, payload = _urllib_request(
                    server, "POST", "/v1/jobs", json.dumps(body).encode()
                )
                assert status == 202, payload
                path = f"/v1/jobs/{payload['id']}"
                assert _urllib_request(server, "GET", path)[0] == 200
            opened = len(_open_sqlite_connections().keys() - before.keys())
        finally:
            gc.enable()
        # 60 HTTP connections; only the daemon's few long-lived threads may
        # keep a connection open.
        assert opened <= 12, opened

    def test_result_not_ready_is_202(self, make_server, connect):
        server = make_server(window=1)
        client = connect(server, "poll")
        job_id = client.submit(sleepy_problem(3), solver="test-sleepy")
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 202
        SLEEP_GATE.set()
        client.result(job_id, timeout=30.0)

    def test_draining_refuses_submissions(self, make_server, connect):
        server = make_server()
        client = connect(server, "late")
        server.draining = True
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(gap_problem(0))
            assert excinfo.value.status == 503
        finally:
            server.draining = False


def _threads_named(prefix):
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestSchedulerThread:
    def test_one_scheduler_thread_and_no_executor(self, tmp_path):
        server = ServiceServer(str(tmp_path / "jobs.db"), port=0).start()
        try:
            with ServiceClient(server.url) as client:
                job_id = client.submit(gap_problem(0))
                assert client.result(job_id, timeout=30.0).status == "optimal"
            assert len(_threads_named("repro-service-scheduler")) == 1
            assert _threads_named("repro-service-batch") == []
        finally:
            server.stop()
        assert _threads_named("repro-service-scheduler") == []
        assert _threads_named("repro-service-batch") == []

    def test_no_kick_is_lost(self, make_server, monkeypatch):
        # With a 30 s poll only kicks wake the scheduler: a lost one leaves
        # its job queued until the client gives up.  Clients submit in
        # rounds, each at a random moment, so a round's last submit has no
        # later kick to cover for its own.  A slow claim widens the gap
        # between the claim's read and the next wait, where a submit could
        # commit unseen.
        monkeypatch.setattr(daemon_module, "IDLE_POLL_S", 30.0)
        server = make_server()
        claim = server.store.claim

        def slow_claim(limit):
            batch = claim(limit)
            time.sleep(0.002)
            return batch

        server.store.claim = slow_claim
        clients, rounds = 4, 60
        barrier = threading.Barrier(clients)
        latencies, failures = [], []

        def submitter(index):
            rng = random.Random(index)
            with ServiceClient(server.url, client_id=f"kick-{index}") as client:
                for round_ in range(rounds):
                    try:
                        barrier.wait(timeout=30.0)
                    except threading.BrokenBarrierError:
                        return  # another client failed, or one hung
                    time.sleep(rng.uniform(0.0, 0.02))
                    start = time.monotonic()
                    try:
                        job_id = client.submit(gap_problem(clients * round_ + index))
                        client.result(job_id, timeout=5.0)
                    except ServiceError as exc:
                        failures.append(str(exc))
                        barrier.abort()  # fail fast: stop every client
                        return
                    latencies.append(time.monotonic() - start)

        threads = [
            threading.Thread(target=submitter, args=(i,)) for i in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(latencies) == clients * rounds
        assert max(latencies) < 5.0
        # Idle again: the stop request is a kick too.
        assert server.store.pending_count() == 0
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 1.0


def _until_held(server, count=1, timeout=10.0):
    """Wait until ``count`` result requests are held on ``server``."""
    deadline = time.monotonic() + timeout
    while server.store.wait_stats()["held"] < count:
        assert time.monotonic() < deadline, server.store.wait_stats()
        time.sleep(0.005)


def _record_requests(client):
    """Make ``client`` log the (method, path) of every request it sends."""
    sent = []
    request = client._request

    def recording(method, path, body=None):
        sent.append((method, path))
        return request(method, path, body)

    client._request = recording
    return sent


class _Fetch(threading.Thread):
    """``client.result(job_id)`` on its own thread, timed."""

    def __init__(self, client, job_id):
        super().__init__()
        self.client, self.job_id = client, job_id
        self.result = self.error = self.finished = None

    def run(self):
        try:
            self.result = self.client.result(self.job_id, timeout=30.0)
        except ServiceError as exc:
            self.error = exc
        self.finished = time.monotonic()


class TestResultWait:
    """``GET /v1/jobs/<id>/result?wait=``: held requests, answered by the
    daemon's write-back."""

    def test_held_request_is_answered_by_the_write_back(
        self, make_server, connect
    ):
        server = make_server(window=1)
        client = connect(server, "held")
        job_id = client.submit(sleepy_problem(0), solver="test-sleepy")
        sent = _record_requests(client)
        fetch = _Fetch(client, job_id)
        fetch.start()
        _until_held(server)
        opened = time.monotonic()
        SLEEP_GATE.set()
        fetch.join(timeout=10.0)
        assert not fetch.is_alive()
        assert fetch.result.status == "optimal"
        assert fetch.finished - opened < 0.5
        # One request, held until the job was done: no polling.
        hold = f"wait={RESULT_HOLD_S:.3f}"
        assert sent == [("GET", f"/v1/jobs/{job_id}/result?{hold}")]
        waits = connect(server, "stats").stats()["service"]["result_waits"]
        assert waits == {"held": 0, "woken": 1, "timed_out": 0}
        assert server.store._waiters == {}

    def test_cancelling_a_queued_job_answers_its_held_request(
        self, make_server, connect
    ):
        server = make_server(window=1)
        client = connect(server, "held")
        blocker = client.submit(sleepy_problem(0), solver="test-sleepy")
        _wait_for_state(client, blocker, "running")
        queued = client.submit(sleepy_problem(1), solver="test-sleepy")
        fetch = _Fetch(client, queued)
        fetch.start()
        _until_held(server)
        cancelled = time.monotonic()
        assert connect(server, "canceller").cancel(queued)["state"] == "cancelled"
        fetch.join(timeout=10.0)
        assert not fetch.is_alive()
        assert fetch.error.status == 410
        assert fetch.finished - cancelled < 0.5
        assert server.store._waiters == {}
        SLEEP_GATE.set()

    def test_stop_answers_held_requests_and_does_not_wait_for_them(
        self, make_server, connect
    ):
        server = make_server(window=1)
        client = connect(server, "drain")
        blocker = client.submit(sleepy_problem(0), solver="test-sleepy")
        _wait_for_state(client, blocker, "running")
        queued = client.submit(sleepy_problem(1), solver="test-sleepy")
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        stopper = threading.Thread(target=server.stop)
        try:
            conn.request("GET", f"/v1/jobs/{queued}/result?wait=20")
            _until_held(server)
            stop_called = time.monotonic()
            stopper.start()
            response = conn.getresponse()
            answered = time.monotonic() - stop_called
            assert response.status == 202
            assert json.loads(response.read())["state"] == "queued"
        finally:
            conn.close()
            released = time.monotonic()
            SLEEP_GATE.set()  # lets the drain finish the blocker
            if stopper.ident is not None:
                stopper.join(timeout=30.0)
        # Answered at once, while the drain still waited for the blocker,
        # and the drain did not wait for the held request.
        assert answered < 0.5
        assert not stopper.is_alive()
        assert time.monotonic() - released < 2.0
        waits = server.stats_payload()["service"]["result_waits"]
        assert waits == {"held": 0, "woken": 1, "timed_out": 0}
        assert server.store._waiters == {}

    def test_a_client_that_leaves_during_a_hold_is_dropped_quietly(
        self, make_server, connect, capsys
    ):
        # The reply to a departed client fails with a broken pipe or a
        # reset, which socketserver would print as a traceback.
        server = make_server(window=1)
        client = connect(server, "leaver")
        job_id = client.submit(sleepy_problem(0), solver="test-sleepy")
        address = (server.host, server.port)
        for _ in range(3):
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(
                    f"GET /v1/jobs/{job_id}/result?wait=0.2 HTTP/1.1\r\n"
                    "Host: test\r\n\r\n".encode()
                )
                _until_held(server)
        deadline = time.monotonic() + 5.0
        while server.store.wait_stats()["timed_out"] < 3:
            assert time.monotonic() < deadline, server.store.wait_stats()
            time.sleep(0.01)
        time.sleep(0.1)  # the handlers write their replies after the hold
        assert "Traceback" not in capsys.readouterr().err
        SLEEP_GATE.set()
        assert client.result(job_id, timeout=30.0).status == "optimal"

    @pytest.mark.parametrize(
        "query",
        ["wait=abc", "wait=-1", "wait=nan", "wait=inf", "wait=", "wait=1&wait=2"],
    )
    def test_bad_wait_is_400(self, make_server, connect, query):
        server = make_server()
        client = connect(server, "bad-wait")
        job_id = client.submit(gap_problem(0))
        status, payload = _urllib_request(
            server, "GET", f"/v1/jobs/{job_id}/result?{query}"
        )
        assert status == 400
        assert "wait must be" in payload["error"]

    def test_huge_wait_is_capped(self, make_server, connect, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_RESULT_WAIT_S", 0.2)
        server = make_server(window=1)
        client = connect(server, "capped")
        job_id = client.submit(sleepy_problem(0), solver="test-sleepy")
        start = time.monotonic()
        status, payload = _urllib_request(
            server, "GET", f"/v1/jobs/{job_id}/result?wait=1e9"
        )
        held = time.monotonic() - start
        assert status == 202
        assert payload["state"] in ("queued", "running")
        assert 0.2 <= held < 3.0
        assert server.store.wait_stats() == {"held": 0, "woken": 0, "timed_out": 1}
        SLEEP_GATE.set()

    def test_client_polls_a_server_that_does_not_hold(self, stub_server):
        # The stub answers 202 at once, as a server without ``wait`` would.
        host, port = stub_server.server_address[:2]
        # A hold never reaches past half the socket timeout.
        with ServiceClient(f"http://{host}:{port}", timeout=0.5) as client:
            result = client.result("job", timeout=10.0, poll_interval=0.05)
        assert to_json(result) == to_json(solve(gap_problem(0)))
        times = [at for at, _path in _AnswersLater.seen]
        paths = [path for _at, path in _AnswersLater.seen]
        assert paths == ["/v1/jobs/job/result?wait=0.250"] * 4
        assert all(b - a >= 0.045 for a, b in zip(times, times[1:])), times

    def test_a_hold_never_outlasts_the_callers_deadline(
        self, make_server, connect
    ):
        server = make_server(window=1)
        client = connect(server, "deadline")
        job_id = client.submit(sleepy_problem(0), solver="test-sleepy")
        sent = _record_requests(client)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="timed out after 0.3s"):
            client.result(job_id, timeout=0.3)
        assert time.monotonic() - start < RESULT_HOLD_S
        (request,) = sent
        assert float(request[1].split("?wait=")[1]) <= 0.3
        SLEEP_GATE.set()

    @pytest.fixture
    def stub_server(self):
        _AnswersLater.seen = []
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _AnswersLater)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5.0)

    def test_wait_false_sends_one_plain_get(self, make_server, connect):
        server = make_server(window=1)
        client = connect(server, "once")
        job_id = client.submit(sleepy_problem(0), solver="test-sleepy")
        sent = _record_requests(client)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 202
        assert sent == [("GET", f"/v1/jobs/{job_id}/result")]
        SLEEP_GATE.set()

    def test_registry_is_empty_once_many_waits_return(self, make_server, connect):
        server = make_server(window=1)
        blocker = connect(server, "blocker").submit(
            sleepy_problem(0), solver="test-sleepy"
        )
        queued = connect(server, "queued").submit(
            sleepy_problem(1), solver="test-sleepy"
        )
        fetches = [
            _Fetch(connect(server, f"waiter-{i}"), job_id)
            for i, job_id in enumerate([blocker, blocker, queued, queued])
        ]
        for fetch in fetches:
            fetch.start()
        _until_held(server, 4)
        assert len(server.store._waiters) == 2
        connect(server, "canceller").cancel(queued)
        SLEEP_GATE.set()
        for fetch in fetches:
            fetch.join(timeout=10.0)
            assert not fetch.is_alive()
        assert [f.result.status for f in fetches[:2]] == ["optimal"] * 2
        assert [f.error.status for f in fetches[2:]] == [410] * 2
        assert server.store._waiters == {}
        assert server.store.wait_stats()["held"] == 0

    def test_a_shared_client_waits_at_most_one_hold(self, make_server, connect):
        # Thread requests take turns on the client's one connection, so a
        # held result request delays another thread's submit by at most one
        # hold (RESULT_HOLD_S), not until the awaited job is done.
        server = make_server(window=1)
        client = connect(server, "shared")
        slow = client.submit(sleepy_problem(0), solver="test-sleepy")
        fetch = _Fetch(client, slow)
        fetch.start()
        _until_held(server)
        start = time.monotonic()
        quick = client.submit(gap_problem(0))
        took = time.monotonic() - start
        SLEEP_GATE.set()
        fetch.join(timeout=10.0)
        assert not fetch.is_alive()
        assert fetch.result.status == "optimal"
        assert took < RESULT_HOLD_S + 0.5, took
        assert client.result(quick, timeout=30.0).status == "optimal"

    def test_turn_lock_loses_no_update_under_contention(self):
        # More threads than cores, each doing an unprotected-looking
        # read-modify-write under the client's lock, with frequent switches.
        lock, total = _TurnLock(), [0]

        def bump():
            for _ in range(200):
                with lock:
                    value = total[0]
                    time.sleep(0)
                    total[0] = value + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert total[0] == 8 * 200


class _AnswersLater(BaseHTTPRequestHandler):
    """Answers a result request 202 at once, three times, then 200."""

    protocol_version = "HTTP/1.1"
    seen: list = []

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802
        self.seen.append((time.monotonic(), self.path))
        if len(self.seen) <= 3:
            payload = {"id": "job", "state": "running"}
            status = 202
        else:
            payload = {"id": "job", "state": "done",
                       "result": to_dict(solve(gap_problem(0)))}
            status = 200
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _open_sqlite_connections() -> dict:
    """Every open connection the GC sees, by id.

    The dict holds the connections, so no id in it can be reused by a
    connection opened later: ``(after.keys() - before.keys())`` counts
    the ones opened since, whatever an earlier test's threads close
    meanwhile.
    """
    conns = {}
    for obj in gc.get_objects():
        if isinstance(obj, sqlite3.Connection):
            try:
                obj.total_changes
            except sqlite3.ProgrammingError:  # closed
                continue
            conns[id(obj)] = obj
    return conns


class _DropsSecondRequest(BaseHTTPRequestHandler):
    """Answers the first request on a connection, then drops the connection
    on the next one without a reply, as a server closing it mid-request."""

    protocol_version = "HTTP/1.1"
    seen: list = []

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _handle(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.seen.append((self.command, self.path))
        if getattr(self, "answered", False):
            self.close_connection = True
            return
        self.answered = True
        body = b'{"id": "x", "status": "ok"}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _handle


class TestKeepAlive:
    """One persistent connection per client, and what the server owes it."""

    def test_sequential_requests_on_one_connection_do_not_stall(self, make_server):
        # With Nagle's algorithm on, every reply on a reused connection
        # waited for the client's delayed ACK: 30 requests took ~1.3 s.
        server = make_server()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            start = time.perf_counter()
            for index in range(30):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                if index == 0:
                    sock = conn.sock
            elapsed = time.perf_counter() - start
            assert conn.sock is sock  # one connection throughout
        finally:
            conn.close()
        assert elapsed < 0.5, elapsed

    @pytest.mark.parametrize(
        "path, chunked, status",
        [
            ("/v1/jobs", False, 503),
            ("/v1/nope", False, 404),
            ("/v1/jobs/deadbeef/cancel", False, 404),
            ("/v1/jobs", True, 400),
        ],
    )
    def test_reply_before_the_body_is_read_closes_the_connection(
        self, make_server, path, chunked, status
    ):
        # The unread body must not be parsed as the next request line.
        server = make_server()
        server.draining = status == 503  # POST /v1/jobs answers before reading
        body = json.dumps({"problem": to_dict(gap_problem(0))}).encode()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            conn.request(  # an iterable body goes out chunked
                "POST",
                path,
                iter([body]) if chunked else body,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            response.read()
            conn.request("GET", "/healthz")  # on a new connection
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()
            server.draining = False

    def test_clients_still_sending_a_body_read_the_early_reply(self, make_server):
        # A chunked POST /v1/jobs is answered 400 before its body is read.
        # Closing on the unread body made the kernel reset the connection,
        # and a client whose last chunk was still going out then failed
        # with BrokenPipeError instead of reading the 400 (22 of 500 such
        # requests failed before the server lingered on close).  Lingering
        # ends when the client closes, not at its time bound, so 300 of
        # them stay fast.
        server = make_server()
        body = json.dumps({"problem": to_dict(gap_problem(0))}).encode()
        failures = []
        start = time.perf_counter()
        for index in range(300):
            conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
            try:
                conn.request(
                    "POST", "/v1/jobs", iter([body]), {"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                response.read()
                if response.status != 400:
                    failures.append((index, response.status))
            except OSError as exc:
                failures.append((index, repr(exc)))
            finally:
                conn.close()
        elapsed = time.perf_counter() - start
        assert failures == []
        assert elapsed < 30.0, elapsed

    def test_one_client_holds_one_sqlite_handle(self, make_server, connect):
        server = make_server()
        client = connect(server, "handles")
        client.result(client.submit(gap_problem(99)), timeout=30.0)
        gc.disable()
        try:
            before = _open_sqlite_connections()
            for seed in range(30):
                client.status(client.submit(gap_problem(seed)))
            opened = len(_open_sqlite_connections().keys() - before.keys())
        finally:
            gc.enable()
        assert opened <= 2, opened

    def test_client_reconnects_after_an_idle_close(
        self, make_server, connect, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        server = make_server()
        client = connect(server, "idle")
        assert client.health()["status"] == "ok"
        time.sleep(0.5)  # the server closes the idle connection meanwhile
        job_id = client.submit(gap_problem(0))
        assert client.result(job_id, timeout=30.0).status == "optimal"
        assert sum(server.store.counts().values()) == 1

    def test_stop_does_not_wait_for_open_connections(self, tmp_path):
        # One client idles on its connection, another keeps sending on its
        # own; joining their handler threads must not outwait either.
        server = ServiceServer(str(tmp_path / "jobs.db"), port=0).start()
        polling = threading.Event()
        polling.set()
        with ServiceClient(server.url) as idle, ServiceClient(server.url) as busy:
            assert idle.health()["status"] == "ok"

            def poll():
                while polling.is_set():
                    try:
                        busy.health()
                    except ServiceError:
                        return  # the listener is gone

            poller = threading.Thread(target=poll)
            stopper = threading.Thread(target=server.stop)
            poller.start()
            stopper.start()
            stopper.join(timeout=5.0)
            stopped = not stopper.is_alive()
            polling.clear()
            poller.join(timeout=10.0)
            stopper.join(timeout=30.0)
        assert stopped

    def test_stop_closes_the_daemons_sqlite_handles(self, tmp_path):
        # The scheduler thread opens a thread-local store connection;
        # sqlite3.Connection objects sit in reference cycles, so with the
        # GC off an unclosed one outlives the daemon.
        threads_before = set(threading.enumerate())
        gc.disable()
        try:
            before = _open_sqlite_connections()
            server = ServiceServer(
                str(tmp_path / "jobs.db"), port=0, backend="serial"
            ).start()
            with ServiceClient(server.url, client_id="stop") as client:
                for seed in range(5):
                    job_id = client.submit(gap_problem(seed))
                    assert client.result(job_id, timeout=30.0).status == "optimal"
            server.stop()
            # The handler thread ends once the client has closed; wait for
            # it so only the daemon's connections can still be open.
            for thread in set(threading.enumerate()) - threads_before:
                thread.join(timeout=5.0)
            opened = len(_open_sqlite_connections().keys() - before.keys())
        finally:
            gc.enable()
        assert opened == 0, opened

    @pytest.fixture
    def dropping_server(self):
        _DropsSecondRequest.seen = []
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _DropsSecondRequest)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5.0)

    def test_get_is_retried_once_on_a_fresh_connection(self, dropping_server):
        host, port = dropping_server.server_address[:2]
        # A path prefix in the URL is kept on every request.
        with ServiceClient(f"http://{host}:{port}/svc/") as client:
            assert client.health()["status"] == "ok"
            assert client.health()["status"] == "ok"
        assert _DropsSecondRequest.seen == [("GET", "/svc/healthz")] * 3

    def test_post_is_never_sent_twice(self, dropping_server):
        host, port = dropping_server.server_address[:2]
        with ServiceClient(f"http://{host}:{port}") as client:
            assert client.health()["status"] == "ok"
            with pytest.raises(ServiceError, match="cannot reach service"):
                client.submit(gap_problem(0))
        assert _DropsSecondRequest.seen == [("GET", "/healthz"), ("POST", "/v1/jobs")]

    @pytest.mark.parametrize(
        "url", ["", "not a url", "ftp://example.com", "http://", "http://host:port"]
    )
    def test_malformed_url_is_invalid_service_url(self, url):
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="invalid service URL"):
                client.health()

    def test_unreachable_service_is_a_service_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]  # bound, never listening
            with ServiceClient(f"http://127.0.0.1:{port}") as client:
                with pytest.raises(ServiceError, match="cannot reach service"):
                    client.health()


class TestServiceCLIVerbs:
    """The repro-sched submit/status/result/cancel/stats client verbs."""

    @pytest.fixture
    def problem_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(to_json(gap_problem(4)))
        return str(path)

    def test_submit_wait_prints_envelope(self, make_server, problem_file, capsys):
        from repro.cli import main

        server = make_server()
        code = main(
            ["submit", "--url", server.url, "-i", problem_file, "--wait"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "solve_result"
        assert payload["status"] == "optimal"

    def test_submit_status_result_cancel_flow(self, make_server, problem_file, capsys):
        from repro.cli import main

        server = make_server()
        assert main(["submit", "--url", server.url, "-i", problem_file]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["status", "--url", server.url, job_id]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["id"] == job_id
        assert main(["result", "--url", server.url, job_id]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "optimal"
        # Terminal job: cancel is a 409 — CLI exit 1 with the payload on stderr.
        assert main(["cancel", "--url", server.url, job_id]) == 1
        assert "409" in capsys.readouterr().err

    def test_quota_denial_is_structured_on_stderr(self, make_server, tmp_path, capsys):
        from repro.cli import main

        server = make_server(window=1, max_queued=1, rate=0.0)
        sleepy = tmp_path / "sleepy.json"
        sleepy.write_text(to_json(sleepy_problem(7)))
        assert (
            main(["submit", "--url", server.url, "-i", str(sleepy),
                  "--solver", "test-sleepy", "--client", "greedy"]) == 0
        )
        capsys.readouterr()
        assert (
            main(["submit", "--url", server.url, "-i", str(sleepy),
                  "--solver", "test-sleepy", "--client", "greedy"]) == 1
        )
        err = capsys.readouterr().err
        assert "quota_exceeded" in err
        SLEEP_GATE.set()

    def test_stats_local_and_remote_share_shape(self, make_server, capsys):
        from repro.cli import main

        server = make_server()
        assert main(["stats"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(["stats", "--url", server.url]) == 0
        remote = json.loads(capsys.readouterr().out)
        # One payload shape: the service only adds its "service" block.
        assert set(remote) - set(local) == {"service"}
        for key in ("cache", "tasks", "engine"):
            assert key in local and key in remote
        assert set(local["tasks"]) == set(remote["tasks"])


def _start_serve_subprocess(db_path, *extra_args):
    env = dict(os.environ)
    # Prepend src rather than replace: the daemon must see the same
    # python-path environment as the test process, or remote and direct
    # solves could run different code and envelope parity would not hold.
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("REPRO_BACKEND", None)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--db",
            db_path,
            "--port",
            "0",
            "--window",
            "2",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = process.stdout.readline()
    assert "listening on http://" in line, f"unexpected serve banner: {line!r}"
    url = line.split("listening on ", 1)[1].split()[0]
    return process, url


class TestProcessLifecycle:
    def test_kill_and_restart_loses_no_job(self, tmp_path):
        db_path = str(tmp_path / "jobs.db")
        problems = [
            gap_problem(i) if i % 2 == 0 else power_problem(i) for i in range(20)
        ]
        process, url = _start_serve_subprocess(db_path)
        try:
            with ServiceClient(url, client_id="kill-test") as client:
                job_ids = [client.submit(problem) for problem in problems]
        finally:
            # SIGKILL mid-run: no drain, no atexit — only SQLite's
            # transactions protect the state.
            process.kill()
            process.communicate(timeout=10)

        process, url = _start_serve_subprocess(db_path)
        try:
            with ServiceClient(url, client_id="kill-test") as client:
                for problem, job_id in zip(problems, job_ids):
                    remote = client.result(job_id, timeout=60.0)
                    assert to_json(remote) == to_json(solve(problem))
                stats = client.stats()
            assert stats["service"]["jobs"]["done"] == 20
        finally:
            process.terminate()
            process.communicate(timeout=15)

    def test_sigterm_drains_gracefully(self, tmp_path):
        db_path = str(tmp_path / "jobs.db")
        process, url = _start_serve_subprocess(db_path)
        try:
            with ServiceClient(url, client_id="drain-test") as client:
                job_ids = [client.submit(gap_problem(i)) for i in range(6)]
                # The client's connection stays open through the drain.
                process.send_signal(signal.SIGTERM)
                out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # a failure above must not leak it
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0
        assert "drain requested" in out
        assert "drained cleanly" in out
        # Nothing may be left mid-flight: every job is either terminal or
        # still safely queued for the next start.
        from repro.service import JobQueue

        store = JobQueue(db_path)
        try:
            counts = store.counts()
            assert counts["running"] == 0
            assert counts["done"] + counts["queued"] == len(job_ids)
        finally:
            store.close()


def test_package_quickstart_runs(tmp_path, monkeypatch):
    import repro.service

    block = repro.service.__doc__.split("Quickstart", 1)[1].split("::\n", 1)[1]
    monkeypatch.chdir(tmp_path)  # the quickstart writes jobs.db to the cwd
    namespace = {}
    exec(textwrap.dedent(block), namespace)
    assert namespace["result"].status == "optimal"
