"""End-to-end tests for the scheduling service (daemon + HTTP + client).

The in-process tests boot a real :class:`ServiceServer` on an ephemeral
port — the HTTP listener, asyncio scheduler, SQLite store, and admission
controller are all live; only the process boundary is skipped, which
lets the tests register throwaway solvers (a gate-controlled "sleepy"
solver for deterministic cancel-while-running coverage, a crashing one
for the error envelope).  The subprocess tests cover what in-process
cannot: SIGKILL + restart recovery and SIGTERM graceful drain of
``repro-sched serve``.
"""

import gc
import json
import os
import signal
import sqlite3
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    MultiprocessorInstance,
    OneIntervalInstance,
    Problem,
    SolveResult,
    solve,
    to_json,
)
from repro.api.registry import _REGISTRY, register_solver
from repro.service import ServiceClient, ServiceError, ServiceServer
from repro.service.server import MAX_BODY_BYTES

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
        kwargs.setdefault("backend", "thread")
        kwargs.setdefault("window", 4)
        kwargs.setdefault("poll_interval", 0.02)
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


def _wait_for_state(client, job_id, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        current = client.status(job_id)["state"]
        if current == state:
            return
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {state!r} (last: {current!r})")


class TestSubmitPollResult:
    def test_result_parity_with_direct_solve(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="parity")
        problems = [gap_problem(3), power_problem(5)]
        for problem in problems:
            job_id = client.submit(problem)
            remote = client.result(job_id, timeout=30.0)
            # wall_time is excluded from canonical JSON, so envelopes from
            # the service and from a local call are byte-identical.
            assert to_json(remote) == to_json(solve(problem))

    def test_status_view_fields(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="viewer")
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

    def test_fifty_job_mixed_workload(self, make_server):
        # The ISSUE's acceptance scenario: 50 mixed gap/power jobs through
        # the thread backend, every envelope byte-identical to solve().
        server = make_server(window=8)
        client = ServiceClient(server.url, client_id="bulk")
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

    def test_error_job_carries_error_envelope(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="crash")
        job_id = client.submit(sleepy_problem(0), solver="test-crash")
        _wait_for_state(client, job_id, "error")
        view = client.status(job_id)
        assert "RuntimeError" in view["error"]
        remote = client.result(job_id, timeout=10.0)
        assert remote.status == "error"
        assert remote.extra["error_type"] == "RuntimeError"

    def test_unknown_solver_becomes_error_job(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="typo")
        job_id = client.submit(gap_problem(0), solver="no-such-solver")
        _wait_for_state(client, job_id, "error")
        assert "SolverError" in client.status(job_id)["error"]

    def test_priority_orders_execution(self, make_server):
        # window=1 + a gated job holding the lane: everything submitted
        # behind it is still queued when the lane frees, so the high
        # priority job must run before the earlier-submitted low one.
        server = make_server(window=1)
        client = ServiceClient(server.url, client_id="prio")
        blocker = client.submit(sleepy_problem(0), solver="test-sleepy")
        _wait_for_state(client, blocker, "running")
        low = client.submit(gap_problem(1), priority=0)
        high = client.submit(gap_problem(2), priority=9)
        SLEEP_GATE.set()
        client.result(low, timeout=30.0)
        assert (
            client.status(high)["started_at"] <= client.status(low)["started_at"]
        )


class TestCancel:
    def test_cancel_queued_is_immediate(self, make_server):
        server = make_server(window=1)
        client = ServiceClient(server.url, client_id="cancel")
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

    def test_cancel_running_lands_cancelled_and_discards_result(self, make_server):
        server = make_server(window=1)
        client = ServiceClient(server.url, client_id="cancel")
        job_id = client.submit(sleepy_problem(2), solver="test-sleepy")
        _wait_for_state(client, job_id, "running")
        assert client.cancel(job_id)["state"] == "cancelling"
        SLEEP_GATE.set()
        _wait_for_state(client, job_id, "cancelled")
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 410

    def test_cancel_finished_job_conflicts(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="cancel")
        job_id = client.submit(gap_problem(0))
        client.result(job_id, timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["state"] == "done"

    def test_cancel_unknown_job_404(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="cancel")
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("deadbeef")
        assert excinfo.value.status == 404


class TestAdmission:
    def test_quota_429_with_structured_payload(self, make_server):
        server = make_server(window=1, max_queued=2, rate=0.0)
        client = ServiceClient(server.url, client_id="greedy")
        held = [
            client.submit(sleepy_problem(i), solver="test-sleepy") for i in range(2)
        ]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(sleepy_problem(9), solver="test-sleepy")
        assert excinfo.value.status == 429
        assert excinfo.value.payload["error"] == "quota_exceeded"
        assert excinfo.value.payload["retry_after"] is None
        # Another client is unaffected by greedy's quota.
        other = ServiceClient(server.url, client_id="polite")
        done = other.submit(gap_problem(0))
        SLEEP_GATE.set()
        other.result(done, timeout=30.0)
        for job_id in held:
            client.result(job_id, timeout=30.0)
        # Outstanding jobs drained, the client may submit again.
        assert client.submit(gap_problem(1))

    def test_rate_limit_429_with_retry_after(self, make_server):
        server = make_server(rate=0.001, burst=2, max_queued=0)
        client = ServiceClient(server.url, client_id="chatty")
        client.submit(gap_problem(0))
        client.submit(gap_problem(1))
        with pytest.raises(ServiceError) as excinfo:
            client.submit(gap_problem(2))
        assert excinfo.value.status == 429
        assert excinfo.value.payload["error"] == "rate_limited"
        assert excinfo.value.payload["retry_after"] > 0


class TestHttpSurface:
    def test_healthz(self, make_server):
        server = make_server()
        payload = ServiceClient(server.url).health()
        assert payload["status"] == "ok"
        assert payload["state"] == "running"

    def test_stats_shape_matches_cli_payload(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="stats")
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
                return exc.code, json.loads(exc.read())

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

    def test_bad_content_length_is_400(self, make_server):
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
        client = ServiceClient(server.url, client_id="after-bad-length")
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

    def test_oversized_content_length_is_413_before_reading(self, make_server):
        # Nothing of the declared body is sent: a server that tried to read
        # (or allocate) it would hang or die instead of answering.
        server = make_server()
        for declared in (MAX_BODY_BYTES + 1, 10**12):
            reply = self._raw_post(server, b"Content-Length: %d" % declared)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 413"), (declared, reply)
            assert b"\r\nConnection: close" in head
            assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
        client = ServiceClient(server.url, client_id="after-oversized")
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

    def test_deeply_nested_json_is_400(self, make_server):
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
        client = ServiceClient(server.url, client_id="after-nested")
        job_id = client.submit(gap_problem(0))
        assert client.result(job_id, timeout=30.0).status == "optimal"

    def test_http_connections_close_their_sqlite_handles(self, make_server):
        # Each HTTP connection is served on a fresh thread with its own
        # SQLite connection.  sqlite3.Connection objects sit in reference
        # cycles, so with the cyclic GC off an unclosed one stays open; the
        # handler must close it when the HTTP connection ends.
        server = make_server()
        client = ServiceClient(server.url, client_id="handles")

        def open_sqlite_connections():
            count = 0
            for obj in gc.get_objects():
                if isinstance(obj, sqlite3.Connection):
                    try:
                        obj.total_changes
                    except sqlite3.ProgrammingError:  # closed
                        continue
                    count += 1
            return count

        gc.disable()
        try:
            before = open_sqlite_connections()
            for seed in range(30):
                client.status(client.submit(gap_problem(seed)))
            opened = open_sqlite_connections() - before
        finally:
            gc.enable()
        # 60 HTTP requests; only the daemon's few long-lived threads may
        # keep a connection open.
        assert opened <= 12, opened

    def test_result_not_ready_is_202(self, make_server):
        server = make_server(window=1)
        client = ServiceClient(server.url, client_id="poll")
        job_id = client.submit(sleepy_problem(3), solver="test-sleepy")
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 202
        SLEEP_GATE.set()
        client.result(job_id, timeout=30.0)

    def test_draining_refuses_submissions(self, make_server):
        server = make_server()
        client = ServiceClient(server.url, client_id="late")
        server.draining = True
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(gap_problem(0))
            assert excinfo.value.status == 503
        finally:
            server.draining = False


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
            "--backend",
            "thread",
            "serve",
            "--db",
            db_path,
            "--port",
            "0",
            "--window",
            "2",
            "--poll-interval",
            "0.02",
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
            client = ServiceClient(url, client_id="kill-test")
            job_ids = [client.submit(problem) for problem in problems]
        finally:
            # SIGKILL mid-run: no drain, no atexit — only SQLite's
            # transactions protect the state.
            process.kill()
            process.wait(timeout=10)

        process, url = _start_serve_subprocess(db_path)
        try:
            client = ServiceClient(url, client_id="kill-test")
            for problem, job_id in zip(problems, job_ids):
                remote = client.result(job_id, timeout=60.0)
                assert to_json(remote) == to_json(solve(problem))
            stats = client.stats()
            assert stats["service"]["jobs"]["done"] == 20
        finally:
            process.terminate()
            process.wait(timeout=15)

    def test_sigterm_drains_gracefully(self, tmp_path):
        db_path = str(tmp_path / "jobs.db")
        process, url = _start_serve_subprocess(db_path)
        client = ServiceClient(url, client_id="drain-test")
        job_ids = [client.submit(gap_problem(i)) for i in range(6)]
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
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
