"""The HTTP/JSON boundary of the scheduling service (stdlib only).

A deliberately boring server: :class:`http.server.ThreadingHTTPServer`
parses the protocol, every response body is canonical JSON, and the
handler does nothing but translate HTTP verbs into calls on the job store,
the admission controller, and the scheduler daemon.  No framework, no new
runtime dependency — CI enforces that the service layer imports only the
stdlib and ``repro`` itself.

API surface (all JSON)::

    POST /v1/jobs               submit {"problem": <tagged>, "client_id",
                                "priority", "solver"} -> 202 {"id", "state"}
                                (429 structured denial, 503 while draining)
    GET  /v1/jobs/<id>          status view             -> 200 (404 unknown)
    GET  /v1/jobs/<id>/result   result envelope         -> 200 when terminal
         [?wait=<s>]            with a result, 202 while pending, 410 when
                                cancelled; ``wait`` holds a pending job's
                                request up to s seconds (at most
                                MAX_RESULT_WAIT_S; 400 if malformed,
                                negative or not finite)
    POST /v1/jobs/<id>/cancel   cancel                  -> 200 {"state":
                                "cancelled"|"cancelling"}, 409 if finished
    GET  /v1/stats              queue depths, per-state counts, cache tiers,
                                engine counters, admission + daemon counters
    GET  /healthz               liveness + drain state -> 200, or 503
                                {"status": "down"} once the scheduler
                                thread has died

:class:`ServiceServer` owns the lifecycle: it wires store + admission +
daemon together, runs the HTTP pool and the scheduler thread in the
background, and implements graceful drain — on ``stop()`` (or
SIGTERM under ``repro-sched serve``) it refuses new submissions with 503,
lets the in-flight window finish and write back, then tears the listener
down.  A SIGKILLed server instead leaves ``running`` rows behind, which
the next start re-enqueues via :meth:`JobQueue.recover` — the
kill/restart test in the suite exercises exactly that path.  ``start()``
returns once the scheduler thread runs, so ``/healthz`` reads
``"running"`` right after it.

Held result requests: ``GET /v1/jobs/<id>/result?wait=<s>`` on a pending
job parks its handler thread in :meth:`JobQueue.wait` until the job is
terminal or ``s`` seconds pass, and is then answered as without ``wait``.
The daemon's write-back commits and wakes it, so a client gets its answer
without polling.  ``stop()`` wakes every held request first (each gets the
job's state as it stands), so a drain never waits on one.  A terminal
reply splices the stored canonical envelope text into the body as is,
instead of decoding and re-encoding it.

Connections are persistent (HTTP/1.1 keep-alive): one handler thread, and
so one SQLite connection, serves every request a client sends until the
client closes, :data:`IDLE_TIMEOUT_S` passes without a request, or a
response says ``Connection: close``.  Responses go out with Nagle's
algorithm off, since headers and body are two writes and the body would
otherwise wait for the client's delayed ACK.  A response sent while the
request's declared body is still unread (a 503 while draining, a POST to
an unknown path, a bad or oversized ``Content-Length``, a chunked body)
closes the connection: the unread bytes cannot be parsed as a next
request, and reading them only to discard them could cost up to
:data:`MAX_BODY_BYTES`.  That close lingers: the server shuts down its
write side, so the client reads the reply and then end of stream, and
discards input until the client closes, :data:`LINGER_MAX_BYTES` arrive or
:data:`LINGER_TIMEOUT_S` pass.  Closing with the body unread would make
the kernel reset the connection, and a client still sending its body
would then fail its send instead of reading the reply.  Handler threads
are daemon threads, so :meth:`ServiceServer.stop` does not wait for open
connections.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..api.problem import Problem
from ..api.serialization import from_dict, to_json
from .admission import AdmissionController
from .daemon import SchedulerDaemon
from .queue import JobQueue
from .stats import TaskMetrics, operational_stats

__all__ = [
    "IDLE_TIMEOUT_S",
    "LINGER_MAX_BYTES",
    "LINGER_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MAX_RESULT_WAIT_S",
    "ServiceServer",
    "start_service",
]

#: Largest request body the server will read.  A larger declared
#: ``Content-Length`` is answered with 413 before any of the body is read,
#: so a client cannot make a handler allocate or wait for it.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a keep-alive connection may wait for its next request before the
#: server closes it and hands back its thread and SQLite connection.
IDLE_TIMEOUT_S = 5.0

#: Bounds on the input discarded when a connection closes with a request
#: body unread: bytes, and seconds after the reply.
LINGER_MAX_BYTES = 1024 * 1024
LINGER_TIMEOUT_S = 1.0

#: Longest a ``GET /v1/jobs/<id>/result?wait=`` is held; a larger ``wait``
#: is cut to this, so a held request gives its thread back within it.
MAX_RESULT_WAIT_S = 30.0

#: Seconds :meth:`ServiceServer.start` waits for the scheduler thread to run.
START_TIMEOUT_S = 10.0


class _BadRequest(ValueError):
    """Maps to a 400 with its message in the body."""

    status = 400


class _BodyTooLarge(_BadRequest):
    """Maps to a 413: the declared body exceeds :data:`MAX_BODY_BYTES`."""

    status = 413


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive needs accurate Content-Length on every response; _send
    # always sets it.
    protocol_version = "HTTP/1.1"
    server_version = "repro-sched-service"
    # _send writes headers and body separately; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on a reused connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    # Set per request by parse_request; False until a request declares a body.
    _body_pending = False

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # operational visibility comes from /v1/stats, not stderr spam

    @property
    def service(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def finish(self) -> None:
        try:
            super().finish()
            if self._body_pending:
                self._linger()
        finally:
            # Every HTTP connection gets its own thread and so its own
            # SQLite connection.  A sqlite3.Connection sits in a reference
            # cycle, so without an explicit close its native memory (page
            # cache, statements) lives until the cyclic GC next runs.
            self.service.store.close()

    def _linger(self) -> None:
        """Discard a pending body, within bounds, so the close does not reset.

        The reply is already flushed.  Shutting down the write side shows
        the client the end of the reply; the input still arriving is read
        and dropped until the client closes or a bound is hit, and only
        then does the socket close.
        """
        sock = self.connection
        deadline = time.monotonic() + LINGER_TIMEOUT_S
        discarded = 0
        try:
            sock.shutdown(socket.SHUT_WR)
            while discarded < LINGER_MAX_BYTES:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                sock.settimeout(left)
                chunk = sock.recv(65536)
                if not chunk:
                    break
                discarded += len(chunk)
        except OSError:
            pass  # the client reset or timed out: nothing left to save

    def parse_request(self) -> bool:
        parsed = super().parse_request()
        # A declared body, even a malformed one, stays pending until
        # _read_body consumes it; _send closes the connection if it never is.
        self._body_pending = parsed and (
            (self.headers.get("Content-Length") or "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        return parsed

    # -- plumbing ------------------------------------------------------------
    def _send(
        self, status: int, payload: Dict[str, Any], headers: Optional[Dict] = None
    ) -> None:
        self._send_body(status, json.dumps(payload, sort_keys=True), headers)

    def _send_body(
        self, status: int, text: str, headers: Optional[Dict] = None
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection or self._body_pending:
            # Say so when the client asked to close, and close when body
            # bytes are unread: they would be parsed as the next request
            # line.  (send_header sets close_connection.)
            self.send_header("Connection", "close")
        try:
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:
            # The client left (say, while its result request was held):
            # no one is left to answer, and the connection is done.
            self.close_connection = True

    def _read_body(self) -> Dict[str, Any]:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # The body's extent is unknown: it stays pending, and the
            # connection closes after the 400.
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            # Answered before any of the body is read; it stays pending.
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length bodies are read; this one stays pending.
            raise _BadRequest("request body must be sent with a Content-Length")
        raw = self.rfile.read(length) if length else b""
        self._body_pending = False
        if not raw:
            raise _BadRequest("request body must be a JSON object")
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            # Undecodable bytes, malformed JSON, and numbers json refuses to
            # convert (such as integers past the digit limit) alike.
            raise _BadRequest(f"request body is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            # Arrays or objects nested past the interpreter's recursion limit.
            raise _BadRequest("request body JSON nests too deeply") from exc
        if not isinstance(data, dict):
            raise _BadRequest("request body must be a JSON object")
        return data

    def _wait_param(self) -> float:
        """The ``wait`` query parameter in seconds (0 if absent), capped."""
        query = urllib.parse.parse_qs(
            self.path.partition("?")[2], keep_blank_values=True
        )
        values = query.get("wait")
        if values is None:
            return 0.0
        try:
            wait = float(values[0])
        except ValueError:
            wait = math.nan
        if len(values) != 1 or not math.isfinite(wait) or wait < 0:
            raise _BadRequest(
                "wait must be one finite, non-negative number of seconds, "
                f"got {values!r}"
            )
        return min(wait, MAX_RESULT_WAIT_S)

    def _job_path(self) -> Tuple[Optional[str], Optional[str]]:
        """Split ``/v1/jobs/<id>[/verb]`` into (job id, verb)."""
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
            return parts[2], parts[3] if len(parts) > 3 else None
        return None, None

    # -- verbs ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            svc = self.service
            down = svc.daemon.failed  # the thread died: queued jobs never run
            body = {
                "status": "down" if down else "ok",
                "state": "draining" if svc.draining else svc.daemon.state,
                "pending": svc.store.pending_count(),
            }
            if down:
                body["error"] = svc.daemon.error
            self._send(503 if down else 200, body)
            return
        if path == "/v1/stats":
            self._send(200, self.service.stats_payload())
            return
        job_id, verb = self._job_path()
        if job_id is not None and verb is None:
            record = self.service.store.get(job_id)
            if record is None:
                self._send(404, {"error": "unknown job", "id": job_id})
                return
            self._send(200, record.public_dict())
            return
        if job_id is not None and verb == "result":
            try:
                self._get_result(job_id)
            except _BadRequest as exc:
                self._send(exc.status, {"error": str(exc)})
            return
        self._send(404, {"error": f"no such endpoint: GET {path}"})

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/v1/jobs":
            try:
                self._submit()
            except _BadRequest as exc:
                self._send(exc.status, {"error": str(exc)})
            return
        job_id, verb = self._job_path()
        if job_id is not None and verb == "cancel":
            self._cancel(job_id)
            return
        self._send(404, {"error": f"no such endpoint: POST {path}"})

    # -- endpoint bodies -----------------------------------------------------
    def _submit(self) -> None:
        svc = self.service
        if svc.draining:
            self._send(
                503, {"error": "draining", "detail": "service is shutting down"}
            )
            return
        body = self._read_body()
        problem_data = body.get("problem")
        if not isinstance(problem_data, dict):
            raise _BadRequest(
                "body must carry a 'problem' key holding a tagged problem object"
            )
        try:
            problem = from_dict(problem_data)
        except Exception as exc:  # noqa: BLE001 — decoding errors are client errors
            raise _BadRequest(f"cannot decode problem: {exc}") from exc
        if not isinstance(problem, Problem):
            raise _BadRequest(
                f"'problem' decodes to {type(problem).__name__}, expected a "
                "problem (wrap bare instances in a problem object)"
            )
        client_id = str(body.get("client_id") or "anonymous")
        solver = str(body.get("solver") or svc.default_solver)
        try:
            priority = int(body.get("priority") or 0)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"priority must be an integer: {exc}") from exc
        decision = svc.admission.admit(client_id, svc.store.client_load(client_id))
        if not decision.allowed:
            headers = {}
            if decision.retry_after is not None:
                headers["Retry-After"] = f"{decision.retry_after:.3f}"
            self._send(429, decision.to_payload(), headers)
            return
        record = svc.store.submit(
            to_json(problem), client_id=client_id, priority=priority, solver=solver
        )
        svc.daemon.kick()
        self._send(202, {"id": record.id, "state": record.state})

    def _get_result(self, job_id: str) -> None:
        wait = self._wait_param()
        store = self.service.store
        record = store.wait(job_id, wait) if wait > 0 else store.get(job_id)
        if record is None:
            self._send(404, {"error": "unknown job", "id": job_id})
            return
        if record.state == "cancelled":
            self._send(410, {"id": record.id, "state": record.state})
            return
        if record.result is None:
            # queued / running, or an error job that never produced an
            # envelope (undecodable payload) — the latter is terminal, so
            # report it as such rather than "try again".
            if record.state == "error":
                self._send(
                    200,
                    {"id": record.id, "state": record.state, "result": None,
                     "error": record.error},
                )
                return
            self._send(202, {"id": record.id, "state": record.state})
            return
        # The stored envelope is canonical JSON text: splice it in as is
        # (keys in sorted order, as _send writes them) instead of decoding
        # and re-encoding it.
        self._send_body(
            200,
            f'{{"id": {json.dumps(record.id)}, "result": {record.result}, '
            f'"state": {json.dumps(record.state)}}}',
        )

    def _cancel(self, job_id: str) -> None:
        outcome = self.service.store.request_cancel(job_id)
        if outcome is None:
            self._send(404, {"error": "unknown job", "id": job_id})
            return
        if outcome in ("cancelled", "cancelling"):
            self._send(200, {"id": job_id, "state": outcome})
            return
        self._send(
            409,
            {"id": job_id, "state": outcome, "error": "job already finished"},
        )


class ServiceServer:
    """The assembled service: store + admission + daemon + HTTP listener.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`).
    Construction recovers interrupted jobs from the store; :meth:`start`
    launches the listener and the scheduler thread as daemon threads and
    returns once the scheduler runs — use :meth:`run_forever` for the CLI's
    blocking, signal-driven variant.
    """

    def __init__(
        self,
        db_path: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        window: int = 4,
        poll_interval: float = 0.05,
        rate: float = 50.0,
        burst: int = 100,
        max_queued: int = 1024,
        default_solver: str = "auto",
        recover: bool = True,
    ) -> None:
        self.store = JobQueue(db_path)
        self.metrics = TaskMetrics()
        self.admission = AdmissionController(
            rate=rate, burst=burst, max_queued=max_queued
        )
        try:
            self.daemon = SchedulerDaemon(
                self.store,
                backend=backend,
                workers=workers,
                window=window,
                poll_interval=poll_interval,
                metrics=self.metrics,
            )
        except BaseException:
            self.store.close()  # a bad setting must not leak the store
            raise
        self.default_solver = default_solver
        self.recovered = self.store.recover() if recover else 0
        self.draining = False
        self.started_at: Optional[float] = None
        self._requested_host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._daemon_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ServiceServer":
        """Bind the listener, start the scheduler thread, then serve.

        Returns once the scheduler runs (``daemon.state == "running"``); raises
        ``RuntimeError`` if it has not started within
        :data:`START_TIMEOUT_S`.
        """
        if self._httpd is not None:
            raise RuntimeError("service already started")
        httpd = ThreadingHTTPServer(
            (self._requested_host, self._requested_port), _Handler
        )
        httpd.service = self  # type: ignore[attr-defined]
        self._daemon_thread = threading.Thread(
            target=self.daemon.run,
            name="repro-service-scheduler",
            daemon=True,
        )
        self._daemon_thread.start()
        if not self.daemon.wait_started(START_TIMEOUT_S):
            self.daemon.request_stop()
            httpd.server_close()
            raise RuntimeError(
                f"scheduler thread did not start within {START_TIMEOUT_S:g}s"
            )
        self._httpd = httpd
        self.host, self.port = httpd.server_address[:2]
        self._http_thread = threading.Thread(
            # stop() waits for the accept loop to see the shutdown request,
            # which it checks once per poll (0.5 s by default).
            target=lambda: httpd.serve_forever(poll_interval=0.05),
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        self.started_at = time.time()
        return self

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        if self._httpd is None:
            raise RuntimeError("service not started")
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain: 503 new submits, finish in-flight, tear down.

        Held result requests are answered first, with their jobs' state as
        it stands, so the drain never waits on one.
        """
        self.draining = True
        self.store.release_waiters()
        self.daemon.request_stop()
        if self._daemon_thread is not None:
            self._daemon_thread.join(timeout=timeout)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=timeout)
        self.store.close()

    def run_forever(self, announce=None) -> None:
        """Blocking serve loop with SIGTERM/SIGINT graceful drain.

        ``announce`` is called with one human-readable line once the
        listener is bound (the CLI passes ``print``).
        """
        stop_event = threading.Event()

        def _handle(signum, frame):  # noqa: ARG001 — signal API
            stop_event.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handle)
        self.start()
        try:
            if announce is not None:
                announce(
                    f"repro-sched service listening on {self.url} "
                    f"(db={self.store.path}, window={self.daemon.window}, "
                    f"recovered={self.recovered})"
                )
            while not stop_event.is_set():
                stop_event.wait(0.2)
            if announce is not None:
                announce("drain requested; finishing in-flight jobs...")
            self.stop()
            if announce is not None:
                counts = self.store.counts()
                announce(
                    f"drained cleanly (done={counts['done']} "
                    f"error={counts['error']} cancelled={counts['cancelled']} "
                    f"queued={counts['queued']})"
                )
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # -- the stats surface ----------------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        """``GET /v1/stats``: the shared operational payload + service block."""
        payload = operational_stats(self.metrics)
        counts = self.store.counts()
        payload["service"] = {
            "state": "draining" if self.draining else self.daemon.state,
            "uptime": None
            if self.started_at is None
            else time.time() - self.started_at,
            "recovered_jobs": self.recovered,
            "jobs": counts,
            "queue_depth": counts["queued"] + counts["running"],
            "oldest_queued_age": self.store.oldest_queued_age(),
            "scheduler": self.daemon.stats(),
            "admission": self.admission.stats(),
            "result_waits": self.store.wait_stats(),
        }
        return payload


def start_service(db_path: str, **kwargs: Any) -> ServiceServer:
    """Construct and start a :class:`ServiceServer` in one call."""
    return ServiceServer(db_path, **kwargs).start()
