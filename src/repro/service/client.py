"""A thin HTTP client for the scheduling service (``http.client``, stdlib only).

:class:`ServiceClient` wraps the five service endpoints in typed calls:
``submit`` takes a façade :class:`~repro.api.problem.Problem` and returns a
job id; ``result`` waits until the job is terminal and hands back the
decoded :class:`~repro.api.result.SolveResult` — byte-identical (modulo
``wall_time``, which the façade already excludes from equality) to what a
local :func:`repro.api.solve` call would have produced, because it is the
same envelope, computed by the same engine, round-tripped through the same
canonical wire format.

Every non-2xx response raises :class:`ServiceError` carrying the HTTP
status and the server's structured JSON payload, so callers can
distinguish a 429 quota denial (inspect ``payload["error"]`` and
``payload["retry_after"]``) from a 410 cancelled job or a 404 typo.

Transport: one persistent HTTP/1.1 connection per client, opened on the
first request and reused by every submit, status and result request;
threads sharing a client take turns on it in arrival order.
Before an idle connection is reused its socket is checked; a readable one
has been closed by the server (after its idle timeout, say), so the
client reconnects instead of sending into it.  A ``GET`` that still fails
with a reset or disconnect on a reused connection is retried once on a
fresh one; a ``POST`` never is, because a lost reply must not submit a
job twice.  Close the client (or use it as a context manager) to give the
connection back.

Waiting for a result: ``result`` asks the server to hold each result
request until the job is terminal (``GET …/result?wait=<s>``), so the
daemon's write-back answers it and the client does not poll.  A hold
lasts at most :data:`RESULT_HOLD_S`, the time left before ``result``'s
own deadline, or half the socket timeout, whichever is least; when it
runs out the client asks again.  A 202 that comes back before its hold
ran out was not held (a server without ``wait``, or one that is
draining), and the client then sleeps ``poll_interval`` before asking
again.  The one connection carries one request at a time, so while a
thread holds a result request, another thread sharing the client waits
at most one hold for its turn.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional, Set

from ..api.problem import Problem
from ..api.result import SolveResult
from ..api.serialization import from_dict, to_dict
from ..core.exceptions import ReproError

__all__ = ["RESULT_HOLD_S", "ServiceClient", "ServiceError"]

#: Longest hold one result request asks for.  Kept short because a client
#: shared between threads sends their requests one at a time: this bounds
#: how long a held result request makes another thread's request wait.
RESULT_HOLD_S = 1.0


class ServiceError(ReproError):
    """A non-success response from the service.

    ``status`` is the HTTP status code (``None`` for transport failures),
    ``payload`` the decoded JSON error body (``{}`` when absent).
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class _TurnLock:
    """A lock granted in arrival order.

    A ``threading.Lock`` lets the thread that releases it take it straight
    back, so a thread re-issuing held result requests could keep another
    thread off the connection for hold after hold; here each thread waits
    only for the turns taken before its own.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next_turn = 0
        self._serving = 0
        self._abandoned: Set[int] = set()

    def __enter__(self) -> None:
        with self._cond:
            turn = self._next_turn
            self._next_turn += 1
            try:
                self._cond.wait_for(lambda: self._serving == turn)
            except BaseException:  # interrupted while queued: give the turn up
                self._abandoned.add(turn)
                self._advance()
                raise

    def __exit__(self, *exc_info: Any) -> None:
        with self._cond:
            self._serving += 1
            self._advance()

    def _advance(self) -> None:
        while self._serving in self._abandoned:
            self._abandoned.remove(self._serving)
            self._serving += 1
        self._cond.notify_all()


def _closed_by_peer(sock: socket.socket) -> bool:
    """True when an idle connection is readable: the server has closed it."""
    if hasattr(select, "poll"):  # select() cannot watch descriptors >= 1024
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class ServiceClient:
    """Talks to one service instance at ``url`` on behalf of ``client_id``.

    Holds one keep-alive connection (see the module docstring); safe to
    share between threads, whose requests then take turns on it.
    """

    def __init__(
        self, url: str, *, client_id: str = "client", timeout: float = 10.0
    ) -> None:
        self.url = url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        self._lock = _TurnLock()
        self._conn: Optional[http.client.HTTPConnection] = None
        self._prefix = ""

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection; a later request opens a new one."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()

    # -- transport ------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            try:
                parts = urllib.parse.urlsplit(self.url)
                port = parts.port
                if parts.scheme not in ("http", "https") or not parts.hostname:
                    raise ValueError("expected http://HOST[:PORT][/PREFIX]")
            except ValueError as exc:
                # Keep the client's error surface uniform for CLI consumers.
                raise ServiceError(
                    f"invalid service URL {self.url!r}: {exc}"
                ) from exc
            factory = (
                http.client.HTTPSConnection
                if parts.scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = factory(parts.hostname, port, timeout=self.timeout)
            self._prefix = parts.path
        return self._conn

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        with self._lock:
            conn = self._connection()
            retried = False
            while True:
                reused = conn.sock is not None
                if reused and _closed_by_peer(conn.sock):
                    conn.close()
                    reused = False
                try:
                    conn.request(method, self._prefix + path, data, headers)
                    response = conn.getresponse()
                    status, raw = response.status, response.read()
                    break
                except BaseException as exc:
                    conn.close()  # its state is unknown now
                    if (
                        isinstance(exc, ConnectionError)
                        and reused
                        and method == "GET"
                        and not retried
                    ):
                        retried = True
                        continue
                    if isinstance(exc, (OSError, http.client.HTTPException)):
                        raise ServiceError(
                            f"cannot reach service at {self.url}: {exc}"
                        ) from exc
                    raise
        if 200 <= status < 300:
            return json.loads(raw.decode("utf-8"))
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": raw.decode("utf-8", "replace")}
        raise ServiceError(
            f"{method} {path} failed with HTTP {status}: "
            f"{payload.get('error', 'unknown error')}",
            status=status,
            payload=payload,
        )

    # -- job lifecycle --------------------------------------------------------
    def submit(
        self,
        problem: Problem,
        *,
        priority: int = 0,
        solver: Optional[str] = None,
    ) -> str:
        """Submit one problem; returns the job id (raises on 429/503)."""
        body: Dict[str, Any] = {
            "problem": to_dict(problem),
            "client_id": self.client_id,
            "priority": priority,
        }
        if solver is not None:
            body["solver"] = solver
        return str(self._request("POST", "/v1/jobs", body)["id"])

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's public status view."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(
        self,
        job_id: str,
        *,
        wait: bool = True,
        timeout: float = 60.0,
        poll_interval: float = 0.05,
    ) -> SolveResult:
        """Fetch (by default: await) the job's result envelope.

        Waits until the job turns terminal, in held requests (see the
        module docstring), or polling every ``poll_interval`` seconds if
        the server does not hold them; raises :class:`ServiceError` for a
        cancelled job (410), an error job without an envelope, or on
        timeout.  With ``wait=False`` it sends one plain request, and a
        202 "not ready" also raises.
        """
        deadline = time.monotonic() + timeout
        path = f"/v1/jobs/{job_id}/result"
        while True:
            hold = 0.0
            if wait:
                hold = min(RESULT_HOLD_S, deadline - time.monotonic())
                if self.timeout is not None:  # None: blocking sockets
                    hold = min(hold, self.timeout / 2)
            sent = time.monotonic()
            payload = self._request(
                "GET", f"{path}?wait={hold:.3f}" if hold > 0 else path
            )
            if payload.get("result") is not None:
                return from_dict(payload["result"])
            state = payload.get("state")
            if state == "error":
                raise ServiceError(
                    f"job {job_id} failed without a result envelope: "
                    f"{payload.get('error')}",
                    status=200,
                    payload=payload,
                )
            if not wait:
                raise ServiceError(
                    f"job {job_id} is still {state}", status=202, payload=payload
                )
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for job {job_id} "
                    f"(last state: {state})",
                    payload=payload,
                )
            if now - sent < hold:
                time.sleep(poll_interval)  # answered early: it was not held

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns ``{"state": "cancelled"|"cancelling"}``."""
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    # -- operational surfaces -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The service's full ``/v1/stats`` payload."""
        return self._request("GET", "/v1/stats")

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` liveness payload."""
        return self._request("GET", "/healthz")
