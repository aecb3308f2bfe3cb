"""A thin HTTP client for the scheduling service (``http.client``, stdlib only).

:class:`ServiceClient` wraps the five service endpoints in typed calls:
``submit`` takes a façade :class:`~repro.api.problem.Problem` and returns a
job id; ``result`` polls until the job is terminal and hands back the
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
first request and reused, under a lock, by every submit, poll and fetch.
Before an idle connection is reused its socket is checked; a readable one
has been closed by the server (after its idle timeout, say), so the
client reconnects instead of sending into it.  A ``GET`` that still fails
with a reset or disconnect on a reused connection is retried once on a
fresh one; a ``POST`` never is, because a lost reply must not submit a
job twice.  Close the client (or use it as a context manager) to give the
connection back.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional

from ..api.problem import Problem
from ..api.result import SolveResult
from ..api.serialization import from_dict, to_dict
from ..core.exceptions import ReproError

__all__ = ["ServiceClient", "ServiceError"]


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
        self._lock = threading.Lock()
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

        Polls until the job turns terminal; raises :class:`ServiceError`
        for a cancelled job (410), an error job without an envelope, or on
        timeout.  With ``wait=False`` a single 202 "not ready" also raises.
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self._request("GET", f"/v1/jobs/{job_id}/result")
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
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for job {job_id} "
                    f"(last state: {state})",
                    payload=payload,
                )
            time.sleep(poll_interval)

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
