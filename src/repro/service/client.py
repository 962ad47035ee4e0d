"""Thin stdlib client for the LANDLORD daemon.

Wraps :mod:`http.client` (nothing else is available in the job-wrapper
image) around the daemon's tiny JSON API.  One
:class:`LandlordClient` holds one connection; it understands both
endpoint shapes the daemon serves:

- ``http://host:port`` — the loopback TCP listener;
- ``unix:/path/to.sock`` — the optional UNIX-domain socket, reached
  through an ``AF_UNIX`` :class:`http.client.HTTPConnection` subclass.

Backpressure is part of the protocol: the daemon answers 429 when its
admission queue is full and 503 while draining.  Both surface as
:class:`SubmitRejected` (with the parsed body), and
:meth:`LandlordClient.submit` can absorb them with a bounded
retry/backoff loop — the shape a pilot-job wrapper wants.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Dict, Optional, Sequence

from repro.obs.spans import (
    TRACEPARENT_HEADER,
    format_traceparent,
    new_span_id,
    new_trace_id,
)

__all__ = ["LandlordClient", "ServiceError", "SubmitRejected"]


class ServiceError(RuntimeError):
    """The daemon answered with an unexpected error (or not at all)."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        #: HTTP status code when the daemon did answer, else ``None``.
        self.status = status


class SubmitRejected(ServiceError):
    """The daemon rejected a submission for capacity reasons.

    Status 429 (queue full — retryable) or 503 (draining for shutdown —
    not retryable; resubmit after the daemon restarts).
    """

    def __init__(self, status: int, payload: dict):
        super().__init__(
            f"submission rejected ({status}): "
            f"{payload.get('error', 'unknown')}",
            status=status,
        )
        #: The daemon's parsed JSON rejection body.
        self.payload = payload

    @property
    def retryable(self) -> bool:
        """Whether resubmitting to this daemon can succeed (429 yes,
        503 no — it is shutting down)."""
        return self.status == 429


class _UnixHTTPConnection(http.client.HTTPConnection):
    """An :class:`HTTPConnection` that dials a UNIX-domain socket."""

    def __init__(self, socket_path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self):
        """Connect to the configured socket path (stdlib hook)."""
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect(self._socket_path)


class LandlordClient:
    """A connection to one running :class:`~repro.service.LandlordDaemon`.

    Args:
        endpoint: ``http://host:port`` or ``unix:/path/to.sock``.
        timeout: per-request socket timeout in seconds.  Submissions
            block server-side until their batch is journalled and
            applied, so this also bounds how long a submit may wait.
        spans: optional :class:`~repro.obs.SpanRecorder` — when set,
            every submit records a ``client_submit`` root span covering
            the whole round trip, under the same trace id the daemon's
            pipeline stages continue (the client always *sends* trace
            context; the recorder only controls local recording).
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, spans=None):
        self.endpoint = endpoint
        self.timeout = timeout
        self.spans = spans
        if endpoint.startswith("unix:"):
            self._socket_path: Optional[str] = endpoint[len("unix:"):]
            self._host = None
            self._port = None
        elif endpoint.startswith("http://"):
            self._socket_path = None
            rest = endpoint[len("http://"):].rstrip("/")
            host, _, port = rest.partition(":")
            if not host or not port.isdigit():
                raise ValueError(f"bad endpoint {endpoint!r}")
            self._host = host
            self._port = int(port)
        else:
            raise ValueError(
                f"endpoint must be http://host:port or unix:/path, "
                f"got {endpoint!r}"
            )
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self._socket_path is not None:
                self._conn = _UnixHTTPConnection(
                    self._socket_path, self.timeout
                )
            else:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self.timeout
                )
        return self._conn

    def close(self) -> None:
        """Drop the underlying connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "LandlordClient":
        """Context-manager entry (connections open lazily)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        conn = self._connection()
        try:
            payload = None if body is None else json.dumps(body)
            send_headers = (
                {"Content-Type": "application/json"} if payload else {}
            )
            if headers:
                send_headers.update(headers)
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, response.getheader("Content-Type"), data
        except (OSError, http.client.HTTPException) as exc:
            self.close()  # a broken connection must not be reused
            raise ServiceError(
                f"daemon unreachable at {self.endpoint}: {exc}"
            ) from exc

    def _request_json(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> "tuple[int, dict]":
        status, _, data = self._request(method, path, body, headers)
        try:
            return status, json.loads(data)
        except ValueError as exc:
            raise ServiceError(
                f"non-JSON reply ({status}) from {path}", status=status
            ) from exc

    # -- API ---------------------------------------------------------------

    def submit(
        self,
        packages: Sequence[str],
        retries: int = 0,
        backoff: float = 0.05,
    ) -> dict:
        """Submit one spec; returns the daemon's decision payload.

        The reply (keys ``action``, ``image``, ``image_bytes``,
        ``request_index``, ``evicted``, ...) is only sent after the
        request has been journalled and applied — a returned decision is
        durable.  ``retries`` > 0 absorbs up to that many retryable
        (429) rejections, sleeping ``backoff * 2^attempt`` between
        tries; 503 (draining) and 400 (bad spec) raise immediately.

        Every submit opens a distributed trace: a fresh trace id and
        root span id are sent as the W3C ``traceparent`` header (held
        constant across retries — one logical submission, one trace),
        and the daemon's pipeline stages continue that trace.  The
        reply echoes ``trace_id``; resolve it to a stage waterfall with
        ``repro-landlord trace``.

        Raises:
            SubmitRejected: on 429 (after retries) or 503.
            ServiceError: on any other non-200 reply or transport error.
        """
        trace_id = new_trace_id()
        root_span_id = new_span_id()
        headers = {
            TRACEPARENT_HEADER: format_traceparent(trace_id, root_span_id)
        }
        attempt = 0
        start = time.perf_counter()
        while True:
            status, payload = self._request_json(
                "POST",
                "/submit",
                {"packages": list(packages)},
                headers=headers,
            )
            if status == 200:
                if self.spans is not None:
                    self.spans.observe(
                        "client_submit",
                        start,
                        time.perf_counter() - start,
                        trace_id,
                        request_index=payload.get("request_index"),
                        span_id=root_span_id,
                    )
                return payload
            if status in (429, 503):
                rejection = SubmitRejected(status, payload)
                if rejection.retryable and attempt < retries:
                    time.sleep(backoff * (2 ** attempt))
                    attempt += 1
                    continue
                raise rejection
            raise ServiceError(
                f"submit failed ({status}): "
                f"{payload.get('error', payload)}",
                status=status,
            )

    def health(self) -> dict:
        """The daemon's ``/healthz`` JSON (raises if not healthy 200)."""
        status, payload = self._request_json("GET", "/healthz")
        if status != 200:
            raise ServiceError(f"unhealthy ({status})", status=status)
        return payload

    def status(self) -> dict:
        """The daemon's ``/statusz`` JSON snapshot."""
        status, payload = self._request_json("GET", "/statusz")
        if status != 200:
            raise ServiceError(f"statusz failed ({status})", status=status)
        return payload

    def metrics(self) -> str:
        """The daemon's ``/metrics`` Prometheus text exposition."""
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"metrics failed ({status})", status=status)
        return data.decode("utf-8")

    def traces(self, n: int = 10) -> dict:
        """The daemon's ``/traces/<n>?format=json`` body: recent
        distributed traces (``"traces"``, each with its per-stage
        spans) plus recent decision records (``"decisions"``).

        Raises :class:`ServiceError` when the daemon has tracing
        disabled (404) or otherwise refuses.
        """
        status, payload = self._request_json(
            "GET", f"/traces/{int(n)}?format=json"
        )
        if status != 200:
            raise ServiceError(
                f"traces failed ({status}): "
                f"{payload.get('error', payload)}",
                status=status,
            )
        return payload
