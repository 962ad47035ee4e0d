"""Embedded observability HTTP server — zero-dependency, stdlib only.

Production cache fleets are watched by *scraping*: a Prometheus server
polls ``/metrics``, Kubernetes probes ``/healthz``, humans curl
``/statusz``.  This module gives a running LANDLORD the same surface
using only :mod:`http.server` (the container image bakes in no HTTP
framework), serving from a daemon thread so the request loop never
blocks on a scraper:

- ``GET /metrics`` — the live registry in Prometheus text exposition
  format (refreshed through an optional ``on_scrape`` hook, which the
  CLI uses to mirror the rolling SLO window into gauges);
  ``?format=openmetrics`` switches to the OpenMetrics exposition,
  which carries histogram exemplars and the ``# EOF`` terminator;
- ``GET /healthz`` — liveness JSON (``{"status": "ok", ...}``);
- ``GET /statusz`` — one JSON cache snapshot: occupancy, the
  hit/merge/insert/evict mix, α, windowed SLO series, alert states
  (built by :func:`build_status`);
- ``GET /traces/<n>`` — the last *n* decision narratives (the
  ``explain`` renderer) from a bounded ring buffer — a
  :class:`~repro.obs.trace.DecisionTracer` with a ``limit``;
  ``?format=json`` switches to the structured view: those requests'
  events as event-stream records plus, when a
  :class:`~repro.obs.spans.SpanRecorder` is attached, the per-stage
  span waterfalls (``repro-landlord trace`` consumes exactly this).

The server only ever *reads* shared state.  Scrapes race the request
loop benignly under the GIL for scalar reads; an optional ``lock`` can
serialise scrape rendering against mutation for callers that want
strict consistency (the CLI's serve loop passes one and holds it while
applying requests).
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs

from repro.obs.metrics import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
)
from repro.obs.stream import event_to_jsonable
from repro.obs.trace import explain

__all__ = ["ObsServer", "ReplyHandler", "build_status"]

#: Seconds between ``serve_forever``'s shutdown checks.  ``stop()``
#: waits out up to one interval, so the stdlib default of 0.5 s made
#: every server shutdown cost half a second.
POLL_INTERVAL = 0.05


def build_status(cache, slo=None, alerts=None, extra: Optional[dict] = None) -> dict:
    """One JSON-safe status snapshot of a live cache (the ``/statusz``
    body).

    Always includes configuration (capacity, α), occupancy, and the
    lifetime hit/merge/insert/evict mix from
    :class:`~repro.core.cache.CacheStats`; adds the rolling-window SLO
    series when an :class:`~repro.obs.slo.SloTracker` is attached and
    the per-rule alert states when an
    :class:`~repro.obs.alerts.AlertEngine` is.  ``nan`` window values
    are dropped (JSON has no NaN).

    When the cache's decision engine exposes kernel telemetry
    (``prefilter_stats`` / ``compaction_stats``, as the vectorized
    engine does), an ``"engine"`` block carries it.
    """
    import math

    stats = cache.stats
    status: Dict[str, object] = {
        "alpha": cache.alpha,
        "capacity_bytes": cache.capacity,
        "cached_bytes": cache.cached_bytes,
        "unique_bytes": cache.unique_bytes,
        "occupancy": (
            cache.cached_bytes / cache.capacity if cache.capacity else None
        ),
        "cache_efficiency": cache.cache_efficiency,
        "images": len(cache),
        "lifetime": {
            "requests": stats.requests,
            "hits": stats.hits,
            "merges": stats.merges,
            "inserts": stats.inserts,
            "evictions": stats.deletes,
            "evictions_capacity": stats.evictions_capacity,
            "evictions_idle": stats.evictions_idle,
            "hit_rate": stats.hit_rate,
            "requested_bytes": stats.requested_bytes,
            "bytes_written": stats.bytes_written,
            "container_efficiency": stats.container_efficiency,
        },
    }
    engine = getattr(cache, "_engine", None)
    if engine is not None:
        engine_status: Dict[str, object] = {}
        prefilter = getattr(engine, "prefilter_stats", None)
        if prefilter is not None:
            engine_status["prefilter"] = dict(prefilter)
        compaction = getattr(engine, "compaction_stats", None)
        if compaction is not None:
            engine_status["compaction"] = dict(compaction)
        if engine_status:
            engine_status["name"] = getattr(
                engine, "name", type(engine).__name__
            )
            status["engine"] = engine_status
    if slo is not None:
        status["window"] = {
            "size": slo.window,
            "series": {
                name: value
                for name, value in slo.values().items()
                if not math.isnan(value)
            },
        }
    if alerts is not None:
        status["alerts"] = alerts.summary()
        status["alerts_firing"] = alerts.firing()
    if extra:
        status.update(extra)
    return status


class ObsServer:
    """Threaded HTTP endpoint over a registry, status source, and traces.

    Args:
        registry: :class:`~repro.obs.metrics.MetricsRegistry` rendered
            by ``/metrics`` (``None`` serves an empty exposition).
        status_fn: zero-argument callable returning the ``/statusz``
            dict (typically ``lambda: build_status(cache, slo, alerts)``).
        tracer: bounded :class:`~repro.obs.trace.DecisionTracer` backing
            ``/traces/<n>`` (``None`` → 404 unless ``spans`` is given).
        spans: optional :class:`~repro.obs.spans.SpanRecorder`; its
            per-trace waterfalls join the ``/traces/<n>?format=json``
            body under the ``"traces"`` key.
        host / port: bind address; port 0 binds an ephemeral port —
            read the outcome from :attr:`port` / :attr:`url`.
        on_scrape: called (under ``lock`` if given) before rendering
            ``/metrics`` — the freshness hook for windowed gauges.
        lock: optional :class:`threading.Lock` serialising scrape
            rendering against cache mutation.
    """

    def __init__(
        self,
        registry=None,
        status_fn: Optional[Callable[[], dict]] = None,
        tracer=None,
        host: str = "127.0.0.1",
        port: int = 0,
        on_scrape: Optional[Callable[[], None]] = None,
        lock: Optional[threading.Lock] = None,
        spans=None,
    ) -> None:
        self.registry = registry
        self.status_fn = status_fn
        self.tracer = tracer
        self.spans = spans
        self.on_scrape = on_scrape
        self.lock = lock
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self.scrapes = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the server thread is live."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def port(self) -> Optional[int]:
        """The bound port once started (resolves ephemeral port 0)."""
        return self._httpd.server_address[1] if self._httpd else None

    @property
    def url(self) -> Optional[str]:
        """Base URL once started, e.g. ``http://127.0.0.1:43210``."""
        if self._httpd is None:
            return None
        return f"http://{self._host}:{self.port}"

    def start(self) -> int:
        """Bind and serve from a daemon thread; returns the bound port."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._started_at = monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(POLL_INTERVAL,),
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut down cleanly; idempotent."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObsServer":
        """Context-manager start (``with ObsServer(...) as srv:``)."""
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager clean stop."""
        self.stop()

    # -- endpoint bodies ---------------------------------------------------

    def render_get(self, path: str, query: str = "") -> "tuple[int, str, str]":
        """Resolve one GET path to ``(status, content_type, body)``.

        The complete routing behind the HTTP handler, exposed so a host
        embedding this server inside another endpoint (the service
        daemon serves ``/metrics``/``/healthz``/``/statusz``/``/traces``
        from its own submission socket) reuses it verbatim.  Rendering
        happens under :attr:`lock` when one is attached, exactly as a
        scrape through :meth:`start`'s own socket would.  ``path`` must
        already be query-stripped and ``/``-normalised, with the raw
        query string (no ``?``) passed separately — ``/metrics``
        honours ``format=openmetrics``.  An embedded, never-started
        server begins its uptime clock at the first render.
        """
        if self._started_at is None:
            self._started_at = monotonic()
        lock = self.lock
        if lock is not None:
            lock.acquire()
        try:
            return self._route(path, query)
        finally:
            if lock is not None:
                lock.release()

    def _route(self, path: str, query: str = "") -> "tuple[int, str, str]":
        if path == "/metrics":
            params = parse_qs(query) if query else {}
            fmt = params.get("format", ["prometheus"])[-1]
            if fmt not in ("prometheus", "openmetrics"):
                return (
                    400,
                    "text/plain",
                    f"unknown format {fmt!r}; "
                    "use prometheus or openmetrics\n",
                )
            openmetrics = fmt == "openmetrics"
            return (
                200,
                (
                    OPENMETRICS_CONTENT_TYPE if openmetrics
                    else PROMETHEUS_CONTENT_TYPE
                ),
                self._render_metrics(openmetrics),
            )
        if path == "/healthz":
            return 200, "application/json", self._render_health()
        if path == "/statusz":
            return 200, "application/json", self._render_status()
        if path.startswith("/traces"):
            tail = path[len("/traces"):].lstrip("/")
            try:
                n = int(tail) if tail else 10
            except ValueError:
                return 400, "text/plain", f"bad trace count {tail!r}\n"
            if n < 1:
                return 400, "text/plain", "trace count must be >= 1\n"
            params = parse_qs(query) if query else {}
            fmt = params.get("format", ["text"])[-1]
            if fmt == "json":
                body = self._render_traces_json(n)
                if body is None:
                    return 404, "text/plain", "tracing not enabled\n"
                return 200, "application/json", body
            if fmt != "text":
                return (
                    400,
                    "text/plain",
                    f"unknown format {fmt!r}; use text or json\n",
                )
            body = self._render_traces(n)
            if body is None:
                return 404, "text/plain", "tracing not enabled\n"
            return 200, "text/plain; charset=utf-8", body
        return (
            404,
            "text/plain",
            "endpoints: /metrics /healthz /statusz /traces/<n>\n",
        )

    def _uptime(self) -> float:
        return monotonic() - self._started_at if self._started_at else 0.0

    def _render_metrics(self, openmetrics: bool = False) -> str:
        if self.on_scrape is not None:
            self.on_scrape()
        self.scrapes += 1
        if self.registry is None:
            return "# EOF\n" if openmetrics else ""
        if openmetrics:
            return self.registry.to_openmetrics()
        return self.registry.to_prometheus()

    def _render_health(self) -> str:
        return json.dumps(
            {
                "status": "ok",
                "uptime_seconds": round(self._uptime(), 3),
                "scrapes": self.scrapes,
            }
        )

    def _render_status(self) -> str:
        status = self.status_fn() if self.status_fn else {}
        return json.dumps(status, sort_keys=True, default=str)

    def _render_traces(self, n: int) -> Optional[str]:
        if self.tracer is None:
            return None
        events = self.tracer.recent(n)
        if not events:
            return "no traces recorded\n"
        return explain(events) + "\n"

    def _render_traces_json(self, n: int) -> Optional[str]:
        """The structured ``/traces?format=json`` body: the events of
        the last *n* requests (``"decisions"``: each decision followed
        by its DELETEs, as event-stream records) and span waterfalls
        (``"traces"``); ``None`` when neither source is attached."""
        if self.tracer is None and self.spans is None:
            return None
        payload = {
            "decisions": (
                [event_to_jsonable(e) for e in self.tracer.recent(n)]
                if self.tracer is not None
                else []
            ),
            "traces": (
                self.spans.traces(last=n) if self.spans is not None else []
            ),
        }
        return json.dumps(payload, sort_keys=True) + "\n"


class ReplyHandler(BaseHTTPRequestHandler):
    """Handler base for every embedded endpoint (this server and the
    service daemon): silent, keep-alive, and each reply leaves the
    process in one ``send``.

    The stdlib idiom — ``end_headers()`` then ``wfile.write(body)`` on
    the unbuffered ``wfile`` — is two sends.  The peer is blocked
    reading with nothing to send, so it delays the ACK of the header
    segment ~40 ms, and Nagle holds the small body segment until that
    ACK arrives: every keep-alive request pays the timer.  Writing head
    and body as one bytes object leaves nothing for Nagle to hold, at
    any body size.  ``TCP_NODELAY`` is not the mechanism: the daemon
    serves this same class over ``AF_UNIX``, where setting it raises.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Stay silent: scrapers and clients are chatty."""

    def _reply(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        head = (
            f"{self.protocol_version} {code} {HTTPStatus(code).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + data)

    def _reply_json(self, code: int, payload: dict) -> None:
        self._reply(code, json.dumps(payload), "application/json")


def _make_handler(server: "ObsServer"):
    """Build the request-handler class closed over one ObsServer."""

    class Handler(ReplyHandler):
        def do_GET(self):  # noqa: N802 - stdlib casing
            path, _, query = self.path.partition("?")
            path = path.rstrip("/") or "/"
            try:
                status, content_type, body = server.render_get(path, query)
                self._reply(status, body, content_type)
            except BrokenPipeError:  # scraper went away mid-reply
                pass

    return Handler
