"""The concurrent multi-client LANDLORD daemon.

``repro-landlord serve`` turns the paper's per-job wrapper into a
long-lived service: many clients POST JSON spec submissions, one
:class:`~repro.core.cache.LandlordCache` decides.  Zero-dependency —
the whole wire layer is :mod:`http.server`, the same idiom as
:mod:`repro.obs.server`.

Pipeline (one request's life)::

    client --POST /submit--> handler thread (one per connection)
        -> admission: packages validated against the site repository,
           bounded queue (429 when full, 503 when draining)
        -> leader/follower group commit: the handler leads at once when
           no commit is in flight, else queues until answered or handed
           the lead; the leader pops the queue head (<= max_batch),
             group-commits the window to the write-ahead journal
               (one fsync -- Journal.append_many),
             applies it through JournaledState.apply_batch
               (one acquisition of the lock, interned ahead, then
               LandlordCache._apply_interned per request),
             wakes each queued handler with its decision (on_result:
               after the fsync and the apply, before the checkpoint),
             snapshots/compacts when the window crossed the
               snapshot_every boundary,
             appends the window's cache events to the sidecar,
             hands the lead to the new queue head
        -> handler replies JSON (ack strictly after the journal fsync)

Guarantees:

- **Durability**: a request is journalled and applied before it is
  acknowledged, so a SIGKILL at any point after the ack replays to
  bit-identical state via ``repro-landlord recover`` (the cache is
  deterministic; the journal records arrival order).  A window whose
  journal append fails acknowledges nobody; a failed checkpoint after
  the acks is retried at the next boundary.
- **Serialisability**: one committer at a time, FIFO windows — journal
  order is apply order is ``request_index`` order, and the final cache
  state is bit-identical to the same requests applied serially in that
  order (``apply_batch`` applies each request through
  ``_apply_interned``, the step sequential ``request`` calls take).
- **Consistent telemetry**: one re-entrant lock (attached via
  :meth:`~repro.core.cache.LandlordCache.enable_lock` and shared with
  the embedded :class:`~repro.obs.ObsServer`) serialises scrape
  rendering against cache mutation, so ``/metrics`` and ``/statusz``
  never observe a half-applied batch.
- **Bounded memory**: admission control rejects with HTTP 429 once
  ``max_queue`` submissions wait; a draining daemon rejects with 503.

SIGTERM handling lives in the CLI (:func:`repro.cli.main`): it calls
:meth:`LandlordDaemon.stop`, which stops admitting, drains the queue,
writes a final covering snapshot, and compacts the journal.
"""

from __future__ import annotations

import json
import operator
import os
import socket
import threading
import traceback
from collections import deque
from http.server import ThreadingHTTPServer
from itertools import filterfalse, repeat
from time import perf_counter
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.obs import ObsServer, build_status, write_event_stream
from repro.obs.clock import default_clock
from repro.obs.server import POLL_INTERVAL, ReplyHandler
from repro.obs.spans import SpanRecorder, new_trace_id, parse_traceparent

__all__ = ["LandlordDaemon"]

#: Reject request bodies larger than this (a spec is a package list —
#: anything bigger is a client bug, not a workload).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _PendingSubmit:
    """One admitted submission waiting for its window's commit."""

    __slots__ = (
        "packages", "wake", "decision", "request_index", "error",
        "trace_id", "enqueued_mono", "times",
    )

    def __init__(self, packages: Sequence[str]):
        #: sorted and de-duplicated at admission — journalled as is
        self.packages = packages
        #: set once: when answered, or when handed the leadership
        self.wake = threading.Event()
        self.decision = None
        self.request_index: Optional[int] = None
        self.error: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.enqueued_mono: float = 0.0
        #: the window's "pop", "fsync" and "applied" times, once answered
        self.times: dict = {}


class _ServiceInstruments:
    """Pre-bound ``service_*`` metric children (see DESIGN.md schema)."""

    __slots__ = (
        "accepted", "rejected_full", "rejected_draining", "rejected_invalid",
        "batches", "batched_requests", "queue_depth",
    )

    def __init__(self, registry) -> None:
        submissions = registry.counter(
            "service_submissions_total",
            "Submissions by admission outcome.",
            labelnames=("outcome",),
        )
        self.accepted = submissions.labels(outcome="accepted")
        self.rejected_full = submissions.labels(outcome="rejected_full")
        self.rejected_draining = submissions.labels(
            outcome="rejected_draining"
        )
        self.rejected_invalid = submissions.labels(outcome="rejected_invalid")
        self.batches = registry.counter(
            "service_batches_total",
            "Request windows group-committed and applied.",
        ).labels()
        self.batched_requests = registry.counter(
            "service_batched_requests_total",
            "Requests applied through batched windows.",
        ).labels()
        self.queue_depth = registry.gauge(
            "service_queue_depth",
            "Submissions waiting in the admission queue.",
        ).labels()


class _UnixHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to a UNIX-domain socket."""

    address_family = socket.AF_UNIX

    def server_bind(self):
        """Bind, replacing a stale socket file from a dead daemon."""
        try:
            os.unlink(self.server_address)
        except FileNotFoundError:
            pass
        super().server_bind()

    def get_request(self):
        """Accept, normalising the empty AF_UNIX peer address to a pair
        so :class:`BaseHTTPRequestHandler` machinery stays happy."""
        request, _ = self.socket.accept()
        return request, ("unix", 0)


class LandlordDaemon:
    """A multi-client submission daemon over one durable LANDLORD cache.

    Args:
        store: the :class:`~repro.core.journal.JournaledState` holding
            the snapshot + write-ahead journal (already initialised or
            loaded by the caller; the daemon never re-reads it).
        cache: the live :class:`~repro.core.cache.LandlordCache` the
            store loaded.  The daemon attaches its own re-entrant lock
            via :meth:`~repro.core.cache.LandlordCache.enable_lock`.
        metadata: the store's metadata dict (written into snapshots).
        host / port: TCP bind address (loopback; port 0 = ephemeral).
        socket_path: additionally serve the same API on a UNIX-domain
            socket at this path (optional).
        max_queue: admission-queue bound; submissions beyond it are
            rejected with HTTP 429 (the backpressure contract).
        max_batch: largest request window one commit applies at once
            (the leader pops at most this many from the queue head).
        registry: optional :class:`~repro.obs.MetricsRegistry` — the
            daemon adds ``service_*`` instruments and serves it at
            ``/metrics``.
        slo: optional :class:`~repro.obs.SloTracker` already attached
            to the cache; the daemon publishes ``queue_depth`` /
            ``submissions_rejected`` extras into it.
        alerts: optional :class:`~repro.obs.AlertEngine`, evaluated
            after every applied window (not per request — the daemon's
            unit of progress is the window).
        tracer: optional :class:`~repro.obs.DecisionTracer` already
            attached to the cache; drained to ``trace_path`` after
            every window so ``repro-landlord explain`` works against a
            running daemon.
        trace_path: decision-trace sidecar, an event stream (required
            with ``tracer``).
        known_package: predicate validating a package id at admission;
            submissions naming unknown packages are rejected with HTTP
            400 *before* anything is journalled, so the journal never
            holds an unreplayable entry.
        span_limit: size of the bounded span ring buffer behind
            ``/traces`` and ``repro-landlord trace`` (per-stage
            histograms are unaffected — they are cumulative).
        clock: optional :class:`~repro.obs.HybridClock` override for
            the span timeline (tests inject a
            :class:`~repro.obs.FrozenClock`); defaults to the process
            default clock.
    """

    def __init__(
        self,
        store,
        cache,
        metadata: Optional[dict],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        max_queue: int = 1024,
        max_batch: int = 256,
        registry=None,
        slo=None,
        alerts=None,
        tracer=None,
        trace_path: Optional[str] = None,
        known_package: Optional[Callable[[str], bool]] = None,
        span_limit: int = 4096,
        clock=None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if type(max_batch) is not int or max_batch < 1:  # no bool, no str
            raise ValueError(
                f"max_batch must be an int >= 1, got {max_batch!r}"
            )
        if tracer is not None and trace_path is None:
            raise ValueError("trace_path is required when tracing")
        self.store = store
        self.cache = cache
        self.metadata = metadata
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.slo = slo
        self.alerts = alerts
        self.tracer = tracer
        self.trace_path = trace_path
        self.known_package = known_package
        self._host = host
        self._requested_port = port
        self._socket_path = socket_path

        self.lock = threading.RLock()
        cache.enable_lock(self.lock)
        self._cond = threading.Condition()
        self._queue: Deque[_PendingSubmit] = deque()
        # The one committer: its window is in flight, and the queue is
        # non-empty only while it is set.
        self._leader: Optional[_PendingSubmit] = None
        self._draining = False
        self.accepted = 0
        self.rejected = 0
        self.batches = 0
        self._ins = (
            _ServiceInstruments(registry) if registry is not None else None
        )
        self.registry = registry
        self.clock = clock if clock is not None else default_clock()
        # The span ring always records — the service pipeline is not the
        # benchmarked hot path, and "why was that submit slow?" must be
        # answerable without a restart.  Per-stage histograms land in
        # ``registry`` (when attached) as service_stage_seconds.
        self.spans = SpanRecorder(
            limit=span_limit, clock=self.clock, registry=registry
        )
        self.obs = ObsServer(
            registry,
            status_fn=self._status,
            tracer=tracer,
            spans=self.spans,
            on_scrape=self._on_scrape if registry is not None else None,
            lock=self.lock,
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._unix_httpd: Optional[_UnixHTTPServer] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port once started."""
        return self._httpd.server_address[1] if self._httpd else None

    @property
    def url(self) -> Optional[str]:
        """Base URL once started, e.g. ``http://127.0.0.1:43210``."""
        if self._httpd is None:
            return None
        return f"http://{self._host}:{self.port}"

    @property
    def queue_depth(self) -> int:
        """Submissions currently queued behind the commit in flight."""
        with self._cond:
            return len(self._queue)

    def start(self) -> int:
        """Bind the socket(s) and serve them; returns the TCP port."""
        if self._httpd is not None:
            raise RuntimeError("daemon already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        servers = [self._httpd]
        if self._socket_path is not None:
            self._unix_httpd = _UnixHTTPServer(self._socket_path, handler)
            self._unix_httpd.daemon_threads = True
            servers.append(self._unix_httpd)
        for httpd in servers:
            thread = threading.Thread(
                target=httpd.serve_forever,
                args=(POLL_INTERVAL,),
                name="repro-service-server",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self.port

    def stop(self) -> None:
        """Graceful shutdown: drain, final covering snapshot, unbind.

        New submissions are rejected with 503 from the moment this is
        called; everything already admitted is applied (and its client
        answered) before the final snapshot is written and the journal
        compacted.  Idempotent.
        """
        with self._cond:
            if self._draining:
                return
            self._draining = True
            while self._queue or self._leader is not None:
                self._cond.wait()
        with self.lock:
            self.store.flush(self.cache, self.metadata)
            self._drain_traces()
        self._close_sockets()

    def kill(self) -> None:
        """Crash-style shutdown: stop everything, flush *nothing*.

        Queued-but-unapplied submissions are abandoned (their clients
        get 500 "daemon killed", never an ack), the window in flight
        finishes, and no final snapshot is written — the on-disk state
        is exactly what a SIGKILL would leave.  Exists so tests and the
        fault-injection harness can exercise the ``recover`` path
        against a realistic crash image.
        """
        with self._cond:
            self._draining = True
            for item in self._queue:
                item.error = "daemon killed"
                item.wake.set()
            self._queue.clear()
            while self._leader is not None:
                self._cond.wait()
        self._close_sockets()

    def _close_sockets(self) -> None:
        for httpd in (self._httpd, self._unix_httpd):
            if httpd is not None:
                httpd.shutdown()
                httpd.server_close()
        if self._unix_httpd is not None and self._socket_path is not None:
            try:
                os.unlink(self._socket_path)
            except FileNotFoundError:
                pass
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        self._httpd = None
        self._unix_httpd = None

    def __enter__(self) -> "LandlordDaemon":
        """Context-manager start (``with LandlordDaemon(...) as d:``)."""
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager graceful stop (drain + final snapshot)."""
        self.stop()

    # -- submission path ---------------------------------------------------

    def submit(
        self, packages: Sequence[str], traceparent: Optional[str] = None
    ) -> Tuple[int, dict]:
        """Admit one submission and wait for its decision (handler hook).

        Returns ``(http_status, json_payload)``: 200 with the decision,
        400 for invalid specs, 429 when the queue is full, 503 when
        draining, 500 if the window's commit failed.  Blocks the calling
        (handler) thread until its window is journalled *and* applied —
        the ack-after-fsync contract.  With no commit in flight the
        calling thread commits its own window (no hand-off); otherwise it
        queues, and is woken either with its decision or as the next
        leader, when it commits the queue head.

        ``traceparent``, when a valid W3C header, continues the
        client's distributed trace: every pipeline stage (admission,
        queue, fsync, apply, ack) is recorded under the client's trace
        id with the client's span as parent, and the 200 payload echoes
        the ``trace_id``.  Absent or malformed context starts a fresh
        trace — a request is never dropped from tracing.  Rejected
        submissions record no spans (they never enter the pipeline).
        """
        t_start = self.clock.monotonic()
        context = (
            parse_traceparent(traceparent) if traceparent is not None
            else None
        )
        if context is not None:
            trace_id, parent_id = context
        else:
            trace_id, parent_id = new_trace_id(), None
        if not packages:
            return 400, {"error": "empty package list"}
        # The journalled form is strictly increasing; clients that send
        # sorted closures already have it, and one C-level pass says so.
        if any(map(operator.ge, packages, packages[1:])):
            packages = sorted(set(packages))
        if self.known_package is not None:
            unknown = list(filterfalse(self.known_package, packages))
            if unknown:
                if self._ins is not None:
                    self._ins.rejected_invalid.inc()
                return 400, {"error": "unknown packages", "unknown": unknown}
        item = _PendingSubmit(packages)
        item.trace_id = trace_id
        window: Optional[List[_PendingSubmit]] = None
        with self._cond:
            if self._draining:
                self.rejected += 1
                if self._ins is not None:
                    self._ins.rejected_draining.inc()
                return 503, {"error": "draining", "retry": False}
            if len(self._queue) >= self.max_queue:
                self.rejected += 1
                if self._ins is not None:
                    self._ins.rejected_full.inc()
                return 429, {
                    "error": "queue full",
                    "queue_depth": len(self._queue),
                    "retry": True,
                }
            item.enqueued_mono = self.clock.monotonic()
            self.accepted += 1
            if self._ins is not None:
                self._ins.accepted.inc()
            if self._leader is None:  # nothing committing: lead at once
                self._leader = item
                window = [item]
            else:
                self._queue.append(item)
        self.spans.observe(
            "admission",
            t_start,
            max(0.0, item.enqueued_mono - t_start),
            trace_id,
            parent_id=parent_id,
        )
        if window is None:
            item.wake.wait()  # answered, or handed the lead (set first)
            if self._leader is item:
                with self._cond:  # pop the head; empty once killed
                    size = min(len(self._queue), self.max_batch)
                    window = [self._queue.popleft() for _ in range(size)]
        if window is not None:
            self._lead(window)
        if item.error is not None:
            return 500, {"error": item.error}
        decision, times = item.decision, item.times
        fsync_start, fsync_s = times["fsync"]
        for stage, start, end in (  # on this thread, off the commit path
            ("queue", item.enqueued_mono, times["pop"]),
            ("fsync", fsync_start, fsync_start + fsync_s),
            ("apply", fsync_start + fsync_s, times["applied"]),
            ("ack", times["applied"], self.clock.monotonic()),
        ):
            self.spans.observe(
                stage, start, max(0.0, end - start), trace_id,
                parent_id=parent_id, request_index=item.request_index,
            )
        return 200, {
            "action": decision.action.value,
            "request_index": item.request_index,
            "image": decision.image.id,
            "image_bytes": decision.image.size,
            "image_packages": decision.image.package_count,
            "requested_bytes": decision.requested_bytes,
            "bytes_added": decision.bytes_added,
            "distance": decision.distance,
            "evicted": list(decision.evicted),
            "trace_id": trace_id,
        }

    # -- group commit ------------------------------------------------------

    def _lead(self, window: List[_PendingSubmit]) -> None:
        """Commit ``window`` as the one committer, then hand the lead to
        the queue head, which pops its own window when it wakes (FIFO);
        released in ``finally``, so a failed commit strands no one."""
        try:
            if window:
                self._commit(window, self.clock.monotonic())
        finally:
            with self._cond:
                if self._queue:
                    self._leader = self._queue[0]
                    self._leader.wake.set()
                else:
                    self._leader = None
                    self._cond.notify_all()  # stop() and kill() wait

    def _commit(self, window: List[_PendingSubmit], pop_mono: float) -> None:
        ops = [("request", {"packages": item.packages}) for item in window]
        timings: dict = {"pop": pop_mono}
        pending = iter(enumerate(window))
        failure = "daemon stopped mid-window"

        def answer(_entry, decision) -> None:
            # apply_batch's on_result: once durable and applied, before
            # the checkpoint — the client may go now.
            offset, item = next(pending)
            timings.setdefault("applied", perf_counter())
            item.request_index = base + offset
            item.decision = decision
            item.times = timings
            item.wake.set()

        with self.lock:
            base = self.cache.stats.requests
            self.cache.set_exemplar_traces({
                base + offset: item.trace_id
                for offset, item in enumerate(window)
            })
            try:
                self.store.apply_batch(
                    self.cache, self.metadata, ops,
                    on_result=answer, timings=timings,
                )
            except Exception as exc:  # surface, don't hang the clients
                # Clients already answered keep their ack: their entries
                # are durable and applied, and a failed checkpoint is
                # retried at the next snapshot_every boundary.
                traceback.print_exc()
                failure = f"{type(exc).__name__}: {exc}"
            finally:
                # Trace ids never outlive the window they were built
                # for, and no client of the window is left waiting.
                self.cache.set_exemplar_traces(None)
                for _, item in pending:
                    item.error = failure
                    item.wake.set()
            if window[0].decision is None:
                return  # nothing durable: the append or the save failed
            self.batches += 1
            if self._ins is not None:
                self._ins.batches.inc()
                self._ins.batched_requests.inc(len(window))
            try:  # the window is answered: a failure here costs no 200
                if self.alerts is not None and self.slo is not None:
                    self.alerts.evaluate(
                        self.slo.values(), self.cache.stats.requests - 1
                    )
                self._drain_traces()
                if self.slo is not None:
                    self.slo.set_extra("queue_depth", float(self.queue_depth))
                    self.slo.set_extra(
                        "submissions_rejected", float(self.rejected)
                    )
            except Exception:
                traceback.print_exc()

    def _drain_traces(self) -> None:
        if self.tracer is None:
            return
        events = self.tracer.drain()
        if events:
            write_event_stream(events, self.trace_path, append=True)

    # -- observability -----------------------------------------------------

    def _on_scrape(self) -> None:
        if self._ins is not None:
            self._ins.queue_depth.set(self.queue_depth)
        if self.slo is not None:
            self.slo.set_extra("queue_depth", float(self.queue_depth))
            self.slo.set_extra("submissions_rejected", float(self.rejected))
            self.slo.export_to(self.registry)

    def _status(self) -> dict:
        """The ``/statusz`` body: cache status plus a ``service`` block."""
        extra: dict = {
            "service": {
                "queue_depth": self.queue_depth,
                "max_queue": self.max_queue,
                "max_batch": self.max_batch,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "batches": self.batches,
                "draining": self._draining,
            }
        }
        stages = self.spans.stage_stats()
        if stages:
            extra["stages"] = stages
        return build_status(
            self.cache,
            slo=self.slo,
            alerts=self.alerts,
            extra=extra,
        )


def _make_handler(daemon: "LandlordDaemon"):
    """Build the request-handler class closed over one daemon."""

    class Handler(ReplyHandler):
        def do_GET(self):  # noqa: N802 - stdlib casing
            path, _, query = self.path.partition("?")
            path = path.rstrip("/") or "/"
            try:
                status, content_type, body = daemon.obs.render_get(
                    path, query
                )
                if status == 404 and not path.startswith("/traces"):
                    body = (
                        "endpoints: POST /submit; GET /metrics "
                        "/healthz /statusz /traces/<n>\n"
                    )
                self._reply(status, body, content_type)
            except BrokenPipeError:  # client went away mid-reply
                pass

        def do_POST(self):  # noqa: N802 - stdlib casing
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path != "/submit":
                    self._reply_json(404, {"error": "POST /submit only"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", ""))
                except ValueError:
                    length = -1
                if length < 0:
                    # rfile.read(-1) would block until the peer closes
                    self._reply_json(411, {"error": "length required"})
                    return
                if length > MAX_BODY_BYTES:
                    self._reply_json(413, {"error": "body too large"})
                    return
                try:
                    payload = json.loads(self.rfile.read(length))
                except ValueError:
                    self._reply_json(400, {"error": "bad JSON body"})
                    return
                packages = (
                    payload.get("packages")
                    if isinstance(payload, dict)
                    else payload
                )
                if not isinstance(packages, list) or not all(
                    map(isinstance, packages, repeat(str))
                ):
                    self._reply_json(
                        400,
                        {"error": 'body must be {"packages": [ids...]}'},
                    )
                    return
                status, body = daemon.submit(
                    packages,
                    traceparent=self.headers.get("traceparent"),
                )
                self._reply_json(status, body)
            except BrokenPipeError:  # client went away mid-reply
                pass

    return Handler
