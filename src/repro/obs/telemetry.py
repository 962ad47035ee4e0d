"""Cluster-wide telemetry plane: worker push, parent aggregation.

The embedded ``/metrics`` server (``repro.obs.server``) exposes *one*
process's registry, but a sweep fans out over worker processes and a
daemon serves many clients — the fleet problem the CMS XCache migration
solved with per-instance labels on a shared scrape endpoint.  This
module closes that gap with three pieces, all stdlib-only:

- :class:`TelemetryPusher` — worker side.  POSTs JSON registry
  snapshots to the parent's ``/telemetry`` endpoint over loopback HTTP.
  Two payload shapes: *cells* (per-task snapshots tagged with the
  task's submission index — how sweep workers stream) and *cumulative*
  (replace-this-worker's-registry — how long-lived daemon clients
  report).  Best-effort: pushes never raise into the caller, and the
  pusher disables itself after a run of consecutive failures so a dead
  parent cannot slow a sweep down.
- :class:`TelemetryAggregator` — parent side bookkeeping.  Keeps one
  registry per worker (for ``worker="..."``-labelled series) plus an
  *aggregated* view.  Cell payloads are folded strictly in submission
  index order (contiguous-prefix folding), which makes the aggregate
  bit-identical to a serial run of the same work: IEEE float sums (for
  example ``landlord_merge_distance_sum``) depend on fold order, so
  "merge whenever a worker reports" would drift while "fold cell *k*
  only after cells *0..k-1*" replays exactly the serial merge order.
- :class:`TelemetryCollector` — the parent's HTTP endpoint.  Accepts
  ``POST /telemetry`` and serves ``GET /metrics`` / ``/healthz`` /
  ``/statusz`` through an embedded :class:`~repro.obs.server.ObsServer`
  so one scrape answers for the whole run.

The fleet exposition interleaves, under each family's single ``# TYPE``
block, the aggregated series (no ``worker`` label) followed by every
worker's series with a ``worker`` label prepended — legal in both the
classic Prometheus text format and OpenMetrics, and validated by
:mod:`repro.obs.promcheck` in both.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request
import warnings
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    family_header_lines,
    render_family_lines,
)
from repro.obs.server import ObsServer, ReplyHandler

__all__ = [
    "TelemetryAggregator",
    "TelemetryCollector",
    "TelemetryPusher",
    "label_snapshot",
]

#: A pusher disables itself after this many consecutive failed POSTs.
MAX_PUSH_FAILURES = 5

#: Counter families surfaced per worker in ``/statusz`` (and from there
#: in the ``top`` dashboard's per-worker rows).
_STATUS_COUNTERS = (
    ("requests", "landlord_requests_total"),
    ("hits", "landlord_hits_total"),
    ("merges", "landlord_merges_total"),
    ("inserts", "landlord_inserts_total"),
    ("evictions", "landlord_evictions_total"),
)


def label_snapshot(snap: dict, worker: str) -> dict:
    """A copy of a registry snapshot with a ``worker`` label prepended.

    Every family gains ``worker`` as its first label name and every
    series gains ``worker``'s value first — the transform that turns a
    worker's private registry into fleet-addressable series.  The input
    is not modified.
    """
    families = {}
    for name, entry in snap.get("families", {}).items():
        out = dict(entry)
        out["labelnames"] = ["worker"] + list(entry.get("labelnames", ()))
        out["series"] = [
            {**series, "labels": [worker] + list(series["labels"])}
            for series in entry["series"]
        ]
        families[name] = out
    return {"v": snap.get("v", 1), "families": families}


class _WorkerState:
    """Aggregator-side record of one reporting worker."""

    __slots__ = ("registry", "mode", "pushes", "cells", "final")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.mode: Optional[str] = None
        self.pushes = 0
        self.cells = 0
        self.final = False


class TelemetryAggregator:
    """Fold worker telemetry into per-worker views plus one aggregate.

    Args:
        base: optional local :class:`MetricsRegistry` (the parent's own
            instruments, e.g. a daemon's ``service_*`` families) whose
            live contents are included in the aggregate at render time.
        expected_cells: for sweep runs, the total cell count — lets
            ``/statusz`` report fold progress.

    Thread-safe: ingest (HTTP handler threads) and rendering (scrape
    threads) serialise on one internal re-entrant lock, exposed as
    :attr:`lock` so an embedding server can share it.
    """

    def __init__(
        self,
        base: Optional[MetricsRegistry] = None,
        expected_cells: Optional[int] = None,
    ) -> None:
        self.base = base
        self.expected_cells = expected_cells
        self.lock = threading.RLock()
        self._workers: Dict[str, _WorkerState] = {}
        self._folded = MetricsRegistry()
        self._pending: Dict[int, dict] = {}
        self._next_index = 0
        self._duplicates = 0
        self._complete = False

    # -- ingest ------------------------------------------------------------

    def _worker(self, worker: str) -> _WorkerState:
        state = self._workers.get(worker)
        if state is None:
            state = self._workers[worker] = _WorkerState()
        return state

    def register_worker(self, worker: str) -> None:
        """Announce a live worker before it has anything to report."""
        with self.lock:
            self._worker(worker)

    def ingest(self, worker: str, snapshot: dict, final: bool = False) -> None:
        """Replace ``worker``'s cumulative registry with ``snapshot``.

        The long-lived-client mode: each push is the worker's *complete*
        registry, so newer replaces older rather than summing.
        """
        with self.lock:
            state = self._worker(worker)
            state.mode = "cumulative"
            state.pushes += 1
            state.final = state.final or final
            state.registry = MetricsRegistry.from_snapshot(snapshot)

    def ingest_cells(
        self,
        worker: str,
        cells: Sequence[Tuple[int, dict]],
        final: bool = False,
    ) -> None:
        """Ingest per-task snapshots tagged with submission indices.

        Each cell lands in ``worker``'s view immediately and queues for
        the aggregate, which only ever folds the contiguous index prefix
        — the determinism contract described in the module docstring.
        Duplicate indices (a retried push) are dropped.
        """
        with self.lock:
            state = self._worker(worker)
            state.mode = "cells"
            state.pushes += 1
            state.final = state.final or final
            for index, snap in cells:
                index = int(index)
                if index < self._next_index or index in self._pending:
                    self._duplicates += 1
                    continue
                state.registry.merge_snapshot(snap)
                state.cells += 1
                self._pending[index] = snap
            while self._next_index in self._pending:
                self._folded.merge_snapshot(
                    self._pending.pop(self._next_index)
                )
                self._next_index += 1

    def mark_final(self, worker: str) -> None:
        """Record that a worker finished (its last push is final)."""
        with self.lock:
            self._worker(worker).final = True

    def mark_complete(self) -> None:
        """Record that the run driving this aggregator has finished."""
        with self.lock:
            self._complete = True

    def ingest_payload(self, payload: dict) -> dict:
        """Dispatch one ``POST /telemetry`` JSON body.

        Accepted shapes (all carry ``"worker"``)::

            {"worker": w, "register": true}
            {"worker": w, "mode": "cells", "cells": [[idx, snap], ...]}
            {"worker": w, "mode": "cumulative", "snapshot": snap}
            {"worker": w, "final": true}

        Returns a small ack dict; raises :class:`ValueError` on a
        malformed body (the HTTP layer turns that into a 400).
        """
        if not isinstance(payload, dict):
            raise ValueError("telemetry body must be a JSON object")
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ValueError('telemetry body needs a "worker" string')
        final = bool(payload.get("final", False))
        mode = payload.get("mode")
        if payload.get("register"):
            self.register_worker(worker)
        elif mode == "cells":
            cells = payload.get("cells")
            if not isinstance(cells, list):
                raise ValueError('"cells" must be a list of [index, snap]')
            self.ingest_cells(
                worker, [(cell[0], cell[1]) for cell in cells], final=final
            )
        elif mode == "cumulative":
            snapshot = payload.get("snapshot")
            if not isinstance(snapshot, dict):
                raise ValueError('"snapshot" must be a registry snapshot')
            self.ingest(worker, snapshot, final=final)
        elif final:
            self.mark_final(worker)
        else:
            raise ValueError(
                'telemetry body needs "register", "mode", or "final"'
            )
        with self.lock:
            return {
                "ok": True,
                "workers": len(self._workers),
                "cells_folded": self._next_index,
            }

    # -- views -------------------------------------------------------------

    def aggregate(self) -> MetricsRegistry:
        """One registry holding the whole fleet's totals.

        Base (live parent) + index-folded cells + cumulative worker
        registries merged in sorted worker order.  For a pure cell run
        this is bit-identical to the serial registry once every cell has
        been folded.
        """
        with self.lock:
            out = MetricsRegistry()
            if self.base is not None:
                out.merge_snapshot(self.base.snapshot())
            out.merge_snapshot(self._folded.snapshot())
            for worker in sorted(self._workers):
                state = self._workers[worker]
                if state.mode == "cumulative":
                    out.merge_snapshot(state.registry.snapshot())
            return out

    def worker_registries(self) -> List[Tuple[str, MetricsRegistry]]:
        """``(worker, registry)`` pairs in sorted worker order."""
        with self.lock:
            return [
                (worker, self._workers[worker].registry)
                for worker in sorted(self._workers)
            ]

    def status(self) -> dict:
        """The ``/statusz`` ``telemetry`` block (drives ``top`` rows)."""
        with self.lock:
            workers = {}
            for worker in sorted(self._workers):
                state = self._workers[worker]
                entry: dict = {
                    "mode": state.mode,
                    "pushes": state.pushes,
                    "cells": state.cells,
                    "final": state.final,
                }
                for short, family_name in _STATUS_COUNTERS:
                    family = state.registry.get(family_name)
                    if family is not None:
                        entry[short] = sum(
                            child.value for _, child in family.series()
                        )
                workers[worker] = entry
            status: dict = {"workers": workers, "complete": self._complete}
            if (
                self.expected_cells is not None
                or self._next_index
                or self._pending
                or self._duplicates
            ):
                status["cells"] = {
                    "folded": self._next_index,
                    "pending": len(self._pending),
                    "duplicates": self._duplicates,
                    "expected": self.expected_cells,
                }
            return status

    # -- rendering ---------------------------------------------------------

    def _render(self, openmetrics: bool) -> str:
        with self.lock:
            agg = self.aggregate()
            workers = [
                (worker, registry)
                for worker, registry in self.worker_registries()
                if len(registry)
            ]
            if not workers:
                # No fleet yet: render exactly what a bare registry
                # would, so embedding the aggregator is invisible to
                # existing scrapers until the first worker reports.
                return (
                    agg.to_openmetrics() if openmetrics
                    else agg.to_prometheus()
                )
            lines: List[str] = []
            for family in agg.families():
                lines.extend(family_header_lines(family, openmetrics))
                lines.extend(render_family_lines(family, openmetrics))
                for worker, registry in workers:
                    child = registry.get(family.name)
                    if child is not None:
                        lines.extend(
                            render_family_lines(
                                child, openmetrics,
                                extra_labels=(("worker", worker),),
                            )
                        )
            if openmetrics:
                lines.append("# EOF")
            return "\n".join(lines) + "\n" if lines else ""

    def to_prometheus(self) -> str:
        """Fleet exposition: aggregate + ``worker``-labelled series."""
        return self._render(openmetrics=False)

    def to_openmetrics(self) -> str:
        """Fleet exposition in OpenMetrics (exemplars + ``# EOF``)."""
        return self._render(openmetrics=True)


class TelemetryCollector:
    """The parent's loopback telemetry endpoint.

    ``POST /telemetry`` feeds an :class:`TelemetryAggregator`;
    ``GET /metrics`` (both formats), ``/healthz``, and ``/statusz`` are
    served by an embedded :class:`~repro.obs.server.ObsServer` whose
    registry *is* the aggregator — one scrape answers for the fleet.

    Args:
        aggregator: the aggregator to feed (one is created if omitted).
        host / port: bind address (port 0 = ephemeral).
        status_extra: optional callable returning extra ``/statusz``
            keys (the sweep CLI injects sweep progress).
    """

    def __init__(
        self,
        aggregator: Optional[TelemetryAggregator] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        status_extra=None,
    ) -> None:
        self.aggregator = aggregator or TelemetryAggregator()
        self._status_extra = status_extra
        self.obs = ObsServer(
            registry=self.aggregator,
            status_fn=self._status,
            host=host,
            port=port,
            lock=self.aggregator.lock,
        )
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def _status(self) -> dict:
        status = {"telemetry": self.aggregator.status()}
        if self._status_extra is not None:
            status.update(self._status_extra())
        return status

    @property
    def port(self) -> Optional[int]:
        """The bound port once started."""
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
            raise RuntimeError("collector already started")
        handler = _make_collector_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-collector",
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

    def __enter__(self) -> "TelemetryCollector":
        """Context-manager start."""
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager clean stop."""
        self.stop()


def _make_collector_handler(collector: "TelemetryCollector"):
    """Build the request-handler class closed over one collector."""

    class Handler(ReplyHandler):
        def do_GET(self):  # noqa: N802 - stdlib casing
            path, _, query = self.path.partition("?")
            path = path.rstrip("/") or "/"
            try:
                status, content_type, body = collector.obs.render_get(
                    path, query
                )
                self._reply(status, body, content_type)
            except BrokenPipeError:  # scraper went away mid-reply
                pass

        def do_POST(self):  # noqa: N802 - stdlib casing
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path != "/telemetry":
                    self._reply_json(404, {"error": "POST /telemetry only"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", ""))
                    payload = json.loads(self.rfile.read(length))
                    ack = collector.aggregator.ingest_payload(payload)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    self._reply_json(400, {"error": str(exc)})
                    return
                self._reply_json(200, ack)
            except BrokenPipeError:  # pusher went away mid-reply
                pass

    return Handler


class TelemetryPusher:
    """Worker-side best-effort snapshot pusher.

    Args:
        url: the collector (or daemon) base URL — ``/telemetry`` is
            appended unless already present.
        worker: fleet label value; defaults to ``pid-<os.getpid()>``
            (stable per worker process, unique within a host).
        timeout: per-POST socket timeout in seconds.

    A push failure never raises: after :data:`MAX_PUSH_FAILURES`
    consecutive failures the pusher disables itself with one warning,
    so telemetry can never turn a healthy sweep into a hung one.
    """

    def __init__(
        self, url: str, worker: Optional[str] = None, timeout: float = 5.0
    ) -> None:
        base = url.rstrip("/")
        self.url = base if base.endswith("/telemetry") else base + "/telemetry"
        self.worker = worker or f"pid-{os.getpid()}"
        self.timeout = timeout
        self.enabled = True
        self.pushed = 0
        self._failures = 0

    def register(self) -> bool:
        """Announce this worker to the collector (live-worker row)."""
        return self._post({"register": True})

    def push_cells(
        self, cells: Sequence[Tuple[int, dict]], final: bool = False
    ) -> bool:
        """Push per-task snapshots tagged with submission indices."""
        return self._post({
            "mode": "cells",
            "cells": [[int(index), snap] for index, snap in cells],
            "final": final,
        })

    def push(self, snapshot: dict, final: bool = False) -> bool:
        """Push this worker's complete registry (replaces the last)."""
        return self._post({
            "mode": "cumulative", "snapshot": snapshot, "final": final,
        })

    def finalize(self) -> bool:
        """Mark this worker finished (no more pushes will follow)."""
        return self._post({"final": True})

    def _post(self, payload: dict) -> bool:
        if not self.enabled:
            return False
        body = dict(payload)
        body["v"] = 1
        body["worker"] = self.worker
        data = json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                response.read()
        except (urllib.error.URLError, OSError, ValueError):
            self._failures += 1
            if self._failures >= MAX_PUSH_FAILURES:
                self.enabled = False
                warnings.warn(
                    f"telemetry pusher for {self.worker!r} disabled after "
                    f"{self._failures} consecutive failed pushes to "
                    f"{self.url}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return False
        self._failures = 0
        self.pushed += 1
        return True
