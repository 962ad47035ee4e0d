"""`repro-landlord top` — a `top`-style dashboard over a live LANDLORD.

Two data sources, one renderer:

- **attach** — poll a running ``serve`` (or ``sweep --serve``)
  endpoint's ``/statusz`` (see :mod:`repro.obs.server`) and redraw;
- **replay** — drive the frames from a recorded ``--events-out`` JSONL
  stream at any speed, with no terminal required (``--headless`` prints
  frames; CI's golden-frame test runs exactly this path).

The renderer (:func:`render_frame`) is a pure function from one
``/statusz``-shaped dict (plus an optional series history for the
sparkline band, drawn with :mod:`repro.util.asciiplot`) to a text
frame, so frames are deterministic whenever their inputs are — replay
frames contain no wall-clock series and golden-test cleanly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.events import EventKind
from ..util.asciiplot import Series, line_plot
from ..util.units import format_bytes
from .slo import DEFAULT_WINDOW, SloTracker
from .stream import fold_event, iter_event_stream

__all__ = [
    "render_frame",
    "frames_from_events",
    "EventReplay",
    "HISTORY_SERIES",
]

#: The windowed series charted in the frame's history band.
HISTORY_SERIES: Tuple[str, ...] = ("hit_rate", "merge_rate", "occupancy")


def _pct(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{100.0 * value:.1f}%"


def _seconds(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _count(value) -> str:
    """Integral counter values render without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _bar(fraction: Optional[float], width: int = 24) -> str:
    if fraction is None or (
        isinstance(fraction, float) and math.isnan(fraction)
    ):
        return "[" + "?" * width + "]"
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_frame(
    status: dict,
    width: int = 76,
    history: Optional[Dict[str, List[float]]] = None,
    title: str = "repro-landlord top",
) -> str:
    """Render one dashboard frame from a ``/statusz``-shaped dict.

    ``history`` maps series names (see :data:`HISTORY_SERIES`) to their
    values over past frames; when at least two points exist they are
    charted as a sparkline band under the status rows.  Unknown values
    (absent keys, ``None``) render as ``-`` so a frame never fails on a
    sparse status.  A ``telemetry`` block (present while ``sweep
    --serve`` runs — see :mod:`repro.obs.telemetry`) adds one row per
    reporting worker with its request mix and the cells it finished.
    A ``stages`` block (present when a daemon is recording pipeline
    spans — see :mod:`repro.obs.spans`) adds a per-stage p95 row
    (queue / fsync / apply wait).
    """
    lifetime = status.get("lifetime", {})
    window = status.get("window", {})
    series = window.get("series", {})
    alpha = status.get("alpha")
    capacity = status.get("capacity_bytes")
    cached = status.get("cached_bytes")
    unique = status.get("unique_bytes")
    occupancy = status.get("occupancy")

    head = (
        f"{title} — request {lifetime.get('requests', 0)}"
        f"   alpha {alpha if alpha is not None else '-'}"
        f"   window {window.get('size', '-')}"
    )
    lines = [head, "=" * min(width, len(head) + 4)]

    cap_text = format_bytes(capacity) if capacity else "-"
    cached_text = format_bytes(cached) if cached is not None else "-"
    unique_text = format_bytes(unique) if unique is not None else "-"
    lines.append(
        f"occupancy {_bar(occupancy)} {_pct(occupancy)}"
        f"   images {status.get('images', '-')}"
        f"   cached {cached_text} / {cap_text}   unique {unique_text}"
    )
    lines.append(
        f"efficiency   cache {_pct(status.get('cache_efficiency'))}"
        f"   container {_pct(lifetime.get('container_efficiency'))}"
        f"   lifetime hit rate {_pct(lifetime.get('hit_rate'))}"
    )
    mix = (
        f"window mix   hit {_pct(series.get('hit_rate'))}"
        f"   merge {_pct(series.get('merge_rate'))}"
        f"   insert {_pct(series.get('insert_rate'))}"
    )
    ev_rate = series.get("eviction_rate")
    if ev_rate is not None and not math.isnan(ev_rate):
        mix += f"   evict/req {ev_rate:.3f}"
    lines.append(mix)
    wr = series.get("write_bytes_per_request")
    rq = series.get("requested_bytes_per_request")
    lines.append(
        "window io    requested "
        f"{format_bytes(rq) + '/req' if rq is not None else '-'}"
        "   written "
        f"{format_bytes(wr) + '/req' if wr is not None else '-'}"
    )
    lines.append(
        f"latency      p50 {_seconds(series.get('latency_p50'))}"
        f"   p95 {_seconds(series.get('latency_p95'))}"
        f"   p99 {_seconds(series.get('latency_p99'))}"
    )
    stages = status.get("stages") or {}
    if stages:
        def _stage_p95(stage: str) -> str:
            entry = stages.get(stage) or {}
            return _seconds(entry.get("p95"))

        lines.append(
            f"stages p95   queue {_stage_p95('queue')}"
            f"   fsync {_stage_p95('fsync')}"
            f"   apply {_stage_p95('apply')}"
        )
    alerts = status.get("alerts")
    if alerts is not None:
        parts = []
        for alert in alerts:
            state = alert.get("state", "inactive")
            tag = {
                "firing": "FIRING",
                "pending": "pending",
            }.get(state, "ok")
            parts.append(f"[{tag}] {alert['name']}")
        lines.append("alerts       " + ("   ".join(parts) or "(none)"))

    telemetry = status.get("telemetry") or {}
    workers = telemetry.get("workers") or {}
    if workers:
        cells = telemetry.get("cells") or {}
        head = f"workers      {len(workers)} reporting"
        expected = cells.get("expected")
        if expected:
            head += (
                f"   cells {cells.get('folded', 0)}/{expected} folded"
            )
        if telemetry.get("complete"):
            head += "   [complete]"
        lines.append(head)
        for worker in sorted(workers):
            entry = workers[worker]
            row = f"  {worker:<12.12s}"
            for short, label in (
                ("requests", "req"), ("hits", "hit"),
                ("merges", "mrg"), ("inserts", "ins"),
                ("evictions", "evt"),
            ):
                value = entry.get(short)
                if value is not None:
                    row += f" {label} {_count(value)}"
            row += f"   cells {entry.get('cells', 0)}"
            lines.append(row)

    if history:
        charted = [
            Series(name=name, xs=list(range(len(values))), ys=values)
            for name, values in history.items()
            if len([v for v in values if not math.isnan(v)]) >= 2
        ]
        if charted:
            lines.append("")
            lines.append(
                line_plot(
                    charted,
                    width=width - 10,
                    height=8,
                    title="windowed series over time",
                    xlabel="frame",
                )
            )
    return "\n".join(lines)


class EventReplay:
    """Reconstructs dashboard state from a ``CacheEvent`` JSONL stream.

    Feeds an :class:`~repro.obs.slo.SloTracker` (and optionally an
    :class:`~repro.obs.alerts.AlertEngine`) exactly as the live hot
    path would, except latency is unknown (``None``) and unique bytes
    cannot be reconstructed; cached bytes are tracked from per-image
    sizes the way
    :func:`repro.analysis.report.timeline_from_events` does, and the
    stats the window samples through
    :func:`~repro.obs.stream.fold_event`.  A DELETE belongs to the
    decision before it, so each decision reaches the SLO window when
    the *next* one arrives (or at :meth:`flush`).
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        alerts=None,
        capacity: Optional[int] = None,
        alpha: Optional[float] = None,
    ) -> None:
        from ..core.cache import CacheStats

        self.slo = SloTracker(window=window)
        if capacity is not None:
            self.slo.configure(capacity, alpha if alpha is not None else 0.0)
        self.alerts = alerts
        self.capacity = capacity
        self.alpha = alpha
        self.stats = CacheStats()
        self._sizes: Dict[str, int] = {}
        self._pending = False  # a decision is waiting for its DELETEs

    def _fold_pending(self) -> None:
        if not self._pending:
            return
        self._pending = False
        self.slo.sample(
            self.stats, None,
            sum(self._sizes.values()), None, len(self._sizes),
        )
        if self.alerts is not None:
            self.alerts.evaluate(self.slo.values(), self.stats.requests - 1)

    def feed(self, event) -> None:
        """Fold one event into the replay state."""
        if event.kind is EventKind.DELETE:
            self._sizes.pop(event.image_id, None)
        else:
            self._fold_pending()
            self._sizes[event.image_id] = event.image_bytes
            self._pending = True
        fold_event(self.stats, event)

    def flush(self) -> None:
        """Fold the final pending decision (end of stream)."""
        self._fold_pending()

    def status(self) -> dict:
        """The current ``/statusz``-shaped dict for :func:`render_frame`."""
        import math as _math

        cached = sum(self._sizes.values())
        status: Dict[str, object] = {
            "alpha": self.alpha,
            "capacity_bytes": self.capacity,
            "cached_bytes": cached,
            "unique_bytes": None,
            "occupancy": (
                cached / self.capacity if self.capacity else None
            ),
            "cache_efficiency": None,
            "images": len(self._sizes),
            "lifetime": {
                "requests": self.stats.requests,
                "hits": self.stats.hits,
                "merges": self.stats.merges,
                "inserts": self.stats.inserts,
                "evictions": self.stats.deletes,
                "evictions_capacity": self.stats.evictions_capacity,
                "evictions_idle": self.stats.evictions_idle,
                "hit_rate": self.stats.hit_rate,
                "requested_bytes": self.stats.requested_bytes,
                "bytes_written": self.stats.bytes_written,
                "container_efficiency": self.stats.container_efficiency,
            },
            "window": {
                "size": self.slo.window,
                "series": {
                    name: value
                    for name, value in self.slo.values().items()
                    if not _math.isnan(value)
                },
            },
        }
        if self.alerts is not None:
            status["alerts"] = self.alerts.summary()
            status["alerts_firing"] = self.alerts.firing()
        return status


def frames_from_events(
    events: "Union[str, Iterable]",
    every: int = 100,
    window: int = DEFAULT_WINDOW,
    alerts=None,
    capacity: Optional[int] = None,
    alpha: Optional[float] = None,
    width: int = 76,
    history_series: Tuple[str, ...] = HISTORY_SERIES,
) -> Iterator[str]:
    """Yield rendered dashboard frames from an event stream.

    ``events`` is a JSONL path or an iterable of ``CacheEvent``; one
    frame is emitted per ``every`` requests plus a final frame at end
    of stream.  This is the engine behind
    ``repro-landlord top --from-events`` and its golden-frame test.
    """
    if isinstance(events, str):
        events = iter_event_stream(events)
    if every < 1:
        raise ValueError("every must be >= 1")
    replay = EventReplay(
        window=window, alerts=alerts, capacity=capacity, alpha=alpha
    )
    history: Dict[str, List[float]] = {name: [] for name in history_series}

    def frame() -> str:
        status = replay.status()
        values = replay.slo.values()
        for name in history_series:
            if name == "occupancy":
                value = status.get("occupancy")
            else:
                value = values.get(name)
            history[name].append(
                float("nan") if value is None else float(value)
            )
        return render_frame(status, width=width, history=history)

    decisions = 0
    for event in events:
        replay.feed(event)
        if event.kind is not EventKind.DELETE:
            decisions += 1
            if decisions % every == 0:
                yield frame()
    replay.flush()
    yield frame()
