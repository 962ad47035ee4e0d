"""Rendering sweep results as paper-style tables, ASCII figures, and JSON."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.analysis.sweep import SweepResult
from repro.core.events import CacheEvent, EventKind
from repro.util.asciiplot import Series, line_plot
from repro.util.tables import render_table
from repro.util.units import format_bytes

__all__ = [
    "sweep_table",
    "sweep_plot",
    "timeline_plot",
    "timeline_from_events",
    "alert_timeline",
    "alert_timeline_lines",
    "save_results_json",
    "percent",
]

_BYTE_METRICS = {
    "cached_bytes",
    "unique_bytes",
    "bytes_written",
    "requested_bytes",
}
_PERCENT_METRICS = {"cache_efficiency", "container_efficiency", "hit_rate"}


def percent(value: float) -> str:
    """Format a [0, 1] ratio as a percentage string."""
    return f"{100.0 * value:.1f}%"


def _format_metric(name: str, value: float) -> str:
    if name in _BYTE_METRICS:
        return format_bytes(value)
    if name in _PERCENT_METRICS:
        return percent(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3g}"


def sweep_table(sweep: SweepResult, metrics: Sequence[str]) -> str:
    """One row per α, one column per requested metric."""
    header = ["alpha"] + list(metrics)
    rows = []
    for i, alpha in enumerate(sweep.alphas):
        row = [f"{alpha:.2f}"]
        for name in metrics:
            row.append(_format_metric(name, float(sweep.metric(name)[i])))
        rows.append(row)
    return render_table(rows, header=header)


def sweep_plot(
    sweeps: "Union[SweepResult, Sequence[SweepResult]]",
    metric: str,
    title: Optional[str] = None,
    scale: float = 1.0,
    ylabel: Optional[str] = None,
) -> str:
    """ASCII plot of one metric vs α for one or several sweeps."""
    if isinstance(sweeps, SweepResult):
        sweeps = [sweeps]
    series = [
        Series(
            name=s.label or metric,
            xs=s.alphas,
            ys=np.asarray(s.metric(metric)) * scale,
        )
        for s in sweeps
    ]
    return line_plot(
        series,
        title=title or f"{metric} vs alpha",
        xlabel="alpha",
        ylabel=ylabel or metric,
    )


def timeline_plot(
    timeline: Dict[str, np.ndarray],
    fields: Sequence[str],
    title: str,
    scale: float = 1.0,
) -> str:
    """ASCII plot of cumulative per-request series (Figure 5 style)."""
    n = len(next(iter(timeline.values()))) if timeline else 0
    xs = np.arange(1, n + 1)
    series = [
        Series(name=name, xs=xs, ys=np.asarray(timeline[name]) * scale)
        for name in fields
        if name in timeline
    ]
    return line_plot(series, title=title, xlabel="requests")


def timeline_from_events(
    events: "Union[Iterable[CacheEvent], str, Path]",
) -> Dict[str, np.ndarray]:
    """Reconstruct a Figure-5 style timeline from a ``CacheEvent`` log.

    Accepts an in-memory event sequence (``cache.events``) or the path of
    a JSONL stream written by :func:`repro.obs.write_event_stream`, so
    :func:`timeline_plot` can consume either the simulator's recorded
    timeline or a persisted event log interchangeably.  One sample is
    emitted per *decision* event (hit/merge/insert — one per request),
    after folding in any eviction events the request triggered:
    cumulative ``hits``/``inserts``/``merges``/``deletes`` (plus the
    per-reason ``deletes_capacity``/``deletes_idle`` breakdown),
    ``cached_bytes`` tracked from per-image sizes, ``bytes_written``, and
    ``requested_bytes``.  ``unique_bytes`` cannot be reconstructed — the
    log does not record package overlap between images — so that series
    is absent here (plots simply skip it).
    """
    from repro.core.cache import CacheStats
    from repro.obs.stream import fold_event, read_event_stream

    if isinstance(events, (str, Path)):
        events = read_event_stream(events)
    stats = CacheStats()
    sizes: Dict[str, int] = {}

    def counts() -> Dict[str, int]:
        return {
            "hits": stats.hits,
            "inserts": stats.inserts,
            "merges": stats.merges,
            "deletes": stats.deletes,
            "deletes_capacity": stats.evictions_capacity,
            "deletes_idle": stats.evictions_idle,
            "cached_bytes": sum(sizes.values()),
            "bytes_written": stats.bytes_written,
            "requested_bytes": stats.requested_bytes,
        }

    series: Dict[str, list] = {name: [] for name in counts()}
    pending_decision = False

    def sample() -> None:
        for name, value in counts().items():
            series[name].append(value)

    for event in events:
        if event.kind is EventKind.DELETE:
            sizes.pop(event.image_id, None)
        else:
            # A decision closes the previous request's sample window (its
            # evictions follow it, before the next decision).
            if pending_decision:
                sample()
            pending_decision = True
            sizes[event.image_id] = event.image_bytes
        fold_event(stats, event)
    if pending_decision:
        sample()
    return {
        name: np.asarray(values, dtype=np.int64)
        for name, values in series.items()
    }


def alert_timeline(
    timeline: Dict[str, np.ndarray],
    rules=None,
    window: Optional[int] = None,
    capacity: Optional[int] = None,
):
    """Evaluate alert rules over a recorded simulation timeline.

    Replays a simulator timeline (the cumulative per-request series
    ``SimulationResult.timeline`` records) through an
    :class:`~repro.obs.slo.SloTracker` and
    :class:`~repro.obs.alerts.AlertEngine`, returning the transitions
    the run *would have* raised had alerts been live — the Figure 5
    narrative uses this to place the paper's eviction onset on the alert
    time axis.  Unlike event-stream replays, the timeline carries
    ``unique_bytes``, so ``cache_efficiency`` rules evaluate exactly;
    ``container_efficiency`` and ``latency_*`` are not reconstructible
    and read ``nan`` (never breaching); ``images`` reads 0.  Defaults:
    :data:`repro.obs.alerts.DEFAULT_RULES` and
    :data:`repro.obs.slo.DEFAULT_WINDOW`.
    """
    from repro.core.cache import CacheStats
    from repro.obs.alerts import AlertEngine, DEFAULT_RULES
    from repro.obs.slo import DEFAULT_WINDOW, SloTracker

    engine = AlertEngine(DEFAULT_RULES if rules is None else rules)
    slo = SloTracker(window=DEFAULT_WINDOW if window is None else window)
    if capacity is not None:
        slo.configure(capacity, float("nan"))
    n = len(next(iter(timeline.values()))) if timeline else 0
    # timeline series -> the CacheStats field the window reads (the
    # simulator never idles images out, so every delete is a capacity
    # eviction); used bytes are not recorded and stay 0.
    fields = {"hits": "hits", "merges": "merges", "inserts": "inserts",
              "deletes": "evictions_capacity",
              "bytes_written": "bytes_written",
              "requested_bytes": "requested_bytes"}
    unique = timeline.get("unique_bytes")
    cached = timeline.get("cached_bytes")
    for i in range(n):
        stats = CacheStats(**{
            field: int(timeline[name][i])
            for name, field in fields.items()
            if name in timeline
        })
        slo.sample(
            stats, None,
            int(cached[i]) if cached is not None else 0,
            int(unique[i]) if unique is not None else None,
            0,
        )
        engine.evaluate(slo.values(), i)
    return engine.transitions


def alert_timeline_lines(transitions, rules=None) -> "list[str]":
    """Render an alert-transition list as report narrative lines."""
    from repro.obs.alerts import DEFAULT_RULES

    rules = DEFAULT_RULES if rules is None else rules
    lines = ["alert timeline (rules: "
             + ", ".join(f"{r.name}: {r.expr} for {r.for_requests}"
                         for r in rules) + ")"]
    if not transitions:
        lines.append("  quiet — no rule ever left its inactive state")
        return lines
    for t in transitions:
        value = "" if np.isnan(t.value) else f"  (value {t.value:.3g})"
        lines.append(
            f"  request {t.request_index:>6}  {t.rule:<24} "
            f"-> {t.state}{value}"
        )
    return lines


def save_results_json(
    path: "Union[str, Path]",
    payload: dict,
) -> Path:
    """Persist an experiment's structured results (numpy-safe)."""

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, SweepResult):
            return obj.to_jsonable()
        if isinstance(obj, frozenset):
            return sorted(obj)
        raise TypeError(f"not JSON-serialisable: {type(obj)!r}")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=default))
    return path
