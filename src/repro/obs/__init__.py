"""Observability layer: metrics, decision traces, request spans, streams.

``repro.obs`` is the measurement substrate for the LANDLORD
reproduction.  It is zero-dependency and strictly opt-in: nothing in
this package is global, every instrumentation site in the core is
guarded by one ``is not None`` check (the disabled path is benchmarked
at <2% overhead in ``benchmarks/test_obs_overhead.py``), and attaching
a tracer never perturbs cache decisions.

Modules:

- :mod:`repro.obs.metrics` — ``MetricsRegistry`` with Counter / Gauge /
  fixed-bucket Histogram families, Prometheus-text and JSON export, and
  deterministic cross-process snapshot merging.
- :mod:`repro.obs.clock` — the hybrid span clock: monotonic durations
  anchored to a wall-clock epoch, injectable/frozen for tests.
- :mod:`repro.obs.spans` — distributed request tracing: W3C
  ``traceparent`` context propagation, a bounded span ring buffer
  feeding ``service_stage_seconds{stage=...}`` histograms, and the
  ASCII waterfall renderer behind ``repro-landlord trace``.
- :mod:`repro.obs.trace` — the ``DecisionTracer`` (a bounded index over
  the ``CacheEvent`` stream) and the ``explain`` renderer behind
  ``repro-landlord explain`` and ``/traces``.
- :mod:`repro.obs.stream` — JSONL serialisation of the ``CacheEvent``
  log (also the ``--trace`` sidecar format) and the event → stats fold
  (torn final lines from a crash mid-write heal like the journal's).
- :mod:`repro.obs.slo` — rolling-window derived telemetry (windowed
  hit rate, byte rates, efficiency, latency quantiles) updated on the
  hot path behind the same guards.
- :mod:`repro.obs.alerts` — declarative threshold+for-duration alert
  rules over the windowed series, with firing/resolved life-cycles
  exported as metrics, JSONL, and an exit code.
- :mod:`repro.obs.server` — embedded threaded HTTP endpoint serving
  ``/metrics``, ``/healthz``, ``/statusz``, and ``/traces/<n>``.
- :mod:`repro.obs.dashboard` — the ``repro-landlord top`` renderer
  (attach to a live server or replay an event stream).
- :mod:`repro.obs.promcheck` — the strict Prometheus / OpenMetrics
  text-format validators shared by tests and the CI scrape smoke steps.
- :mod:`repro.obs.telemetry` — the cluster-wide telemetry plane: a
  sweep's per-cell registry snapshots, fed from the pool's result
  channel, served as per-worker labelled series plus a deterministic
  aggregate in one scrape.

Import discipline (cycle avoidance): modules here import at most
``repro.core.events`` and ``repro.util`` at module scope, so
``repro.core.cache`` may import ``repro.obs`` freely.
"""

from .clock import (
    FrozenClock,
    HybridClock,
    default_clock,
    set_default_clock,
)
from .spans import (
    SERVICE_STAGES,
    ActiveSpan,
    Span,
    SpanRecorder,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    render_waterfall,
)
from .alerts import (
    AlertEngine,
    AlertRule,
    AlertTransition,
    DEFAULT_RULES,
    load_rules,
    parse_rule,
    read_transitions,
    write_transitions,
)
from .dashboard import EventReplay, frames_from_events, render_frame
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_TIME_BUCKETS,
    DISTANCE_BUCKETS,
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    load_registry,
    save_registry,
)
from .stream import (
    event_from_jsonable,
    event_to_jsonable,
    iter_event_stream,
    fold_event,
    read_event_stream,
    stats_from_events,
    write_event_stream,
)
from .promcheck import validate_openmetrics_text, validate_prometheus_text
from .server import ObsServer, build_status
from .telemetry import TelemetryAggregator
from .slo import DEFAULT_WINDOW, SLO_SERIES, SloTracker
from .trace import DecisionTracer, by_request, explain

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DISTANCE_BUCKETS",
    "load_registry",
    "save_registry",
    "FrozenClock",
    "HybridClock",
    "default_clock",
    "set_default_clock",
    "SERVICE_STAGES",
    "ActiveSpan",
    "Span",
    "SpanRecorder",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "render_waterfall",
    "DecisionTracer",
    "by_request",
    "explain",
    "event_to_jsonable",
    "event_from_jsonable",
    "write_event_stream",
    "read_event_stream",
    "iter_event_stream",
    "fold_event",
    "stats_from_events",
    "AlertEngine",
    "AlertRule",
    "AlertTransition",
    "DEFAULT_RULES",
    "load_rules",
    "parse_rule",
    "read_transitions",
    "write_transitions",
    "EventReplay",
    "frames_from_events",
    "render_frame",
    "ObsServer",
    "build_status",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "TelemetryAggregator",
    "validate_openmetrics_text",
    "validate_prometheus_text",
    "DEFAULT_WINDOW",
    "SLO_SERIES",
    "SloTracker",
]
