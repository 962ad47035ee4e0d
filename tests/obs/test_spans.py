"""Tests for repro.obs.spans — distributed tracing primitives.

Covers the W3C traceparent round trip (including the spec's malformed
inputs), the bounded SpanRecorder ring with its per-stage histograms
and exemplars, trace grouping, stage quantiles, and the ASCII
waterfall renderer.  Everything runs on a FrozenClock, so span
timestamps and durations are byte-stable.
"""

import os
import re

import pytest

from repro.obs import MetricsRegistry, spans
from repro.obs.clock import FrozenClock
from repro.obs.spans import (
    SERVICE_STAGES,
    Span,
    SpanRecorder,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    render_waterfall,
)


class TestTraceContext:
    def test_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = format_traceparent(trace_id, span_id)
        assert parse_traceparent(header) == (trace_id, span_id)

    def test_ids_have_spec_shape(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)  # pure hex

    def test_ids_are_lowercase_hex_and_distinct(self):
        trace_ids = [new_trace_id() for _ in range(500)]
        span_ids = [new_span_id() for _ in range(500)]
        for ids, width in ((trace_ids, 32), (span_ids, 16)):
            assert all(re.fullmatch(f"[0-9a-f]{{{width}}}", i) for i in ids)
            assert len(set(ids)) == len(ids)
        for trace_id, span_id in zip(trace_ids, span_ids):
            header = format_traceparent(trace_id, span_id)
            assert parse_traceparent(header) == (trace_id, span_id)

    def test_an_all_zero_draw_is_drawn_again(self, monkeypatch):
        # Leading zeros are kept: the id is padded, never shortened.
        draws = iter([0, 1, 0, 2])
        monkeypatch.setattr(spans._ids, "getrandbits", lambda k: next(draws))
        assert new_trace_id() == "0" * 31 + "1"
        assert new_span_id() == "0" * 15 + "2"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_draws_other_ids_than_its_parent(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its next ids, then leave at once
            try:
                os.write(write_end, (new_trace_id() + new_span_id()).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            child = pipe.read().decode()
        os.waitpid(pid, 0)
        # Without the reseed the child's generator is a copy of the
        # parent's, and both would draw the same next ids.
        assert len(child) == 48
        assert new_trace_id() + new_span_id() != child

    def test_header_shape(self):
        header = format_traceparent("ab" * 16, "cd" * 8)
        assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
        assert format_traceparent("ab" * 16, "cd" * 8, sampled=False).endswith(
            "-00"
        )

    def test_format_rejects_bad_ids(self):
        with pytest.raises(ValueError, match="invalid trace context"):
            format_traceparent("nothex", "cd" * 8)
        with pytest.raises(ValueError, match="invalid trace context"):
            format_traceparent("0" * 32, "cd" * 8)

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-short-span-01",
        f"ff-{'ab' * 16}-{'cd' * 8}-01",        # invalid version
        f"00-{'0' * 32}-{'cd' * 8}-01",          # all-zero trace id
        f"00-{'ab' * 16}-{'0' * 16}-01",         # all-zero span id
        f"00-{'AB' * 16}-{'cd' * 8}-01-extra",   # trailing garbage
    ])
    def test_malformed_headers_start_a_new_trace(self, header):
        assert parse_traceparent(header) is None

    def test_case_and_whitespace_normalised(self):
        header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)


class TestSpanJson:
    def test_round_trip_with_optionals(self):
        span = Span(
            trace_id="t" * 32, span_id="s" * 16, name="apply",
            start=100.0, duration=0.5, parent_id="p" * 16,
            request_index=7, attrs=(("alpha", "0.8"),),
        )
        assert Span.from_jsonable(span.to_jsonable()) == span

    def test_optional_keys_omitted_when_unset(self):
        span = Span(
            trace_id="t" * 32, span_id="s" * 16, name="apply",
            start=100.0, duration=0.5,
        )
        data = span.to_jsonable()
        assert "parent_id" not in data and "request_index" not in data
        assert Span.from_jsonable(data) == span

    def test_end_is_start_plus_duration(self):
        assert Span("t", "s", "n", start=10.0, duration=2.5).end == 12.5


class TestSpanRecorder:
    def recorder(self, **kwargs):
        kwargs.setdefault("clock", FrozenClock())
        return SpanRecorder(**kwargs)

    def test_ring_is_bounded(self):
        rec = self.recorder(limit=3)
        for i in range(10):
            rec.observe(f"stage{i}", 0.0, 0.1, new_trace_id())
        assert len(rec) == 3
        assert [s.name for s in rec.spans()] == [
            "stage7", "stage8", "stage9",
        ]

    def test_limit_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            SpanRecorder(limit=0)

    def test_family_must_be_seconds(self):
        with pytest.raises(ValueError, match="_seconds"):
            SpanRecorder(family="service_stages")

    def test_observe_converts_monotonic_to_wall(self):
        clock = FrozenClock(start=1000.0)
        rec = self.recorder(clock=clock)
        span = rec.observe("apply", 1002.0, 0.5, new_trace_id())
        assert span.start == 1002.0  # frozen wall_of is identity
        assert span.end == 1002.5

    def test_active_span_context_manager_records_once(self):
        clock = FrozenClock()
        rec = self.recorder(clock=clock)
        with rec.start("queue", request_index=3):
            clock.advance(0.25)
        (span,) = rec.spans()
        assert span.name == "queue"
        assert span.duration == 0.25
        assert span.request_index == 3

    def test_traces_group_by_trace_id_in_arrival_order(self):
        rec = self.recorder()
        t1, t2 = new_trace_id(), new_trace_id()
        rec.observe("admission", 0.0, 0.1, t1)
        rec.observe("admission", 0.0, 0.1, t2)
        rec.observe("queue", 0.1, 0.2, t1, request_index=4)
        traces = rec.traces()
        assert [t["trace_id"] for t in traces] == [t1, t2]
        assert traces[0]["request_index"] == 4
        assert len(traces[0]["spans"]) == 2
        assert rec.traces(last=1)[0]["trace_id"] == t2

    def test_trace_prefix_lookup(self):
        rec = self.recorder()
        trace_id = new_trace_id()
        rec.observe("apply", 0.0, 0.1, trace_id)
        assert rec.trace(trace_id[:8])["trace_id"] == trace_id
        assert rec.trace("f" * 32) is None

    def test_stage_stats_quantiles_and_ordering(self):
        rec = self.recorder(limit=64)
        for ms in (1, 2, 3, 4, 100):
            rec.observe("apply", 0.0, ms / 1000, new_trace_id())
        rec.observe("zextra", 0.0, 0.5, new_trace_id())
        rec.observe("queue", 0.0, 0.2, new_trace_id())
        stats = rec.stage_stats()
        # SERVICE_STAGES rank first, unknown stages alphabetically after.
        assert list(stats) == ["queue", "apply", "zextra"]
        assert stats["apply"]["count"] == 5
        assert stats["apply"]["p50"] == 0.003
        assert stats["apply"]["p95"] == 0.1

    def test_histogram_and_exemplar_emission(self):
        registry = MetricsRegistry()
        clock = FrozenClock(start=1000.0)
        rec = SpanRecorder(limit=8, clock=clock, registry=registry)
        trace_id = new_trace_id()
        rec.observe("fsync", 1000.0, 0.004, trace_id)
        text = registry.to_openmetrics()
        assert 'service_stage_seconds_bucket{stage="fsync"' in text
        assert f'trace_id="{trace_id}"' in text
        assert "0.004 1000.004" in text  # exemplar value + wall-clock end

    def test_stage_seconds_out_of_deterministic_snapshot(self):
        registry = MetricsRegistry()
        rec = SpanRecorder(limit=8, clock=FrozenClock(), registry=registry)
        rec.observe("apply", 0.0, 0.1, new_trace_id())
        assert "service_stage_seconds" not in registry.deterministic_snapshot()


class TestRenderWaterfall:
    def build_trace(self):
        clock = FrozenClock(start=0.0)
        rec = SpanRecorder(limit=16, clock=clock)
        trace_id = new_trace_id()
        starts = {"admission": 0.0, "queue": 0.1, "fsync": 0.3,
                  "apply": 0.6, "ack": 0.9}
        for stage in SERVICE_STAGES:
            rec.observe(stage, starts[stage], 0.1, trace_id,
                        request_index=17)
        return rec.traces()[0]

    def test_waterfall_shape(self):
        text = render_waterfall(self.build_trace(), width=20)
        lines = text.split("\n")
        assert "request #17" in lines[0]
        assert "total 1.000s" in lines[0]
        assert len(lines) == 1 + len(SERVICE_STAGES)
        for stage, line in zip(SERVICE_STAGES, lines[1:]):
            assert line.lstrip().startswith(stage)
            assert "|" in line and "#" in line
            assert "10.0%" in line

    def test_bars_positioned_along_the_envelope(self):
        text = render_waterfall(self.build_trace(), width=10)
        lines = text.split("\n")[1:]
        admission_bar = lines[0].split("|")[1]
        ack_bar = lines[-1].split("|")[1]
        assert admission_bar.startswith("#")
        assert ack_bar.endswith("#")

    def test_zero_duration_trace_still_renders(self):
        rec = SpanRecorder(limit=4, clock=FrozenClock())
        rec.observe("apply", 0.0, 0.0, new_trace_id())
        text = render_waterfall(rec.traces()[0], width=8)
        assert "|########|" in text
        assert "100.0%" in text
