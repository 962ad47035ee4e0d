"""Tests for repro.obs.trace — the tracer over the event stream,
explain, non-perturbation."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.cache import LandlordCache
from repro.core.events import CacheEvent, EventKind, MergeCandidate
from repro.obs import (
    DecisionTracer,
    MetricsRegistry,
    by_request,
    event_from_jsonable,
    event_to_jsonable,
    explain,
    read_event_stream,
    write_event_stream,
)
from repro.packages.conflicts import SlotConflicts

GOLDEN = Path(__file__).parent / "data" / "explain_golden.txt"

SIZE = {"a": 10, "b": 20, "c": 30, "d": 40}


def traced_scenario():
    """The deterministic scenario behind the golden file: inserts, a
    merge with a capacity eviction, a hit, an idle eviction, and (in a
    second cache) a conflict rejection."""
    c = LandlordCache(100, 0.5, SIZE.__getitem__)
    tracer = DecisionTracer()
    c.enable_tracing(tracer)
    c.request(frozenset({"a", "b"}))
    c.request(frozenset({"c", "d"}))
    c.request(frozenset({"a", "b", "c"}))
    c.request(frozenset({"a", "b"}))
    c.request(frozenset({"d"}))
    c.evict_idle(max_idle_requests=0)

    k = LandlordCache(10_000, 0.9, lambda p: 10,
                      conflict_policy=SlotConflicts())
    kt = DecisionTracer()
    k.enable_tracing(kt)
    k.request(frozenset({"root/6.20", "gcc/8.0"}))
    k.request(frozenset({"root/6.18", "gcc/8.0"}))
    return tracer, kt


def read_records(path):
    """A sidecar as ``{request_index: record}``, later records winning
    (what ``explain`` does)."""
    return {
        record[0].request_index: record
        for record in by_request(read_event_stream(path))
    }


class TestExplainGolden:
    def test_explain_matches_golden_file(self):
        tracer, kt = traced_scenario()
        text = explain(tracer.recent()) + "\n\n" + kt.explain(1) + "\n"
        assert text == GOLDEN.read_text()

    def test_golden_covers_every_branch(self):
        text = GOLDEN.read_text()
        for marker in (
            "HIT image", "MERGE into image", "INSERT image",
            "chosen (closest non-conflicting)",
            "rejected: package version conflict",
            "to fit under the byte capacity", "idle too long",
            "chosen Jaccard distance",
        ):
            assert marker in text, f"golden file lost branch: {marker!r}"


class TestTracerBookkeeping:
    def test_trace_and_explain_missing(self):
        tracer = DecisionTracer()
        assert tracer.record(0) is None
        assert "no trace recorded" in tracer.explain(3)
        assert "(empty)" in tracer.explain(3)

    def test_explain_missing_names_held_span(self):
        tracer, _ = traced_scenario()
        message = tracer.explain(99)
        assert "holding 0..4" in message

    def test_limit_keeps_most_recent(self):
        tracer = DecisionTracer(limit=2)
        c = LandlordCache(10_000, 0.0, SIZE.__getitem__, tracer=tracer)
        for pid in ("a", "b", "c"):
            c.request(frozenset({pid}))
        assert len(tracer) == 2
        assert tracer.record(0) is None
        assert [e.request_index for e in tracer.recent()] == [1, 2]

    def test_limit_bounds_the_undrained_events_too(self):
        tracer = DecisionTracer(limit=2)
        c = LandlordCache(10_000, 0.0, SIZE.__getitem__, tracer=tracer)
        for pid in ("a", "b", "c", "d"):
            c.request(frozenset({pid}))
        assert [e.request_index for e in tracer.drain()] == [2, 3]

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            DecisionTracer(limit=0)

    def test_drain_hands_out_new_traces_once(self):
        tracer = DecisionTracer()
        c = LandlordCache(10_000, 0.0, SIZE.__getitem__, tracer=tracer)
        c.request(frozenset({"a"}))
        first = tracer.drain()
        assert [e.request_index for e in first] == [0]
        assert tracer.drain() == []
        c.request(frozenset({"b"}))
        assert [e.request_index for e in tracer.drain()] == [1]
        # drained records are still held for explain()
        assert tracer.record(0) is not None

    def test_idle_eviction_attaches_to_latest_request(self):
        tracer, _ = traced_scenario()
        victims = tracer.record(4)[1:]
        assert [e.reason for e in victims] == ["idle"]
        assert victims[0].image_id == "img-000000"

    def test_idle_eviction_without_trace_is_ignored(self):
        tracer = DecisionTracer()
        # nothing recorded yet: the DELETE has no decision to follow
        tracer.on_event(
            CacheEvent(EventKind.DELETE, 7, "img-000000", 10, reason="idle")
        )
        assert len(tracer) == 0
        assert tracer.drain() == []


class TestSerialisation:
    def full_event(self):
        return CacheEvent(
            EventKind.MERGE, 3, "img-000002", 60, bytes_written=60,
            requested_bytes=30, distance=0.25, candidates_examined=4,
            conflicts_skipped=1, n_packages=2, alpha=0.5,
            images_scanned=4, bytes_added=10,
            candidates=(
                MergeCandidate("img-000001", 0.2, 40, "conflict"),
                MergeCandidate("img-000002", 0.25, 50, "merged"),
            ),
            trace_id="ab" * 16,
        )

    def test_round_trip(self):
        event = self.full_event()
        assert event_from_jsonable(event_to_jsonable(event)) == event

    def test_write_read_traces(self, tmp_path):
        tracer, _ = traced_scenario()
        path = tmp_path / "sidecar.jsonl"
        write_event_stream(tracer.drain(), path)
        loaded = read_records(path)
        assert sorted(loaded) == [0, 1, 2, 3, 4]
        assert loaded[2] == tracer.record(2)
        for index in loaded:
            assert explain(loaded[index]) == tracer.explain(index)

    def test_append_and_later_lines_win(self, tmp_path, capsys):
        path = tmp_path / "sidecar.jsonl"
        write_event_stream([self.full_event()], path)
        newer = CacheEvent(
            EventKind.INSERT, 3, "img-000009", 10, bytes_written=10,
            requested_bytes=10, n_packages=1, alpha=0.5, bytes_added=10,
        )
        write_event_stream([newer], path, append=True)
        assert read_records(path) == {3: [newer]}
        assert main(["explain", "3", "--trace-file", str(path)]) == 0
        assert "INSERT image img-000009" in capsys.readouterr().out


class TestOneRecord:
    """Victims outside a request (adoption, idle sweep) land on the last
    completed request by the stream rule alone, live and on disk."""

    def test_adopt_and_idle_victims_follow_last_request(self, tmp_path):
        tracer = DecisionTracer()
        c = LandlordCache(60, 0.0, SIZE.__getitem__, tracer=tracer)
        c.request(frozenset({"a"}))
        c.request(frozenset({"b"}))
        c.adopt(frozenset({"d"}))  # 70 > 60: evicts img-000000 (LRU)
        c.request(frozenset({"d"}))  # hits the adopted image
        c.evict_idle(max_idle_requests=0)  # sweeps img-000001
        assert c.stats.evictions_capacity == 1
        assert c.stats.evictions_idle == 1
        assert [(v.image_id, v.reason) for v in tracer.record(1)[1:]] == [
            ("img-000000", "capacity"),
        ]
        assert [(v.image_id, v.reason) for v in tracer.record(2)[1:]] == [
            ("img-000001", "idle"),
        ]
        assert "EVICTED image img-000000" in tracer.explain(1)
        assert "EVICTED image img-000001" in tracer.explain(2)

        path = tmp_path / "sidecar.jsonl"
        write_event_stream(tracer.drain(), path)
        on_disk = read_records(path)
        for index in (0, 1, 2):
            assert explain(on_disk[index]) == tracer.explain(index)

    def test_events_log_and_tracer_see_one_stream(self):
        tracer = DecisionTracer()
        c = LandlordCache(
            100, 0.5, SIZE.__getitem__, record_events=True, tracer=tracer,
        )
        for spec in ({"a", "b"}, {"c", "d"}, {"a", "b", "c"}, {"d"}):
            c.request(frozenset(spec))
        assert tracer.drain() == c.events
        merge = next(e for e in c.events if e.kind is EventKind.MERGE)
        assert merge.alpha == 0.5
        assert [cand.outcome for cand in merge.candidates] == ["merged"]


def decision_key(decision):
    return (
        decision.action.value,
        decision.image.id,
        decision.image.size,
        decision.requested_bytes,
        decision.distance,
        decision.bytes_added,
        tuple(decision.evicted),
    )


@st.composite
def request_streams(draw):
    n_packages = draw(st.integers(min_value=4, max_value=12))
    n_requests = draw(st.integers(min_value=1, max_value=25))
    return [
        frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_packages - 1),
                    min_size=1, max_size=n_packages,
                ).map(lambda ids: {f"p{i}" for i in ids})
            )
        )
        for _ in range(n_requests)
    ]


class TestNonPerturbation:
    """Tracing and metrics must never change what the cache decides."""

    @given(
        stream=request_streams(),
        alpha=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
        capacity=st.sampled_from([40, 100, 10_000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_traced_run_is_bit_identical_to_bare_run(
        self, stream, alpha, capacity
    ):
        size_of = {f"p{i}": 10 * (i + 1) for i in range(12)}.__getitem__

        bare = LandlordCache(capacity, alpha, size_of)
        instrumented = LandlordCache(
            capacity, alpha, size_of,
            metrics=MetricsRegistry(), tracer=DecisionTracer(),
        )
        bare_decisions = [decision_key(bare.request(s)) for s in stream]
        obs_decisions = [
            decision_key(instrumented.request(s)) for s in stream
        ]
        assert bare_decisions == obs_decisions
        assert bare.stats == instrumented.stats
        assert bare.evict_idle(max_idle_requests=1) == (
            instrumented.evict_idle(max_idle_requests=1)
        )
