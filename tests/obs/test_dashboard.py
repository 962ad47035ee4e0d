"""Tests for repro.obs.dashboard — frame rendering, event replay
parity, and the `top --from-events` golden frames (the headless CI
path)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.cache import LandlordCache
from repro.obs import (
    AlertEngine,
    AlertRule,
    EventReplay,
    frames_from_events,
    render_frame,
    stats_from_events,
    write_event_stream,
)
from repro.obs.dashboard import HISTORY_SERIES

GOLDEN = Path(__file__).parent / "data" / "top_frames_golden.txt"

SIZE = {f"p{i}": 10 * (i % 7 + 1) for i in range(40)}


def run_cache(n_requests=300, capacity=2000, alpha=0.6, seed=11):
    """Deterministic event scenario (mirrors test_stream.run_cache):
    hits, merges, inserts, capacity evictions, and idle evictions."""
    rng = np.random.default_rng(seed)
    c = LandlordCache(capacity, alpha, SIZE.__getitem__, record_events=True)
    pids = sorted(SIZE)
    for i in range(n_requests):
        k = int(rng.integers(1, 6))
        c.request(frozenset(rng.choice(pids, size=k, replace=False)))
        if i % 50 == 49:
            c.evict_idle(max_idle_requests=10)
    return c


def golden_frames():
    """The exact frame sequence behind the golden file."""
    cache = run_cache()
    alerts = AlertEngine([
        AlertRule("eviction-storm", "eviction_rate", ">", 0.5, 25),
        AlertRule("merge-heavy", "merge_rate", ">", 0.3, 10),
    ])
    return list(frames_from_events(
        cache.events, every=100, window=80, alerts=alerts,
        capacity=2000, alpha=0.6,
    ))


class TestRenderFrame:
    def test_empty_status_never_fails(self):
        frame = render_frame({})
        assert "repro-landlord top" in frame
        assert "occupancy [????????????????????????] -" in frame
        assert "latency      p50 -   p95 -   p99 -" in frame

    def test_partial_status_renders_dashes(self):
        frame = render_frame({
            "alpha": 0.7,
            "lifetime": {"requests": 5, "hit_rate": 0.4},
            "window": {"size": 10, "series": {"hit_rate": 0.25}},
        })
        assert "request 5" in frame
        assert "alpha 0.7" in frame
        assert "hit 25.0%" in frame
        assert "insert -" in frame  # missing series stays a dash
        assert "lifetime hit rate 40.0%" in frame

    def test_alert_states_tagged(self):
        frame = render_frame({
            "alerts": [
                {"name": "a", "state": "firing"},
                {"name": "b", "state": "pending"},
                {"name": "c", "state": "inactive"},
            ],
        })
        assert "[FIRING] a" in frame
        assert "[pending] b" in frame
        assert "[ok] c" in frame

    def test_occupancy_bar_clamps_overflow(self):
        # A pinned image larger than capacity can push occupancy > 1.
        frame = render_frame({"occupancy": 36.06, "capacity_bytes": 100,
                              "cached_bytes": 3606})
        assert "[########################] 3606.0%" in frame

    def test_stage_latency_row_from_span_stats(self):
        frame = render_frame({
            "stages": {
                "queue": {"count": 9, "p50": 0.0001, "p95": 0.0005},
                "fsync": {"count": 9, "p50": 0.001, "p95": 0.0042},
                "apply": {"count": 9, "p50": 0.0002, "p95": 0.0008},
            },
        })
        assert (
            "stages p95   queue 500us   fsync 4.20ms   apply 800us"
            in frame
        )

    def test_stage_row_absent_without_stages_block(self):
        assert "stages p95" not in render_frame({})

    def test_stage_row_dashes_for_missing_stage(self):
        # A daemon that has only seen admission spans still renders.
        frame = render_frame({
            "stages": {"admission": {"count": 1, "p50": 0.1, "p95": 0.1}},
        })
        assert "stages p95   queue -   fsync -   apply -" in frame

    def test_history_band_needs_two_points(self):
        status = {"window": {"series": {}}}
        no_band = render_frame(status, history={"hit_rate": [0.5]})
        assert "windowed series over time" not in no_band
        band = render_frame(status, history={"hit_rate": [0.5, 0.6, 0.7]})
        assert "windowed series over time" in band
        assert "frame" in band


class TestEventReplay:
    def test_stats_parity_with_stats_from_events(self):
        cache = run_cache()
        replay = EventReplay(window=100, capacity=2000, alpha=0.6)
        for event in cache.events:
            replay.feed(event)
        replay.flush()
        assert replay.stats == stats_from_events(cache.events)
        assert replay.stats == cache.stats.copy()

    def test_window_series_match_live_tracker(self):
        # Replaying events reproduces the deterministic window series a
        # live SloTracker derived — the dashboard shows the truth.
        from repro.obs import SloTracker

        cache = LandlordCache(
            2000, 0.6, SIZE.__getitem__, record_events=True
        )
        slo = SloTracker(window=50)
        cache.enable_slo(slo)
        rng = np.random.default_rng(3)
        pids = sorted(SIZE)
        for _ in range(150):
            k = int(rng.integers(1, 6))
            cache.request(frozenset(rng.choice(pids, size=k, replace=False)))
        replay = EventReplay(window=50, capacity=2000, alpha=0.6)
        for event in cache.events:
            replay.feed(event)
        replay.flush()
        live = slo.values()
        replayed = replay.slo.values()
        for name in ("window_requests", "hit_rate", "merge_rate",
                     "insert_rate", "eviction_rate", "occupancy",
                     "write_bytes_per_request", "container_efficiency"):
            assert replayed[name] == pytest.approx(live[name]), name

    def test_deletes_fold_into_triggering_decision(self):
        # DELETE events follow their decision in the stream; the replay
        # must credit the evictions to that decision, not the next one.
        size_of = {f"p{i}": 40 for i in range(6)}.__getitem__
        cache = LandlordCache(100, 0.0, size_of, record_events=True)
        cache.request(frozenset({"p0", "p1"}))  # insert, 80 bytes
        cache.request(frozenset({"p2", "p3"}))  # insert, evicts the first
        replay = EventReplay(window=10, capacity=100)
        for event in cache.events:
            replay.feed(event)
        replay.flush()
        # 2 requests, 1 eviction -> 0.5 evictions per request
        assert replay.slo.values()["eviction_rate"] == pytest.approx(0.5)
        assert replay.stats.deletes == 1

    def test_idle_evictions_agree_with_live_window(self):
        # An idle DELETE follows the decision before it in the stream;
        # the window counts capacity evictions only, live and replayed.
        from repro.obs import SloTracker

        cache = LandlordCache(
            2000, 0.6, SIZE.__getitem__, record_events=True
        )
        slo = SloTracker(window=10)
        cache.enable_slo(slo)
        for spec in ({"p0"}, {"p10", "p11"}, {"p20", "p21", "p22"}):
            cache.request(frozenset(spec))
        assert cache.evict_idle(max_idle_requests=1)
        cache.request(frozenset({"p30"}))
        replay = EventReplay(window=10, capacity=2000, alpha=0.6)
        for event in cache.events:
            replay.feed(event)
        replay.flush()
        assert replay.slo.values()["eviction_rate"] == (
            slo.values()["eviction_rate"]
        )

    def test_alert_engine_sees_replayed_series(self):
        cache = run_cache(n_requests=120)
        alerts = AlertEngine([AlertRule("any", "window_requests", ">", 5)])
        replay = EventReplay(window=40, alerts=alerts, capacity=2000)
        for event in cache.events:
            replay.feed(event)
        replay.flush()
        assert alerts.fired_ever
        # window_requests first exceeds 5 on the sixth decision (index 5)
        assert alerts.transitions[0].request_index == 5
        assert alerts.transitions[0].value == 6.0

    def test_status_is_renderable_and_marks_unknowns(self):
        replay = EventReplay(window=10, capacity=2000, alpha=0.6)
        for event in run_cache(n_requests=40).events:
            replay.feed(event)
        replay.flush()
        status = replay.status()
        assert status["unique_bytes"] is None  # unreconstructible
        assert status["cache_efficiency"] is None
        frame = render_frame(status)
        assert "unique -" in frame
        assert "cache -" in frame


class TestFramesFromEvents:
    def test_frame_cadence(self):
        cache = run_cache(n_requests=250)
        frames = list(frames_from_events(cache.events, every=100))
        # one per 100 decisions (250 -> 2) plus the final frame
        assert len(frames) == 3
        assert "request 100" in frames[0]
        assert "request 200" in frames[1]
        assert "request 250" in frames[2]

    def test_accepts_stream_path(self, tmp_path):
        cache = run_cache(n_requests=120)
        path = write_event_stream(cache.events, tmp_path / "events.jsonl")
        from_path = list(frames_from_events(str(path), every=50))
        from_memory = list(frames_from_events(cache.events, every=50))
        assert from_path == from_memory

    def test_bad_every_rejected(self):
        with pytest.raises(ValueError):
            list(frames_from_events([], every=0))

    def test_empty_stream_yields_one_empty_frame(self):
        frames = list(frames_from_events([]))
        assert len(frames) == 1
        assert "request 0" in frames[0]

    def test_frames_match_golden_file(self):
        # Replay frames contain no wall-clock series, so the full
        # rendered sequence is bit-reproducible.
        text = "\n\n".join(golden_frames()) + "\n"
        assert text == GOLDEN.read_text()

    def test_golden_covers_the_interesting_furniture(self):
        text = GOLDEN.read_text()
        for marker in (
            "occupancy [", "window mix", "alerts",
            "[FIRING] eviction-storm",     # the storm rule trips
            "[ok] merge-heavy",            # ... while this one stays quiet
            "windowed series over time",   # the sparkline band
            "latency      p50 -",          # replay has no wall clock
        ):
            assert marker in text, f"golden file lost: {marker!r}"


class TestTopCli:
    def test_headless_replay_prints_frames(self, tmp_path, capsys):
        from repro.cli import main

        cache = run_cache(n_requests=250)
        path = write_event_stream(cache.events, tmp_path / "events.jsonl")
        rc = main([
            "top", "--from-events", str(path), "--every", "100",
            "--window", "80", "--capacity", "2000", "--alpha", "0.6",
            "--headless",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("repro-landlord top — request") == 3
        assert "\x1b[" not in out  # headless: no ANSI redraw codes

    def test_missing_stream_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "top", "--from-events", str(tmp_path / "absent.jsonl"),
            "--headless",
        ])
        assert rc == 2
        assert "no event stream" in capsys.readouterr().err

    def test_bad_rules_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        events = tmp_path / "events.jsonl"
        write_event_stream(run_cache(n_requests=10).events, events)
        bad = tmp_path / "rules.json"
        bad.write_text("{not json")
        rc = main([
            "top", "--from-events", str(events),
            "--alert-rules", str(bad), "--headless",
        ])
        assert rc == 2
        assert "bad alert rules" in capsys.readouterr().err

class TestTelemetryRows:
    def test_fleet_block_renders_worker_rows(self):
        frame = render_frame({
            "telemetry": {
                "complete": True,
                "cells": {"folded": 4, "expected": 4},
                "workers": {
                    "pid-2001": {
                        "cells": 3, "requests": 40.0, "hits": 9,
                        "merges": 2, "inserts": 29, "evictions": 11,
                    },
                    "pid-2000": {
                        "cells": 1, "requests": 40.0, "hits": 12,
                    },
                },
            },
        })
        assert "workers      2 reporting   cells 4/4 folded   [complete]" in (
            frame
        )
        # sorted by worker name; integral floats render without ".0"
        rows = [l for l in frame.splitlines() if l.startswith("  pid-")]
        assert rows[0].startswith("  pid-2000")
        assert "req 40 hit 12" in rows[0]
        assert rows[0].endswith("cells 1")
        assert "req 40 hit 9 mrg 2 ins 29 evt 11" in rows[1]
        assert rows[1].endswith("cells 3")

    def test_no_telemetry_block_no_worker_rows(self):
        assert "workers" not in render_frame({})
