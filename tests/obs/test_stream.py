"""Tests for repro.obs.stream — JSONL event streams and stats parity."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.cache import CacheStats, LandlordCache
from repro.core.events import CacheEvent, EventKind
from repro.obs import (
    event_from_jsonable,
    event_to_jsonable,
    iter_event_stream,
    read_event_stream,
    stats_from_events,
    write_event_stream,
)
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 10 * (i % 7 + 1) for i in range(40)}
SIZE_OF = PackageIndex.of(SIZE)


def run_cache(n_requests=300, capacity=2000, alpha=0.6, seed=11):
    """A randomized request stream that exercises every event shape:
    hits, merges, inserts, capacity evictions, and idle evictions."""
    rng = np.random.default_rng(seed)
    c = LandlordCache(capacity, alpha, SIZE_OF, record_events=True)
    pids = sorted(SIZE)
    for i in range(n_requests):
        k = int(rng.integers(1, 6))
        c.request(frozenset(rng.choice(pids, size=k, replace=False)))
        if i % 50 == 49:
            c.evict_idle(max_idle_requests=10)
    return c


class TestEventSerialisation:
    def test_round_trip_full_event(self):
        event = CacheEvent(
            EventKind.MERGE, 7, "img-000002", 400, bytes_written=400,
            requested_bytes=120, distance=0.25, candidates_examined=3,
            conflicts_skipped=1,
        )
        assert event_from_jsonable(event_to_jsonable(event)) == event

    def test_round_trip_delete_with_reason(self):
        event = CacheEvent(
            EventKind.DELETE, 9, "img-000001", 50, reason="capacity",
        )
        data = event_to_jsonable(event)
        assert data["reason"] == "capacity"
        assert event_from_jsonable(data) == event

    def test_none_fields_omitted(self):
        data = event_to_jsonable(CacheEvent(EventKind.HIT, 0, "img-0", 10))
        assert "reason" not in data and "distance" not in data

    def test_tolerates_old_streams(self):
        # Streams written before reason/distance/delta fields existed.
        event = event_from_jsonable(
            {"kind": "delete", "request_index": 3, "image_id": "img-0",
             "image_bytes": 50}
        )
        assert event.reason is None
        assert event.candidates_examined == 0
        assert event.bytes_written == 0

    def test_write_read_stream(self, tmp_path):
        c = run_cache(n_requests=60)
        path = write_event_stream(c.events, tmp_path / "events.jsonl")
        assert read_event_stream(path) == list(c.events)
        assert list(iter_event_stream(path)) == list(c.events)
        # every line is valid standalone JSON
        for line in path.read_text().splitlines():
            json.loads(line)


class TestStatsParity:
    def test_replaying_events_reproduces_stats_exactly(self):
        c = run_cache()
        stats = c.stats.copy()
        assert stats.evictions_capacity > 0, "scenario must evict"
        assert stats.evictions_idle > 0, "scenario must idle-evict"
        assert stats.hits > 0 and stats.merges > 0 and stats.inserts > 0
        assert stats_from_events(c.events) == stats

    def test_parity_survives_stream_round_trip(self, tmp_path):
        c = run_cache(n_requests=120)
        path = write_event_stream(c.events, tmp_path / "events.jsonl")
        assert stats_from_events(read_event_stream(path)) == c.stats.copy()

    def test_eviction_breakdown_sums_to_deletes(self):
        stats = run_cache().stats
        assert stats.evictions_capacity + stats.evictions_idle == (
            stats.deletes
        )


class TestCacheStatsCopy:
    def test_copy_covers_every_field(self):
        # copy() is built from __dict__, so a new field can only be
        # missed if it never reaches __init__ — this guards the
        # snapshot round-trip for fields added later.
        stats = CacheStats()
        for i, f in enumerate(dataclasses.fields(CacheStats)):
            setattr(stats, f.name, i + 1)
        clone = stats.copy()
        assert clone == stats
        assert clone is not stats
        clone.requests += 1
        assert clone != stats

    def test_new_eviction_fields_default_zero(self):
        stats = CacheStats()
        assert stats.evictions_capacity == 0
        assert stats.evictions_idle == 0


class TestTornTail:
    """A writer that crashes mid-line leaves a torn final line; replay
    heals it (drops it) like the journal does, but a malformed line
    anywhere else is real corruption and must raise."""

    def torn_stream(self, tmp_path, n_requests=60):
        c = run_cache(n_requests=n_requests)
        path = write_event_stream(c.events, tmp_path / "events.jsonl")
        whole = path.read_text()
        lines = whole.splitlines(keepends=True)
        torn = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)
        return path, list(c.events)

    def test_torn_final_line_heals_by_default(self, tmp_path):
        path, events = self.torn_stream(tmp_path)
        assert read_event_stream(path) == events[:-1]
        assert list(iter_event_stream(path)) == events[:-1]

    def test_healed_stream_still_replays_to_stats(self, tmp_path):
        path, events = self.torn_stream(tmp_path)
        healed = stats_from_events(read_event_stream(path))
        assert healed == stats_from_events(events[:-1])

    def test_heal_false_raises_on_torn_tail(self, tmp_path):
        path, _ = self.torn_stream(tmp_path)
        with pytest.raises(ValueError, match="corrupt event stream"):
            read_event_stream(path, heal_torn_tail=False)

    def test_non_final_malformed_line_always_raises(self, tmp_path):
        c = run_cache(n_requests=40)
        path = write_event_stream(c.events, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        lines[10] = lines[10][: len(lines[10]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-final"):
            read_event_stream(path)

    def test_torn_tail_then_blank_lines_still_heals(self, tmp_path):
        # Trailing whitespace after the torn fragment is not "a later
        # line" — the fragment is still the last real content.
        path, events = self.torn_stream(tmp_path)
        with path.open("a") as fh:
            fh.write("\n\n")
        assert read_event_stream(path) == events[:-1]

    def test_valid_json_wrong_shape_is_also_healed(self, tmp_path):
        # A tail line that parses as JSON but lacks required fields
        # (KeyError path) gets the same torn-tail treatment.
        c = run_cache(n_requests=30)
        path = write_event_stream(c.events, tmp_path / "events.jsonl")
        with path.open("a") as fh:
            fh.write('{"kind": "hit"}\n')
        assert read_event_stream(path) == list(c.events)
        with pytest.raises(ValueError):
            read_event_stream(path, heal_torn_tail=False)


class TestTimelineFromEvents:
    def test_matches_simulator_timeline(self):
        from repro.analysis.report import timeline_from_events
        from repro.htc.simulator import (
            SimulationConfig, make_workload, simulate_stream,
        )
        from repro.htc.workload import build_stream
        from repro.packages.sft import build_experiment_repository
        from repro.util.rng import spawn
        from repro.util.units import GB

        config = SimulationConfig(
            capacity=20 * GB, n_unique=25, repeats=3, max_selection=6,
            n_packages=300, repo_total_size=10 * GB, seed=4,
        )
        repository = build_experiment_repository(
            config.repo_kind, seed=config.seed,
            n_packages=config.n_packages,
            target_total_size=config.repo_total_size,
        )
        stream = build_stream(
            make_workload(config, repository),
            spawn(config.seed, "workload", config.scheme, config.n_unique),
            n_unique=config.n_unique, repeats=config.repeats,
        )
        cache = LandlordCache(
            config.capacity, config.alpha, repository.size_of,
            record_events=True, rng=spawn(config.seed, "cache-rng"),
        )
        result = simulate_stream(cache, stream, config=config)
        rebuilt = timeline_from_events(cache.events)
        for name in ("hits", "inserts", "merges", "deletes",
                     "cached_bytes", "bytes_written", "requested_bytes"):
            np.testing.assert_array_equal(
                rebuilt[name], result.timeline[name], err_msg=name
            )
        breakdown = rebuilt["deletes_capacity"] + rebuilt["deletes_idle"]
        np.testing.assert_array_equal(breakdown, rebuilt["deletes"])

    def test_accepts_stream_path(self, tmp_path):
        from repro.analysis.report import timeline_from_events

        c = run_cache(n_requests=80)
        path = write_event_stream(c.events, tmp_path / "events.jsonl")
        from_path = timeline_from_events(path)
        from_memory = timeline_from_events(c.events)
        for name, series in from_memory.items():
            np.testing.assert_array_equal(from_path[name], series)

    def test_empty_log(self):
        from repro.analysis.report import timeline_from_events

        timeline = timeline_from_events([])
        assert all(len(v) == 0 for v in timeline.values())
