"""Tests for repro.core.events."""

import pytest

import repro.core.cache as cache_module
from repro.core.cache import LandlordCache
from repro.core.events import CacheEvent, EventKind
from repro.packages.repository import PackageIndex


class TestEventKind:
    def test_values_are_algorithm_ops(self):
        assert {k.value for k in EventKind} == {
            "hit", "merge", "insert", "delete",
        }


class TestCacheEvent:
    def test_frozen(self):
        event = CacheEvent(EventKind.HIT, 0, "img-0", 100)
        with pytest.raises(Exception):
            event.kind = EventKind.MERGE

    def test_defaults(self):
        event = CacheEvent(EventKind.DELETE, 3, "img-1", 50)
        assert event.bytes_written == 0
        assert event.requested_bytes is None
        assert event.reason is None
        assert event.distance is None
        assert event.candidates_examined == 0
        assert event.conflicts_skipped == 0

    def test_full_record(self):
        event = CacheEvent(
            EventKind.MERGE, 7, "img-2", 400, bytes_written=400,
            requested_bytes=120, distance=0.25, candidates_examined=3,
            conflicts_skipped=1,
        )
        assert event.request_index == 7
        assert event.image_bytes == 400
        assert event.bytes_written == 400
        assert event.requested_bytes == 120
        assert event.distance == 0.25
        assert event.candidates_examined == 3
        assert event.conflicts_skipped == 1

    def test_delete_carries_reason(self):
        capacity = CacheEvent(EventKind.DELETE, 3, "img-1", 50,
                              reason="capacity")
        idle = CacheEvent(EventKind.DELETE, 3, "img-1", 50, reason="idle")
        assert capacity.reason == "capacity"
        assert idle.reason == "idle"


class TestNoSinkNoEvent:
    def test_no_event_built_without_a_sink(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return CacheEvent(*args, **kwargs)

        monkeypatch.setattr(cache_module, "CacheEvent", counting)
        size = PackageIndex.of({"a": 10, "b": 20, "c": 30, "d": 40})
        c = LandlordCache(60, 0.5, size)  # no record_events, no tracer
        c.request(frozenset({"a", "b"}))           # insert
        c.request(frozenset({"a", "b"}))           # hit
        c.request(frozenset({"a", "b", "c"}))      # merge: 60 bytes
        c.request(frozenset({"d"}))                # insert, evicts
        c.adopt(frozenset({"c"}))                  # capacity eviction
        c.request(frozenset({"a"}))                # insert
        c.evict_idle(0)                            # idle eviction
        assert c.stats.hits == c.stats.merges == 1
        assert c.stats.evictions_capacity == 2
        assert c.stats.evictions_idle == 1
        assert built == []

        c.record_events = True
        c.request(frozenset({"a"}))
        assert len(built) == 1  # the patch sees constructions
