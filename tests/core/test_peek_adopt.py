"""Tests for the federation primitives LandlordCache.peek / adopt."""

import threading

import pytest

from repro.core.cache import LandlordCache
from repro.core.events import EventKind
from repro.packages.repository import DrawnSpec, PackageIndex

SIZE = {f"p{i}": 10 for i in range(30)}
SIZE_OF = PackageIndex.of(SIZE)


def cache(capacity=1000, alpha=0.8, **kw):
    return LandlordCache(capacity, alpha, SIZE_OF, **kw)


class TestPeek:
    def test_peek_reports_would_be_hit(self):
        c = cache()
        c.request(frozenset({"p0", "p1"}))
        assert c.peek(frozenset({"p0"})) is not None
        assert c.peek(frozenset({"p5"})) is None

    def test_peek_mutates_nothing(self):
        c = cache()
        c.request(frozenset({"p0", "p1"}))
        stats_before = c.stats.copy()
        lru_before = c.images[0].last_used
        c.peek(frozenset({"p0"}))
        assert c.stats == stats_before
        assert c.images[0].last_used == lru_before

    def test_peek_empty_cache(self):
        assert cache().peek(frozenset({"p0"})) is None

    class _RecordingRLock(type(threading.RLock())):
        """A re-entrant lock that records how deeply it is held."""

        depth = 0
        acquisitions = 0

        def __enter__(self):
            held = super().__enter__()
            self.acquisitions += 1
            self.depth += 1
            return held

        def __exit__(self, *exc):
            self.depth -= 1
            return super().__exit__(*exc)

    def test_peek_interns_and_scans_under_the_lock(self):
        """Interning may fill a drawn spec's slot and the hit scan reads
        engine state: a window committing under the daemon's lock must
        not run beside either."""
        c = cache()
        c.request(frozenset({"p0", "p1"}))
        lock = self._RecordingRLock()
        c.enable_lock(lock)
        seen = []

        def spy(name, inner):
            def call(*args):
                seen.append((name, lock.depth))
                return inner(*args)
            return call

        c._intern = spy("intern", c._intern)
        c._engine.find_hit = spy("find_hit", c._engine.find_hit)
        drawn = DrawnSpec({"p0", "p9"}, c._universe.index)
        assert c.peek(drawn) is None
        assert c.peek(frozenset({"p1"})).id == c.images[0].id
        assert lock.acquisitions == 2 and lock.depth == 0
        assert seen == [("intern", 1), ("find_hit", 1)] * 2
        assert drawn.interned is not None


class TestAdopt:
    def test_adopt_adds_image_without_build_writes(self):
        c = cache()
        image = c.adopt(frozenset({"p0", "p1"}))
        assert image.size == 20
        assert c.stats.bytes_written == 0
        assert c.stats.adoptions == 1
        assert c.cached_bytes == 20

    def test_adopted_image_serves_hits(self):
        c = cache()
        c.adopt(frozenset({"p0", "p1", "p2"}))
        decision = c.request(frozenset({"p1"}))
        assert decision.action is EventKind.HIT

    def test_adopted_image_can_be_merged_into(self):
        c = cache(alpha=0.9)
        c.adopt(frozenset({"p0", "p1"}))
        decision = c.request(frozenset({"p0", "p2"}))
        assert decision.action is EventKind.MERGE

    def test_adopt_respects_capacity(self):
        c = cache(capacity=30, alpha=0.0)
        c.request(frozenset({"p0", "p1"}))
        c.adopt(frozenset({"p2", "p3"}))  # 40 > 30: evicts the LRU image
        assert c.cached_bytes <= 30
        assert c.stats.deletes == 1

    def test_adopt_empty_rejected(self):
        with pytest.raises(ValueError):
            cache().adopt(frozenset())

    def test_adopt_participates_in_lru(self):
        c = cache(capacity=40, alpha=0.0)
        adopted = c.adopt(frozenset({"p0", "p1"}))
        c.request(frozenset({"p2", "p3"}))
        c.request(frozenset({"p4", "p5"}))  # evicts the adopted image (LRU)
        assert all(img.id != adopted.id for img in c.images)

    def test_snapshot_roundtrip_keeps_adoptions_counter(self):
        c = cache()
        c.adopt(frozenset({"p0"}))
        restored = cache()
        restored.restore(c.snapshot())
        assert restored.stats.adoptions == 1


class TestAdoptTracerEvictions:
    def test_adoption_evictions_reach_the_tracer(self):
        # regression: capacity evictions an adoption forced used to be
        # silently untraceable; the DELETEs now follow the last
        # completed request's decision in the event stream.
        from repro.obs.trace import DecisionTracer

        tracer = DecisionTracer()
        c = cache(capacity=30, alpha=0.0, tracer=tracer)
        c.request(frozenset({"p0", "p1"}))
        c.adopt(frozenset({"p2", "p3"}))  # 40 > 30: evicts the LRU image
        assert c.stats.deletes == 1
        record = tracer.record(0)  # the last completed request
        assert record is not None
        assert [ev.reason for ev in record[1:]] == ["capacity"]
        assert record[1].image_bytes == 20

    def test_tracer_never_perturbs_adoption(self):
        from repro.obs.trace import DecisionTracer

        plain = cache(capacity=30, alpha=0.0)
        traced = cache(capacity=30, alpha=0.0, tracer=DecisionTracer())
        for c in (plain, traced):
            c.request(frozenset({"p0", "p1"}))
            c.adopt(frozenset({"p2", "p3"}))
        assert plain.snapshot() == traced.snapshot()
