"""Tests for LandlordCache.evict_idle (stale-image maintenance)."""

import pytest

from repro.core.cache import LandlordCache
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 10 for i in range(20)}
SIZE_OF = PackageIndex.of(SIZE)


def cache():
    return LandlordCache(10**9, 0.0, SIZE_OF, record_events=True)


class TestEvictIdle:
    def test_idle_images_swept(self):
        c = cache()
        c.request(frozenset({"p0"}))          # clock 1
        for i in range(1, 6):
            c.request(frozenset({f"p{i}"}))   # clocks 2..6
        evicted = c.evict_idle(max_idle_requests=3)
        assert len(evicted) >= 1
        # the most recent images survive
        assert c.peek(frozenset({"p5"})) is not None
        assert c.peek(frozenset({"p0"})) is None

    def test_recently_used_images_survive(self):
        c = cache()
        c.request(frozenset({"p0"}))
        c.request(frozenset({"p1"}))
        c.request(frozenset({"p0"}))  # touch p0's image
        evicted = c.evict_idle(max_idle_requests=1)
        assert c.peek(frozenset({"p0"})) is not None
        assert all("p0" not in SIZE or True for _ in evicted)

    def test_counts_as_deletes_and_emits_events(self):
        c = cache()
        c.request(frozenset({"p0"}))
        for i in range(1, 5):
            c.request(frozenset({f"p{i}"}))
        before = c.stats.deletes
        evicted = c.evict_idle(0)
        assert c.stats.deletes == before + len(evicted)
        assert sum(1 for e in c.events if e.kind.value == "delete") >= len(evicted)

    def test_zero_horizon_keeps_only_latest(self):
        c = cache()
        for i in range(4):
            c.request(frozenset({f"p{i}"}))
        c.evict_idle(0)
        assert len(c) == 1

    def test_huge_horizon_is_noop(self):
        c = cache()
        for i in range(4):
            c.request(frozenset({f"p{i}"}))
        assert c.evict_idle(10**6) == []
        assert len(c) == 4

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            cache().evict_idle(-1)

    def test_gauges_consistent_after_sweep(self):
        c = cache()
        for i in range(6):
            c.request(frozenset({f"p{i}", "p9"}))
        c.evict_idle(2)
        assert c.cached_bytes == sum(img.size for img in c.images)
        union = set().union(*[i.packages for i in c.images]) if c.images else set()
        assert c.unique_bytes == sum(SIZE[p] for p in union)


class TestIndexConvention:
    def test_event_and_tracer_agree_on_request_index(self):
        # regression: the DELETE event used stats.requests while the
        # tracer callback used stats.requests - 1, so the event pointed
        # one past the request the trace hung the eviction on.
        from repro.obs.trace import DecisionTracer

        tracer = DecisionTracer()
        c = cache()
        c.enable_tracing(tracer)
        for i in range(4):
            c.request(frozenset({f"p{i}"}))
        evicted = c.evict_idle(0)
        assert len(evicted) == 3
        last_index = c.stats.requests - 1
        delete_events = [e for e in c.events if e.kind.value == "delete"]
        assert {e.request_index for e in delete_events} == {last_index}
        record = tracer.record(last_index)
        assert record is not None
        assert sorted(ev.image_id for ev in record[1:]) == sorted(evicted)
        assert all(ev.reason == "idle" for ev in record[1:])


class TestIdleUnitIsRequests:
    def test_adoptions_do_not_age_requested_images(self):
        # regression: the horizon used to be computed against the internal
        # activity clock, which adopt() advances — a burst of federation
        # pulls made a just-requested image look idle and swept it.
        c = cache()
        c.request(frozenset({"p0"}))
        for i in range(1, 8):
            c.adopt(frozenset({f"p{i}"}))
        assert c.evict_idle(max_idle_requests=3) == []
        assert c.peek(frozenset({"p0"})) is not None

    def test_adopted_images_not_instantly_idle(self):
        c = cache()
        for i in range(5):
            c.request(frozenset({f"p{i}"}))
        adopted = c.adopt(frozenset({"p9"}))
        evicted = c.evict_idle(max_idle_requests=2)
        assert adopted.id not in evicted

    def test_interleaved_adopts_and_requests(self):
        c = cache()
        c.request(frozenset({"p0"}))            # request 1
        c.adopt(frozenset({"p10"}))
        c.request(frozenset({"p1"}))            # request 2
        c.adopt(frozenset({"p11"}))
        c.request(frozenset({"p2"}))            # request 3
        # horizon = 3 - 2 = 1: nothing is older than request 1
        assert c.evict_idle(max_idle_requests=2) == []
        evicted = c.evict_idle(max_idle_requests=1)
        # horizon 2 sweeps what was last active at request-time 1: p0's
        # image and the adoption that arrived between requests 1 and 2;
        # the later adoption (request-time 2) survives alongside p1, p2
        assert c.peek(frozenset({"p0"})) is None
        assert c.peek(frozenset({"p10"})) is None
        assert c.peek(frozenset({"p1"})) is not None
        assert c.peek(frozenset({"p11"})) is not None
        assert len(evicted) == 2
