"""Property-based invariants of the LANDLORD cache under random streams.

Whatever the request stream, α, and capacity:

1. the returned image always satisfies the request (superset);
2. gauges are consistent: cached_bytes equals the sum of image sizes, and
   unique_bytes equals the size of the union of cached package sets;
3. after each request the cache holds at most capacity bytes, except for
   the transient overflow of the single image just served;
4. operation counters partition the request count;
5. write accounting: bytes_written is the sum of insert sizes and merge
   rewrites (never less than the bytes of images currently cached... for
   streams with no eviction).
"""

from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache
from repro.core.events import EventKind
from repro.packages.repository import PackageIndex

PACKAGES = [f"p{i}" for i in range(30)]
SIZE = {p: (i % 7 + 1) * 5 for i, p in enumerate(PACKAGES)}
SIZE_OF = PackageIndex.of(SIZE)

specs = st.frozensets(st.sampled_from(PACKAGES), min_size=1, max_size=10)
streams = st.lists(specs, min_size=1, max_size=40)
alphas = st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
capacities = st.sampled_from([0, 50, 200, 1000, 10**9])


def build_cache(alpha, capacity, **kw):
    return LandlordCache(capacity, alpha, SIZE_OF, **kw)


@settings(max_examples=80, deadline=None)
@given(streams, alphas, capacities)
def test_returned_image_always_satisfies_request(stream, alpha, capacity):
    cache = build_cache(alpha, capacity)
    for request in stream:
        decision = cache.request(request)
        assert request <= decision.image.packages


@settings(max_examples=80, deadline=None)
@given(streams, alphas, capacities)
def test_byte_gauges_consistent(stream, alpha, capacity):
    cache = build_cache(alpha, capacity)
    for request in stream:
        cache.request(request)
        images = cache.images
        assert cache.cached_bytes == sum(img.size for img in images)
        union = set().union(*[img.packages for img in images]) if images else set()
        assert cache.unique_bytes == sum(SIZE[p] for p in union)
        for img in images:
            assert img.size == sum(SIZE[p] for p in img.packages)


@settings(max_examples=80, deadline=None)
@given(streams, alphas, capacities)
def test_capacity_respected_up_to_pinned_image(stream, alpha, capacity):
    cache = build_cache(alpha, capacity)
    for request in stream:
        decision = cache.request(request)
        overflow = max(0, cache.cached_bytes - capacity)
        # Any overflow must be attributable to the just-served image alone.
        assert overflow <= decision.image.size
        if overflow:
            assert len(cache) == 1


@settings(max_examples=80, deadline=None)
@given(streams, alphas, capacities)
def test_operation_counters_partition_requests(stream, alpha, capacity):
    cache = build_cache(alpha, capacity)
    for request in stream:
        cache.request(request)
    stats = cache.stats
    assert stats.requests == len(stream)
    assert stats.hits + stats.merges + stats.inserts == stats.requests
    assert stats.bytes_written <= stats.used_bytes
    assert stats.requested_bytes <= stats.used_bytes


@settings(max_examples=80, deadline=None)
@given(streams, alphas)
def test_event_log_matches_counters(stream, alpha):
    cache = build_cache(alpha, 500, record_events=True)
    for request in stream:
        cache.request(request)
    by_kind = {kind: 0 for kind in EventKind}
    for event in cache.events:
        by_kind[event.kind] += 1
    assert by_kind[EventKind.HIT] == cache.stats.hits
    assert by_kind[EventKind.MERGE] == cache.stats.merges
    assert by_kind[EventKind.INSERT] == cache.stats.inserts
    assert by_kind[EventKind.DELETE] == cache.stats.deletes


@settings(max_examples=60, deadline=None)
@given(streams)
def test_alpha_zero_images_are_exactly_requests(stream):
    """Without merging, every cached image equals some requested spec."""
    cache = build_cache(0.0, 10**9)
    seen = set()
    for request in stream:
        cache.request(request)
        seen.add(request)
    for img in cache.images:
        assert img.packages in seen
