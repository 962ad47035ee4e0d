"""Property-based invariants of the adaptive-α controller."""

from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AlphaController
from repro.core.cache import LandlordCache
from repro.packages.repository import PackageIndex

PACKAGES = [f"p{i}" for i in range(25)]
SIZE = {p: (i % 5 + 1) * 10 for i, p in enumerate(PACKAGES)}
SIZE_OF = PackageIndex.of(SIZE)

streams = st.lists(
    st.frozensets(st.sampled_from(PACKAGES), min_size=1, max_size=8),
    min_size=5,
    max_size=60,
)
bounds = st.tuples(
    st.floats(0.0, 0.5), st.floats(0.6, 1.0)
)


@settings(max_examples=60, deadline=None)
@given(streams, bounds, st.integers(1, 10))
def test_alpha_always_within_clamp(stream, alpha_bounds, interval):
    lo, hi = alpha_bounds
    cache = LandlordCache(500, 0.8, SIZE_OF)
    controller = AlphaController(
        cache, interval=interval, alpha_min=lo, alpha_max=hi
    )
    for spec in stream:
        controller.request(spec)
        assert lo <= controller.alpha <= hi


@settings(max_examples=60, deadline=None)
@given(streams, st.integers(1, 10))
def test_served_images_always_satisfy_requests(stream, interval):
    cache = LandlordCache(500, 0.7, SIZE_OF)
    controller = AlphaController(cache, interval=interval)
    for spec in stream:
        decision = controller.request(spec)
        assert spec <= decision.image.packages


@settings(max_examples=60, deadline=None)
@given(streams, st.integers(1, 10))
def test_adaptation_count_matches_schedule(stream, interval):
    cache = LandlordCache(500, 0.7, SIZE_OF)
    controller = AlphaController(cache, interval=interval)
    for spec in stream:
        controller.request(spec)
    assert len(controller.events) == len(stream) // interval


@settings(max_examples=60, deadline=None)
@given(streams)
def test_alpha_moves_by_at_most_step_per_decision(stream):
    cache = LandlordCache(500, 0.7, SIZE_OF)
    controller = AlphaController(cache, interval=3, step=0.05)
    for spec in stream:
        controller.request(spec)
    for event in controller.events:
        assert abs(event.new_alpha - event.old_alpha) <= 0.05 + 1e-12
