"""Tests for the adaptive-α controller."""

import pytest

from repro.core.adaptive import AlphaController
from repro.core.cache import LandlordCache
from repro.htc.workload import DependencyWorkload
from repro.util.rng import spawn
from repro.util.units import GB


def make_cache(alpha=0.8, capacity=30 * GB, repo=None):
    return LandlordCache(capacity, alpha, repo.size_of)


class TestValidation:
    def test_parameters(self, small_sft):
        cache = make_cache(repo=small_sft)
        with pytest.raises(ValueError):
            AlphaController(cache, interval=0)
        with pytest.raises(ValueError):
            AlphaController(cache, step=0)
        with pytest.raises(ValueError):
            AlphaController(cache, alpha_min=0.9, alpha_max=0.5)

    def test_initial_alpha_clamped(self, small_sft):
        cache = make_cache(alpha=1.0, repo=small_sft)
        controller = AlphaController(cache, alpha_max=0.9)
        assert controller.alpha == 0.9


class TestAdaptation:
    def _drive(self, controller, repo, n, seed=0):
        workload = DependencyWorkload(repo, max_selection=8)
        rng = spawn(seed, "adaptive")
        for _ in range(n):
            controller.request(workload.sample(rng))

    def test_raises_alpha_when_cache_thrashes(self, small_sft):
        # Start at the LRU corner: duplication keeps cache efficiency low,
        # so the controller should walk alpha upward.
        cache = make_cache(alpha=0.4, repo=small_sft)
        controller = AlphaController(cache, interval=20, alpha_min=0.4)
        self._drive(controller, small_sft, 200)
        assert controller.alpha > 0.4
        assert any(
            "cache efficiency under floor" in e.reason
            for e in controller.events
        )

    def test_lowers_alpha_when_merging_explodes(self, small_sft):
        # A huge cache at lax alpha merges constantly; windowed write
        # amplification climbs over the ceiling and alpha must retreat.
        cache = LandlordCache(10**15, 0.95, small_sft.size_of)
        controller = AlphaController(
            cache, interval=20, write_amplification_ceiling=1.2,
            cache_efficiency_floor=0.0,  # disable the raise direction
        )
        self._drive(controller, small_sft, 200)
        assert controller.alpha < 0.95

    def test_holds_within_zone(self, small_sft):
        cache = make_cache(alpha=0.8, repo=small_sft)
        controller = AlphaController(
            cache, interval=20,
            cache_efficiency_floor=0.0,
            write_amplification_ceiling=100.0,
        )
        self._drive(controller, small_sft, 100)
        assert controller.alpha == 0.8
        assert all(e.reason == "within operational zone"
                   for e in controller.events)

    def test_alpha_stays_clamped(self, small_sft):
        cache = make_cache(alpha=0.9, repo=small_sft)
        controller = AlphaController(
            cache, interval=10, alpha_max=0.92, step=0.1,
            cache_efficiency_floor=1.0,  # always demands raising
            write_amplification_ceiling=100.0,
            container_efficiency_floor=0.0,
        )
        self._drive(controller, small_sft, 100)
        assert controller.alpha == 0.92

    def test_decisions_scheduled_by_interval(self, small_sft):
        cache = make_cache(repo=small_sft)
        controller = AlphaController(cache, interval=25)
        self._drive(controller, small_sft, 100)
        assert len(controller.events) == 4

    def test_trace_matches_events(self, small_sft):
        cache = make_cache(repo=small_sft)
        controller = AlphaController(cache, interval=25)
        self._drive(controller, small_sft, 75)
        trace = controller.alpha_trace()
        assert len(trace) == 3
        assert trace[-1][1] == controller.alpha

    def test_requests_still_served_correctly(self, small_sft):
        cache = make_cache(repo=small_sft)
        controller = AlphaController(cache, interval=5)
        workload = DependencyWorkload(small_sft, max_selection=6)
        rng = spawn(1, "serve")
        for _ in range(30):
            spec = workload.sample(rng)
            decision = controller.request(spec)
            assert spec <= decision.image.packages

