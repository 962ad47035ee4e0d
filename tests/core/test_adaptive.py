"""Tests for the adaptive-α controller and the AIMD window governor."""

import pytest

from repro.core.adaptive import (
    AimdController,
    AlphaController,
    service_governor,
)
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


class TestAimdValidation:
    def test_parameters(self):
        with pytest.raises(ValueError):
            AimdController(min_size=0)
        with pytest.raises(ValueError):
            AimdController(min_size=100, max_size=50)
        with pytest.raises(ValueError):
            AimdController(increase=0)
        with pytest.raises(ValueError):
            AimdController(decrease=1.0)
        with pytest.raises(ValueError):
            AimdController(decrease=0.0)
        with pytest.raises(ValueError):
            AimdController(low_watermark=0.5, high_watermark=0.5)
        with pytest.raises(ValueError):
            AimdController(low_watermark=-0.1)
        with pytest.raises(ValueError):
            AimdController(high_watermark=1.5)

    def test_initial_clamped_into_bounds(self):
        assert AimdController(initial=1, min_size=32).size == 32
        assert AimdController(initial=10**6, max_size=4096).size == 4096


class TestAimdStepFunction:
    def test_additive_increase(self):
        gov = AimdController(initial=256, increase=64, max_size=4096)
        assert gov.observe(0.0) == 320
        assert gov.observe(0.05) == 384  # low watermark itself grows
        assert gov.increases == 2

    def test_increase_caps_at_max(self):
        gov = AimdController(initial=4090, increase=64, max_size=4096)
        assert gov.observe(0.0) == 4096
        assert gov.observe(0.0) == 4096

    def test_multiplicative_decrease(self):
        gov = AimdController(initial=256, decrease=0.5, min_size=32)
        assert gov.observe(1.0) == 128
        assert gov.observe(0.25) == 64  # high watermark itself shrinks
        assert gov.decreases == 2

    def test_decrease_floors_at_min(self):
        gov = AimdController(initial=40, decrease=0.5, min_size=32)
        assert gov.observe(1.0) == 32
        assert gov.observe(1.0) == 32

    def test_hold_inside_band(self):
        gov = AimdController(initial=256)
        assert gov.observe(gov.hold_signal) == 256
        assert gov.holds == 1
        assert gov.low_watermark < gov.hold_signal < gov.high_watermark

    def test_nan_and_out_of_range_signals_are_tamed(self):
        gov = AimdController(initial=256, increase=64)
        assert gov.observe(float("nan")) == 320   # NaN reads as 0 -> grow
        assert gov.observe(-5.0) == 384           # clamped to 0 -> grow
        assert gov.observe(7.0) == 192            # clamped to 1 -> shrink
        assert gov.last_signal == 1.0

    def test_deterministic_replay(self):
        signals = [0.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.5, 0.0]
        runs = []
        for _ in range(2):
            gov = AimdController()
            runs.append([gov.observe(s) for s in signals])
        assert runs[0] == runs[1]

    def test_events_and_status(self):
        gov = AimdController(initial=256)
        gov.observe(0.0)
        gov.observe(1.0)
        gov.observe(gov.hold_signal)
        assert [e.action for e in gov.events] == [
            "increase", "decrease", "hold"
        ]
        assert gov.events[1].old_size == 320
        assert gov.events[1].new_size == 160
        status = gov.status()
        assert status["steps"] == 3
        assert status["increases"] == status["decreases"] == status["holds"] == 1
        assert status["size"] == gov.size

    def test_events_optional(self):
        gov = AimdController(record_events=False)
        gov.observe(0.0)
        assert gov.events is None
        assert gov.steps == 1


class TestGovernorFactories:
    def test_service_governor_shape(self):
        gov = service_governor(initial=64)
        assert (gov.size, gov.min_size, gov.max_size) == (64, 16, 8192)
        assert gov.high_watermark == 0.95
