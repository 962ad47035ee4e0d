"""Tests for repro.obs.slo — streaming quantiles and the SloTracker
series the alert engine and dashboard consume."""

import math
import weakref

import numpy as np
import pytest

from repro.core.cache import CacheStats, LandlordCache
from repro.core.events import EventKind
from repro.obs import MetricsRegistry, SLO_SERIES, SloTracker
from repro.obs.slo import DEFAULT_WINDOW, quantile_from_buckets
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 10 * (i % 7 + 1) for i in range(20)}
SIZE_OF = PackageIndex.of(SIZE)


class TestQuantileFromBuckets:
    UPPERS = (1.0, 2.0, 4.0)

    def test_empty_is_nan(self):
        assert math.isnan(quantile_from_buckets(self.UPPERS, [0, 0, 0, 0], 0.5))

    def test_interpolates_within_bucket(self):
        # 10 samples, all in (1.0, 2.0]: the median sits mid-bucket.
        q = quantile_from_buckets(self.UPPERS, [0, 10, 0, 0], 0.5)
        assert 1.0 < q <= 2.0
        assert q == pytest.approx(1.5)

    def test_extremes_hit_bucket_edges(self):
        counts = [5, 5, 0, 0]
        assert quantile_from_buckets(self.UPPERS, counts, 0.0) == 0.0
        assert quantile_from_buckets(self.UPPERS, counts, 1.0) == 2.0

    def test_overflow_bucket_clamps_to_last_upper(self):
        # Samples beyond the last bound can't extrapolate past it.
        q = quantile_from_buckets(self.UPPERS, [0, 0, 0, 4], 0.99)
        assert q == 4.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            quantile_from_buckets(self.UPPERS, [1, 0, 0, 0], 1.5)


# The cumulative stats each fed tracker has been sampled at.
_FED = weakref.WeakKeyDictionary()


def feed(tracker, actions, **overrides):
    """Feed a sequence of minimal requests into a tracker, the way the
    cache does: each request advances cumulative stats by its own
    bytes and capacity evictions, then the tracker samples them."""
    defaults = dict(
        requested_bytes=100, bytes_written=0, used_bytes=100,
        evictions=0, latency_s=None, cached_bytes=500,
        unique_bytes=400, images=5,
    )
    defaults.update(overrides)
    stats = _FED.setdefault(tracker, CacheStats())
    counters = {"hit": "hits", "merge": "merges", "insert": "inserts"}
    for action in actions:
        counter = counters[action]
        setattr(stats, counter, getattr(stats, counter) + 1)
        stats.requests += 1
        stats.requested_bytes += defaults["requested_bytes"]
        stats.bytes_written += defaults["bytes_written"]
        stats.used_bytes += defaults["used_bytes"]
        stats.evictions_capacity += defaults["evictions"]
        tracker.sample(
            stats, defaults["latency_s"], defaults["cached_bytes"],
            defaults["unique_bytes"], defaults["images"],
        )


class TestSloTracker:
    def test_empty_window_is_all_nan_rates(self):
        values = SloTracker(window=10).values()
        assert set(values) == set(SLO_SERIES)
        assert values["window_requests"] == 0.0
        for name in ("hit_rate", "merge_rate", "eviction_rate",
                     "latency_p50"):
            assert math.isnan(values[name])

    def test_action_mix_over_window(self):
        t = SloTracker(window=4)
        feed(t, ["hit", "hit", "merge", "insert"])
        values = t.values()
        assert values["hit_rate"] == pytest.approx(0.5)
        assert values["merge_rate"] == pytest.approx(0.25)
        assert values["insert_rate"] == pytest.approx(0.25)
        assert values["window_requests"] == 4.0

    def test_window_expiry_forgets_old_actions(self):
        t = SloTracker(window=2)
        feed(t, ["insert", "insert", "hit", "hit"])
        assert t.values()["hit_rate"] == 1.0
        assert t.values()["insert_rate"] == 0.0
        assert t.window_requests == 2
        assert t.requests == 4  # lifetime counter keeps going

    def test_byte_rates_and_container_efficiency(self):
        t = SloTracker(window=10)
        feed(t, ["merge", "merge"], requested_bytes=50, bytes_written=200,
             used_bytes=100)
        values = t.values()
        assert values["write_bytes_per_request"] == pytest.approx(200.0)
        assert values["requested_bytes_per_request"] == pytest.approx(50.0)
        assert values["container_efficiency"] == pytest.approx(0.5)

    def test_eviction_rate_is_per_request(self):
        t = SloTracker(window=10)
        feed(t, ["insert"], evictions=3)
        feed(t, ["hit"], evictions=0)
        assert t.values()["eviction_rate"] == pytest.approx(1.5)

    def test_gauges_reflect_last_request(self):
        t = SloTracker(window=10)
        t.configure(capacity=1000, alpha=0.6)
        feed(t, ["hit"], cached_bytes=250, unique_bytes=200, images=3)
        values = t.values()
        assert values["occupancy"] == pytest.approx(0.25)
        assert values["cache_efficiency"] == pytest.approx(0.8)
        assert values["images"] == 3.0

    def test_unique_bytes_none_makes_cache_efficiency_nan(self):
        # Event-stream replays cannot reconstruct package overlap.
        t = SloTracker(window=10)
        feed(t, ["hit"], unique_bytes=None)
        assert math.isnan(t.values()["cache_efficiency"])

    def test_empty_cache_efficiency_is_one(self):
        t = SloTracker(window=10)
        feed(t, ["hit"], cached_bytes=0, unique_bytes=0)
        assert t.values()["cache_efficiency"] == 1.0

    def test_unconfigured_capacity_makes_occupancy_nan(self):
        t = SloTracker(window=10)
        feed(t, ["hit"])
        assert math.isnan(t.values()["occupancy"])

    def test_latency_none_leaves_quantiles_nan(self):
        t = SloTracker(window=10)
        feed(t, ["hit", "hit", "hit"], latency_s=None)
        values = t.values()
        assert math.isnan(values["latency_p50"])
        assert math.isnan(values["latency_p99"])
        # ... without perturbing the deterministic series
        assert values["hit_rate"] == 1.0

    def test_latency_quantiles_from_samples(self):
        t = SloTracker(window=100, buckets=(0.001, 0.01, 0.1))
        feed(t, ["hit"] * 9, latency_s=0.0005)
        feed(t, ["hit"], latency_s=0.05)
        assert t.values()["latency_p50"] <= 0.001
        assert 0.01 < t.values()["latency_p99"] <= 0.1
        assert t.latency_quantile(0.5) == t.values()["latency_p50"]

    def test_latency_window_expiry_mixes_none_and_samples(self):
        # None samples expire without corrupting the bucket counts.
        t = SloTracker(window=2, buckets=(0.001, 0.01))
        feed(t, ["hit"], latency_s=None)
        feed(t, ["hit"], latency_s=0.005)
        feed(t, ["hit"], latency_s=0.005)  # expires the None sample
        feed(t, ["hit"], latency_s=None)   # expires one real sample
        assert 0.001 < t.latency_quantile(0.5) <= 0.01

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SloTracker(window=0)

    def test_default_window(self):
        assert SloTracker().window == DEFAULT_WINDOW


class TestExportTo:
    def test_exports_gauges_and_skips_nan(self):
        t = SloTracker(window=10)
        t.configure(capacity=1000, alpha=0.5)
        feed(t, ["hit", "merge"])
        reg = MetricsRegistry()
        t.export_to(reg)
        gauge = reg.get("slo_window")
        assert gauge.value(series="hit_rate") == pytest.approx(0.5)
        assert gauge.value(series="occupancy") == pytest.approx(0.5)
        exported = {labels[0] for labels, _ in gauge.series()}
        # latency was never measured; its gauges must not exist at all
        assert "latency_p50" not in exported

    def test_repeated_export_overwrites(self):
        t = SloTracker(window=10)
        reg = MetricsRegistry()
        feed(t, ["insert"])
        t.export_to(reg)
        feed(t, ["hit", "hit", "hit"])
        t.export_to(reg)
        assert reg.get("slo_window").value(series="hit_rate") == (
            pytest.approx(0.75)
        )


class TestCacheIntegration:
    def test_enable_slo_configures_and_tracks(self):
        cache = LandlordCache(2000, 0.5, SIZE_OF)
        slo = SloTracker(window=50)
        cache.enable_slo(slo)
        assert slo.capacity == 2000
        assert slo.alpha == 0.5
        assert cache.slo is slo
        for i in range(8):
            cache.request(frozenset({f"p{i % 4}", f"p{(i + 1) % 4}"}))
        assert slo.requests == 8
        values = slo.values()
        stats = cache.stats
        assert values["hit_rate"] == pytest.approx(stats.hits / 8)
        assert values["merge_rate"] == pytest.approx(stats.merges / 8)
        assert values["insert_rate"] == pytest.approx(stats.inserts / 8)
        assert values["occupancy"] == pytest.approx(
            cache.cached_bytes / cache.capacity
        )
        assert values["cache_efficiency"] == pytest.approx(
            cache.cache_efficiency
        )
        # the live hot path measures wall-clock latency
        assert not math.isnan(values["latency_p50"])

    def test_cache_efficiency_is_read_off_the_cache_below_the_threshold(self):
        """Below the vectorized engine's small-cache threshold the cache
        keeps no running unique bytes, and the request path hands the
        window none: the window reads the cache's efficiency when it is
        read, including after calls that take no sample."""
        slo = SloTracker(window=50)
        cache = LandlordCache(2000, 0.9, SIZE_OF, slo=slo)

        def assert_read_off_the_cache():
            assert cache._refcounts is None
            assert slo.values()["cache_efficiency"] == (
                cache.unique_bytes / cache.cached_bytes
            )

        for i in range(8):
            cache.request(frozenset({f"p{i % 4}", f"p{(i + 2) % 6}"}))
            assert_read_off_the_cache()
        assert slo._unique_bytes is None
        cache.adopt(["p0", "p1", "p2"])
        assert_read_off_the_cache()
        assert slo.values()["cache_efficiency"] < 1.0

    def test_ctor_kwarg_attaches_tracker(self):
        slo = SloTracker()
        cache = LandlordCache(2000, 0.5, SIZE_OF, slo=slo)
        cache.request(frozenset({"p1"}))
        assert slo.requests == 1

    def test_window_byte_rates_match_lifetime_when_window_covers_all(self):
        cache = LandlordCache(10_000, 0.4, SIZE_OF)
        slo = SloTracker(window=1000)
        cache.enable_slo(slo)
        for i in range(12):
            cache.request(frozenset({f"p{i % 6}", f"p{(i * 3) % 6}"}))
        stats = cache.stats
        values = slo.values()
        assert values["requested_bytes_per_request"] == pytest.approx(
            stats.requested_bytes / stats.requests
        )
        assert values["write_bytes_per_request"] == pytest.approx(
            stats.bytes_written / stats.requests
        )
        assert values["container_efficiency"] == pytest.approx(
            stats.container_efficiency
        )


class TestBruteForceReference:
    """Every deterministic series, recomputed from the last ``W``
    requests' events, equals :meth:`SloTracker.values` after every
    request — the window is exactly the last ``W`` requests."""

    W = 7

    def reference(self, cache, n):
        """The deterministic series over requests ``n - W .. n - 1``."""
        events = cache.events
        first = max(0, n - self.W)
        decisions = [
            e for e in events
            if e.kind is not EventKind.DELETE and e.request_index >= first
        ]
        # A DELETE carries the index of the request it is charged to:
        # its own, or (adoptions) the next one.
        evictions = sum(
            1 for e in events
            if e.kind is EventKind.DELETE and e.reason == "capacity"
            and first <= e.request_index < n
        )
        window = len(decisions)
        kinds = [e.kind for e in decisions]
        requested = sum(e.requested_bytes for e in decisions)
        used = sum(e.image_bytes for e in decisions)
        return {
            "window_requests": float(window),
            "hit_rate": kinds.count(EventKind.HIT) / window,
            "merge_rate": kinds.count(EventKind.MERGE) / window,
            "insert_rate": kinds.count(EventKind.INSERT) / window,
            "eviction_rate": evictions / window,
            "write_bytes_per_request": (
                sum(e.bytes_written for e in decisions) / window
            ),
            "requested_bytes_per_request": requested / window,
            "container_efficiency": requested / used,
            "cache_efficiency": cache.unique_bytes / cache.cached_bytes,
            "occupancy": cache.cached_bytes / cache.capacity,
            "images": float(len(cache)),
        }

    def test_values_equal_brute_force_after_every_request(self):
        slo = SloTracker(window=self.W)
        cache = LandlordCache(
            700, 0.75, SIZE_OF, record_events=True, slo=slo
        )
        rng = np.random.default_rng(5)
        pids = sorted(SIZE)
        for i in range(60):
            spec = frozenset(
                rng.choice(pids, size=int(rng.integers(1, 5)), replace=False)
            )
            cache.request(spec)
            values = slo.values()
            want = self.reference(cache, i + 1)
            assert {k: values[k] for k in want} == want, i
            if i % 20 == 9:
                cache.evict_idle(max_idle_requests=3)
            if i % 20 == 14:
                cache.adopt(pids[:8])  # forces capacity evictions
        stats = cache.stats
        assert stats.hits and stats.merges and stats.inserts
        assert stats.evictions_capacity and stats.evictions_idle
        assert stats.adoptions


class TestExtras:
    """set_extra: host gauges riding alongside the built-in series."""

    def test_extra_appears_in_values(self):
        slo = SloTracker(window=4)
        slo.set_extra("queue_depth", 7)
        assert slo.values()["queue_depth"] == 7.0

    def test_extra_retracted_with_none(self):
        slo = SloTracker(window=4)
        slo.set_extra("queue_depth", 7)
        slo.set_extra("queue_depth", None)
        assert "queue_depth" not in slo.values()

    def test_builtin_series_cannot_be_shadowed(self):
        slo = SloTracker(window=4)
        with pytest.raises(ValueError, match="built-in"):
            slo.set_extra("hit_rate", 0.0)

    def test_extras_export_as_slo_window_gauges(self):
        registry = MetricsRegistry()
        slo = SloTracker(window=4)
        slo.set_extra("queue_depth", 3)
        slo.export_to(registry)
        text = registry.to_prometheus()
        assert 'slo_window{series="queue_depth"} 3' in text
