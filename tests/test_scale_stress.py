"""Stress tests: long churn at small capacity keeps every gauge honest.

The α sweeps run ~650k requests at paper scale; this compressed version
(5,000 requests through a deliberately tight cache) exercises the same
eviction-heavy regime and cross-checks the incremental byte gauges against
recomputation from scratch at checkpoints.  Marked slow.
"""

import numpy as np
import pytest

from repro.core.cache import LandlordCache
from repro.core.events import EventKind
from repro.htc.workload import DependencyWorkload
from repro.util.rng import spawn
from repro.util.units import GB
from tests.core.test_cache import interning_retains
from tests.core.test_interning import assert_image_consistent

pytestmark = pytest.mark.slow


class TestChurnStress:
    @pytest.fixture(scope="class")
    def churned(self, small_sft):
        """5,000 requests through a cache holding ~8 images, and how many
        references to its spec each request's interning left behind."""
        cache = LandlordCache(8 * GB, 0.75, small_sft.size_of)
        workload = DependencyWorkload(small_sft, max_selection=8)
        rng = spawn(13, "stress")
        checkpoints = []
        with pytest.MonkeyPatch.context() as patch:
            kept = interning_retains(patch)
            for i in range(5_000):
                decision = cache.request(workload.sample(rng))
                if decision.action is EventKind.MERGE:
                    assert_image_consistent(cache, decision.image)
                if i % 500 == 0:
                    images = cache.images
                    recomputed_total = sum(img.size for img in images)
                    union = (
                        set().union(*[img.packages for img in images])
                        if images else set()
                    )
                    recomputed_unique = small_sft.bytes_of(union)
                    checkpoints.append(
                        (cache.cached_bytes, recomputed_total,
                         cache.unique_bytes, recomputed_unique)
                    )
        return cache, checkpoints, kept

    def test_incremental_gauges_match_recomputation(self, churned):
        _cache, checkpoints, _kept = churned
        for cached, recomputed_total, unique, recomputed_unique in checkpoints:
            assert cached == recomputed_total
            assert unique == recomputed_unique

    def test_heavy_eviction_occurred(self, churned):
        cache, _, _ = churned
        assert cache.stats.deletes > 1_000  # the regime we meant to hit

    def test_counters_partition_all_requests(self, churned):
        cache, _, _ = churned
        stats = cache.stats
        assert stats.requests == 5_000
        assert stats.hits + stats.merges + stats.inserts == 5_000

    def test_spec_memo_stays_bounded(self, churned):
        """What the cache keeps per spec is bounded: nothing.  A drawn
        spec carries its own interned form; the cache keeps no reference
        to the spec."""
        _cache, _, kept = churned
        assert len(kept) == 5_000 and not any(kept)

    def test_image_sizes_consistent_with_contents(self, churned):
        """After the churn, and again after a split (merged images were
        checked as the stream ran, in the fixture)."""
        cache, _, _ = churned
        assert cache.stats.merges > 1_000
        for image in cache.images:
            assert_image_consistent(cache, image)
        largest = max(cache.images, key=lambda image: image.package_count)
        packages = sorted(largest.packages)
        cut = len(packages) // 2
        for part in cache.split(largest.id, [packages[:cut], packages[cut:]]):
            assert_image_consistent(cache, part)
        assert cache.cached_bytes == sum(image.size for image in cache.images)
