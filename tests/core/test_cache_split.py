"""Tests for LandlordCache.split — the de-bloat operation."""

import pytest

from repro.core.cache import LandlordCache
from repro.core.events import EventKind
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 10 for i in range(20)}
SIZE_OF = PackageIndex.of(SIZE)


def cache(**kw):
    return LandlordCache(10_000, 0.9, SIZE_OF, **kw)


def spec(*ids):
    return frozenset(ids)


class TestSplit:
    def _bloated_cache(self):
        c = cache()
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))
        c.request(spec("p0", "p3"))
        assert len(c) == 1  # merged into one bloated image
        return c, c.images[0]

    def test_split_into_two(self):
        c, image = self._bloated_cache()
        parts = c.split(image.id, [spec("p0", "p1"), spec("p0", "p2", "p3")])
        assert len(c) == 2
        assert {frozenset(p.packages) for p in parts} == {
            spec("p0", "p1"), spec("p0", "p2", "p3"),
        }
        assert c.stats.splits == 1

    def test_split_charges_writes(self):
        c, image = self._bloated_cache()
        before = c.stats.bytes_written
        c.split(image.id, [spec("p0", "p1"), spec("p2", "p3")])
        assert c.stats.bytes_written == before + 20 + 20

    def test_uncovered_packages_dropped(self):
        c, image = self._bloated_cache()
        c.split(image.id, [spec("p1")])
        assert c.unique_bytes == 10
        assert c.cached_bytes == 10

    def test_gauges_consistent_after_split(self):
        c, image = self._bloated_cache()
        c.split(image.id, [spec("p0", "p1"), spec("p0", "p2")])
        assert c.cached_bytes == sum(img.size for img in c.images)
        union = set().union(*[img.packages for img in c.images])
        assert c.unique_bytes == 10 * len(union)

    def test_split_parts_serve_future_requests(self):
        c, image = self._bloated_cache()
        c.split(image.id, [spec("p0", "p1"), spec("p0", "p2", "p3")])
        assert c.request(spec("p0", "p1")).action is EventKind.HIT

    def test_unknown_image_rejected(self):
        c = cache()
        with pytest.raises(KeyError):
            c.split("ghost", [spec("p0")])

    def test_empty_parts_rejected(self):
        c, image = self._bloated_cache()
        with pytest.raises(ValueError):
            c.split(image.id, [])
        with pytest.raises(ValueError):
            c.split(image.id, [frozenset()])

    def test_non_subset_part_rejected(self):
        c, image = self._bloated_cache()
        with pytest.raises(ValueError, match="not a subset"):
            c.split(image.id, [spec("p9")])
        # failed split leaves the cache untouched
        assert len(c) == 1 and c.images[0].id == image.id
