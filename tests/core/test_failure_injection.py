"""Failure injection: the cache must stay consistent when collaborators
misbehave (unknown names, negative sizes, hostile specs)."""

import pytest

from repro.core.cache import LandlordCache
from repro.core.spec import ImageSpec
from repro.packages.repository import PackageIndex


SIZES = PackageIndex.of({f"p{i}": 10 for i in range(3)})


class TestOracleFailures:
    """The size oracle is the cache's package index: a name it lacks is
    its ``KeyError``, raised before anything changes."""

    def test_failure_surfaces_to_caller(self):
        cache = LandlordCache(1000, 0.8, SIZES)
        with pytest.raises(KeyError, match="unknown package: 'pX'"):
            cache.request(frozenset({"p0", "pX"}))

    def test_cache_unchanged_after_failed_request(self):
        cache = LandlordCache(1000, 0.8, SIZES)
        cache.request(frozenset({"p0", "p1"}))
        snapshot = (len(cache), cache.cached_bytes, cache.unique_bytes)
        with pytest.raises(KeyError):
            cache.request(frozenset({"p2", "pX"}))
        assert (len(cache), cache.cached_bytes, cache.unique_bytes) == snapshot
        # And the cache still serves good requests afterwards.
        assert cache.request(frozenset({"p0"})).action.value == "hit"

    def test_negative_size_oracle_rejected(self):
        with pytest.raises(ValueError, match="negative size for package 'p1'"):
            PackageIndex.of({"p0": 3, "p1": -5})

    def test_a_size_callable_is_a_type_error(self):
        with pytest.raises(TypeError, match="PackageIndex"):
            LandlordCache(1000, 0.8, lambda pid: 10)
        with pytest.raises(TypeError, match="PackageIndex"):
            LandlordCache(1000, 0.8, {"p0": 10}.__getitem__)

    def test_the_index_is_never_called_per_package(self, monkeypatch):
        def no_call(_self, pid):
            raise AssertionError(f"the index was called for {pid!r}")

        monkeypatch.setattr(PackageIndex, "__call__", no_call)
        cache = LandlordCache(1000, 0.8, SIZES)
        cache.request(frozenset({"p0", "p1"}))
        cache.request(["p0", "p1"])
        cache.request(frozenset({"p0", "p2"}))
        assert cache.stats.requests == 3 and cache.cached_bytes == 30


class TestHostileSpecs:
    def test_non_string_package_ids_rejected_by_imagespec(self):
        with pytest.raises(TypeError):
            ImageSpec([b"bytes-id"])

    def test_unicode_package_ids_supported(self):
        spec = frozenset({"pkg-日本語/1.0", "pkg-ümlaut/2.0"})
        cache = LandlordCache(1000, 0.8, PackageIndex.of(dict.fromkeys(spec, 10)))
        decision = cache.request(spec)
        assert decision.image.packages == spec

    def test_very_large_spec(self):
        spec = frozenset(f"p{i:06d}" for i in range(20_000))
        cache = LandlordCache(1 << 40, 0.8, PackageIndex.of(dict.fromkeys(spec, 1)))
        decision = cache.request(spec)
        assert decision.image.size == 20_000
        assert cache.request(spec).action.value == "hit"

    def test_landlord_propagates_unknown_package(self, tiny_repo):
        from repro.core.landlord import Landlord

        landlord = Landlord(tiny_repo, capacity=1000)
        with pytest.raises(KeyError):
            landlord.prepare(["not-a-package/0.0"])
