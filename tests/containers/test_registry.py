"""Tests for repro.containers.registry.ImageRegistry."""

import pytest

from repro.containers.image import ContainerImage
from repro.containers.registry import ImageRegistry
from repro.core.spec import ImageSpec


def image(*pkgs, size=10):
    return ContainerImage(spec=ImageSpec(pkgs), size=size)


class TestPushPull:
    def test_push_then_pull(self):
        registry = ImageRegistry()
        img = image("a/1")
        canonical = registry.push(img)
        assert canonical == img.image_id
        assert registry.pull(canonical) is img
        assert registry.stats.bytes_served == 10

    def test_pull_unknown_raises_and_counts_miss(self):
        registry = ImageRegistry()
        with pytest.raises(KeyError):
            registry.pull("ghost")
        assert registry.stats.misses == 1

    def test_content_dedup_on_push(self):
        registry = ImageRegistry()
        first = image("a/1", "b/1")
        second = image("a/1", "b/1")  # same contents, different build
        id_a = registry.push(first)
        id_b = registry.push(second)
        assert id_a == id_b
        assert len(registry) == 1
        assert registry.stats.deduplicated_pushes == 1
        assert registry.stored_bytes == 10

    def test_quota_enforced(self):
        registry = ImageRegistry(capacity=15)
        registry.push(image("a/1"))
        with pytest.raises(ValueError, match="quota"):
            registry.push(image("b/1"))

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            ImageRegistry(capacity=-1)


class TestFind:
    def test_smallest_satisfying(self):
        registry = ImageRegistry()
        small = image("a/1", "b/1", size=20)
        big = image("a/1", "b/1", "c/1", size=30)
        registry.push(big)
        registry.push(small)
        assert registry.find_satisfying(ImageSpec(["a/1"])) == small.image_id

    def test_find_miss(self):
        registry = ImageRegistry()
        registry.push(image("a/1"))
        assert registry.find_satisfying(ImageSpec(["z/1"])) is None
        assert registry.stats.misses == 1

    def test_find_charges_no_transfer(self):
        registry = ImageRegistry()
        registry.push(image("a/1"))
        registry.find_satisfying(ImageSpec(["a/1"]))
        assert registry.stats.bytes_served == 0


class TestDelete:
    def test_delete_and_repush(self):
        registry = ImageRegistry()
        img = image("a/1")
        registry.push(img)
        assert registry.delete(img.image_id)
        assert registry.stored_bytes == 0
        # contents index cleaned: a re-push is a fresh ingest
        other = image("a/1")
        assert registry.push(other) == other.image_id

    def test_delete_absent(self):
        assert not ImageRegistry().delete("ghost")


class TestCrossSiteScenario:
    def test_second_site_pulls_instead_of_rebuilding(self, small_sft):
        """Site A builds + pushes; site B's request is served from the
        registry at pull cost instead of a fresh Shrinkwrap build."""
        from repro.cvmfs.shrinkwrap import Shrinkwrap

        registry = ImageRegistry()
        spec = ImageSpec(small_sft.ids[:5])
        report = Shrinkwrap(small_sft).build(spec)
        built = ContainerImage(spec=ImageSpec(report.packages),
                               size=report.image_bytes)
        registry.push(built)

        found = registry.find_satisfying(spec)
        assert found is not None
        pulled = registry.pull(found)
        assert pulled.satisfies(ImageSpec(small_sft.closure(spec.packages)))
        # transfer cost == image size, vs a full rebuild's write cost
        assert registry.stats.bytes_served == built.size
