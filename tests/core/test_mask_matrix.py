"""The all-masks-at-once paths of ``repro.core.cache`` against their
one-mask-at-a-time references: the state table's re-based masks and its
first-appearance order (``LandlordCache._table_masks``), also on a
restored cache's numbering, and restore's
per-image sizes and per-package counts (``_Universe.bytes_of_masks``,
``_Universe.counts_of_masks``)."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache
from repro.packages.repository import PackageIndex

# 200 names: the mask matrix is four words wide, its last one partly used.
NAMES = [f"p{i:03d}" for i in range(200)]
INDEX = PackageIndex(NAMES, [(7 * i) % 23 + 2 ** (i % 40) for i in range(200)])

images_st = st.lists(
    st.sets(st.integers(0, 199), min_size=1, max_size=60),
    min_size=1, max_size=30,
)


def cache_of(images):
    cache = LandlordCache(10 ** 18, 0.5, INDEX)
    for ids in images:
        cache.adopt([NAMES[i] for i in ids])
    return cache


def reference_table(cache, ids):
    """Each image's mask re-based onto ``ids`` bit by bit, as hex."""
    position = {int(name): at for at, name in enumerate(ids)}
    return [
        format(sum(1 << position[i] for i in image.indices.tolist()), "x")
        for image in cache.images
    ]


@settings(max_examples=80, deadline=None)
@given(images_st)
def test_first_appearance_table_matches_the_reference(images):
    cache = cache_of(images)
    first = []
    for image in sorted(cache.images, key=lambda image: image.package_count):
        first += [i for i in image.indices.tolist() if i not in first]
    ids, masks = cache._table_masks()
    assert ids.tolist() == first
    assert masks == reference_table(cache, first)


@settings(max_examples=80, deadline=None)
@given(images_st)
def test_a_restored_cache_writes_the_same_table(images):
    """Restored, a cache numbers the table first and the rest of the
    index after it: its own first-appearance table is the one it was
    restored from, byte for byte."""
    cache = cache_of(images)
    table = cache.table_snapshot()
    restored = LandlordCache(10 ** 18, 0.5, INDEX)
    restored.restore(table)
    assert restored._universe.index.ids[: len(table["universe"])] == table["universe"]
    ids, masks = restored._table_masks()
    assert ids.tolist() == list(range(len(table["universe"])))
    assert masks == reference_table(restored, ids.tolist())
    assert restored.table_snapshot() == table


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sets(st.integers(0, 199), max_size=60), max_size=30))
def test_sizes_and_counts_match_one_mask_at_a_time(images):
    universe = LandlordCache(10 ** 18, 0.5, INDEX)._universe
    masks = [sum(1 << i for i in ids) for ids in images]
    assert universe.bytes_of_masks(masks) == [
        universe.bytes_of_indices(universe.indices_of_mask(mask))
        for mask in masks
    ]
    counted = Counter(i for ids in images for i in ids)
    assert universe.counts_of_masks(masks).tolist() == [
        counted[i] for i in range(len(NAMES))
    ]
