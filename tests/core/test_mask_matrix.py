"""The all-masks-at-once paths of ``repro.core.cache`` against their
one-mask-at-a-time references: restore's re-basing of a v3 state
record's masks (hex over a first-appearance name table) onto the
repository numbering, the v4 record a restored cache writes back, and
restore's per-image sizes and per-package counts
(``_Universe.bytes_of_masks``, ``_Universe.counts_of_masks``)."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache, mask_text
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


def v3_record(cache):
    """``cache``'s state as a v3 file recorded it, built name by name: a
    table of the live names by first appearance (image by image,
    smallest first, ties in image order, each one's new names in index
    order) and each image's mask over that table as hex."""
    state = cache.snapshot()
    position = cache._universe.index.position
    table = []
    for record in sorted(state["images"], key=lambda r: len(r["packages"])):
        table += sorted(set(record["packages"]) - set(table),
                        key=position.__getitem__)
    at = {name: k for k, name in enumerate(table)}
    for record in state["images"]:
        record["mask"] = format(
            sum(1 << at[name] for name in record.pop("packages")), "x")
    state["universe"] = table
    state["repository"] = cache._universe.index.digest
    return state


@settings(max_examples=80, deadline=None)
@given(images_st)
def test_first_appearance_table_matches_the_reference(images):
    """A v3 record — masks over a first-appearance table — restores to
    masks over the repository numbering equal to each image's own."""
    cache = cache_of(images)
    restored = LandlordCache(10 ** 18, 0.5, INDEX)
    restored.restore(v3_record(cache))
    assert [image.mask for image in restored.images] == [
        image.mask for image in cache.images]
    assert restored.snapshot() == cache.snapshot()


@settings(max_examples=80, deadline=None)
@given(images_st)
def test_a_restored_cache_writes_the_same_table(images):
    """Restored from its v4 record or from the v3 one, a cache writes
    back the v4 record of the cache it was taken from, byte for byte:
    each image's mask as it stands."""
    cache = cache_of(images)
    record = cache.mask_snapshot()
    assert [image["mask"] for image in record["images"]] == [
        mask_text(image.mask) for image in cache.images]
    for state in (record, v3_record(cache)):
        restored = LandlordCache(10 ** 18, 0.5, INDEX)
        restored.restore(state)
        assert restored._universe.index is INDEX
        assert restored.mask_snapshot() == record


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
