"""The vectorized engine's matrix layout: as wide as the cache's numbering.

A cache numbers its packages once, by its
:class:`~repro.packages.repository.PackageIndex`, and the numbering never
grows.  So the engine's first mirror allocates every word the universe
needs, no insert, merge or request ever widens the matrix, and a request
mask always fits it whole.  These tests hold the width to the universe at
the paper's scale and check the scans where a request names a package no
image holds, including one in a word no row has a bit in.
"""

import pytest

from repro.core.cache import LandlordCache
from repro.packages.repository import PackageIndex
from tests.core.matrix_layout import image_major, row_mask
from tests.core.test_engine_differential import (
    matrix_kernels_at_every_size,  # noqa: F401 - autouse: _SMALL_CACHE = 0
)

PAPER_UNIVERSE = 9637  # package ids in the paper-scale repository
PACKAGES = [f"pkg{i:05d}" for i in range(PAPER_UNIVERSE)]
INDEX = PackageIndex.of(dict.fromkeys(PACKAGES, 1))  # PACKAGES[i] is bit i


def make_cache(alpha=0.0, engine="vectorized"):
    return LandlordCache(10 ** 12, alpha, INDEX, engine=engine)


def row_as_int(engine, image_id):
    return row_mask(engine, engine._row_of[image_id])


def assert_rows_mirror_images(cache):
    engine = cache._engine
    assert image_major(engine).shape == (engine._rows, engine._words)
    for image in cache.images:
        assert row_as_int(engine, image.id) == image.mask


def test_interning_alone_leaves_the_matrix_alone():
    cache = make_cache()
    cache._intern(PACKAGES)
    assert len(cache._universe) == PAPER_UNIVERSE
    assert cache._engine._words == 0 and not cache._engine._mirrored


def test_paper_scale_universe_needs_152_words_not_256():
    """The universe's own 151 words, allocated at the first mirror: not
    the 256 a doubling matrix would reach, nor even a rounded-up 152."""
    needed = -(-PAPER_UNIVERSE // 64)
    assert needed == 151
    cache = make_cache()
    engine = cache._engine
    cache.request(frozenset(PACKAGES[:3]))
    assert engine._mirrored and engine._words == needed < 152 < 256
    cache.request(frozenset(PACKAGES[::40] + PACKAGES[-1:]))
    assert engine._words == needed
    assert_rows_mirror_images(cache)


def test_width_stays_within_one_step_however_the_universe_arrives():
    """Ids arriving word by word, up to the last, never move the width:
    the numbering is fixed, so there is no step to take."""
    needed = -(-PAPER_UNIVERSE // 64)
    cache = make_cache()
    engine = cache._engine
    for top in range(63, PAPER_UNIVERSE, 64):
        cache.request(frozenset(PACKAGES[top - 3:top + 1]))
        assert engine._words == needed
    cache.request(frozenset(PACKAGES[-2:]))
    assert engine._words == needed
    assert_rows_mirror_images(cache)


def test_a_package_no_image_holds_vetoes_the_hit():
    cache = make_cache()
    engine = cache._engine
    cache.request(frozenset(PACKAGES[:3]))
    cache.request(frozenset(PACKAGES[500:503]))
    far = 8 * 64  # the first package of a word no row has a bit in
    assert not image_major(engine)[: engine._top, far >> 6].any()
    covered = frozenset(PACKAGES[:3])
    assert cache.peek(covered).id == "img-000000"
    assert cache.peek(covered | {PACKAGES[far]}) is None
    assert cache.peek(covered | {PACKAGES[far + 700]}) is None
    cache.request(frozenset(PACKAGES[far:far + 2]))
    assert engine._words == 151
    # Now in an image, but in none together with the rest.
    assert cache.peek(covered | {PACKAGES[far]}) is None
    assert cache.peek(covered | {PACKAGES[far + 700]}) is None
    assert cache.peek(frozenset(PACKAGES[far:far + 1])).id == "img-000002"
    assert_rows_mirror_images(cache)


@pytest.mark.parametrize("engine_name", ["naive", "vectorized"])
def test_merge_introducing_a_higher_index_than_any_row(engine_name):
    cache = make_cache(alpha=0.9, engine=engine_name)
    low = cache.request(frozenset(PACKAGES[:10])).image
    other = cache.request(frozenset(PACKAGES[100:110])).image
    assert low.id != other.id
    other_mask = other.mask
    merged = cache.request(frozenset(PACKAGES[:9] + [PACKAGES[7000]]))
    assert merged.action.value == "merge" and merged.image is low
    assert low.package_count == 11 and low.mask >> 7000 == 1
    assert {9, 7000} <= set(cache._live_ids().tolist())
    if engine_name == "vectorized":  # mirrored from the first add
        assert cache._refcounts[7000] == 1 and cache._refcounts[9] == 1
    else:
        assert cache._refcounts is None
    assert cache.peek(frozenset([PACKAGES[7000], PACKAGES[9]])) is low
    assert cache.peek(frozenset([PACKAGES[7000], PACKAGES[100]])) is None
    assert cache.peek(frozenset(PACKAGES[100:103])) is other
    if engine_name == "vectorized":
        engine = cache._engine
        assert engine._words == 151  # the universe's, from the first add
        assert row_as_int(engine, other.id) == other_mask
        assert_rows_mirror_images(cache)
        words = engine._mask_words(low.mask)
        assert words.size == engine._words
        assert int.from_bytes(words.tobytes(), "little") == low.mask
