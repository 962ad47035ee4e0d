"""The vectorized engine's matrix layout: as wide as the universe needs.

``VectorizedEngine._widen`` grows the bit matrix in steps (at least an
eighth of the current width, rounded up to a multiple of 8 words)
instead of doubling, so a scan reads the words the package universe
occupies and not up to twice as many.  These tests hold the width to
that bound at the paper's scale and check that growing loses nothing:
rows, the request-side truncation rule, and a merge that introduces a
package beyond every existing row.
"""

import pytest

from repro.core.cache import LandlordCache
from tests.core.test_engine_differential import (
    matrix_kernels_at_every_size,  # noqa: F401 - autouse: _SMALL_CACHE = 0
)

PAPER_UNIVERSE = 9637  # package ids in the paper-scale repository
PACKAGES = [f"pkg{i:05d}" for i in range(PAPER_UNIVERSE)]


def make_cache(alpha=0.0, engine="vectorized"):
    cache = LandlordCache(10 ** 12, alpha, lambda _pid: 1, engine=engine)
    cache._intern(PACKAGES)  # a list: PACKAGES[i] gets bit index i
    return cache


def one_step_past(words):
    """The widest matrix one growth step can leave for ``words`` needed."""
    return (words + (words >> 3) + 7) & ~7


def row_as_int(engine, image_id):
    row = engine._row_of[image_id]
    return int.from_bytes(engine._matrix[row].tobytes(), "little")


def assert_rows_mirror_images(cache):
    engine = cache._engine
    assert engine._matrix.shape == (engine._rows, engine._words)
    for image in cache.images:
        assert row_as_int(engine, image.id) == image.mask


def test_interning_alone_leaves_the_matrix_alone():
    cache = make_cache()
    assert len(cache._universe) == PAPER_UNIVERSE
    assert cache._engine._words == 1


def test_paper_scale_universe_needs_152_words_not_256():
    needed = -(-PAPER_UNIVERSE // 64)
    assert needed == 151
    cache = make_cache()
    cache.request(frozenset(PACKAGES[::40] + PACKAGES[-1:]))
    assert cache._engine._words == 152
    assert_rows_mirror_images(cache)


def test_width_stays_within_one_step_however_the_universe_arrives():
    """Growing id by id is the worst case for stepping: every step but
    the last overshoots what was asked for."""
    needed = -(-PAPER_UNIVERSE // 64)
    cache = make_cache()
    engine = cache._engine
    widths = []
    for top in range(63, PAPER_UNIVERSE, 64):
        cache.request(frozenset(PACKAGES[top - 3:top + 1]))
        words = (top >> 6) + 1
        assert words <= engine._words <= one_step_past(words)
        assert engine._words % 8 == 0 or words == 1  # it starts one word wide
        if not widths or widths[-1] != engine._words:
            widths.append(engine._words)
    cache.request(frozenset(PACKAGES[-2:]))
    assert needed <= engine._words <= one_step_past(needed) < 256
    # Steps, not a reallocation per word: amortised like doubling.
    assert len(widths) < 30
    assert all(b >= a + (a >> 3) for a, b in zip(widths, widths[1:]))
    assert_rows_mirror_images(cache)


def test_widening_preserves_every_row():
    cache = make_cache()
    engine = cache._engine
    for start in range(0, 400, 7):
        cache.request(frozenset(PACKAGES[start:start + 5]))
    assert engine._words == 8
    before = {image.id: row_as_int(engine, image.id) for image in cache.images}
    assert before == {image.id: image.mask for image in cache.images}
    cache.request(frozenset(PACKAGES[5000:5003]))
    assert engine._words == 80  # (5002 >> 6) + 1 = 79, in whole cache lines
    after = {image_id: row_as_int(engine, image_id) for image_id in before}
    assert after == before
    assert not engine._matrix[: engine._top - 1, 8:].any()
    assert_rows_mirror_images(cache)
    naive = make_cache(engine="naive")
    for start in range(0, 400, 7):
        naive.request(frozenset(PACKAGES[start:start + 5]))
    naive.request(frozenset(PACKAGES[5000:5003]))
    for probe in (PACKAGES[14:17], PACKAGES[5000:5002], PACKAGES[3:9]):
        want = naive.peek(frozenset(probe))
        got = cache.peek(frozenset(probe))
        assert (want and want.id) == (got and got.id)


def test_query_truncation_and_hit_veto_hold_across_a_widen_boundary():
    cache = make_cache()
    engine = cache._engine
    cache.request(frozenset(PACKAGES[:3]))
    cache.request(frozenset(PACKAGES[500:503]))
    assert engine._words == 8
    edge = engine._words * 64  # the first bit the matrix has no column for

    def as_int(words):
        return int.from_bytes(words.tobytes(), "little")

    inside = (1 << (edge - 1)) | 0b101
    assert engine._query_words(inside).size == 8
    assert as_int(engine._query_words(inside)) == inside
    # Bits no image holds add nothing to any intersection: truncation
    # keeps exactly the part the matrix can answer about ...
    beyond = inside | (1 << edge) | (1 << (edge + 700))
    assert engine._query_words(beyond).size == 8
    assert as_int(engine._query_words(beyond)) == inside
    # ... and a request holding one can never hit, however well the
    # rest of it is covered.
    covered = frozenset(PACKAGES[:3])
    assert cache.peek(covered).id == "img-000000"
    assert cache.peek(covered | {PACKAGES[edge]}) is None
    assert cache.peek(covered | {PACKAGES[edge + 700]}) is None
    cache.request(frozenset(PACKAGES[edge:edge + 2]))
    assert engine._words == 16
    assert engine._query_words(inside | (1 << edge)).size == 16
    assert as_int(engine._query_words(inside | (1 << edge))) == inside | (1 << edge)
    assert as_int(engine._query_words(beyond)) == inside | (1 << edge)
    # Now in the matrix, but in no image together with the rest.
    assert cache.peek(covered | {PACKAGES[edge]}) is None
    assert cache.peek(covered | {PACKAGES[edge + 700]}) is None
    assert cache.peek(frozenset(PACKAGES[edge:edge + 1])).id == "img-000002"


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
    assert cache._refcounts[7000] == 1 and cache._refcounts[9] == 1
    assert cache.peek(frozenset([PACKAGES[7000], PACKAGES[9]])) is low
    assert cache.peek(frozenset([PACKAGES[7000], PACKAGES[100]])) is None
    assert cache.peek(frozenset(PACKAGES[100:103])) is other
    if engine_name == "vectorized":
        engine = cache._engine
        assert engine._words == 112  # (7000 >> 6) + 1 = 110, rounded up
        assert row_as_int(engine, other.id) == other_mask
        assert_rows_mirror_images(cache)
        words = engine._mask_words(low.mask)
        assert words.size == engine._words == 112
        assert int.from_bytes(words.tobytes(), "little") == low.mask
