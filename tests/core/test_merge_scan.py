"""The word-major merge scan against the reference loop, past the threshold.

``VectorizedEngine.scan_candidates`` gathers only the matrix words a
request has bits in — ``M[words, :top]`` for a full scan,
``M[words[:, None], rows]`` for a selective count window — so its edge
cases are the shapes of that gather: words no row has a bit in, the single last
word of the universe, a window, and a matrix whose rows were repacked.
Every case runs at the default small-cache threshold with more than
``_SMALL_CACHE`` live images (so the matrix kernels answer), and every
scan and decision is checked against ``NaiveEngine`` on the same
operations.
"""

from random import Random

import numpy as np
import pytest

from repro.core.cache import LandlordCache
from repro.core.engine import VectorizedEngine
from repro.packages.repository import PackageIndex
from tests.core.matrix_layout import image_major

PACKAGES = [f"pkg{i:05d}" for i in range(6000)]
SIZE = {pid: 10 + i % 13 for i, pid in enumerate(PACKAGES)}
SIZE_OF = PackageIndex.of(SIZE)
UNBOUNDED = 10 ** 12
N_IMAGES = VectorizedEngine._SMALL_CACHE + 8


def make_pair(alpha):
    """A naive and a vectorized cache; ``PACKAGES[i]`` is package ``i``."""
    return tuple(
        LandlordCache(UNBOUNDED, alpha, SIZE_OF, engine=engine)
        for engine in ("naive", "vectorized")
    )


def adopt_both(pair, spec):
    ids = [cache.adopt(frozenset(spec)).id for cache in pair]
    assert ids[0] == ids[1]
    return ids[1]


def request_both(pair, spec):
    decisions = [cache.request(frozenset(spec)) for cache in pair]
    keys = [
        (d.action, d.image.id, d.distance, tuple(d.evicted)) for d in decisions
    ]
    assert keys[0] == keys[1], f"engines diverged on {sorted(spec)}"


def scan_both(pair, spec, alpha):
    """Both engines' candidate scans for ``spec``, asserted equal; the
    vectorized one's ``([(distance, image id)], examined)``."""
    results = []
    for cache in pair:
        mask, indices, _size = cache._intern(frozenset(spec))
        candidates, examined = cache._engine.scan_candidates(
            mask, int(indices.size), alpha
        )
        results.append(([(d, image.id) for d, image in candidates], examined))
    assert results[0] == results[1], f"scans differ on {sorted(spec)}"
    engine = pair[1]._engine
    assert engine._mirrored and engine._n_live > engine._SMALL_CACHE
    return results[1]


def scan_path(pair, spec, alpha):
    """:func:`scan_both`; the path the vectorized scan took
    (``"windowed"`` or ``"full"``) and its candidates."""
    stats = pair[1]._engine.prefilter_stats
    before = dict(stats)
    candidates, _examined = scan_both(pair, spec, alpha)
    taken = [name for name in ("windowed", "full") if stats[name] > before[name]]
    assert len(taken) == 1
    return taken[0], candidates


def fill(pair, rng, n=N_IMAGES, top=500, sizes=(3, 9)):
    """Adopt ``n`` images drawn from ``PACKAGES[:top]`` (adoption
    never merges, so the count is exact)."""
    for _ in range(n):
        adopt_both(pair, rng.sample(PACKAGES[:top], rng.randint(*sizes)))


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
def test_a_request_in_words_no_image_holds_has_no_candidate(alpha):
    pair = make_pair(alpha)
    fill(pair, Random("past-the-width"))
    engine = pair[1]._engine
    assert engine._words == 94  # the universe's 6,000 packages
    spec = PACKAGES[2000:2006]
    mask, _indices, _size = pair[1]._intern(frozenset(spec))
    words = np.flatnonzero(engine._mask_words(mask))
    assert words.tolist() == [31]
    assert not image_major(engine)[: engine._top, words].any()
    # Every image is at distance 1 from it: a candidate for no alpha.
    path, candidates = scan_path(pair, spec, alpha)
    assert candidates == []
    assert path == "full"  # a 6-package request admits the fill's 3-9
    # A two-package request's window at alpha 0.5 admits only the
    # fill's 3- and 4-package images: a windowed gather of zero words.
    if alpha == 0.5:
        counts = engine._count[: engine._top]
        assert 0 < 2 * int((counts <= 4).sum()) < engine._top
        assert scan_path(pair, spec[:2], alpha) == ("windowed", [])
    request_both(pair, spec)
    assert engine._words == 94
    scan_both(pair, spec[:3], alpha)
    scan_both(pair, spec[:3] + PACKAGES[:3], alpha)


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_the_only_shared_word_is_the_universe_s_last(alpha):
    pair = make_pair(alpha)
    fill(pair, Random("last-word"))
    engine = pair[1]._engine
    assert engine._words == 94
    # 5952 >> 6 == 93: the matrix's last word holds all three.
    edge = [PACKAGES[5952], PACKAGES[5957], PACKAGES[5971]]
    edge_id = adopt_both(pair, edge + PACKAGES[:2])
    probe = edge[:2] + [PACKAGES[5999]]  # the universe's last package
    mask, _indices, _size = pair[1]._intern(frozenset(probe))
    assert np.flatnonzero(engine._mask_words(mask)).tolist() == [93]
    # It shares 2 packages with that image (distance 1 - 2/6) and no
    # word with any other.
    _path, candidates = scan_path(pair, probe, alpha)
    assert candidates == ([(1 - 2 / 6, edge_id)] if alpha == 0.9 else [])
    scan_both(pair, edge, alpha)
    scan_both(pair, edge + PACKAGES[:2], alpha)
    for spec in (probe, edge[:1], edge):
        request_both(pair, spec)


def test_a_selective_window_takes_the_gathered_path():
    alpha = 0.3
    pair = make_pair(alpha)
    rng = Random("window")
    fill(pair, rng, sizes=(2, 40))
    engine = pair[1]._engine
    counts = engine._count[: engine._top]
    base = sorted(pair[1]._images["img-000005"].packages)
    n = len(base)
    admitted = int(((counts >= 0.7 * n) & (counts <= n / 0.7)).sum())
    assert 0 < 2 * admitted < engine._top
    # The image itself, and the image with one package swapped.
    path, candidates = scan_path(pair, base, alpha)
    assert path == "windowed" and ("img-000005" in {i for _d, i in candidates})
    swapped = base[:-1] + [PACKAGES[450]]
    path, _candidates = scan_path(pair, swapped, alpha)
    assert path == "windowed"
    for _ in range(60):
        spec = rng.sample(PACKAGES[:500], rng.randint(1, 40))
        scan_both(pair, spec, alpha)
        request_both(pair, spec)
    stats = pair[1]._engine.prefilter_stats
    assert stats["windowed"] > 0 and stats["full"] > 0


@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_scans_after_compact(alpha):
    pair = make_pair(alpha)
    rng = Random("compact")
    fill(pair, rng, n=3 * N_IMAGES, top=700, sizes=(2, 30))
    # Drop every other image: still past the threshold, half the rows dead.
    dropped = []
    for image_id in sorted(pair[0]._images)[::2]:
        dropped.append(sorted(pair[0]._images[image_id].packages))
        for cache in pair:
            cache._drop_image(cache._images[image_id])
    engine = pair[1]._engine
    assert engine._n_live > engine._SMALL_CACHE
    # Freed rows keep their bits until reused: before the repack a
    # dropped image's own spec must not find it.
    for spec in dropped[:10]:
        scan_both(pair, spec, alpha)
    dead = engine._top - engine._n_live
    assert engine.compact() == dead > 0
    assert engine._top == engine._n_live == len(pair[1])
    paths = set()
    for image in list(pair[0]._images.values())[:10]:
        spec = sorted(image.packages)
        paths.add(scan_path(pair, spec, alpha)[0])
        swapped = spec[1:] + [PACKAGES[rng.randrange(700)]]
        paths.add(scan_path(pair, swapped, alpha)[0])
    assert paths == {"windowed", "full"}
    for _ in range(40):
        spec = rng.sample(PACKAGES[:700], rng.randint(1, 30))
        scan_both(pair, spec, alpha)
        request_both(pair, spec)
    assert pair[0].snapshot() == pair[1].snapshot()
