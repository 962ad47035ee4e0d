"""The vectorized hit scan: the request's rarest package decides.

``VectorizedEngine._scan_hit`` answers "is some cached image a superset
of the request?" from ``cache._refcounts`` (live images per package) and
one bit column of the matrix.  Every case here is checked against the
reference loop (``engine="naive"``) on the same operations, under all
three ``hit_selection`` rules, with the small-cache rule pinned off so a
handful of images is enough to reach the matrix.
"""

from random import Random

import pytest

from repro.core.cache import HIT_SELECTION, LandlordCache
from repro.packages.repository import PackageIndex
from tests.core.matrix_layout import row_words
from tests.core.test_engine_differential import (
    matrix_kernels_at_every_size,  # noqa: F401 - autouse: _SMALL_CACHE = 0
)

PACKAGES = [f"pkg{i:04d}" for i in range(2600)]
SIZE = {pid: 10 + i % 13 for i, pid in enumerate(PACKAGES)}
SIZE_OF = PackageIndex.of(SIZE)
UNBOUNDED = 10 ** 12


def make_pair(selection, alpha=0.0, capacity=UNBOUNDED):
    """A naive and a vectorized cache; at α = 0 an image is its request."""
    return tuple(
        LandlordCache(
            capacity, alpha, SIZE_OF,
            hit_selection=selection, engine=engine,
        )
        for engine in ("naive", "vectorized")
    )


def both(pair, call):
    """Apply ``call(cache)`` to both caches; the two results."""
    return call(pair[0]), call(pair[1])


def peek_id(cache, spec):
    image = cache.peek(frozenset(spec))
    return None if image is None else image.id


def assert_peeks_agree(pair, probes):
    for probe in probes:
        naive_id, vec_id = both(pair, lambda cache: peek_id(cache, probe))
        assert naive_id == vec_id, f"engines disagree on {sorted(probe)}"


class _Tripwire:
    """Stands in for the bit matrix; any read of it fails the test."""

    def __getitem__(self, key):
        raise AssertionError("the hit scan read the matrix")


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_never_cached_package_misses_without_reading_the_matrix(selection):
    pair = make_pair(selection)
    for start in range(0, 40, 4):
        both(pair, lambda cache: cache.request(frozenset(PACKAGES[start:start + 6])))
    vec = pair[1]
    dropped = vec._images["img-000003"]
    gone = sorted(dropped.packages)
    both(pair, lambda cache: cache._drop_image(cache._images["img-000003"]))
    # pkg0014/pkg0015 were held by img-000003 alone: cached once, and
    # no longer cached anywhere.
    orphaned = [p for p in gone if vec._refcounts[vec._universe.index.position[p]] == 0]
    assert orphaned
    probes = [
        {PACKAGES[0], "pkg2000"},        # a package never cached
        {PACKAGES[0], orphaned[0]},      # cached once, evicted since
        set(gone),                       # the evicted image's own spec
    ]
    engine = vec._engine
    matrix = engine._matrix
    engine._matrix = _Tripwire()
    try:
        for probe in probes:
            assert peek_id(vec, probe) is None
        with pytest.raises(AssertionError, match="read the matrix"):
            vec.peek(frozenset(PACKAGES[:2]))  # a hit does read one column
    finally:
        engine._matrix = matrix
    assert_peeks_agree(pair, probes + [set(PACKAGES[:2])])
    assert peek_id(vec, PACKAGES[:2]) == "img-000000"


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_stale_bits_in_a_freed_row_never_hit(selection):
    pair = make_pair(selection)
    a, b, c, d = PACKAGES[:4]
    for spec in ({a, b}, {a, c}, {b, d}):
        both(pair, lambda cache: cache.request(frozenset(spec)))
    vec = pair[1]
    engine = vec._engine
    row = engine._row_of["img-000000"]
    both(pair, lambda cache: cache._drop_image(cache._images["img-000000"]))
    # Both packages of the evicted {a, b} are still cached (by the other
    # two images), so the scan must go to the column — where the freed
    # row still shows its bits.
    held = vec._refcounts[[vec._universe.index.position[p] for p in (a, b)]]
    assert held.tolist() == [1, 1]
    assert not engine._live[row] and int(row_words(engine, row)[0]) == 0b11
    assert peek_id(vec, {a, b}) is None
    assert peek_id(vec, {a}) == "img-000001"
    assert_peeks_agree(pair, [{a, b}, {a}, {b}, {a, c}, {b, d}, {a, b, c}])
    assert engine.compact() == 1
    assert engine._top == 2
    assert peek_id(vec, {a, b}) is None
    assert_peeks_agree(pair, [{a, b}, {a}, {b}, {a, c}, {b, d}, {a, b, c}])
    # Inserted again, the spec hits again.
    both(pair, lambda cache: cache.request(frozenset({a, b})))
    assert peek_id(vec, {a, b}) == "img-000003"
    assert_peeks_agree(pair, [{a, b}, {a}, {b}])


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_packages_in_words_no_row_holds_miss_until_cached(selection):
    pair = make_pair(selection)
    both(pair, lambda cache: cache.request(frozenset(PACKAGES[:5])))
    both(pair, lambda cache: cache.request(frozenset(PACKAGES[3:9])))
    vec = pair[1]
    engine = vec._engine
    # The matrix and the refcounts cover the whole universe from the
    # first mirror; every row's bits lie in word 0.
    assert engine._words == 41 and vec._refcounts.size == len(PACKAGES)
    probes = [
        {PACKAGES[0], PACKAGES[600]},
        {PACKAGES[0], PACKAGES[2500]},
        {PACKAGES[2500]},
        {PACKAGES[1023], PACKAGES[1024]},
    ]
    for probe in probes:
        assert peek_id(vec, probe) is None
    assert_peeks_agree(pair, probes + [set(PACKAGES[:5]), set(PACKAGES[3:5])])
    both(pair, lambda cache: cache.request(frozenset({PACKAGES[0], PACKAGES[2500]})))
    assert engine._words == 41
    assert peek_id(vec, {PACKAGES[0], PACKAGES[2500]}) == "img-000002"
    assert_peeks_agree(pair, probes)


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_supersets_sharing_the_rarest_package_tie_break_by_order(selection):
    pair = make_pair(selection)
    rare, common, x = PACKAGES[:3]
    # Equal sizes (SIZE repeats every 13 ids) so "smallest" ties too.
    fillers = [PACKAGES[13 * k + 2] for k in range(1, 5)]
    assert len({SIZE[f] for f in fillers}) == 1
    both(pair, lambda cache: cache.request(frozenset({common, x})))       # 0
    for filler in fillers[:3]:                                            # 1-3
        both(pair, lambda cache: cache.request(frozenset({rare, common, filler})))
    naive, vec = pair
    # Free the first row and let a later image take it, so physical row
    # order (0 = newest) is not insertion order.
    both(pair, lambda cache: cache._drop_image(cache._images["img-000000"]))
    both(pair, lambda cache: cache.request(frozenset({rare, common, fillers[3]})))
    engine = vec._engine
    assert engine._row_of["img-000004"] == 0
    expected = {
        "first": "img-000001",
        "smallest": "img-000001",   # all four weigh the same
        "mru": "img-000004",        # the one just inserted
    }[selection]
    assert peek_id(vec, {rare, common}) == expected
    assert peek_id(vec, {rare}) == expected
    assert_peeks_agree(pair, [{rare, common}, {rare}, {common}, {rare, fillers[1]}])
    # Equal last_used as well (a restored snapshot can carry it): "mru"
    # then falls to insertion order like the other two.
    snapshot = naive.snapshot()
    for record in snapshot["images"]:
        record["last_used"] = snapshot["clock"]
    restored = make_pair(selection)
    both(restored, lambda cache: cache.restore(snapshot))
    assert peek_id(restored[1], {rare, common}) == "img-000001"
    assert_peeks_agree(restored, [{rare, common}, {rare}, {common}])


def _probes(rng, cache, n=40):
    """Random small specs plus every cached image's own spec and a
    strict subset of it."""
    probes = [set(rng.sample(PACKAGES[:48], rng.randint(1, 4))) for _ in range(n)]
    for image in list(cache._images.values()):
        packages = sorted(image.packages)
        probes.append(set(packages))
        probes.append(set(packages[: max(1, len(packages) // 2)]))
    return probes


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_hits_after_every_state_changing_operation(selection):
    rng = Random(f"ops-{selection}")
    pair = make_pair(selection, alpha=0.4)

    def check():
        assert_peeks_agree(pair, _probes(rng, pair[0]))

    for _ in range(60):
        spec = frozenset(rng.sample(PACKAGES[:48], rng.randint(2, 7)))
        both(pair, lambda cache: cache.request(spec))
    check()

    adopted = frozenset(rng.sample(PACKAGES[:48], 5))
    both(pair, lambda cache: cache.adopt(adopted))
    assert peek_id(pair[1], adopted) is not None
    check()

    target = max(pair[0]._images.values(), key=lambda im: im.package_count)
    packages = sorted(target.packages)
    parts = [frozenset(packages[:2]), frozenset(packages[2:])]
    ids = both(pair, lambda cache: [im.id for im in cache.split(target.id, parts)])
    assert ids[0] == ids[1]
    check()

    for _ in range(10):
        spec = frozenset(rng.sample(PACKAGES[:48], 3))
        both(pair, lambda cache: cache.request(spec))
    evicted = both(pair, lambda cache: cache.evict_idle(5))
    assert evicted[0] == evicted[1] and evicted[0]
    check()

    snapshot = pair[0].snapshot()
    assert snapshot == pair[1].snapshot()
    pair = make_pair(selection, alpha=0.4)
    both(pair, lambda cache: cache.restore(snapshot))
    check()

    probes = _probes(rng, pair[0])
    both(pair, lambda cache: cache.clear())
    assert not pair[1]._refcounts.any()
    for probe in probes:
        assert peek_id(pair[1], probe) is None
    assert_peeks_agree(pair, probes)
    both(pair, lambda cache: cache.request(frozenset(PACKAGES[:3])))
    check()


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_the_empty_request(selection):
    pair = make_pair(selection)
    assert both(pair, lambda cache: cache.peek(frozenset())) == (None, None)
    sizes = (4, 2, 6, 2)
    for k, n in enumerate(sizes):
        both(pair, lambda cache: cache.request(frozenset(PACKAGES[10 * k:10 * k + n])))
    both(pair, lambda cache: cache.request(frozenset(PACKAGES[20:26])))  # touch img 2
    # Every live image is a superset of nothing; dead rows are not.
    both(pair, lambda cache: cache._drop_image(cache._images["img-000000"]))
    expected = {
        "first": "img-000001",
        "smallest": min(
            pair[0]._images.values(), key=lambda im: (im.size, im.id)
        ).id,
        "mru": "img-000002",
    }[selection]
    assert both(pair, lambda cache: peek_id(cache, ())) == (expected, expected)
    decisions = both(pair, lambda cache: cache.request(frozenset()))
    assert decisions[0].image.id == decisions[1].image.id == expected
    assert decisions[0].action == decisions[1].action
