"""Differential suite for the vectorized engine's small-cache rule.

At or below ``VectorizedEngine._SMALL_CACHE`` live images the engine
serves the hit scan and the candidate scan from the reference
loops it inherits; past it, from the bit matrix.  Until the cache first
grows past the threshold the engine keeps no matrix or count arrays
(eviction is the reference ``min()`` at every size); the add that crosses it
builds them from the cache's images, and from then on they are kept
current on both sides.  That the hand-over loses nothing is what this
module checks, at the *default* threshold,
with caches driven across it in both directions: inserts past it,
``evict_idle`` and a capacity storm back under, ``submit_batch`` calls
that start below and end above or cross it both ways, and cross-engine
snapshot → restore on each side.  (``test_engine_differential.py`` pins
the threshold to 0 and covers the matrix kernels at every size.)
"""

from random import Random

import pytest

from repro.core.engine import NaiveEngine, VectorizedEngine
from tests.core.test_engine_differential import (
    GRID,
    PACKAGES,
    _combo_id,
    assert_refcounts_exact,
    assert_same_state,
    decision_key,
    make_pair,
)

THRESHOLD = VectorizedEngine._SMALL_CACHE
# Steady state of ~40 live images: above the threshold, and few enough
# that an idle sweep or one big adoption lands back under it.
CAPACITY = 8000
UNBOUNDED = 10 ** 9
# 8 combinations, every knob value at least once, each step changing
# candidate order and conflict policy.
CROSS_GRID = [GRID[i] for i in (0, 13, 26, 41, 54, 67, 80, 95)]


def _spec(rng):
    return frozenset(rng.sample(PACKAGES, rng.randint(1, 6)))


def _swap_engines(combo, naive, vec):
    """Restore each cache's snapshot into a fresh cache of the other engine."""
    assert_same_state(naive, vec)
    snap_naive, snap_vec = naive.snapshot(), vec.snapshot()
    naive, vec = make_pair(combo, capacity=CAPACITY)
    naive.restore(snap_vec)
    vec.restore(snap_naive)
    return naive, vec


def _request_both(naive, vec, rng):
    spec = _spec(rng)
    assert decision_key(naive.request(spec)) == decision_key(
        vec.request(spec)
    ), f"engines diverged on {sorted(spec)} at {len(vec)} live images"


def _request_until_above(naive, vec, rng, limit=400):
    for _ in range(limit):
        _request_both(naive, vec, rng)
        if len(vec) > THRESHOLD + 4:
            return
    raise AssertionError(f"cache never grew past {THRESHOLD} live images")


@pytest.mark.parametrize("combo", CROSS_GRID, ids=_combo_id)
def test_engines_bit_identical_across_the_threshold(combo):
    assert THRESHOLD > 0, "the rule is off: this module would test nothing"
    naive, vec = make_pair(combo, capacity=CAPACITY)
    rng = Random("small-cache|" + "|".join(map(str, combo)))
    for _round in range(3):
        # Up: sequential inserts carry the cache past the threshold.
        _request_until_above(naive, vec, rng)
        naive, vec = _swap_engines(combo, naive, vec)  # restored above
        _request_until_above(naive, vec, rng, limit=40)

        # Down: an idle sweep lands well under it.
        assert naive.evict_idle(6) == vec.evict_idle(6)
        assert 0 < len(vec) <= THRESHOLD
        naive, vec = _swap_engines(combo, naive, vec)  # restored below

        # Up again inside one call: started by the loops, finished by
        # the matrix kernels.
        window = [_spec(rng) for _ in range(250)]
        d_naive = naive.submit_batch(window, batch_size=len(window))
        d_vec = vec.submit_batch(window, batch_size=len(window))
        assert [decision_key(d) for d in d_naive] == [
            decision_key(d) for d in d_vec
        ]
        assert len(vec) > THRESHOLD
        assert_same_state(naive, vec)

        # Down by capacity pressure: one adoption evicts a dozen images.
        giant = naive.adopt(frozenset(PACKAGES)).id
        assert vec.adopt(frozenset(PACKAGES)).id == giant
        if combo[2] != "size":  # largest-first frees the room in 2-3 victims
            assert len(vec) <= THRESHOLD
        for _ in range(30):
            _request_both(naive, vec, rng)
        # Every spec hits the giant; cut it down so the next round's
        # requests insert again.
        if giant in vec._images:
            part = [frozenset(PACKAGES[:2])]
            assert [im.id for im in naive.split(giant, part)] == [
                im.id for im in vec.split(giant, part)
            ]
        assert_same_state(naive, vec)

    # Both ways inside one call: inserts carry it past the threshold,
    # three 30-package requests (pairwise too far apart to merge) evict
    # it back under.  The reference takes the same stream in two calls,
    # which is where the crossing is observed.
    assert naive.evict_idle(6) == vec.evict_idle(6)
    assert len(vec) <= THRESHOLD
    up = [_spec(rng) for _ in range(250)]
    down = [
        frozenset(PACKAGES[:30]),
        frozenset(PACKAGES[18:]),
        frozenset(PACKAGES[:15] + PACKAGES[33:]),
    ] + [_spec(rng) for _ in range(30)]
    d_naive = naive.submit_batch(up, batch_size=len(up))
    assert len(naive) > THRESHOLD
    d_naive += naive.submit_batch(down, batch_size=len(down))
    d_vec = vec.submit_batch(up + down, batch_size=len(up + down))
    assert [decision_key(d) for d in d_naive] == [
        decision_key(d) for d in d_vec
    ]
    if combo[2] != "size":  # largest-first evicts the previous big image
        assert len(vec) <= THRESHOLD
    assert_same_state(naive, vec)


def test_threshold_picks_the_kernel_and_nothing_else(monkeypatch):
    """At the threshold the vectorized engine holds no derived state and
    its scans *are* the reference loops (patched out, they fail); the
    add that crosses it builds matrix and arrays in dict order, and past
    it the hit and merge scans never call the loops.  Eviction is the
    inherited reference ``min()`` on both sides of the threshold."""
    combo = ("smallest", "distance", "lru", "full", False)
    _naive, vec = make_pair(combo, capacity=CAPACITY)
    rng = Random("which-kernel")
    while len(vec) < THRESHOLD:
        vec.request(_spec(rng))
    engine = vec._engine
    assert engine._n_live == len(vec) == THRESHOLD
    assert not engine._mirrored
    assert engine._top == 0 and not engine._row_of
    assert not engine._matrix.any()
    scans = dict(engine.prefilter_stats)
    assert scans["windowed"] == 0
    assert scans["rows_scanned"] == vec.stats.candidates_examined

    def boom(*_args, **_kwargs):
        raise AssertionError("reference loop called")

    for name in ("find_hit", "scan_candidates", "eviction_victim"):
        monkeypatch.setattr(NaiveEngine, name, boom)
    mask, indices, _size = vec._intern(frozenset(PACKAGES[:3]))
    with pytest.raises(AssertionError, match="reference loop"):
        engine.find_hit(mask, indices)
    with pytest.raises(AssertionError, match="reference loop"):
        engine.scan_candidates(mask, int(indices.size), vec.alpha)
    with pytest.raises(AssertionError, match="reference loop"):
        engine.eviction_victim("")
    monkeypatch.undo()

    built = []
    mirror = VectorizedEngine._mirror

    def spy(self):
        mirror(self)
        top = self._top
        built.append((
            [image.id for image in self._image_of_row[:top]],
            self._order[:top].tolist(),
            list(self._cache._images),
        ))

    monkeypatch.setattr(VectorizedEngine, "_mirror", spy)
    while len(vec) <= THRESHOLD:
        vec.request(_spec(rng))
    assert len(built) == 1
    rows, order, in_dict_order = built[0]
    assert len(rows) == THRESHOLD + 1
    assert rows == in_dict_order and order == list(range(THRESHOLD + 1))
    assert engine._mirrored
    assert_refcounts_exact(vec)

    for name in ("find_hit", "scan_candidates", "eviction_victim"):
        monkeypatch.setattr(NaiveEngine, name, boom)
    engine.find_hit(mask, indices)
    engine.scan_candidates(mask, int(indices.size), vec.alpha)
    with pytest.raises(AssertionError, match="reference loop"):
        engine.eviction_victim("")


def test_restoring_past_the_threshold_builds_the_state():
    """A 40-image snapshot restores into a vectorized cache that holds
    its matrix and arrays at once, rows in dict order, and then
    decides as the reference does."""
    specs = [frozenset(PACKAGES[i:i + 2]) for i in range(40)]
    combo = ("first", "insertion", "fifo", "full", False)
    naive, vec = make_pair(combo, capacity=UNBOUNDED)
    for spec in specs:
        assert decision_key(naive.request(spec)) == decision_key(
            vec.request(spec)
        )
    assert len(vec) == 40
    snap = vec.snapshot()
    naive, vec = make_pair(combo, capacity=UNBOUNDED)
    naive.restore(snap)
    vec.restore(snap)
    engine = vec._engine
    assert engine._mirrored and engine._n_live == engine._top == 40
    assert [image.id for image in engine._image_of_row[:40]] == list(
        vec._images
    )
    assert engine._order[:40].tolist() == list(range(40))
    assert_refcounts_exact(vec)
    rng = Random("restored")
    for _ in range(60):
        _request_both(naive, vec, rng)
    assert_same_state(naive, vec)


# -- Package accounting across the crossing ---------------------------------


def _assert_accounting(naive, vec):
    """Unique bytes, cache efficiency, live ids and the state record: each
    engine against a from-scratch union of its images (and, once the
    vectorized one mirrored, its refcounts against the image sets and
    the matrix), and the two engines against each other."""
    assert_refcounts_exact(naive)
    assert_refcounts_exact(vec)
    assert vec.unique_bytes == naive.unique_bytes
    expected = vec.unique_bytes / vec.cached_bytes if vec.cached_bytes else 1.0
    assert vec.cache_efficiency == naive.cache_efficiency == expected
    assert vec._live_ids().tolist() == naive._live_ids().tolist()
    assert vec.mask_snapshot() == naive.mask_snapshot()


def _both(naive, vec, call):
    results = [call(naive), call(vec)]
    assert results[0] == results[1]
    _assert_accounting(naive, vec)
    return results[0]


def _grow_to_threshold(naive, vec, rng):
    while len(vec) < THRESHOLD:
        _request_both(naive, vec, rng)
        _assert_accounting(naive, vec)
    assert len(vec) == THRESHOLD


def _split_and_adopt(naive, vec):
    """One split and one adoption, each checked."""
    image = max(vec._images.values(), key=lambda im: im.package_count)
    held = sorted(image.packages)
    parts = [frozenset(held[: len(held) // 2 or 1])]
    _both(naive, vec, lambda c: [im.id for im in c.split(image.id, parts)])
    _both(naive, vec, lambda c: c.adopt(_spec(Random(len(c)))).id)


def test_package_accounting_on_both_sides_of_the_threshold():
    """Below the threshold a vectorized cache holds no refcounts and
    reads unique bytes and live ids off its image masks; the add that
    takes it past the threshold builds counts equal to the sum over its
    image sets; from then on they stay exact, back below it too.
    Split, adopt, evict_idle, clear and restore run on each side, and
    after every call both engines agree with a from-scratch union."""
    combo = ("smallest", "distance", "lru", "full", False)
    naive, vec = make_pair(combo, capacity=CAPACITY)
    rng = Random("accounting")

    # Below: nothing is counted, every gauge is read off the masks.
    for _ in range(12):
        _request_both(naive, vec, rng)
        _assert_accounting(naive, vec)
    _split_and_adopt(naive, vec)
    _request_both(naive, vec, rng)
    assert _both(naive, vec, lambda c: c.evict_idle(3))
    snap = naive.snapshot()
    naive, vec = make_pair(combo, capacity=CAPACITY)
    _both(naive, vec, lambda c: c.restore(snap))
    _both(naive, vec, lambda c: c.clear())
    assert len(vec) == 0 and vec.unique_bytes == 0
    _grow_to_threshold(naive, vec, rng)
    assert not vec._engine._mirrored and vec._refcounts is None

    # The 33rd add builds the counts (assert_refcounts_exact compares
    # them with the image sets and the matrix columns).
    _both(naive, vec, lambda c: c.adopt(frozenset(PACKAGES[:4])).id)
    assert vec._engine._mirrored and vec._refcounts is not None
    _request_until_above(naive, vec, rng)
    _assert_accounting(naive, vec)

    # Above, and back below: the counts are kept exact by every hook.
    _split_and_adopt(naive, vec)
    snap = vec.snapshot()
    assert len(snap["images"]) > THRESHOLD
    naive, vec = make_pair(combo, capacity=CAPACITY)
    _both(naive, vec, lambda c: c.restore(snap))
    assert vec._engine._mirrored and vec._refcounts is not None
    assert _both(naive, vec, lambda c: c.evict_idle(2))
    assert len(vec) <= THRESHOLD and vec._refcounts is not None
    for _ in range(10):
        _request_both(naive, vec, rng)
        _assert_accounting(naive, vec)
    _both(naive, vec, lambda c: c.clear())
    assert not vec._refcounts.any() and vec.unique_bytes == 0
    _request_both(naive, vec, rng)
    _assert_accounting(naive, vec)


def test_per_request_readers_start_the_counts():
    """simulate_stream reads unique bytes after every request when it
    records a timeline or evaluates alerts, so it has the cache count
    packages first, on either engine and below the threshold too; the
    recorded series equals a from-scratch union at every step.  Without
    either reader nothing is counted."""
    from repro.htc.simulator import simulate_stream
    from repro.obs import AlertEngine, SloTracker
    from repro.obs.alerts import DEFAULT_RULES

    combo = ("smallest", "distance", "lru", "full", False)
    rng = Random("readers")
    stream = [_spec(rng) for _ in range(20)]
    reference, _ = make_pair(combo, capacity=CAPACITY)
    union = []
    for spec in stream:
        reference.request(spec)
        union.append(reference.unique_bytes)
    assert reference._refcounts is None

    for cache in make_pair(combo, capacity=CAPACITY):
        result = simulate_stream(cache, stream)
        assert len(cache) <= THRESHOLD and cache._refcounts is not None
        assert result.timeline["unique_bytes"].tolist() == union
        assert_refcounts_exact(cache)
    for cache in make_pair(combo, capacity=CAPACITY):
        simulate_stream(cache, stream, record_timeline=False,
                        slo=SloTracker(), alerts=AlertEngine(DEFAULT_RULES))
        assert cache._refcounts is not None
        assert_refcounts_exact(cache)
    for cache in make_pair(combo, capacity=CAPACITY):
        result = simulate_stream(cache, stream, record_timeline=False)
        assert cache._refcounts is None
        assert result.unique_bytes == union[-1]
