"""Differential suite for the vectorized engine's small-cache rule.

At or below ``VectorizedEngine._SMALL_CACHE`` live images the engine
serves the hit scan and the candidate scan from the reference
loops it inherits; past it, from the bit matrix.  Matrix, count arrays
and heap are maintained on both sides, so the hand-over carries no
state — which is what this module checks, at the *default* threshold,
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
    assert_same_state,
    decision_key,
    make_pair,
)

THRESHOLD = VectorizedEngine._SMALL_CACHE
# Steady state of ~40 live images: above the threshold, and few enough
# that an idle sweep or one big adoption lands back under it.
CAPACITY = 8000
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
    """Below the threshold the vectorized engine's scans *are* the
    reference loops (patched out, they fail); above it they are never
    called; the matrix and heap are current on both sides."""
    combo = ("smallest", "distance", "lru", "full", False)
    _naive, vec = make_pair(combo, capacity=CAPACITY)
    rng = Random("which-kernel")
    while len(vec) < THRESHOLD:
        vec.request(_spec(rng))
    engine = vec._engine
    assert engine._n_live == engine._top == len(vec) == THRESHOLD
    scans = dict(engine.prefilter_stats)
    assert scans["windowed"] == 0
    assert scans["rows_scanned"] == vec.stats.candidates_examined

    def boom(*_args, **_kwargs):
        raise AssertionError("reference loop called")

    monkeypatch.setattr(NaiveEngine, "find_hit", boom)
    monkeypatch.setattr(NaiveEngine, "scan_candidates", boom)
    mask, indices, _size = vec._intern(frozenset(PACKAGES[:3]))
    with pytest.raises(AssertionError, match="reference loop"):
        engine.find_hit(mask, indices)
    with pytest.raises(AssertionError, match="reference loop"):
        engine.scan_candidates(mask, int(indices.size), vec.alpha)

    monkeypatch.setattr(VectorizedEngine, "_SMALL_CACHE", THRESHOLD - 1)
    engine.find_hit(mask, indices)
    engine.scan_candidates(mask, int(indices.size), vec.alpha)
