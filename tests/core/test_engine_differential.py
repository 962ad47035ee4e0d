"""Differential property suite: naive vs vectorized decision engines.

The contract (see :mod:`repro.core.engine`): the two engines are
**bit-identical** — same decision stream, same statistics, same event
log, same snapshot dicts — for every combination of policy knobs.  This
suite replays the same randomized workload (requests interleaved with
``evict_idle`` sweeps, federation ``adopt``s, ``split``s, and
snapshot/restore round-trips that *cross* engines) into two caches that
differ only in ``engine=``, asserting equality after every operation.

The workload generator is seeded per knob combination, so failures
reproduce exactly; the grid is exhaustive over
hit_selection × candidate_order × eviction × merge_write_mode ×
conflict policy (108 combinations, ≥1000 requests each).  Ids carry an
``exact`` token for the candidate scan so that recorded test ids stay
valid.

These caches hold 10–30 live images, which the vectorized engine would
serve from the reference loops themselves (its small-cache rule), so
every test in this module pins ``VectorizedEngine._SMALL_CACHE`` to 0:
the matrix kernels are what is compared, at every size.  The rule at
its default, with caches crossing it both ways, is
``test_engine_small_cache.py``.
"""

import itertools
from random import Random

import numpy as np
import pytest

from repro.core.cache import (
    CANDIDATE_ORDER,
    EVICTION,
    HIT_SELECTION,
    LandlordCache,
)
from repro.core.engine import NaiveEngine, VectorizedEngine
from repro.packages.conflicts import NoConflicts, SlotConflicts

# Package ids are name/version so SlotConflicts has real slots to clash.
NAMES = [f"lib{i}" for i in range(16)]
VERSIONS = ("1.0", "2.0", "3.0")
PACKAGES = [f"{name}/{ver}" for name in NAMES for ver in VERSIONS]
SIZES = {pid: 5 + (i * 37) % 90 for i, pid in enumerate(PACKAGES)}

CAPACITY = 1200  # small enough that eviction runs constantly
ALPHA = 0.6
N_REQUESTS = 1000

GRID = list(
    itertools.product(
        HIT_SELECTION,
        CANDIDATE_ORDER,
        EVICTION,
        ("full", "delta"),
        (False, True),  # slot conflicts
    )
)


@pytest.fixture(autouse=True)
def matrix_kernels_at_every_size(monkeypatch):
    monkeypatch.setattr(VectorizedEngine, "_SMALL_CACHE", 0)


def _size_of(pid: str) -> int:
    return SIZES[pid]


def _combo_id(combo) -> str:
    hit, order, evict, mode, conflicts = combo
    return "-".join(
        [hit, order, evict, mode, "exact", "slots" if conflicts else "noconf"]
    )


def make_pair(combo, capacity=CAPACITY):
    """Two caches differing only in ``engine=``."""
    hit, order, evict, mode, conflicts = combo
    kwargs = dict(
        hit_selection=hit,
        candidate_order=order,
        eviction=evict,
        merge_write_mode=mode,
        record_events=True,
        conflict_policy=SlotConflicts() if conflicts else NoConflicts(),
    )
    naive = LandlordCache(
        capacity, ALPHA, _size_of, engine="naive",
        rng=np.random.default_rng(7), **kwargs,
    )
    vec = LandlordCache(
        capacity, ALPHA, _size_of, engine="vectorized",
        rng=np.random.default_rng(7), **kwargs,
    )
    return naive, vec


def decision_key(decision):
    return (
        decision.action,
        decision.image.id,
        decision.image.size,
        decision.requested_bytes,
        decision.distance,
        decision.bytes_added,
        tuple(decision.evicted),
    )


def assert_same_state(naive, vec):
    assert naive.stats.__dict__ == vec.stats.__dict__
    assert naive.events == vec.events
    assert naive.snapshot() == vec.snapshot()
    assert naive.cached_bytes == vec.cached_bytes
    assert naive.unique_bytes == vec.unique_bytes


def run_differential(combo, n_requests=N_REQUESTS, batch_size=0):
    """Replay one seeded workload into both engines, asserting equality
    after every operation: one ``request()`` per step at
    ``batch_size=0``, else one ``submit_batch`` call of random length —
    with adopt / evict_idle / split and cross-engine snapshot/restore
    round-trips between steps."""
    naive, vec = make_pair(combo)
    seed = "|".join(map(str, combo))  # str seeding is stable
    if batch_size:
        rng = Random(f"batched|{seed}|{batch_size}")
        adopt_every, idle_every, split_every, swap_every = 2, 3, 4, 5
    else:
        rng = Random(seed)
        adopt_every, idle_every, split_every, swap_every = 61, 97, 113, 149
    served = step = 0
    while served < n_requests:
        step += 1
        n = rng.randint(1, 2 * batch_size) if batch_size else 1
        window = [
            frozenset(rng.sample(PACKAGES, rng.randint(1, 6)))
            for _ in range(n)
        ]
        if batch_size:
            d_naive = naive.submit_batch(window, batch_size=batch_size)
            d_vec = vec.submit_batch(window, batch_size=batch_size)
        else:
            d_naive = [naive.request(window[0])]
            d_vec = [vec.request(window[0])]
        assert [decision_key(d) for d in d_naive] == [
            decision_key(d) for d in d_vec
        ], f"step {step}: engines diverged on {[sorted(s) for s in window]}"
        served += n

        if step % adopt_every == 0:
            adopted = frozenset(rng.sample(PACKAGES, rng.randint(1, 4)))
            a_naive = naive.adopt(adopted)
            a_vec = vec.adopt(adopted)
            assert (a_naive.id, a_naive.size) == (a_vec.id, a_vec.size)

        if step % idle_every == 0:
            horizon = rng.randint(0, 25)
            assert naive.evict_idle(horizon) == vec.evict_idle(horizon)

        if step % split_every == 0 and naive._images:
            image_id = rng.choice(sorted(naive._images))
            pkgs = sorted(naive._images[image_id].packages)
            rng.shuffle(pkgs)
            cut = rng.randint(1, len(pkgs))
            parts = [frozenset(pkgs[:cut])]
            if cut < len(pkgs) and rng.random() < 0.8:
                parts.append(frozenset(pkgs[cut:]))
            s_naive = naive.split(image_id, parts)
            s_vec = vec.split(image_id, parts)
            assert [im.id for im in s_naive] == [im.id for im in s_vec]

        if step % swap_every == 0:
            # Snapshot both, then restore each snapshot into a fresh
            # cache of the *other* engine: a restored matrix must pick
            # up exactly where the big-int path left off (and vice
            # versa).  Events reset at the boundary, so compare first.
            assert_same_state(naive, vec)
            snap_naive, snap_vec = naive.snapshot(), vec.snapshot()
            assert snap_naive == snap_vec
            naive, vec = make_pair(combo)
            naive.restore(snap_vec)
            vec.restore(snap_naive)
    assert_same_state(naive, vec)
    return naive, vec


@pytest.mark.parametrize("combo", GRID, ids=_combo_id)
def test_engines_bit_identical(combo):
    run_differential(combo)


def test_pinned_threshold_keeps_the_reference_loops_out(monkeypatch):
    """What the module fixture is for: with the threshold at 0 a
    vectorized cache never runs the loops it inherits, however few
    images it holds — the grid above compares two implementations."""
    def loop_called(*_args, **_kwargs):
        raise AssertionError("reference loop served a vectorized scan")

    _naive, vec = make_pair(GRID[0])
    vec.request(frozenset(PACKAGES[:2]))  # an empty cache has no rows to scan
    monkeypatch.setattr(NaiveEngine, "find_hit", loop_called)
    monkeypatch.setattr(NaiveEngine, "scan_candidates", loop_called)
    rng = Random("pinned")
    window = [
        frozenset(rng.sample(PACKAGES, rng.randint(1, 6))) for _ in range(64)
    ]
    for spec in window:
        vec.request(spec)
    vec.submit_batch(window, batch_size=16)
    assert vec.stats.requests == 129 and 0 < len(vec) < 32


# -- Batched-submission variants ---------------------------------------------
#
# Reduced grids (deterministic strides over the full 108-combination grid)
# keep the added runtime modest while still crossing every knob value.

BATCH_GRID = GRID[::9]


@pytest.mark.parametrize("combo", BATCH_GRID, ids=_combo_id)
def test_engines_bit_identical_batched(combo):
    run_differential(combo, n_requests=600, batch_size=7)


@pytest.mark.parametrize("engine", ["naive", "vectorized"])
@pytest.mark.parametrize("combo", BATCH_GRID, ids=_combo_id)
def test_submit_batch_equals_sequential_naive_requests(combo, engine):
    """``submit_batch(stream)`` under either engine is
    ``[request(s) for s in stream]`` on the reference engine: decisions,
    stats, events, snapshot, and one latency observation per request."""
    from repro.obs import MetricsRegistry

    rng = Random("sequential|" + "|".join(map(str, combo)))
    stream = [
        frozenset(rng.sample(PACKAGES, rng.randint(1, 6))) for _ in range(300)
    ]
    reference, _ = make_pair(combo)
    subject = make_pair(combo)[("naive", "vectorized").index(engine)]
    registries = MetricsRegistry(), MetricsRegistry()
    reference.enable_metrics(registries[0])
    subject.enable_metrics(registries[1])
    # Keyed after both runs: a decision's image may be merged into later.
    expected = [reference.request(spec) for spec in stream]
    got = subject.submit_batch(stream, batch_size=7)
    assert [decision_key(d) for d in got] == [
        decision_key(d) for d in expected
    ]
    assert_same_state(reference, subject)
    counts = [
        registry.get("landlord_request_seconds").labels(engine=name).count
        for registry, name in zip(registries, ("naive", engine))
    ]
    assert counts == [len(stream)] * 2


# -- Forced compaction and the refcount invariant ---------------------------

COMPACT_GRID = GRID[3::12]


@pytest.mark.parametrize("batched", [False, True], ids=["request", "batch"])
@pytest.mark.parametrize("combo", COMPACT_GRID, ids=_combo_id)
def test_engines_bit_identical_forced_compaction(combo, batched, monkeypatch):
    """Compaction on effectively every eviction, mid-stream.

    With the thresholds floored, any dead row triggers a live-row
    repack, so both differentials (which interleave evict_idle, splits,
    and cross-engine snapshot/restore round-trips) keep crossing
    compaction boundaries — between two requests of one ``submit_batch``
    call included — and decisions, events, stats and snapshots must
    stay bit-identical throughout."""
    monkeypatch.setattr(VectorizedEngine, "_COMPACT_MIN_TOP", 1)
    monkeypatch.setattr(VectorizedEngine, "_COMPACT_DEAD_FRACTION", 0.0)
    if batched:
        naive, vec = run_differential(combo, n_requests=600, batch_size=7)
        # One more call with nothing else between its requests: the
        # repacks it counts happened inside it.
        before = vec._engine.compaction_stats["compactions"]
        rng = Random("mid-call")
        window = [
            frozenset(rng.sample(PACKAGES, rng.randint(1, 6)))
            for _ in range(64)
        ]
        assert [
            decision_key(d) for d in naive.submit_batch(window, batch_size=64)
        ] == [decision_key(d) for d in vec.submit_batch(window, batch_size=64)]
        assert vec._engine.compaction_stats["compactions"] > before
    else:
        naive, vec = run_differential(combo, n_requests=600)
    # A final mass idle-eviction guarantees at least one compaction on
    # the *current* pair (restore boundaries reset the counters).
    assert naive.evict_idle(0) == vec.evict_idle(0)
    assert vec._engine.compaction_stats["compactions"] >= 1
    assert vec._engine._top == vec._engine._n_live
    assert not vec._engine._free
    assert_same_state(naive, vec)


def test_snapshot_restore_across_compaction_boundary():
    """Snapshots taken right after a compaction restore exactly, into
    either engine, and both caches continue bit-identically."""
    combo = ("smallest", "distance", "lru", "full", False)
    naive, vec = make_pair(combo)
    rng = Random("compaction-boundary")
    for _ in range(400):
        spec = frozenset(rng.sample(PACKAGES, rng.randint(1, 6)))
        naive.request(spec)
        vec.request(spec)
    assert naive.evict_idle(1) == vec.evict_idle(1)

    engine = vec._engine
    # Force the repack regardless of the organic dead fraction.
    engine.compact()
    assert engine._top == engine._n_live
    assert not engine._free
    assert_same_state(naive, vec)

    snap = vec.snapshot()
    assert snap == naive.snapshot()
    naive2, vec2 = make_pair(combo)
    naive2.restore(snap)   # vectorized snapshot into the big-int path
    vec2.restore(snap)
    for _ in range(200):
        spec = frozenset(rng.sample(PACKAGES, rng.randint(1, 6)))
        d_naive = naive2.request(spec)
        d_vec = vec2.request(spec)
        assert decision_key(d_naive) == decision_key(d_vec)
    assert_same_state(naive2, vec2)


def assert_refcounts_exact(cache):
    """What the vectorized hit scan rests on, checked from scratch:
    ``_refcounts[p]`` == live images whose mask has bit ``p`` == the sum
    of column ``p`` of the matrix over live rows."""
    counts = cache._refcounts
    expected = np.zeros(counts.size, dtype=np.int64)
    for image in cache._images.values():
        assert image.mask.bit_count() == image.package_count
        expected[image.indices] += 1
    assert np.array_equal(counts, expected)
    engine = cache._engine
    if engine.name != "vectorized":
        return
    top = engine._top
    live = engine._live[:top]
    assert int(live.sum()) == engine._n_live == len(cache)
    bits = np.unpackbits(
        engine._matrix[:top][live].view(np.uint8), axis=1, bitorder="little"
    )
    columns = bits.sum(axis=0, dtype=np.int64)
    width = min(columns.size, counts.size)
    assert np.array_equal(columns[:width], counts[:width])
    assert not columns[width:].any() and not counts[width:].any()


@pytest.mark.parametrize("selection", HIT_SELECTION)
def test_refcounts_equal_live_column_sums_after_every_call(selection):
    """A randomised sequence of every public state-changing call (and
    the read-only ones between them), on a universe several matrix
    words wide, under capacity pressure with merges: after each call
    both caches satisfy the refcount invariant and agree."""
    packages = [f"wide{i:03d}/1.0" for i in range(150)]
    sizes = {pid: 5 + (i * 37) % 90 for i, pid in enumerate(packages)}

    def pair():
        return tuple(
            LandlordCache(
                2500, ALPHA, sizes.__getitem__, hit_selection=selection,
                engine=engine, rng=np.random.default_rng(7),
            )
            for engine in ("naive", "vectorized")
        )

    rng = Random(f"refcounts-{selection}")

    def spec():
        # Clustered draws so that merges, hits and misses all occur.
        base = rng.randrange(0, 140, 10)
        return frozenset(rng.sample(packages[base:base + 24], rng.randint(1, 7)))

    caches = pair()
    calls = {name: 0 for name in (
        "request", "submit_batch", "peek", "adopt", "split", "evict_idle",
        "clear", "restore", "compact",
    )}
    for step in range(700):
        draw = rng.random()
        if draw < 0.55:
            name, wanted = "request", spec()
            results = [decision_key(c.request(wanted)) for c in caches]
        elif draw < 0.70:
            name = "submit_batch"
            window = [spec() for _ in range(rng.randint(1, 40))]
            size = rng.choice([1, 5, 64])
            results = [
                [decision_key(d) for d in c.submit_batch(window, batch_size=size)]
                for c in caches
            ]
        elif draw < 0.78:
            name, wanted = "peek", spec()
            found = [c.peek(wanted) for c in caches]
            results = [None if image is None else image.id for image in found]
        elif draw < 0.84:
            name, wanted = "adopt", spec()
            results = [c.adopt(wanted).id for c in caches]
        elif draw < 0.90 and caches[0]._images:
            name = "split"
            image_id = rng.choice(sorted(caches[0]._images))
            held = sorted(caches[0]._images[image_id].packages)
            cut = rng.randint(1, len(held))
            parts = [frozenset(held[:cut])]
            if cut < len(held) and rng.random() < 0.7:
                parts.append(frozenset(held[cut:]))
            results = [[im.id for im in c.split(image_id, parts)] for c in caches]
        elif draw < 0.95:
            name = "evict_idle"
            horizon = rng.randint(0, 30)
            results = [c.evict_idle(horizon) for c in caches]
        elif draw < 0.96:
            name = "clear"
            results = [c.clear() for c in caches]
        elif draw < 0.98:
            name = "restore"
            snapshots = [c.snapshot() for c in caches]
            assert snapshots[0] == snapshots[1]
            caches = pair()
            results = [c.restore(snapshots[1 - i]) for i, c in enumerate(caches)]
        else:
            name = "compact"
            caches[1]._engine.compact()
            assert caches[1]._engine._top == len(caches[1])
            results = [None, None]
        calls[name] += 1
        assert results[0] == results[1], f"step {step}: {name} diverged"
        for cache in caches:
            assert_refcounts_exact(cache)
    assert all(calls.values()), calls
    naive, vec = caches
    assert naive.snapshot() == vec.snapshot()
    assert naive.stats.__dict__ == vec.stats.__dict__
    assert vec._engine._words == 8  # 150 packages: 3 words, one growth step
