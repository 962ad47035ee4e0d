"""Interning and the id-free merge path.

Four contracts of ``repro.core.cache`` below Algorithm 1:

- a failed intern leaves no trace — a name the cache's package index
  lacks is rejected, and rejected again on retry, never accepted;
- a cache numbers its packages once, by its index, and never registers
  a name: every cache on a repository shares the repository's index
  read-only, a restored one included, so a state file's masks and a
  journal entry's are its masks as they stand;
- ``_Universe.mask_of`` equals a one-lookup-per-id formulation for any
  collection, duplicates included;
- the cached image's mask is the one stored copy of its package set:
  ``indices`` and ``packages`` are views of it, ``package_count`` and
  ``size`` stay exact over merges and splits, and neither the default
  (``NoConflicts``) merge path nor a split materialises an id.
"""

import hashlib
import json
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache, _Universe, mask_of_text
from repro.core.events import EventKind
from repro.core.journal import JournaledState, recover_state
from repro.htc.workload import DependencyWorkload, build_stream
from repro.packages.conflicts import SlotConflicts
from repro.packages.repository import PackageIndex
from repro.packages.sft import build_experiment_repository
from repro.util.rng import spawn
from repro.util.units import GB
from tests.core.test_mask_matrix import v3_record

SIZES = PackageIndex.of({"a": 10, "b": 20, "c": 30})


def universe_state(cache):
    universe = cache._universe
    return len(universe), list(universe.index.ids), universe._sizes.tolist()


class TestFailedInternLeavesNoTrace:
    CASES = [pytest.param(SIZES, KeyError, id="unknown-id")]

    @pytest.mark.parametrize("index,error", CASES)
    @pytest.mark.parametrize("via", ["request", "submit_batch"])
    def test_rejected_again_on_retry(self, index, error, via):
        cache = LandlordCache(1_000, 0.5, index)
        cache.request(["b"])
        before = universe_state(cache)
        submit = (
            cache.request if via == "request"
            else lambda spec: cache.submit_batch([["b"], spec])
        )
        for _attempt in range(2):
            with pytest.raises(error):
                submit(["a", "ghost"])
            assert universe_state(cache) == before
        assert cache.stats.requests == 1 and len(cache) == 1
        # the valid half of the rejected spec is still uncached, and sized
        decision = cache.request(["a"])
        assert decision.action is EventKind.INSERT
        assert decision.requested_bytes == 10

    @pytest.mark.parametrize("index,error", CASES)
    def test_mask_of_is_all_or_nothing(self, index, error):
        universe = _Universe(index)
        universe.mask_of(["a"])
        for _attempt in range(2):
            with pytest.raises(error, match="unknown package: 'ghost'"):
                universe.mask_of(["b", "ghost", "c"])
        assert len(universe) == 3 and universe.index.ids == ["a", "b", "c"]
        assert universe.index.position == {"a": 0, "b": 1, "c": 2}


# -- mask_of against its reference formulation --------------------------------

POOL = [f"pkg{i}" for i in range(80)]
POOL_INDEX = PackageIndex.of(dict.fromkeys(POOL, 7))
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "frozenset": frozenset,
    "generator": iter,  # one-shot: can be walked once
}


def reference_mask_of(position, packages):
    """One lookup per id, a Python set for the duplicates."""
    indices = sorted({position[p] for p in packages})
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask, indices


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(st.sampled_from(POOL), max_size=120),
    kind=st.sampled_from(sorted(CONTAINERS)),
    unknown_at=st.none() | st.integers(0, 120),
)
def test_mask_of_matches_reference(drawn, kind, unknown_at):
    universe = _Universe(POOL_INDEX)
    if unknown_at is not None:
        drawn = drawn[:unknown_at] + ["ghost"] + drawn[unknown_at:]
    collection = drawn if kind == "generator" else CONTAINERS[kind](drawn)
    if unknown_at is not None:
        with pytest.raises(KeyError, match="unknown package: 'ghost'"):
            universe.mask_of(
                iter(collection) if kind == "generator" else collection
            )
        return
    mask, indices = universe.mask_of(
        iter(collection) if kind == "generator" else collection
    )
    ref_mask, ref_indices = reference_mask_of(POOL_INDEX.position, drawn)
    assert mask == ref_mask
    assert indices.dtype == np.int64 and indices.tolist() == ref_indices
    assert universe.index is POOL_INDEX and len(universe) == 80


def test_oracle_raising_on_the_last_new_name_leaves_no_trace():
    universe = _Universe(POOL_INDEX)
    universe.mask_of(["pkg0", "pkg1"])
    index, ids = dict(universe.index.position), list(universe.index.ids)
    sizes = universe._sizes.copy()
    with pytest.raises(KeyError, match="unknown package: 'last'"):
        universe.mask_of(["pkg1", "pkg9", "pkg8", "pkg9", "pkg0", "last"])
    assert universe.index.position == index and universe.index.ids == ids
    assert np.array_equal(universe._sizes, sizes)


# Recorded when a cache on ``repo.size_of`` started from the repository's
# numbering: the v3 state table after replaying the ledger's seed-901
# ``replay_zone`` stream, its names in the order they first appear among
# the live images, smallest first — without the repository digest, which
# came later and is checked on its own.  ``v3_record`` rebuilds it.
ZONE_REPOSITORY_TABLE_SHA256 = (
    "477b8d142b7752d0b66eb726396e73d79b29210e3b7ed35673f6429027004fc1"
)
# The v4 record of the same cache: every image's mask as it stands.
ZONE_REPOSITORY_MASKS_SHA256 = (
    "4a1198c6507ec91ece05fa4e2b0346a0a1857f08059fb6c0465025957db33286"
)


@pytest.fixture(scope="module")
def zone_replay():
    """The ledger's ``replay_zone`` configuration and its seed-901 stream."""
    repo = build_experiment_repository("sft", seed=2020)
    specs = build_stream(
        DependencyWorkload(repo, 100), spawn(901, "ledger", "replay_zone", 0),
        n_unique=600, repeats=3,
    )
    return repo, specs


def table_sha256(table):
    table = {key: value for key, value in table.items() if key != "repository"}
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()


def test_zone_replay_table_is_byte_identical(zone_replay):
    """Fed wire lists or frozensets, and restored from its own record or
    from the v3 table its parent wrote, a cache writes the same record
    bytes: none of them depends on the order names arrive in, or on
    whether the cache was restored."""
    repo, specs = zone_replay
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        cache.request(sorted(spec))
    record = cache.mask_snapshot()
    assert table_sha256(record) == ZONE_REPOSITORY_MASKS_SHA256
    assert record["repository"] == repo.size_of.digest
    assert table_sha256(v3_record(cache)) == ZONE_REPOSITORY_TABLE_SHA256
    as_sets = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        as_sets.request(spec)
    assert as_sets.mask_snapshot() == record
    for state in (json.loads(json.dumps(record)), v3_record(cache)):
        restored = LandlordCache(1400 * GB, 0.8, repo.size_of)
        restored.restore(state)
        assert restored._universe.index is repo.size_of
        assert restored.mask_snapshot() == record
        assert restored.snapshot() == cache.snapshot()


def test_zone_replay_table_on_the_repository_numbering(zone_replay):
    repo, specs = zone_replay
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        cache.request(sorted(spec))
    record = cache.mask_snapshot()
    # Bit i of every mask is the repository's package i.
    for image, written in zip(cache.images, record["images"]):
        mask = mask_of_text(written["mask"])
        assert mask == image.mask
        assert {repo.ids[i] for i in range(mask.bit_length())
                if mask >> i & 1} == image.packages
    stats = cache.stats
    assert (stats.hits, stats.merges, stats.inserts, stats.deletes) == (
        80, 1291, 429, 419
    )


# -- one numbering per cache, never grown --------------------------------------


def index_state(index):
    return dict(index.position), list(index.ids), index.sizes.tolist()


def test_zone_replay_on_the_repository_registers_nothing(
    zone_replay, monkeypatch
):
    repo, specs = zone_replay

    def no_call(_self, pid):
        raise AssertionError(f"the index was called for {pid!r}")

    monkeypatch.setattr(PackageIndex, "__call__", no_call)
    before = index_state(repo.size_of)
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        cache.request(spec)
    batched = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for i in range(0, len(specs), 256):
        batched.submit_batch([sorted(spec) for spec in specs[i:i + 256]])
    assert cache.stats.requests == batched.stats.requests == len(specs)
    assert batched.snapshot() == cache.snapshot()
    for universe in (cache._universe, batched._universe):
        assert universe.index is repo.size_of and len(universe) == len(repo)
    assert index_state(repo.size_of) == before


def test_caches_on_one_repository_share_its_numbering(zone_replay):
    repo, specs = zone_replay
    index = repo.size_of
    before = index_state(index)
    caches = [LandlordCache(1400 * GB, 0.8, repo.size_of) for _ in range(2)]
    for cache in caches:
        for spec in specs[:300]:
            cache.request(spec)
        universe = cache._universe
        assert universe.index is index
        assert universe.index.position is index.position
        assert universe.index.ids is index.ids
        assert universe._sizes is index.sizes
        assert len(universe) == len(repo)
    assert not index.sizes.flags.writeable
    assert index_state(index) == before
    # A drawn spec is interned once: both caches read its one triple.
    for spec in specs[:300]:
        assert spec.interned is not None
        assert caches[0]._intern(spec) is caches[1]._intern(spec) is spec.interned


def test_a_restored_cache_numbers_the_state_s_generation(zone_replay):
    """A state's generation is the repository numbering: a restored
    cache shares the repository's index, as a fresh one does."""
    repo, specs = zone_replay
    before = index_state(repo.size_of)
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs[:400]:
        cache.request(spec)
    record = cache.mask_snapshot()
    restored = LandlordCache(1400 * GB, 0.8, repo.size_of)
    restored.restore(record)
    assert restored._universe.index is repo.size_of
    assert [image.mask for image in restored.images] == [
        image.mask for image in cache.images]
    assert index_state(repo.size_of) == before
    # Restored, it decides on as the original does.
    for spec in specs[400:]:
        assert restored.request(spec).action is cache.request(spec).action
    assert restored.snapshot() == cache.snapshot()


def test_a_state_of_another_repository_is_refused(zone_replay):
    repo, specs = zone_replay
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    cache.request(specs[0])
    table = cache.mask_snapshot()
    other = PackageIndex.of(
        {pid: repo.size_of(pid) for pid in reversed(repo.ids)}
    )
    stranger = LandlordCache(1400 * GB, 0.8, other)
    with pytest.raises(ValueError, match="another repository|written against"):
        stranger.restore(table)
    assert len(stranger) == 0 and stranger._universe.index is other


@pytest.mark.parametrize("via", ["request", "submit_batch"])
def test_unknown_name_on_the_repository_is_rejected_again_on_retry(
    zone_replay, via
):
    repo, specs = zone_replay
    index = repo.size_of
    before = index_state(index)
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    known = sorted(specs[0])
    cache.request(known)
    submit = (
        cache.request if via == "request"
        else lambda spec: cache.submit_batch([known, spec])
    )
    for _attempt in range(2):
        with pytest.raises(KeyError, match="unknown package: 'ghost'"):
            submit([sorted(specs[1])[0], "ghost"])
        assert index_state(index) == before
        assert len(cache._universe) == len(repo)
    assert cache.stats.requests == 1 and len(cache) == 1


def test_recovery_of_a_fresh_site_before_its_first_checkpoint(
    zone_replay, tmp_path
):
    """Every entry is a mask over the repository's own numbering, and
    recovery restores onto the repository's index."""
    repo, specs = zone_replay
    state = tmp_path / "state.json"
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    store = JournaledState(state, snapshot_every=10 ** 9)
    store.initialise(cache, {})
    for spec in specs[:200]:
        store.apply(cache, {}, "request", packages=sorted(spec))
    store.journal.close()
    first = store.journal.entries()[0].data
    mask = mask_of_text(first["mask"])
    assert set(first) == {"mask"}
    assert [repo.ids[i] for i in range(mask.bit_length()) if mask >> i & 1] \
        == sorted(specs[0], key=repo.size_of.position.__getitem__)

    serial = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs[:200]:
        serial.request(sorted(spec))
    recovered, _metadata, replayed = recover_state(
        state, package_size=repo.size_of
    )
    assert replayed == 200
    assert recovered._universe.index is repo.size_of
    assert recovered.snapshot() == serial.snapshot() == cache.snapshot()


# -- the merge path handles no ids --------------------------------------------

NAMES = [f"lib{i}" for i in range(40)]
VERSIONS = [f"{name}/{version}.0" for name in NAMES for version in "123"]
TENS = PackageIndex.of(dict.fromkeys(VERSIONS, 10))


def merge_stream(n=500):
    """Overlapping 3-8 package specs in two versions, as wire lists."""
    rng = Random("merge-stream")
    out = []
    for _ in range(n):
        names = rng.sample(NAMES, rng.randint(3, 8))
        out.append([f"{name}/{rng.choice('12')}.0" for name in names])
    return out


def decided(cache):
    stats = cache.stats
    return (stats.hits, stats.merges, stats.inserts, stats.deletes,
            stats.conflicts_skipped, stats.candidates_examined, len(cache))


def assert_image_consistent(cache, image):
    """``mask`` is the set; everything else on the image agrees with it."""
    universe = cache._universe
    indices = image.indices
    assert np.array_equal(indices, universe.indices_of_mask(image.mask))
    assert np.all(np.diff(indices) > 0)  # sorted and unique
    assert image.package_count == image.mask.bit_count() == indices.size
    assert image.size == universe.bytes_of_indices(indices)
    assert len(image.packages) == image.package_count


def check_images(cache):
    for image in cache.images:
        assert_image_consistent(cache, image)


def test_default_merge_path_never_materialises_ids(monkeypatch):
    def no_ids(_self, _indices):
        raise AssertionError("a package id set was built on the merge path")

    cache = LandlordCache(3_000, 0.8, TENS, record_events=True)
    monkeypatch.setattr(_Universe, "ids_of_indices", no_ids)
    for spec in merge_stream():
        cache.request(spec)
    assert cache.stats.merges >= 200
    # counts measured at the parent commit, which built the sets
    assert decided(cache) == (3, 226, 271, 235, 0, 17842, 36)
    monkeypatch.undo()
    check_images(cache)


class RecordingSlots(SlotConflicts):
    """``SlotConflicts`` that notes what it was handed."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def describe(self):
        return "SlotConflicts"

    def conflicts(self, a, b):
        self.seen.add((type(a), type(b)))
        return super().conflicts(a, b)


def test_conflict_policies_still_see_frozensets_and_decide_as_before():
    policy = RecordingSlots()
    cache = LandlordCache(3_000, 0.8, TENS, conflict_policy=policy)
    plain = LandlordCache(
        3_000, 0.8, TENS, conflict_policy=SlotConflicts()
    )
    for spec in merge_stream():
        cache.request(spec)
        plain.request(frozenset(spec))
    assert policy.seen == {(frozenset, frozenset)}
    assert decided(cache) == (2, 197, 301, 261, 51, 18849, 40)
    assert cache.snapshot() == plain.snapshot()
    check_images(cache)


def test_split_never_materialises_ids(monkeypatch):
    def no_ids(_self, _indices):
        raise AssertionError("a package id set was built by split")

    cache = LandlordCache(10 ** 9, 0.97, TENS)
    for spec in merge_stream(200):
        cache.request(spec)
    image = max(cache.images, key=lambda im: im.package_count)
    held = sorted(image.packages)
    cut = len(held) // 2
    monkeypatch.setattr(_Universe, "ids_of_indices", no_ids)
    parts = cache.split(image.id, [held[:cut], held[cut:]])
    monkeypatch.undo()
    assert [part.package_count for part in parts] == [cut, len(held) - cut]
    check_images(cache)


def test_images_stay_consistent_over_merge_chains_and_splits():
    cache = LandlordCache(
        10 ** 9, 0.97, PackageIndex.of({pid: 5 + len(pid) for pid in VERSIONS})
    )
    rng = Random("chains")
    for step in range(600):
        names = rng.sample(NAMES, rng.randint(2, 10))
        cache.request([f"{name}/{rng.choice('123')}.0" for name in names])
        if step % 97 == 96:
            image = rng.choice([
                im for im in cache.images if im.package_count >= 2
            ])
            packages = sorted(image.packages)
            cut = len(packages) // 2
            cache.split(image.id, [packages[:cut], packages[cut:]])
            check_images(cache)
    assert cache.stats.merges > 300 and cache.stats.splits == 6
    assert max(image.merge_count for image in cache.images) > 20
    check_images(cache)
    assert cache.cached_bytes == sum(image.size for image in cache.images)
