"""Interning and the id-free merge path.

Three contracts of ``repro.core.cache`` below Algorithm 1:

- a failed intern leaves no trace — an id the size oracle rejects is
  rejected again on retry, never accepted with size 0;
- a cache on a repository's ``size_of`` starts from the repository's
  numbering, shares it read-only and never registers a name; restored
  caches and plain callables number names as they first appear;
- ``_Universe.mask_of`` equals its first, one-lookup-per-id
  formulation for any collection, duplicates and new ids included, and
  its one-pass form numbers a zone replay's names exactly as the
  three-walk form before it did;
- the cached image's mask is the one stored copy of its package set:
  ``indices`` and ``packages`` are views of it, ``package_count`` and
  ``size`` stay exact over merges and splits, and neither the default
  (``NoConflicts``) merge path nor a split materialises an id.
"""

import hashlib
import json
from itertools import chain
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache, _Universe
from repro.core.events import EventKind
from repro.core.journal import JournaledState, recover_state
from repro.htc.workload import DependencyWorkload, build_stream
from repro.packages.conflicts import SlotConflicts
from repro.packages.sft import build_experiment_repository
from repro.util.rng import spawn
from repro.util.units import GB

SIZES = {"a": 10, "b": 20, "c": 30, "neg": -5}


def raising_oracle(pid):
    return SIZES[pid]  # KeyError for an unknown id


def negative_oracle(pid):
    return SIZES.get(pid, -1)


def universe_state(cache):
    universe = cache._universe
    return len(universe), list(universe._ids), universe._sizes.tolist()


class TestFailedInternLeavesNoTrace:
    CASES = [
        pytest.param(raising_oracle, KeyError, id="unknown-id"),
        pytest.param(negative_oracle, ValueError, id="negative-size"),
    ]

    @pytest.mark.parametrize("oracle,error", CASES)
    @pytest.mark.parametrize("via", ["request", "submit_batch"])
    def test_rejected_again_on_retry(self, oracle, error, via):
        cache = LandlordCache(1_000, 0.5, oracle)
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
        # the valid half of the rejected spec is still new, and sized
        decision = cache.request(["a"])
        assert decision.action is EventKind.INSERT
        assert decision.requested_bytes == 10

    @pytest.mark.parametrize("oracle,error", CASES)
    def test_mask_of_is_all_or_nothing(self, oracle, error):
        universe = _Universe(oracle)
        universe.mask_of(["a"])
        for _attempt in range(2):
            with pytest.raises(error):
                universe.mask_of(["b", "ghost", "c"])
        assert len(universe) == 1 and universe._ids == ["a"]
        assert universe._index == {"a": 0}


# -- mask_of against its reference formulation --------------------------------

POOL = [f"pkg{i}" for i in range(80)]
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "frozenset": frozenset,
    "generator": iter,  # one-shot: can be walked once
}


def reference_mask_of(index, packages):
    """The first formulation: ids numbered as first seen, one lookup (and
    one registration) per id, a Python set for the duplicates."""
    indices = sorted({index.setdefault(p, len(index)) for p in packages})
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask, indices


@settings(max_examples=200, deadline=None)
@given(
    known=st.lists(st.sampled_from(POOL), max_size=40),
    drawn=st.lists(st.sampled_from(POOL), max_size=120),
    kind=st.sampled_from(sorted(CONTAINERS)),
)
def test_mask_of_matches_reference(known, drawn, kind):
    universe = _Universe(lambda _pid: 7)
    reference = {}
    universe.mask_of(known)
    reference_mask_of(reference, known)
    # One collection object for both sides, so a set is walked in the
    # same order and new ids are numbered alike.
    collection = drawn if kind == "generator" else CONTAINERS[kind](drawn)
    mask, indices = universe.mask_of(
        iter(collection) if kind == "generator" else collection
    )
    ref_mask, ref_indices = reference_mask_of(reference, collection)
    assert mask == ref_mask
    assert indices.dtype == np.int64 and indices.tolist() == ref_indices
    assert universe._index == reference
    assert universe._ids == list(reference)
    assert universe._sizes[: len(universe)].tolist() == [7] * len(reference)


# -- the one pass: known and new names found by position ---------------------


def test_mixed_list_numbers_new_names_in_first_appearance_order():
    sizes = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
    universe = _Universe(sizes.__getitem__)
    universe.mask_of(["b", "d"])  # b = 0, d = 1
    mask, indices = universe.mask_of(["e", "b", "a", "e", "d", "c", "a"])
    assert universe._ids == ["b", "d", "e", "a", "c"]
    assert universe._index == {"b": 0, "d": 1, "e": 2, "a": 3, "c": 4}
    assert universe._sizes[:5].tolist() == [2, 4, 5, 1, 3]
    assert indices.tolist() == [0, 1, 2, 3, 4] and mask == 0b11111
    # all known now: the same list resolves without registering anything
    assert universe.mask_of(["c", "c", "b"])[1].tolist() == [0, 4]
    assert len(universe) == 5


def test_oracle_raising_on_the_last_new_name_leaves_no_trace():
    def oracle(pid):
        if pid == "last":
            raise KeyError(pid)
        return 10

    universe = _Universe(oracle)
    universe.mask_of(["k0", "k1"])
    index, ids = dict(universe._index), list(universe._ids)
    sizes = universe._sizes.copy()
    with pytest.raises(KeyError):
        universe.mask_of(["k1", "n0", "n1", "n0", "k0", "last"])
    assert universe._index == index and universe._ids == ids
    assert np.array_equal(universe._sizes, sizes)


# Recorded at the commit before interning took one pass (three walks over
# a first-seen spec): the state table after replaying the ledger's
# seed-901 ``replay_zone`` stream, each spec as a sorted wire list so the
# numbering does not depend on the process's string hashing.  Ids, their
# order and so every state file and journal line must stay byte-identical.
ZONE_TABLE_SHA256 = (
    "3208e86e9fc053ecd015174a97b90b41f3b6366f0c0a4d0e7eb5f99b04acb31e"
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


def test_zone_replay_table_is_byte_identical(zone_replay):
    repo, specs = zone_replay
    # A plain callable, not the repository's index: names are numbered
    # as they first appear, cache by cache.
    oracle = lambda pid: repo.size_of(pid)  # noqa: E731
    cache = LandlordCache(1400 * GB, 0.8, oracle)
    for spec in specs:
        cache.request(sorted(spec))
    table = json.dumps(cache.table_snapshot(), sort_keys=True).encode()
    assert hashlib.sha256(table).hexdigest() == ZONE_TABLE_SHA256
    stats = cache.stats
    assert (stats.hits, stats.merges, stats.inserts, stats.deletes) == (
        80, 1291, 429, 419
    )
    # The specs as the simulator holds them, frozensets: names are
    # numbered in each set's iteration order, first appearance first.
    as_sets = LandlordCache(1400 * GB, 0.8, oracle)
    for spec in specs:
        as_sets.request(spec)
    assert as_sets._universe._ids == list(
        dict.fromkeys(chain.from_iterable(specs))
    )
    assert as_sets.snapshot() == cache.snapshot()


# Recorded when a cache on ``repo.size_of`` started from the repository's
# numbering: the same replay's state table, its names in the order they
# first appear among the live images, smallest first.
ZONE_REPOSITORY_TABLE_SHA256 = (
    "477b8d142b7752d0b66eb726396e73d79b29210e3b7ed35673f6429027004fc1"
)


def test_zone_replay_table_on_the_repository_numbering(zone_replay):
    repo, specs = zone_replay
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        cache.request(sorted(spec))
    table = cache.table_snapshot()
    # Image by image, smallest first, each one's names not listed yet,
    # in repository order.
    position, listed = repo.size_of.position, []
    for image in sorted(cache.images, key=lambda image: image.package_count):
        listed += sorted(image.packages - set(listed), key=position.__getitem__)
    assert table["universe"] == listed
    assert set(listed) == set().union(*(image.packages for image in cache.images))
    encoded = json.dumps(table, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == ZONE_REPOSITORY_TABLE_SHA256
    stats = cache.stats
    assert (stats.hits, stats.merges, stats.inserts, stats.deletes) == (
        80, 1291, 429, 419
    )
    # Fed the frozensets instead, the table is the same bytes: the
    # numbering no longer depends on the order names arrive in.
    as_sets = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        as_sets.request(spec)
    assert as_sets.table_snapshot() == table
    # What the cache holds is what the first-appearance numbering holds.
    plain = LandlordCache(1400 * GB, 0.8, lambda pid: repo.size_of(pid))
    for spec in specs:
        plain.request(spec)
    assert plain.snapshot() == cache.snapshot()


# -- a repository's numbering, shared read-only -------------------------------


def index_state(index):
    return dict(index.position), list(index.ids), index.sizes.tolist()


def test_zone_replay_on_the_repository_registers_nothing(
    zone_replay, monkeypatch
):
    repo, specs = zone_replay

    def no_register(_self, _names):
        raise AssertionError("a name was registered on a numbered universe")

    monkeypatch.setattr(_Universe, "register", no_register)
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs:
        cache.request(spec)
    batched = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for i in range(0, len(specs), 256):
        batched.submit_batch([sorted(spec) for spec in specs[i:i + 256]])
    assert cache.stats.requests == batched.stats.requests == len(specs)
    assert batched.snapshot() == cache.snapshot()


def test_caches_on_one_repository_share_its_numbering(zone_replay):
    repo, specs = zone_replay
    index = repo.size_of
    before = index_state(index)
    caches = [LandlordCache(1400 * GB, 0.8, repo.size_of) for _ in range(2)]
    for cache in caches:
        for spec in specs[:300]:
            cache.request(spec)
        universe = cache._universe
        assert universe._index is index.position
        assert universe._ids is index.ids
        assert universe._sizes is index.sizes
        assert len(universe) == len(repo)
    assert not index.sizes.flags.writeable
    assert index_state(index) == before
    # Each cache still interns its own specs.
    assert caches[0]._spec_memo is not caches[1]._spec_memo
    assert len(caches[0]._spec_memo) == len(caches[1]._spec_memo) > 0


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
    """``initialise`` writes a checkpoint whose table is empty, so every
    entry before the next checkpoint declares its names as ``new``.
    Recovery restores into a universe of its own and registers them."""
    repo, specs = zone_replay
    state = tmp_path / "state.json"
    cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
    store = JournaledState(state, snapshot_every=10 ** 9)
    store.initialise(cache, {})
    for spec in specs[:200]:
        store.apply(cache, {}, "request", packages=sorted(spec))
    store.journal.close()
    first = store.journal.entries()[0].data
    assert first["new"] == [pid for pid in repo.ids if pid in specs[0]]

    serial = LandlordCache(1400 * GB, 0.8, repo.size_of)
    for spec in specs[:200]:
        serial.request(sorted(spec))
    recovered, _metadata, replayed = recover_state(
        state, package_size=repo.size_of
    )
    assert replayed == 200
    assert recovered._universe._index is not repo.size_of.position
    assert recovered.snapshot() == serial.snapshot() == cache.snapshot()


# -- the merge path handles no ids --------------------------------------------

NAMES = [f"lib{i}" for i in range(40)]


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

    cache = LandlordCache(3_000, 0.8, lambda _pid: 10, record_events=True)
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
    cache = LandlordCache(3_000, 0.8, lambda _pid: 10, conflict_policy=policy)
    plain = LandlordCache(
        3_000, 0.8, lambda _pid: 10, conflict_policy=SlotConflicts()
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

    cache = LandlordCache(10 ** 9, 0.97, lambda _pid: 10)
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
    cache = LandlordCache(10 ** 9, 0.97, lambda pid: 5 + len(pid))
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
