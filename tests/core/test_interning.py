"""Interning and the id-free merge path.

Three contracts of ``repro.core.cache`` below Algorithm 1:

- a failed intern leaves no trace — an id the size oracle rejects is
  rejected again on retry, never accepted with size 0;
- ``_Universe.mask_of`` equals its first, one-lookup-per-id
  formulation for any collection, duplicates and new ids included;
- the cached image's mask is the one stored copy of its package set:
  ``indices`` and ``packages`` are views of it, ``package_count`` and
  ``size`` stay exact over merges and splits, and neither the default
  (``NoConflicts``) merge path nor a split materialises an id.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache, _Universe
from repro.core.events import EventKind
from repro.packages.conflicts import SlotConflicts

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
