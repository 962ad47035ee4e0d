"""A drawn spec carries its interned form.

``Repository.closure`` and the workload schemes draw each spec as a
:class:`~repro.packages.repository.DrawnSpec`: a ``frozenset`` that
holds the index it was drawn on and, once a cache on that index has
interned it, the ``(mask, sorted indices, bytes)`` triple every cache on
the index then reads.  Contracts:

- a drawn spec decides exactly what its plain ``frozenset`` copy does,
  on the zone (merge-heavy, evicting) and wide (batched, hit-heavy)
  configurations, whether its slot is empty or already filled;
- a cache on another index resolves it by name, a missing name is that
  index's ``KeyError``, and the slot is left as it was;
- pickling and copying give a plain ``frozenset`` of the names, which
  is interned anew.
"""

import copy
import pickle

import pytest

from repro.core.cache import LandlordCache
from repro.core.policies import SingleImagePolicy
from repro.core.spec import ImageSpec
from repro.htc.workload import (
    DependencyWorkload, RandomWorkload, UserDriftWorkload, build_stream,
    jobs_from_specs,
)
from repro.packages.repository import DrawnSpec, PackageIndex
from repro.packages.sft import build_experiment_repository
from repro.util.rng import spawn
from repro.util.units import GB


@pytest.fixture(scope="module")
def repo():
    return build_experiment_repository("sft", seed=2020)


def zone_cache(repo):
    return LandlordCache(1400 * GB, 0.8, repo.size_of, record_events=True)


def wide_cache(repo):
    return LandlordCache(10 ** 18, 0.5, repo.size_of, record_events=True)


def replay(cache, stream, batched):
    if batched:
        for start in range(0, len(stream), 256):
            cache.submit_batch(stream[start:start + 256], batch_size=256)
    else:
        for spec in stream:
            cache.request(spec)
    return cache


@pytest.mark.parametrize("make_cache,unique,repeats,batched", [
    pytest.param(zone_cache, 300, 3, False, id="zone"),
    pytest.param(wide_cache, 300, 5, True, id="wide"),
])
def test_drawn_and_plain_streams_decide_identically(
    repo, make_cache, unique, repeats, batched
):
    drawn = build_stream(
        DependencyWorkload(repo, 100), spawn(51, "drawn", unique),
        n_unique=unique, repeats=repeats,
    )
    assert all(type(spec) is DrawnSpec for spec in drawn)
    plain = [frozenset(spec) for spec in drawn]
    assert plain == drawn and type(plain[0]) is frozenset
    filling = replay(make_cache(repo), drawn, batched)   # slots empty
    assert all(spec.interned is not None for spec in drawn)
    reading = replay(make_cache(repo), drawn, batched)   # slots filled
    named = replay(make_cache(repo), plain, batched)
    assert named.stats.requests == len(drawn)
    for cache in (filling, reading):
        assert cache.snapshot() == named.snapshot()
        assert cache.stats == named.stats
        assert cache.events == named.events


class TestAnotherIndex:
    """A drawn spec meeting a cache on another index takes the names
    path: the decision is the plain set's, and the slot stays empty."""

    def test_single_image_policy(self, repo):
        stream = build_stream(
            DependencyWorkload(repo, 20), spawn(52, "single"),
            n_unique=20, repeats=2,
        )
        drawn_policy, plain_policy = (
            SingleImagePolicy(repo.size_of) for _ in range(2)
        )
        for spec in stream:
            drawn_policy.request(spec)
            plain_policy.request(frozenset(spec))
        assert drawn_policy.stats == plain_policy.stats
        assert drawn_policy.cached_bytes == plain_policy.cached_bytes
        assert all(spec.interned is None for spec in stream)

    def test_a_cache_on_a_subset_index(self, repo):
        spec = repo.closure([repo.ids[4000]])
        missing = sorted(spec)[0]
        subset = PackageIndex.of({
            pid: repo.size_of(pid) for pid in repo.ids if pid != missing
        })
        cache = LandlordCache(10 ** 18, 0.5, subset)
        with pytest.raises(KeyError, match="unknown package"):
            cache.request(spec)
        assert spec.interned is None and len(cache) == 0
        fits = DrawnSpec(sorted(spec)[1:], repo.size_of)
        mask, indices, size = cache._intern(fits)
        assert fits.interned is None
        assert mask == cache._intern(frozenset(fits))[0]
        assert size == sum(repo.size_of(pid) for pid in fits)
        assert set(cache._universe.names_of_indices(indices)) == fits

    def test_an_equal_index_is_another_index(self, repo):
        spec = repo.closure([repo.ids[100]])
        twin = PackageIndex(list(repo.size_of.ids), repo.size_of.sizes)
        cache = LandlordCache(10 ** 18, 0.5, twin)
        cache.request(spec)
        assert spec.interned is None
        LandlordCache(10 ** 18, 0.5, repo.size_of).request(spec)
        assert spec.interned is not None


class TestProducers:
    def test_every_scheme_draws_on_the_repository_index(self, repo, rng):
        schemes = (
            DependencyWorkload(repo, 20), RandomWorkload(repo, 20),
            UserDriftWorkload(repo, 20),
        )
        for scheme in schemes:
            spec = scheme.sample(rng)
            assert type(spec) is DrawnSpec and spec.index is repo.size_of
            assert spec.interned is None  # filled lazily, by a cache

    def test_an_image_spec_and_a_job_keep_the_drawn_value(self, repo):
        spec = repo.closure([repo.ids[7]])
        assert ImageSpec(spec).packages is spec
        (job,) = jobs_from_specs([spec])
        assert job.spec.packages is spec


class TestPickleAndCopy:
    def test_round_trips_ship_names_only(self, repo):
        spec = repo.closure([repo.ids[3000]])
        cache = LandlordCache(10 ** 18, 0.5, repo.size_of)
        interned = cache._intern(spec)
        shipped = pickle.dumps(spec)
        assert len(shipped) < len(pickle.dumps(sorted(spec))) + 64
        for twin in (
            pickle.loads(shipped), copy.copy(spec), copy.deepcopy(spec),
        ):
            assert type(twin) is frozenset and twin == spec
            assert hash(twin) == hash(spec)
            again = cache._intern(twin)  # re-interned, by name
            assert again is not interned
            assert again[0] == interned[0] and again[2] == interned[2]
        assert spec.interned is interned
