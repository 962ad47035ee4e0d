"""Tests for repro.core.policies (the baseline strategies)."""

import pytest

from repro.core.events import EventKind
from repro.core.policies import (
    ExactLRUPolicy,
    FullRepoPolicy,
    NoCachePolicy,
    SingleImagePolicy,
)
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 10 for i in range(50)}


size_of = PackageIndex.of(SIZE)


def spec(*ids):
    return frozenset(ids)


class TestExactLRU:
    def test_never_merges(self):
        policy = ExactLRUPolicy(10_000, size_of)
        policy.request(spec("p0", "p1"))
        policy.request(spec("p0", "p2"))
        assert policy.stats.merges == 0
        assert policy.stats.inserts == 2

    def test_subset_reuse_still_happens(self):
        policy = ExactLRUPolicy(10_000, size_of)
        policy.request(spec("p0", "p1"))
        assert policy.request(spec("p0")).action is EventKind.HIT

    def test_evicts_lru(self):
        policy = ExactLRUPolicy(30, size_of)
        policy.request(spec("p0", "p1"))
        policy.request(spec("p2"))
        policy.request(spec("p3", "p4"))
        assert policy.stats.deletes >= 1


class TestSingleImage:
    def test_absorbs_everything_even_disjoint(self):
        policy = SingleImagePolicy(size_of)
        policy.request(spec("p0"))
        policy.request(spec("p1"))          # disjoint: d_j = 1.0
        policy.request(spec("p2", "p3"))
        assert len(policy) == 1
        assert policy.cached_bytes == 40

    def test_cache_efficiency_always_one(self):
        policy = SingleImagePolicy(size_of)
        policy.request(spec("p0", "p1"))
        policy.request(spec("p2"))
        assert policy.unique_bytes == policy.cached_bytes

    def test_container_efficiency_degrades(self):
        policy = SingleImagePolicy(size_of)
        for i in range(10):
            policy.request(spec(f"p{i}"))
        # every later request runs in the ever-growing image
        assert policy.stats.container_efficiency < 0.5

    def test_repeat_requests_hit(self):
        policy = SingleImagePolicy(size_of)
        policy.request(spec("p0"))
        policy.request(spec("p1"))
        assert policy.request(spec("p0")).action is EventKind.HIT


class TestFullRepo:
    def test_every_request_is_a_hit(self):
        policy = FullRepoPolicy(SIZE.keys(), size_of)
        for s in (spec("p0"), spec("p1", "p2"), spec("p49")):
            assert policy.request(s).action is EventKind.HIT

    def test_setup_cost_recorded_separately(self):
        policy = FullRepoPolicy(SIZE.keys(), size_of)
        assert policy.setup_bytes_written == 500
        assert policy.stats.bytes_written == 0

    def test_out_of_repo_request_rejected(self):
        policy = FullRepoPolicy(["p0"], size_of)
        with pytest.raises(KeyError):
            policy.request(spec("p1"))

    def test_empty_repo_rejected(self):
        with pytest.raises(ValueError):
            FullRepoPolicy([], size_of)

    def test_container_efficiency_is_request_over_repo(self):
        policy = FullRepoPolicy(SIZE.keys(), size_of)
        policy.request(spec("p0"))
        assert policy.stats.container_efficiency == pytest.approx(10 / 500)


class TestNoCache:
    def test_every_request_is_an_insert(self):
        policy = NoCachePolicy(size_of)
        policy.request(spec("p0"))
        policy.request(spec("p0"))   # identical request, still rebuilt
        assert policy.stats.inserts == 2
        assert policy.stats.hits == 0

    def test_writes_equal_requests(self):
        policy = NoCachePolicy(size_of)
        policy.request(spec("p0", "p1"))
        policy.request(spec("p2"))
        assert policy.stats.bytes_written == policy.stats.requested_bytes == 30

    def test_reports_no_storage(self):
        policy = NoCachePolicy(size_of)
        policy.request(spec("p0"))
        assert policy.cached_bytes == 0
        assert policy.cache_efficiency == 1.0
