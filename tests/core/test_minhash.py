"""Tests for repro.core.minhash."""

import numpy as np
import pytest

from repro.core.minhash import MinHashLSH, MinHashSignature, element_hash
from repro.core.similarity import jaccard_similarity


class TestElementHash:
    def test_deterministic(self):
        assert element_hash("ROOT/6.20.04") == element_hash("ROOT/6.20.04")

    def test_distinct_inputs_distinct_hashes(self):
        assert element_hash("a") != element_hash("b")

    def test_64_bit_range(self):
        h = element_hash("anything")
        assert 0 <= h < 2**64


class TestSignature:
    def test_identical_sets_estimate_one(self):
        items = {f"p{i}" for i in range(50)}
        a = MinHashSignature.of(items)
        b = MinHashSignature.of(set(items))
        assert a.estimate_jaccard(b) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        a = MinHashSignature.of({f"a{i}" for i in range(100)}, num_perm=256)
        b = MinHashSignature.of({f"b{i}" for i in range(100)}, num_perm=256)
        assert a.estimate_jaccard(b) < 0.05

    def test_estimate_close_to_exact(self):
        x = {f"p{i}" for i in range(200)}
        y = {f"p{i}" for i in range(100, 300)}
        exact = jaccard_similarity(x, y)
        est = MinHashSignature.of(x, num_perm=512).estimate_jaccard(
            MinHashSignature.of(y, num_perm=512)
        )
        assert abs(est - exact) < 0.08

    def test_distance_complement(self):
        a = MinHashSignature.of({"x"})
        b = MinHashSignature.of({"x", "y"})
        assert a.estimate_distance(b) == pytest.approx(
            1 - a.estimate_jaccard(b)
        )

    def test_merge_equals_signature_of_union(self):
        x = {f"p{i}" for i in range(40)}
        y = {f"q{i}" for i in range(40)}
        merged = MinHashSignature.of(x).merge(MinHashSignature.of(y))
        direct = MinHashSignature.of(x | y)
        assert merged == direct

    def test_empty_set_signature(self):
        empty = MinHashSignature.of(set())
        assert empty.estimate_jaccard(MinHashSignature.of(set())) == 1.0
        assert empty.estimate_jaccard(MinHashSignature.of({"a"})) < 0.05

    def test_incompatible_widths_rejected(self):
        a = MinHashSignature.of({"x"}, num_perm=64)
        b = MinHashSignature.of({"x"}, num_perm=128)
        with pytest.raises(ValueError):
            a.estimate_jaccard(b)

    def test_incompatible_seeds_rejected(self):
        a = MinHashSignature.of({"x"}, seed=1)
        b = MinHashSignature.of({"x"}, seed=2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_zero_perm_rejected(self):
        with pytest.raises(ValueError):
            MinHashSignature.of({"x"}, num_perm=0)

    def test_copy_is_independent(self):
        a = MinHashSignature.of({"x"})
        b = a.copy()
        b.values[0] = 0
        assert a.values[0] != 0 or a.values[0] == b.values[0] == 0


class TestLSH:
    def test_band_shape_must_divide(self):
        with pytest.raises(ValueError):
            MinHashLSH(num_perm=128, bands=33)

    def test_insert_query_similar(self):
        lsh = MinHashLSH(num_perm=128, bands=32)
        base = {f"p{i}" for i in range(100)}
        lsh.insert("img", MinHashSignature.of(base))
        near = MinHashSignature.of(base | {"extra"})
        assert "img" in lsh.query(near)

    def test_query_misses_dissimilar(self):
        lsh = MinHashLSH(num_perm=128, bands=4)  # high threshold
        lsh.insert("img", MinHashSignature.of({f"a{i}" for i in range(100)}))
        far = MinHashSignature.of({f"b{i}" for i in range(100)})
        assert "img" not in lsh.query(far)

    def test_remove(self):
        lsh = MinHashLSH()
        sig = MinHashSignature.of({"x"})
        lsh.insert("k", sig)
        lsh.remove("k")
        assert "k" not in lsh
        assert lsh.query(sig) == set()

    def test_remove_absent_is_noop(self):
        MinHashLSH().remove("ghost")

    def test_reinsert_replaces(self):
        lsh = MinHashLSH()
        lsh.insert("k", MinHashSignature.of({"x"}))
        lsh.insert("k", MinHashSignature.of({"y"}))
        assert len(lsh) == 1
        assert "k" in lsh.query(MinHashSignature.of({"y"}))

    def test_threshold_reflects_banding(self):
        sharp = MinHashLSH(num_perm=128, bands=4)   # r=32: high threshold
        loose = MinHashLSH(num_perm=128, bands=64)  # r=2: low threshold
        assert sharp.threshold > loose.threshold

    def test_width_mismatch_rejected(self):
        lsh = MinHashLSH(num_perm=128)
        with pytest.raises(ValueError):
            lsh.insert("k", MinHashSignature.of({"x"}, num_perm=64))


class TestUpdate:
    def test_update_equals_remove_plus_insert(self):
        lsh = MinHashLSH()
        old = MinHashSignature.of({f"a{i}" for i in range(30)})
        new = MinHashSignature.of({f"a{i}" for i in range(25)} | {"z1", "z2"})
        lsh.insert("k", old)
        lsh.update("k", new)
        twin = MinHashLSH()
        twin.insert("k", new)
        assert lsh.query(new) == twin.query(new)
        assert lsh.total_entries() == twin.total_entries()

    def test_update_unknown_key_inserts(self):
        lsh = MinHashLSH()
        sig = MinHashSignature.of({"x"})
        lsh.update("k", sig)
        assert "k" in lsh
        assert "k" in lsh.query(sig)

    def test_band_membership_stays_bounded_over_merge_chains(self):
        # every key must occupy exactly one bucket per band no matter how
        # often merges rewrite its signature through update()
        from repro.core.cache import LandlordCache

        sizes = {f"p{i}": 10 for i in range(40)}
        c = LandlordCache(10**9, 1.0, sizes.__getitem__, use_minhash=True)
        base = {f"p{i}" for i in range(10)}
        c.request(frozenset(base))
        for i in range(10, 30):
            base.add(f"p{i}")
            c.request(frozenset(base))  # long merge chain into one image
        lsh = c._lsh
        assert lsh.total_entries() == lsh.bands * len(lsh)

    def test_total_entries_counts_buckets(self):
        lsh = MinHashLSH()
        lsh.insert("a", MinHashSignature.of({"x"}))
        lsh.insert("b", MinHashSignature.of({"y", "z"}))
        assert lsh.total_entries() == 2 * lsh.bands


class TestChurnInvariants:
    """The index must never leak bucket entries or empty buckets under
    arbitrary insert/update/remove churn — the regime the vectorized
    engine's signature index lives in, where every cache insert, merge,
    and eviction rewrites membership."""

    def test_total_entries_invariant_under_churn(self):
        from random import Random

        rng = Random("lsh-churn")
        lsh = MinHashLSH(num_perm=32, bands=8)
        live = {}
        for step in range(2000):
            key = f"k{rng.randint(0, 80)}"
            op = rng.random()
            if op < 0.75:
                sig = MinHashSignature.of(
                    {f"e{rng.randint(0, 200)}"
                     for _ in range(rng.randint(1, 20))},
                    num_perm=32,
                )
                if op < 0.45:
                    lsh.insert(key, sig)
                else:
                    lsh.update(key, sig)
                live[key] = sig
            else:
                lsh.remove(key)
                live.pop(key, None)
            assert len(lsh) == len(live)
            assert lsh.total_entries() == lsh.bands * len(live)
        # Bucket cleanup: churn must not leave empty buckets behind.
        for table in lsh._tables:
            assert all(table.values())
        # Every surviving key is still findable under its signature.
        for key, sig in live.items():
            assert key in lsh.query(sig)
