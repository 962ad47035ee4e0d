"""Tests for repro.core.cache.LandlordCache — Algorithm 1 behaviours."""

import pytest

from repro.core.cache import LandlordCache
from repro.core.events import EventKind
from repro.core.spec import ImageSpec
from repro.packages.conflicts import SlotConflicts

SIZES = {f"p{i}": 10 for i in range(100)}
SIZES.update({f"q{i}": 10 for i in range(100)})
SIZES.update({"big": 1000, "small": 1})


def size_of(pid: str) -> int:
    return SIZES[pid]


def cache(capacity=10_000, alpha=0.75, **kw) -> LandlordCache:
    return LandlordCache(capacity, alpha, size_of, **kw)


def spec(*ids):
    return frozenset(ids)


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            cache(alpha=1.5)
        with pytest.raises(ValueError):
            cache(alpha=-0.1)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            cache(capacity=-1)

    @pytest.mark.parametrize("field,value", [
        ("hit_selection", "best"),
        ("candidate_order", "clever"),
        ("eviction", "arc"),
    ])
    def test_unknown_policies_rejected(self, field, value):
        with pytest.raises(ValueError):
            cache(**{field: value})


class TestInsert:
    def test_first_request_inserts(self):
        c = cache()
        decision = c.request(spec("p0", "p1"))
        assert decision.action is EventKind.INSERT
        assert decision.requested_bytes == 20
        assert decision.image.size == 20
        assert len(c) == 1

    def test_insert_counts_bytes_written(self):
        c = cache()
        c.request(spec("p0", "p1"))
        assert c.stats.bytes_written == 20
        assert c.stats.requested_bytes == 20

    def test_distant_specs_insert_separately(self):
        c = cache(alpha=0.3)
        c.request(spec("p0", "p1"))
        decision = c.request(spec("q0", "q1"))
        assert decision.action is EventKind.INSERT
        assert len(c) == 2

    def test_empty_spec_on_empty_cache(self):
        c = cache()
        decision = c.request(spec())
        assert decision.action is EventKind.INSERT
        assert decision.image.size == 0


class TestHit:
    def test_exact_repeat_hits(self):
        c = cache()
        first = c.request(spec("p0", "p1")).image
        decision = c.request(spec("p0", "p1"))
        assert decision.action is EventKind.HIT
        assert decision.image is first

    def test_subset_request_hits(self):
        c = cache()
        c.request(spec("p0", "p1", "p2"))
        assert c.request(spec("p1")).action is EventKind.HIT

    def test_hit_writes_nothing(self):
        c = cache()
        c.request(spec("p0"))
        before = c.stats.bytes_written
        c.request(spec("p0"))
        assert c.stats.bytes_written == before

    def test_smallest_superset_preferred(self):
        c = cache(alpha=0.0, hit_selection="smallest")
        c.request(spec("p0", "p1"))                  # small image
        c.request(spec("p0", "p1", "p2", "p3"))      # bigger superset image
        decision = c.request(spec("p0"))
        assert decision.action is EventKind.HIT
        assert decision.image.size == 20

    def test_mru_superset_preferred(self):
        c = cache(alpha=0.0, hit_selection="mru")
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p1", "p2", "p3"))      # most recently used
        decision = c.request(spec("p0"))
        assert decision.action is EventKind.HIT
        assert decision.image.size == 40

    def test_empty_spec_hits_any_image(self):
        c = cache()
        c.request(spec("p0"))
        assert c.request(spec()).action is EventKind.HIT


class TestMerge:
    def test_close_specs_merge(self):
        c = cache(alpha=0.75)
        c.request(spec("p0", "p1", "p2"))
        decision = c.request(spec("p0", "p1", "p3"))
        assert decision.action is EventKind.MERGE
        assert decision.image.packages == {"p0", "p1", "p2", "p3"}
        assert len(c) == 1

    def test_merge_distance_reported(self):
        c = cache(alpha=0.75)
        c.request(spec("p0", "p1", "p2"))
        decision = c.request(spec("p0", "p1", "p3"))
        assert decision.distance == pytest.approx(0.5)  # 1 - 2/4

    def test_merge_rewrites_whole_image(self):
        c = cache(alpha=0.75)
        c.request(spec("p0", "p1", "p2"))  # 30 written
        c.request(spec("p0", "p1", "p3"))  # merge: 40-byte image rewritten
        assert c.stats.bytes_written == 30 + 40

    def test_merge_bytes_added_is_only_new_content(self):
        c = cache(alpha=0.75)
        c.request(spec("p0", "p1", "p2"))
        decision = c.request(spec("p0", "p1", "p3"))
        assert decision.bytes_added == 10

    def test_alpha_zero_never_merges(self):
        c = cache(alpha=0.0)
        c.request(spec("p0", "p1"))
        decision = c.request(spec("p0", "p2"))
        assert decision.action is EventKind.INSERT

    def test_threshold_is_strict(self):
        # d({p0},{p1}) = 1.0; with alpha=1.0 the pair is NOT a candidate.
        c = cache(alpha=1.0)
        c.request(spec("p0"))
        assert c.request(spec("p1")).action is EventKind.INSERT
        # ...but any shared element brings d below 1.0 and merges.
        assert c.request(spec("p0", "q0")).action is EventKind.MERGE

    def test_closest_candidate_chosen(self):
        # near and far share a 5-package core but differ otherwise:
        # d(near, far) = 2/3 > alpha, so both stay cached.  The request is
        # within alpha of both (d = 1/3 and 6/13) and must merge into the
        # closer one (near).
        core = [f"p{i}" for i in range(5)]
        near = spec(*core, "p10", "p11", "p12", "p13", "p14")
        far = spec(*core, "p20", "p21", "p22", "p23", "p24")
        req = spec(*core, "p10", "p11", "p12", "p20", "p21")
        c = cache(alpha=0.5, candidate_order="distance")
        c.request(near)
        c.request(far)
        assert len(c) == 2
        decision = c.request(req)
        assert decision.action is EventKind.MERGE
        assert decision.distance == pytest.approx(1 - 8 / 12)
        # merged into near: far's unshared tail is absent
        assert "p24" not in decision.image.packages
        assert "p14" in decision.image.packages

    def test_merge_count_tracked_on_image(self):
        c = cache(alpha=0.9)
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))
        c.request(spec("p0", "p3"))
        assert c.images[0].merge_count == 2

    def test_repeated_merges_accumulate_monotonically(self):
        c = cache(alpha=0.95)
        members = ["p0"]
        c.request(spec(*members))
        for i in range(1, 10):
            members.append(f"p{i}")
            c.request(spec("p0", f"p{i}"))
        assert c.images[0].packages == set(members)


class TestConflicts:
    def test_conflicting_merge_skipped(self):
        c = LandlordCache(
            10_000, 0.9,
            package_size=lambda p: 10,
            conflict_policy=SlotConflicts(),
        )
        c.request(spec("root/6.20", "gcc/8.0"))
        decision = c.request(spec("root/6.18", "gcc/8.0"))
        assert decision.action is EventKind.INSERT
        assert c.stats.conflicts_skipped >= 1
        assert len(c) == 2

    def test_non_conflicting_still_merges_under_policy(self):
        c = LandlordCache(
            10_000, 0.9,
            package_size=lambda p: 10,
            conflict_policy=SlotConflicts(),
        )
        c.request(spec("root/6.20", "gcc/8.0"))
        decision = c.request(spec("root/6.20", "geant/10.0"))
        assert decision.action is EventKind.MERGE


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        c = cache(capacity=50, alpha=0.0)
        c.request(spec("p0", "p1"))          # 20
        c.request(spec("p2", "p3"))          # 40
        c.request(spec("p4", "p5"))          # 60 -> evict LRU (p0,p1)
        assert len(c) == 2
        assert c.stats.deletes == 1
        assert c.request(spec("p0", "p1")).action is EventKind.INSERT

    def test_touching_updates_lru_order(self):
        c = cache(capacity=50, alpha=0.0)
        c.request(spec("p0", "p1"))
        c.request(spec("p2", "p3"))
        c.request(spec("p0", "p1"))          # touch first image
        c.request(spec("p4", "p5"))          # evicts (p2,p3), not (p0,p1)
        assert c.request(spec("p0", "p1")).action is EventKind.HIT

    def test_pinned_image_never_evicted_even_if_oversized(self):
        c = cache(capacity=5, alpha=0.0)
        decision = c.request(spec("p0", "p1"))  # 20 > capacity
        assert decision.action is EventKind.INSERT
        assert len(c) == 1  # transient overflow allowed
        # The next request displaces it.
        c.request(spec("p2"))
        assert all(img.packages != {"p0", "p1"} for img in c.images)

    def test_fifo_eviction(self):
        c = cache(capacity=50, alpha=0.0, eviction="fifo")
        c.request(spec("p0", "p1"))
        c.request(spec("p2", "p3"))
        c.request(spec("p0", "p1"))          # touch; FIFO ignores it
        c.request(spec("p4", "p5"))
        assert c.request(spec("p0", "p1")).action is EventKind.INSERT

    def test_size_eviction_drops_largest(self):
        c = cache(capacity=60, alpha=0.0, eviction="size")
        c.request(spec("p0", "p1", "p2"))    # 30
        c.request(spec("p3", "p4"))          # 20
        c.request(spec("p5", "p6"))          # 20 -> evict the 30-byte image
        assert c.request(spec("p3", "p4")).action is EventKind.HIT

    def test_zero_capacity_cache_works(self):
        c = cache(capacity=0, alpha=0.0)
        assert c.request(spec("p0")).action is EventKind.INSERT
        assert c.request(spec("p1")).action is EventKind.INSERT
        assert c.stats.deletes == 1


class TestAccounting:
    def test_cached_bytes_is_sum_of_images(self):
        c = cache(alpha=0.0)
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))
        assert c.cached_bytes == sum(img.size for img in c.images) == 40

    def test_unique_bytes_deduplicates_packages(self):
        c = cache(alpha=0.0)
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))
        assert c.unique_bytes == 30  # p0 counted once

    def test_cache_efficiency(self):
        c = cache(alpha=0.0)
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))
        assert c.cache_efficiency == pytest.approx(30 / 40)

    def test_empty_cache_efficiency_is_one(self):
        assert cache().cache_efficiency == 1.0

    def test_container_efficiency_degrades_with_merging(self):
        c = cache(alpha=0.95)
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))  # runs in a 30-byte image, asked for 20
        assert c.stats.container_efficiency == pytest.approx(40 / 50)

    def test_used_bytes_tracks_hit_image_size(self):
        c = cache(alpha=0.95)
        c.request(spec("p0", "p1", "p2"))
        c.request(spec("p0"))  # hit in a 30-byte image for a 10-byte ask
        assert c.stats.used_bytes == 60
        assert c.stats.container_efficiency == pytest.approx(40 / 60)

    def test_eviction_updates_unique_and_cached(self):
        c = cache(capacity=40, alpha=0.0)
        c.request(spec("p0", "p1"))
        c.request(spec("p0", "p2"))
        c.request(spec("p3", "p4"))  # evicts until <= 40
        assert c.cached_bytes <= 40
        assert c.unique_bytes == sum(
            10 for _ in set().union(*[i.packages for i in c.images])
        )


class TestEventsAndClear:
    def test_event_log_records_all_ops(self):
        c = cache(alpha=0.75, record_events=True, capacity=70)
        c.request(spec("p0", "p1", "p2"))
        c.request(spec("p0", "p1", "p3"))
        c.request(spec("p0", "p1", "p3"))
        kinds = [e.kind for e in c.events]
        assert kinds == [EventKind.INSERT, EventKind.MERGE, EventKind.HIT]

    def test_events_not_recorded_by_default(self):
        c = cache()
        c.request(spec("p0"))
        assert c.events == []

    def test_clear_drops_images_keeps_stats(self):
        c = cache()
        c.request(spec("p0"))
        c.clear()
        assert len(c) == 0
        assert c.cached_bytes == 0
        assert c.unique_bytes == 0
        assert c.stats.inserts == 1


class TestSpecMemoBound:
    def test_partial_eviction_keeps_recent_specs(self, monkeypatch):
        # regression: hitting the memo bound used to clear() the whole
        # memo, discarding hot keys; now only the oldest half is dropped.
        monkeypatch.setattr(LandlordCache, "_SPEC_MEMO_LIMIT", 8)
        c = cache()
        specs = [spec(f"p{i}") for i in range(8)]
        for s in specs:
            c._intern(s)
        assert len(c._spec_memo) == 8
        c._intern(spec("q0"))  # crosses the bound
        assert len(c._spec_memo) == 5  # 8 - 4 dropped + 1 new
        # the oldest half is gone, the newest half (and the trigger) stay
        assert all(specs[i] not in c._spec_memo for i in range(4))
        assert all(specs[i] in c._spec_memo for i in range(4, 8))
        assert spec("q0") in c._spec_memo

    def test_bound_is_an_upper_limit(self, monkeypatch):
        monkeypatch.setattr(LandlordCache, "_SPEC_MEMO_LIMIT", 16)
        c = cache()
        for i in range(100):
            c._intern(spec(f"p{i % 50}", f"q{i % 40}"))
        assert len(c._spec_memo) <= 16

    def test_interning_still_correct_across_the_bound(self, monkeypatch):
        monkeypatch.setattr(LandlordCache, "_SPEC_MEMO_LIMIT", 4)
        c = cache()
        for i in range(12):
            mask, indices, size = c._intern(spec(f"p{i}"))
            assert size == 10
        again_mask, _, again_size = c._intern(spec("p0"))
        assert again_size == 10
        assert again_mask == c._universe.mask_of(spec("p0"))[0]


class TestSpecMemoOwnership:
    """The memo admits only what the caller already owns (a frozenset,
    an ImageSpec's packages); a list or set is interned and forgotten."""

    def test_owned_specs_populate_and_hit_the_memo(self):
        c = cache()
        owned = spec("p0", "p1")
        image_spec = ImageSpec(["p2", "p3"])
        c.request(owned)
        c.request(image_spec)
        assert set(c._spec_memo) == {owned, image_spec.packages}
        assert c._intern(owned) is c._spec_memo[owned]
        c.submit_batch([owned, image_spec, owned])
        assert len(c._spec_memo) == 2

    def test_transient_specs_are_not_retained(self):
        c = cache()
        c.request(["p0", "p1"])
        c.request({"p2", "p3"})
        c.submit_batch([["p4"], ("p5", "p6")])
        c.adopt(["p7"])
        assert c.peek(["p0"]) is not None
        assert not c._spec_memo

    def test_list_with_duplicates_interns_like_its_frozenset(self):
        c = cache()
        wire = ["p3", "p1", "p3", "p2", "p1"]
        mask, indices, size = c._intern(wire)
        assert not c._spec_memo
        owned_mask, owned_indices, owned_size = c._intern(frozenset(wire))
        assert mask == owned_mask
        assert indices.tolist() == owned_indices.tolist()
        assert size == owned_size == 30

    @pytest.mark.parametrize("kw", [
        {},
        {"conflict_policy": SlotConflicts()},
    ], ids=["default", "slot-conflicts"])
    def test_transient_and_owned_callers_decide_identically(self, kw):
        # overlapping 5-package specs in two versions, one id repeated:
        # hits, merges, inserts and evictions all occur
        stream = [
            [f"lib{j}/1.{(i // 5) % 2}" for j in range(i % 5, i % 5 + 4)]
            + [f"lib{i % 5}/1.{(i // 5) % 2}", f"app{i % 9}/1.0"]
            for i in range(60)
        ]
        owned, transient, batched = (
            LandlordCache(300, 0.8, lambda pid: 10, record_events=True, **kw)
            for _ in range(3)
        )
        for packages in stream:
            owned.request(frozenset(packages))
            transient.request(packages)
        batched.submit_batch(stream, batch_size=16)
        assert owned.stats.merges > 10 and owned.stats.deletes > 0
        assert transient.snapshot() == owned.snapshot()
        assert batched.snapshot() == owned.snapshot()
        assert transient.events == owned.events == batched.events
        assert not transient._spec_memo and not batched._spec_memo


class TestSharedLock:
    """enable_lock: mutators serialise under an attached lock, and the
    disabled path (no lock) stays a bare ``is None`` check."""

    class _CountingLock:
        """An RLock that counts acquisitions and tracks how deeply it is
        held (context-manager protocol)."""

        def __init__(self):
            import threading

            self._lock = threading.RLock()
            self.acquisitions = 0
            self.depth = 0

        def __enter__(self):
            self.acquire()
            return self

        def __exit__(self, *exc):
            self.release()

        def acquire(self, *a, **kw):
            got = self._lock.acquire(*a, **kw)
            self.acquisitions += 1
            self.depth += 1
            return got

        def release(self):
            self.depth -= 1
            self._lock.release()

    def test_lock_is_off_by_default(self):
        c = cache()
        assert c.lock is None
        c.request(spec("p0"))  # no lock involved

    def test_mutators_acquire_the_lock(self):
        c = cache()
        lock = self._CountingLock()
        c.enable_lock(lock)
        assert c.lock is lock
        for mutate in (
            lambda: c.request(spec("p0", "p1")),
            lambda: c.submit_batch([spec("p0"), spec("p2")]),
            lambda: c.evict_idle(1),
            c.clear,
        ):
            before = lock.acquisitions
            mutate()
            assert lock.acquisitions > before
            assert lock.depth == 0

    def test_batch_holds_the_lock_for_the_whole_window(self):
        c = cache()
        lock = self._CountingLock()
        c.enable_lock(lock)
        held = []
        inner = c._request

        def spy(*args):
            held.append(lock.depth)
            return inner(*args)

        c._request = spy
        c.submit_batch([spec("p0"), spec("p2"), spec("p0")])
        assert len(held) == 3 and all(depth >= 1 for depth in held)
        assert lock.depth == 0

    def test_locked_and_unlocked_decisions_identical(self):
        import threading

        plain = cache()
        locked = cache()
        locked.enable_lock(threading.RLock())
        for i in range(12):
            s = spec(f"p{i % 5}", f"p{(i * 3) % 5}")
            a = plain.request(s)
            b = locked.request(s)
            assert a.action == b.action
            assert a.image.id == b.image.id
        assert plain.snapshot() == locked.snapshot()

    def test_validation_errors_do_not_need_the_lock(self):
        c = cache()
        lock = self._CountingLock()
        c.enable_lock(lock)
        with pytest.raises(ValueError):
            c.evict_idle(-1)
        for bad in (0, "auto", object(), True, 2.0):
            with pytest.raises(ValueError, match="batch_size"):
                c.submit_batch([frozenset({"p0"})], batch_size=bad)
        assert lock.acquisitions == 0 and c.stats.requests == 0
