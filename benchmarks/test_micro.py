"""Micro-benchmarks for the primitives on every experiment's hot path."""

import numpy as np
import pytest

from repro.core.cache import LandlordCache
from repro.core.similarity import jaccard_distance
from repro.htc.workload import DependencyWorkload, build_stream
from repro.util.rng import spawn


@pytest.fixture(scope="module")
def spec_pair():
    a = frozenset(f"pkg-{i:05d}/1.0" for i in range(0, 3000))
    b = frozenset(f"pkg-{i:05d}/1.0" for i in range(1000, 4000))
    return a, b


class TestSimilarity:
    def test_jaccard_exact_3k_sets(self, benchmark, spec_pair):
        a, b = spec_pair
        result = benchmark(jaccard_distance, a, b)
        assert 0 < result < 1


class TestUniverseMask:
    """The bitmask constructor behind every cache request (cache.py)."""

    @pytest.fixture(scope="class")
    def universe(self, spec_pair):
        from repro.core.cache import _Universe

        a, b = spec_pair
        uni = _Universe(lambda _pid: 1)
        # Pre-intern so the benchmark measures mask construction, not
        # first-touch index assignment.
        uni.mask_of(sorted(a | b))
        return uni

    @staticmethod
    def _mask_reference(universe, packages):
        # The first implementation, both halves of it: one Python-level
        # lookup per id, one big-int OR per package.
        mask = 0
        indices = sorted(universe._index[p] for p in packages)
        for i in indices:
            mask |= 1 << i
        return mask, np.asarray(indices, dtype=np.int64)

    def test_mask_of_3k_set(self, benchmark, universe, spec_pair):
        a, _ = spec_pair
        mask, indices = benchmark(universe.mask_of, a)
        assert indices.size == len(a)
        ref_mask, ref_indices = self._mask_reference(universe, a)
        assert mask == ref_mask
        assert np.array_equal(indices, ref_indices)

    def test_mask_of_small_set(self, benchmark, universe, spec_pair):
        a, _ = spec_pair
        small = frozenset(sorted(a)[:20])
        mask, indices = benchmark(universe.mask_of, small)
        ref_mask, ref_indices = self._mask_reference(universe, small)
        assert mask == ref_mask
        assert np.array_equal(indices, ref_indices)

    def test_mask_reference_3k_set(self, benchmark, universe, spec_pair):
        # The yardstick: what mask_of's dictionary pass and packbits
        # buffer replaced, timed on the same set for comparison.
        a, _ = spec_pair
        mask, _ = benchmark(self._mask_reference, universe, a)
        assert mask > 0


# -- The operating zone's per-request layers (DESIGN.md, "Small-cache rule") --

ZONE_IDS = [f"pkg-{i:05d}/1.0/x86_64-el7" for i in range(9_660)]
ZONE_SPEC = 320  # packages in a typical ``deps`` closure at paper scale


def _zone_cache(alpha=0.8):
    return LandlordCache(10 ** 18, alpha, lambda _pid: 1_000)


class TestZoneLayers:
    """One number each for the layers a merge-zone request passes through."""

    @pytest.fixture(scope="class")
    def wire_spec(self):
        picks = np.random.default_rng(0).choice(
            len(ZONE_IDS), ZONE_SPEC, replace=False
        )
        return [ZONE_IDS[int(i)] for i in picks]  # a list: never memoised

    def test_intern_320_list_warm_universe(self, benchmark, wire_spec):
        cache = _zone_cache()
        cache._intern(ZONE_IDS)
        mask, indices, _size = benchmark(cache._intern, wire_spec)
        assert indices.size == ZONE_SPEC == mask.bit_count()

    def test_intern_320_list_cold_universe(self, benchmark, wire_spec):
        # Every id is new: sized by the oracle, then registered.
        def fresh():
            return (_zone_cache(), wire_spec), {}

        mask, indices, _size = benchmark.pedantic(
            lambda cache, spec: cache._intern(spec),
            setup=fresh, rounds=200, iterations=1,
        )
        assert indices.size == ZONE_SPEC == mask.bit_count()

    def test_merge_into_5000_package_image(self, benchmark, wire_spec):
        def fresh():
            cache = _zone_cache()
            target = cache.request(ZONE_IDS[:5_000]).image
            mask, _indices, _requested = cache._intern(wire_spec)
            return (cache, target, mask), {}

        def merge(cache, target, mask):
            cache._do_merge(target, mask)
            return target

        target = benchmark.pedantic(
            merge, setup=fresh, rounds=200, iterations=1
        )
        assert target.package_count == target.mask.bit_count() > 5_000


class TestScanCrossover:
    """``find_hit + scan_candidates`` per request, loops vs matrix.

    The table DESIGN.md quotes for ``VectorizedEngine._SMALL_CACHE``:
    the same engine, same state, with the threshold pinned to send the
    scans through the reference loops or through the matrix kernels.
    Images are drawn far apart (as images that coexist unmerged are) and
    the probe lies within alpha of exactly one of them.
    """

    @pytest.mark.parametrize("kernel", ["loops", "matrix"])
    @pytest.mark.parametrize("n_live", [8, 32, 64, 512])
    def test_scan_pair(self, benchmark, n_live, kernel):
        rng = np.random.default_rng(n_live)

        def sample(pool, k):
            picks = rng.choice(len(pool), k, replace=False)
            return frozenset(pool[int(i)] for i in picks)

        cache = _zone_cache(alpha=0.0)  # never merges: one image per spec
        engine = cache._engine
        # Pinned before the first add: at 0 the engine builds its matrix
        # there, at n_live it never builds one.
        engine._SMALL_CACHE = n_live if kernel == "loops" else 0
        first = sample(ZONE_IDS, ZONE_SPEC)
        cache.request(first)
        while len(cache) < n_live:
            cache.request(sample(ZONE_IDS, ZONE_SPEC))
        half = ZONE_SPEC // 2
        probe = sample(sorted(first), half) | sample(ZONE_IDS, half)
        mask, indices, _size = cache._intern(probe)

        def scan_pair():
            hit = engine.find_hit(mask, indices)
            return hit, engine.scan_candidates(mask, int(indices.size), 0.8)

        hit, (candidates, examined) = benchmark(scan_pair)
        assert hit is None and examined == n_live
        assert [image.id for _, image in candidates] == ["img-000000"]


class TestHitScan:
    """The rarest-package hit scan at ~1k live images (DESIGN.md, "Hit scan").

    Relations are asserted here, on best-of timings taken in the test,
    not left to a reader of the table: a miss decided by the refcounts
    is cheaper than a hit, and a hit costs the same whether or not the
    other thousand rows share the request's densest word.
    """

    N_LIVE = 1_000
    CORE = ZONE_IDS[:40]  # one matrix word's worth of common packages

    @staticmethod
    def _best_us(call, number=300, repeat=9):
        from time import perf_counter

        best = float("inf")
        for _ in range(repeat):
            start = perf_counter()
            for _ in range(number):
                call()
            best = min(best, perf_counter() - start)
        return best / number * 1e6

    @classmethod
    def _cache(cls, shared_core):
        """``N_LIVE`` images of ZONE_SPEC packages each; with
        ``shared_core`` every image holds the same 40 packages of word 0
        beside its own random ones."""
        rng = np.random.default_rng(15)
        cache = _zone_cache(alpha=0.0)  # never merges: one image per spec
        cache._intern(ZONE_IDS)  # ZONE_IDS[i] is bit i
        own = ZONE_SPEC - len(cls.CORE) if shared_core else ZONE_SPEC
        first = None
        while len(cache) < cls.N_LIVE:
            picks = rng.choice(np.arange(64, len(ZONE_IDS)), own, replace=False)
            spec = frozenset(ZONE_IDS[int(i)] for i in picks)
            if shared_core:
                spec |= frozenset(cls.CORE)
            first = first or spec
            cache.request(spec)
        assert cache._engine._n_live == cls.N_LIVE == cache._engine._top
        return cache, first

    @pytest.mark.parametrize("shared_core", [False, True])
    def test_hit_at_1k_images(self, benchmark, shared_core):
        cache, first = self._cache(shared_core)
        engine = cache._engine
        # The request: everything of word 0 the first image has, and a
        # few of its own packages -- its densest word is word 0.
        probe = frozenset(sorted(first)[:60])
        mask, indices, _size = cache._intern(probe)
        word0 = np.uint64(mask & (2 ** 64 - 1))
        sharing = int(np.count_nonzero(
            (engine._matrix[: engine._top, 0] & word0) == word0
        ))
        if shared_core:
            assert int(np.bincount(indices >> 6).argmax()) == 0
            assert sharing == self.N_LIVE
        hit = benchmark(engine.find_hit, mask, indices)
        assert hit is not None and hit.id == "img-000000"
        benchmark.extra_info["rows_sharing_word_0"] = sharing

    def test_miss_is_cheaper_than_hit_and_hit_ignores_the_densest_word(self):
        sparse, first_sparse = self._cache(shared_core=False)
        dense, first_dense = self._cache(shared_core=True)
        timings = {}
        for name, cache, first in (
            ("sparse", sparse, first_sparse), ("dense", dense, first_dense)
        ):
            engine = cache._engine
            hit = cache._intern(frozenset(sorted(first)[:60]))[:2]
            # The same request plus one package of word 0 nobody caches.
            miss = cache._intern(frozenset(sorted(first)[:60] + [ZONE_IDS[41]]))[:2]
            assert engine.find_hit(*hit).id == "img-000000"
            assert engine.find_hit(*miss) is None
            timings[name] = (
                self._best_us(lambda: engine.find_hit(*hit)),
                self._best_us(lambda: engine.find_hit(*miss)),
            )
        (hit_sparse, miss_sparse), (hit_dense, miss_dense) = (
            timings["sparse"], timings["dense"]
        )
        print(
            f"\nhit scan at {self.N_LIVE} images, us: hit {hit_sparse:.1f} "
            f"(densest word shared by 1 row) / {hit_dense:.1f} (by all "
            f"{self.N_LIVE}); zero-refcount miss {miss_sparse:.1f} / "
            f"{miss_dense:.1f}"
        )
        assert miss_sparse < hit_sparse and miss_dense < hit_dense
        # The densest-word prefilter this replaced verified every one of
        # the thousand sharing rows (~10x); allow timer noise, not that.
        assert hit_dense < 2.0 * hit_sparse


class TestCheckpoint:
    """What one checkpoint costs (DESIGN.md, "Durable wrapper state").

    A zone-sized cache (10 images, ~8.8k package names) behind a
    long-lived ``JournaledState``, as the daemon holds it.  The
    relations are asserted in ``test_orderings`` on timings taken
    there: compaction does not scale with what it drops, a whole
    checkpoint is cheaper than three of the group commits it follows,
    and a snapshot is encoded exactly once.
    """

    WINDOW = 32  # entries per group commit, as in the ledger's durable_recover

    @staticmethod
    def _zone_sized_cache():
        rng = np.random.default_rng(16)
        cache = _zone_cache(alpha=0.0)  # never merges: one image per spec
        while len(cache) < 10:
            picks = rng.choice(len(ZONE_IDS), 880, replace=False)
            cache.request(frozenset(ZONE_IDS[int(i)] for i in picks))
        return cache

    @classmethod
    def _window(cls, spec_size=ZONE_SPEC):
        rng = np.random.default_rng(spec_size)
        return [
            ("request", {"packages": sorted(
                ZONE_IDS[int(i)]
                for i in rng.choice(len(ZONE_IDS), spec_size, replace=False)
            )})
            for _ in range(cls.WINDOW)
        ]

    @classmethod
    def _store(cls, directory):
        from repro.core.journal import JournaledState

        cache = cls._zone_sized_cache()
        store = JournaledState(directory / "state.json",
                               snapshot_every=10 ** 9)
        store.initialise(cache, {})
        return store, cache

    def test_group_commit_of_32_entries(self, benchmark, tmp_path):
        store, _cache = self._store(tmp_path)
        window = self._window()
        entries = benchmark(store.journal.append_many, window)
        assert len(entries) == self.WINDOW

    def test_zone_sized_checkpoint_after_64_entries(self, benchmark, tmp_path):
        store, cache = self._store(tmp_path)
        window = self._window()

        def two_windows():
            store.journal.append_many(window)
            store.journal.append_many(window)
            return (), {}

        benchmark.pedantic(
            lambda: store.flush(cache, {}, store.journal.last_seq),
            setup=two_windows, rounds=20, iterations=1,
        )
        assert store.journal.entries() == []

    def test_orderings(self, tmp_path, monkeypatch):
        import json
        import os
        from statistics import median
        from time import perf_counter, process_time

        from repro.core.persistence import save_state

        store, cache = self._store(tmp_path)
        journal = store.journal
        window = self._window()
        # Short lines for the compaction pair: renaming over a file makes
        # the file system free its blocks (~0.4 ms per MB here) -- not
        # this code's cost, and at 6 MB of zone-sized lines it would be
        # all the pair measures.  Even at 180 KB it moved the pair's
        # ratio between 1.2x and 1.5x, so the blocks are also freed off
        # the clock (``compact_cpu``).
        short = self._window(ZONE_SPEC // 40)

        def ms(call, clock=perf_counter):
            start = clock()
            call()
            return (clock() - start) * 1e3

        def compact():
            assert journal.compact(journal.last_seq) > 0

        def compact_cpu():
            # A second link holds the dropped file's blocks, so they are
            # freed after the clock stops rather than in the rename or the
            # close.  Anything the code reads or parses is still timed.
            held = tmp_path / "held.journal"
            os.link(journal.path, held)
            try:
                return ms(compact, process_time)
            finally:
                held.unlink()

        # The machine has slow spells longer than a round: a checkpoint
        # is compared with the two group commits it follows, round by
        # round, and the rounds' median ratio is what is asserted.
        appends, checkpoints, ratios = [], [], []
        for _ in range(25):
            pair = [ms(lambda: journal.append_many(window)) for _ in range(2)]
            whole = ms(lambda: store.flush(cache, {}, journal.last_seq))
            appends += pair
            checkpoints.append(whole)
            ratios.append(whole / (sum(pair) / 2))
        append, checkpoint = median(appends), median(checkpoints)
        # CPU time for the compaction pair: what this code does, not how
        # long the disk took over the two fsyncs (that varies by > 1.5x).
        # Compared round by round too, as the checkpoint pair is: the
        # CPU time of one compaction drifts by > 2x between rounds.
        compactions = {64: [], 640: []}
        for _ in range(45):
            for n_entries, series in compactions.items():
                for _ in range(n_entries // self.WINDOW):
                    journal.append_many(short)
                series.append(compact_cpu())
        compact_64, compact_640 = (median(compactions[64]),
                                   median(compactions[640]))
        compact_ratio = median(
            big / small for small, big in zip(*compactions.values())
        )

        dumps = []
        real = json.dumps
        monkeypatch.setattr(
            json, "dumps", lambda *a, **k: dumps.append(a) or real(*a, **k)
        )
        save_state(tmp_path / "counted.json", cache, {}, 1)
        monkeypatch.undo()

        print(
            f"\ncheckpoint of a zone-sized cache, ms: {checkpoint:.2f} whole, "
            f"{median(ratios):.2f}x a group commit of {self.WINDOW} entries "
            f"({append:.2f}); compaction CPU {compact_64:.2f} after 64 "
            f"entries, {compact_640:.2f} after 640, {compact_ratio:.2f}x; "
            f"json.dumps calls per save_state: {len(dumps)}"
        )
        assert len(dumps) == 1
        assert compact_ratio < 1.5
        assert median(ratios) < 3


class TestRepository:
    def test_build_sft_repository(self, benchmark, scale):
        from repro.packages.sft import build_sft_repository

        repo = benchmark.pedantic(
            build_sft_repository,
            kwargs={"seed": 1, "n_packages": scale.n_packages,
                    "target_total_size": scale.repo_total_size},
            rounds=1, iterations=1,
        )
        assert len(repo) == scale.n_packages

    def test_closure_of_100_random_packages(self, benchmark, bench_repo):
        rng = spawn(0, "bench-closure")
        ids = bench_repo.ids
        k = min(100, len(ids))

        def closure_once():
            picks = rng.choice(len(ids), size=k, replace=False)
            return bench_repo.closure([ids[int(i)] for i in picks])

        result = benchmark(closure_once)
        assert len(result) >= k


class TestColdStart:
    """What every process pays before its first decision (DESIGN.md,
    "Cold start"): the paper-scale repository, generated and validated.

    The relations are asserted on timings taken in the test: the
    generator against the pick-by-pick ``rng.choice(n, p=w)`` formula it
    replaced (kept in ``tests/packages/test_depgen.py`` as the identity
    reference), validation against generation, and one ``Package`` built
    per package.
    """

    def test_orderings(self, monkeypatch):
        from time import perf_counter

        from repro.packages import package as package_module
        from repro.packages.depgen import layered_dag
        from repro.packages.repository import Repository
        from repro.packages.sft import (
            SFT_PACKAGE_COUNT,
            _sft_namer,
            build_sft_repository,
            sft_layers,
        )
        from repro.util.units import GB
        from tests.packages.test_depgen import reference_layered_dag

        def ms(call):
            start = perf_counter()
            result = call()
            return (perf_counter() - start) * 1e3, result

        def generate(generator):
            return generator(
                spawn(2020, "sft-repo", SFT_PACKAGE_COUNT), sft_layers(),
                namer=_sft_namer, total_size=700 * GB,
            )

        # One slow round is one reference build (~1.2 s); the fast side
        # takes the best of the same number of rounds, so a slow spell of
        # the machine cannot favour it.
        builds, generations, validations, references = [], [], [], []
        for _ in range(3):
            builds.append(ms(build_sft_repository)[0])
            elapsed, packages = ms(lambda: generate(layered_dag))
            generations.append(elapsed)
            validations.append(ms(lambda: Repository(packages))[0])
            elapsed, expected = ms(
                lambda: Repository(generate(reference_layered_dag))
            )
            references.append(elapsed)
        assert packages == list(expected.packages.values())

        inits = []
        real = package_module.Package.__init__
        monkeypatch.setattr(
            package_module.Package, "__init__",
            lambda self, *a, **k: inits.append(1) or real(self, *a, **k),
        )
        assert len(build_sft_repository()) == SFT_PACKAGE_COUNT
        monkeypatch.undo()

        build, reference = min(builds), min(references)
        generation, validation = min(generations), min(validations)
        print(
            f"\npaper-scale repository, ms: build {build:.1f} "
            f"(generate {generation:.1f} + validate {validation:.1f}) against "
            f"{reference:.0f} by the per-pick choice(p=) formula "
            f"({reference / build:.1f}x); Package.__init__ calls per build: "
            f"{len(inits)}"
        )
        assert build < reference / 3
        assert validation <= generation
        assert len(inits) <= SFT_PACKAGE_COUNT + 1


class TestStateIO:
    """What the state file costs to write and read back (DESIGN.md,
    "State file v3"), at the end states of the ledger's ``replay_zone``
    (a dozen huge images, most names ever seen already evicted) and
    ``replay_wide`` (~1k images sharing ~10k names).

    The reference is the names form the file had before v3 — every
    image's sorted name list, ``cache.snapshot()`` — written here, by
    this test only, with the same checksum, fsyncs and rename, and read
    back by the real ``load_bundle`` (which still reads v2).
    """

    ROUNDS = 7

    @staticmethod
    def _end_state(repo, n_unique, repeats, capacity, alpha):
        stream = build_stream(
            DependencyWorkload(repo, 100), spawn(24, "state-io", n_unique),
            n_unique=n_unique, repeats=repeats,
        )
        cache = LandlordCache(capacity, alpha, repo.size_of)
        for spec in stream:
            cache.request(spec)
        return cache

    @staticmethod
    def _save_names_form(path, cache):
        import hashlib
        import json
        import os

        canon = json.dumps(
            {"metadata": {}, "journal_seq": 0, "cache": cache.snapshot()},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        checksum = "sha256:" + hashlib.sha256(canon).hexdigest()
        head = f'{{"version":2,"checksum":"{checksum}",'.encode("utf-8")
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(head + canon[1:])
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def test_orderings(self, tmp_path):
        from statistics import median
        from time import perf_counter

        from repro.core.persistence import load_bundle, save_state
        from repro.packages.sft import build_experiment_repository
        from repro.util.units import GB

        repo = build_experiment_repository("sft", seed=2020)
        states = {
            "zone": self._end_state(repo, 600, 3, 1400 * GB, 0.8),
            "wide": self._end_state(repo, 1000, 5, 10 ** 18, 0.5),
        }

        def ms(call):
            start = perf_counter()
            result = call()
            return (perf_counter() - start) * 1e3, result

        # The machine has slow spells longer than a round (see
        # TestCheckpoint): the two forms are compared round by round and
        # the rounds' median ratio is what is asserted.
        rows = {}
        for name, cache in states.items():
            table = tmp_path / f"{name}-v3.json"
            names = tmp_path / f"{name}-v2.json"
            old, new, ratios = [], [], []
            for _ in range(self.ROUNDS):
                save, _ = ms(lambda: save_state(table, cache))
                load, loaded = ms(lambda: load_bundle(table, repo.size_of))
                new.append((save + load, save, load))
                save, _ = ms(lambda: self._save_names_form(names, cache))
                load, reference = ms(
                    lambda: load_bundle(names, repo.size_of))
                old.append((save + load, save, load))
                ratios.append(old[-1][0] / new[-1][0])
            assert loaded.cache.snapshot() == reference.cache.snapshot() \
                == cache.snapshot()
            rows[name] = (len(cache), median(ratios), names.stat().st_size,
                          table.stat().st_size)
            _, old_save, old_load = min(old)
            _, new_save, new_load = min(new)
            print(
                f"\nstate file at the {name} end state ({len(cache)} "
                f"images), names form -> table: {rows[name][2]} -> "
                f"{rows[name][3]} bytes, save {old_save:.1f} -> "
                f"{new_save:.1f} ms, load {old_load:.1f} -> {new_load:.1f} "
                f"ms; save + load {rows[name][1]:.2f}x faster"
            )
        images, ratio, old_bytes, new_bytes = rows["wide"]
        assert images > 500
        assert ratio >= 3
        assert new_bytes <= old_bytes / 2
        images, ratio, _old_bytes, _new_bytes = rows["zone"]
        assert images < 32
        assert ratio >= 1


class TestJournalReplay:
    """What recovering a journal tail costs (DESIGN.md, "Journal v2"):
    the ledger's ``durable_recover`` shape — a zone-sized cache after 960
    requests, its state file, then 640 requests journalled in windows of
    32 and replayed from cold.

    The reference is the same 640 requests as v1 lines (each one's
    sorted package list), written by ``Journal.append_many`` the way
    every journal was before v2, behind the same state file, and read
    back by the same ``Journal._read`` and ``replay``.
    """

    ROUNDS = 7
    WINDOW = 32

    def test_orderings(self, tmp_path):
        import shutil
        from pathlib import Path
        from statistics import median
        from time import perf_counter

        from repro.core.journal import (
            Journal,
            JournaledState,
            JournalEntry,
            _encode,
            _Generation,
            replay,
        )
        from repro.core.persistence import load_bundle, load_table
        from repro.packages.sft import build_experiment_repository
        from repro.util.units import GB

        repo = build_experiment_repository("sft", seed=2020)
        stream = build_stream(
            DependencyWorkload(repo, 100), spawn(30, "journal-replay", 1600),
            n_unique=1600, repeats=1,
        )
        cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
        cache.submit_batch(stream[:960])
        ops = [("request", {"packages": sorted(spec)})
               for spec in stream[960:]]
        states = {}
        for form in ("v1", "v2"):
            (tmp_path / form).mkdir()
            states[form] = tmp_path / form / "state.json"
        store = JournaledState(states["v2"], snapshot_every=10 ** 9)
        store.initialise(cache, {})
        shutil.copy(states["v2"], states["v1"])
        v1 = Journal(f"{states['v1']}.journal")
        for start in range(0, len(ops), self.WINDOW):
            window = ops[start:start + self.WINDOW]
            store.apply_batch(cache, {}, window)
            v1.append_many(window)
        store.journal.close()
        v1.close()

        def recover(state):
            bundle = load_bundle(state, repo.size_of)
            start = perf_counter()
            _floor, entries = Journal(f"{state}.journal")._read()
            replayed = replay(bundle.cache, entries, after_seq=0)
            return (perf_counter() - start) * 1e3, bundle.cache, replayed

        # Round by round, as in TestCheckpoint: the machine's slow spells
        # are longer than one recovery.
        times = {"v1": [], "v2": []}
        ratios = []
        for _ in range(self.ROUNDS):
            for form in ("v1", "v2"):
                elapsed, recovered, replayed = recover(states[form])
                assert len(replayed) == len(ops)
                assert recovered.snapshot() == cache.snapshot()
                times[form].append(elapsed)
            ratios.append(times["v1"][-1] / times["v2"][-1])
        size = {form: Path(f"{state}.journal").stat().st_size
                for form, state in states.items()}

        # Encoding the same entries: a v1 line of names, against a v2
        # line from the ids the cache interned the names to (the writer
        # interns ahead of the append; that pass is the apply's, so it
        # is not timed here).
        table = load_table(states["v2"])[1]
        names = [data["packages"] for _op, data in ops]
        ids = [cache._intern(spec)[1] for spec in names]
        encodes = {"v1": [], "v2": []}
        encode_ratios = []
        for _ in range(self.ROUNDS):
            generation = _Generation(0, table)
            generation.bind(cache)
            start = perf_counter()
            for seq, spec in enumerate(names, start=1):
                _encode(JournalEntry(seq, "request", {"packages": spec}))
            middle = perf_counter()
            for seq, spec_ids in enumerate(ids, start=1):
                _encode(JournalEntry(
                    seq, "request", generation.encode(cache, spec_ids)))
            end = perf_counter()
            encodes["v1"].append((middle - start) / len(ops) * 1e6)
            encodes["v2"].append((end - middle) / len(ops) * 1e6)
            encode_ratios.append(encodes["v2"][-1] / encodes["v1"][-1])
        print(
            f"\njournal tail of {len(ops)} requests behind a state of "
            f"{len(load_bundle(states['v2'], repo.size_of).cache)} images: "
            f"{size['v1'] / len(ops):.0f} -> {size['v2'] / len(ops):.0f} "
            f"bytes an entry; read + replay {min(times['v1']):.1f} -> "
            f"{min(times['v2']):.1f} ms, {median(ratios):.2f}x faster; "
            f"encode {min(encodes['v1']):.1f} -> {min(encodes['v2']):.1f} "
            f"us an entry"
        )
        assert median(ratios) >= 1.5
        assert size["v2"] <= 0.6 * size["v1"]
        assert median(encode_ratios) <= 1.0


class TestCacheThroughput:
    def test_request_throughput_alpha_075(self, benchmark, bench_repo, scale):
        workload = DependencyWorkload(bench_repo, scale.max_selection)
        stream = build_stream(
            workload, spawn(3, "bench-stream"),
            n_unique=scale.n_unique, repeats=scale.repeats,
        )

        def run_stream():
            cache = LandlordCache(
                scale.capacity, 0.75, bench_repo.size_of
            )
            for spec in stream:
                cache.request(spec)
            return cache

        cache = benchmark.pedantic(run_stream, rounds=3, iterations=1)
        assert cache.stats.requests == len(stream)
