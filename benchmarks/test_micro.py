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

        from repro.packages.repository import PackageIndex

        a, b = spec_pair
        return _Universe(PackageIndex.of(dict.fromkeys(sorted(a | b), 1)))

    @staticmethod
    def _mask_reference(universe, packages):
        # The first implementation, both halves of it: one Python-level
        # lookup per id, one big-int OR per package.
        mask = 0
        indices = sorted(universe.index.position[p] for p in packages)
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
    from repro.packages.repository import PackageIndex

    return LandlordCache(
        10 ** 18, alpha, PackageIndex.of(dict.fromkeys(ZONE_IDS, 1_000))
    )


class TestZoneLayers:
    """One number each for the layers a merge-zone request passes through."""

    @pytest.fixture(scope="class")
    def wire_spec(self):
        picks = np.random.default_rng(0).choice(
            len(ZONE_IDS), ZONE_SPEC, replace=False
        )
        return [ZONE_IDS[int(i)] for i in picks]  # a list: resolved by name

    def test_intern_320_list_warm_universe(self, benchmark, wire_spec):
        cache = _zone_cache()
        cache._intern(ZONE_IDS)
        mask, indices, _size = benchmark(cache._intern, wire_spec)
        assert indices.size == ZONE_SPEC == mask.bit_count()

    def test_intern_320_list_cold_universe(self, benchmark, wire_spec):
        # A fresh cache each round: the numbering is its index's, so
        # nothing is sized or registered here either.
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


class TestInterning:
    """A cache numbers its packages once, by its package index (DESIGN.md,
    "Interning and the drawn spec"): fresh or restored, it shares the
    repository's index and calls it for no single name, so a lap of the
    ledger's ``replay_zone`` stream interns by lookups only.

    What is asserted are those counts, exact per lap.  The laps' times
    are printed beside them, pairs alternating which side goes first; no
    timing ratio is gated, since a shared machine's slow spells outlast
    a ~0.1 s lap."""

    PAIRS = 7

    def test_repository_numbering_registers_nothing(self, monkeypatch):
        from statistics import median
        from time import perf_counter

        from repro.packages.repository import PackageIndex
        from repro.packages.sft import build_experiment_repository
        from repro.util.units import GB

        repo = build_experiment_repository("sft", seed=2020)
        specs = build_stream(
            DependencyWorkload(repo, 100), spawn(7, "ledger", "replay_zone", 0),
            n_unique=600, repeats=3,
        )
        warm = LandlordCache(1400 * GB, 0.8, repo.size_of)
        for spec in specs[:300]:
            warm.request(spec)
        table = warm.mask_snapshot()

        def fresh():
            return LandlordCache(1400 * GB, 0.8, repo.size_of)

        def restored():
            cache = LandlordCache(1400 * GB, 0.8, repo.size_of)
            cache.restore(table)
            return cache

        makers = {"fresh": fresh, "restored": restored}

        def lap(make):
            cache = make()
            start = perf_counter()
            for spec in specs:
                cache.request(spec)
            return perf_counter() - start, cache

        calls = {"n": 0}
        size = PackageIndex.__call__

        def counting_size(self, package_id):
            calls["n"] += 1
            return size(self, package_id)

        counted = {}
        for name, make in makers.items():
            calls["n"] = 0
            monkeypatch.setattr(PackageIndex, "__call__", counting_size)
            _elapsed, cache = lap(make)
            monkeypatch.undo()
            counted[name] = calls["n"]
            before = table["stats"]["requests"] if name == "restored" else 0
            assert cache.stats.requests == before + len(specs)
            assert len(cache._universe) == len(repo)
        assert counted == {"fresh": 0, "restored": 0}

        times = {name: [] for name in makers}
        for pair in range(self.PAIRS):
            order = list(makers) if pair % 2 == 0 else list(makers)[::-1]
            for name in order:
                times[name].append(lap(makers[name])[0])
        laps = {name: median(values) * 1e3 for name, values in times.items()}
        print(
            f"\nreplay_zone lap, median of {self.PAIRS}, ms (0 per-name "
            f"index calls each): fresh on the repository's index "
            f"{laps['fresh']:.1f} / restored from a state record "
            f"{laps['restored']:.1f}"
        )


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
        from tests.core.matrix_layout import image_major

        cache, first = self._cache(shared_core)
        engine = cache._engine
        # The request: everything of word 0 the first image has, and a
        # few of its own packages -- its densest word is word 0.
        probe = frozenset(sorted(first)[:60])
        mask, indices, _size = cache._intern(probe)
        word0 = np.uint64(mask & (2 ** 64 - 1))
        sharing = int(np.count_nonzero(
            (image_major(engine)[: engine._top, 0] & word0) == word0
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


class TestMergeScan:
    """The full merge scan at ~1k live images (DESIGN.md, "Mask matrix").

    The matrix is stored word-major, so a scan gathers only the words
    the request has bits in.  Asserted here on best-of timings: a
    request inside an eighth of the paper-width universe's words costs
    less than one of the same size spread over every word.
    """

    N_LIVE = 1_000
    ALPHA = 0.2  # no drawn image lies this close to either request

    @classmethod
    def _cache(cls):
        """``N_LIVE`` images of ``ZONE_SPEC`` packages each, drawn over
        the whole universe: every count equals the requests', so the
        count window admits every row and the scan is a full one."""
        rng = np.random.default_rng(44)
        cache = _zone_cache(alpha=0.0)  # never merges: one image per spec
        cache._intern(ZONE_IDS)  # ZONE_IDS[i] is bit i
        while len(cache) < cls.N_LIVE:
            picks = rng.choice(len(ZONE_IDS), ZONE_SPEC, replace=False)
            cache.request(frozenset(ZONE_IDS[int(i)] for i in picks))
        engine = cache._engine
        assert engine._n_live == cls.N_LIVE == engine._top
        assert engine._words == 151  # ceil(9660 / 64): the universe's
        narrow = rng.choice(engine._words // 8 * 64, ZONE_SPEC, replace=False)
        wide = np.linspace(0, len(ZONE_IDS) - 1, ZONE_SPEC).astype(np.int64)
        requests = {}
        for name, picks in (("narrow", narrow), ("wide", wide)):
            mask, indices, _size = cache._intern(
                frozenset(ZONE_IDS[int(i)] for i in picks)
            )
            requests[name] = mask, int(indices.size)
        return cache, requests

    @classmethod
    def _words_touched(cls, engine, mask):
        return int(np.count_nonzero(engine._mask_words(mask)))

    @pytest.mark.parametrize("request_words", ["narrow", "wide"])
    def test_full_scan_at_1k_images(self, benchmark, request_words):
        cache, requests = self._cache()
        engine = cache._engine
        mask, n_request = requests[request_words]
        before = engine.prefilter_stats["full"]
        candidates, examined = benchmark(
            engine.scan_candidates, mask, n_request, self.ALPHA
        )
        assert candidates == [] and examined == self.N_LIVE
        assert engine.prefilter_stats["full"] > before
        benchmark.extra_info["words_touched"] = self._words_touched(engine, mask)

    def test_a_narrow_request_scans_cheaper_than_a_wide_one(self):
        cache, requests = self._cache()
        engine = cache._engine
        touched = {
            name: self._words_touched(engine, mask)
            for name, (mask, _n) in requests.items()
        }
        assert touched["narrow"] <= engine._words // 8
        assert touched["wide"] == -(-len(ZONE_IDS) // 64)
        timings = {}
        for name, (mask, n_request) in requests.items():
            before = engine.prefilter_stats["full"]
            assert engine.scan_candidates(mask, n_request, self.ALPHA) == (
                [], self.N_LIVE
            )
            assert engine.prefilter_stats["full"] == before + 1
            timings[name] = TestHitScan._best_us(
                lambda: engine.scan_candidates(mask, n_request, self.ALPHA),
                number=50,
            )
        print(
            f"\nfull merge scan at {self.N_LIVE} images, us: "
            f"{timings['narrow']:.1f} ({touched['narrow']} of "
            f"{engine._words} words) / {timings['wide']:.1f} "
            f"({touched['wide']} words)"
        )
        assert timings["narrow"] < timings["wide"]


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
    "State file v4"), at the end states of the ledger's ``replay_zone``
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
            table = tmp_path / f"{name}-v4.json"
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
                f"images), names form -> masks: {rows[name][2]} -> "
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
    """What recovering a journal tail costs (DESIGN.md, "Journal v3"):
    the ledger's ``durable_recover`` shape — a zone-sized cache after 960
    requests, its state file, then 640 requests journalled in windows of
    32 and replayed from cold.  Two v3 rows: the tail as the running
    writer appends it, and as a writer that loaded the state file first
    (so its own cache is a restored one) appends it.

    The reference is the same 640 requests as v1 lines (each one's
    sorted package list), written by ``Journal.append_many`` the way
    every journal was before v2, behind the same state file, and read
    back by the same ``Journal._read`` and ``replay``.  Each v3 row is
    held to the same three gates against it.
    """

    ROUNDS = 7
    WINDOW = 32

    def test_orderings(self, tmp_path):
        import shutil
        from pathlib import Path
        from statistics import median
        from time import perf_counter

        from repro.core.cache import mask_text
        from repro.core.journal import (
            Journal,
            JournaledState,
            JournalEntry,
            _encode,
            replay,
        )
        from repro.core.persistence import load_bundle
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
        forms = ("v1", "v3", "v3 restored")
        states = {}
        for at, form in enumerate(forms):
            (tmp_path / str(at)).mkdir()
            states[form] = tmp_path / str(at) / "state.json"
        store = JournaledState(states["v3"], snapshot_every=10 ** 9)
        store.initialise(cache, {})
        shutil.copy(states["v3"], states["v1"])
        shutil.copy(states["v3"], states["v3 restored"])
        loaded = JournaledState(states["v3 restored"], snapshot_every=10 ** 9)
        restored, _metadata, _replayed = loaded.load(repo.size_of)
        assert restored._universe.index is repo.size_of
        v1 = Journal(f"{states['v1']}.journal")
        for start in range(0, len(ops), self.WINDOW):
            window = ops[start:start + self.WINDOW]
            store.apply_batch(cache, {}, window)
            loaded.apply_batch(restored, {}, window)
            v1.append_many(window)
        store.journal.close()
        loaded.journal.close()
        v1.close()
        assert restored.snapshot() == cache.snapshot()

        def recover(state):
            bundle = load_bundle(state, repo.size_of)
            start = perf_counter()
            _floor, entries = Journal(f"{state}.journal")._read()
            replayed = replay(bundle.cache, entries, after_seq=0)
            return (perf_counter() - start) * 1e3, bundle.cache, replayed

        # Round by round, as in TestCheckpoint: the machine's slow spells
        # are longer than one recovery.
        times = {form: [] for form in forms}
        ratios = {form: [] for form in forms[1:]}
        for _ in range(self.ROUNDS):
            for form in forms:
                elapsed, recovered, replayed = recover(states[form])
                assert len(replayed) == len(ops)
                assert recovered.snapshot() == cache.snapshot()
                times[form].append(elapsed)
            for form in forms[1:]:
                ratios[form].append(times["v1"][-1] / times[form][-1])
        size = {form: Path(f"{state}.journal").stat().st_size
                for form, state in states.items()}

        # Encoding the same entries: a v1 line of names, against a v3
        # line of the mask the writer's cache interned the names to (the
        # writer interns ahead of the append; that pass is the apply's,
        # so it is not timed here).
        names = [data["packages"] for _op, data in ops]
        masks = {
            "v3": [cache._intern(spec)[0] for spec in names],
            "v3 restored": [restored._intern(spec)[0] for spec in names],
        }
        encodes = {form: [] for form in forms}
        encode_ratios = {form: [] for form in forms[1:]}
        for _ in range(self.ROUNDS):
            start = perf_counter()
            for seq, spec in enumerate(names, start=1):
                _encode(JournalEntry(seq, "request", {"packages": spec}))
            encodes["v1"].append((perf_counter() - start) / len(ops) * 1e6)
            for form, interned in masks.items():
                start = perf_counter()
                for seq, mask in enumerate(interned, start=1):
                    _encode(JournalEntry(
                        seq, "request", {"mask": mask_text(mask)}))
                encodes[form].append((perf_counter() - start) / len(ops) * 1e6)
                encode_ratios[form].append(encodes[form][-1] / encodes["v1"][-1])
        print(
            f"\njournal tail of {len(ops)} requests behind a state of "
            f"{len(load_bundle(states['v3'], repo.size_of).cache)} images"
        )
        for form in forms[1:]:
            print(
                f"  v1 -> {form}: {size['v1'] / len(ops):.0f} -> "
                f"{size[form] / len(ops):.0f} bytes an entry; read + replay "
                f"{min(times['v1']):.1f} -> {min(times[form]):.1f} ms, "
                f"{median(ratios[form]):.2f}x faster; encode "
                f"{min(encodes['v1']):.1f} -> {min(encodes[form]):.1f} us "
                f"an entry"
            )
        for form in forms[1:]:
            assert median(ratios[form]) >= 1.5
            assert size[form] <= 0.6 * size["v1"]
            assert median(encode_ratios[form]) <= 1.0


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
