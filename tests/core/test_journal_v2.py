"""Journal v3: a request or adoption is journalled as the mask its
cache interned it to — base64 over the repository's numbering, which
every cache on the repository shares — with no package name written,
and replayed without interning.

The file keeps the name it had for journal v2, whose entries indexed a
per-state-file *generation*; the tests that still say so pin what took
its place: a writer's numbering is the repository's, and no checkpoint,
takeover or failure changes it."""

import errno
import hashlib
import json
import os
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache, mask_of_text, mask_text
from repro.core.journal import (
    Journal,
    JournalError,
    JournaledState,
    _encode_marker,
    recover_state,
    replay,
)
from repro.core.persistence import StateError, load_bundle, save_state
from repro.testing.faults import CrashPoint
from repro.packages.repository import PackageIndex

FIXTURES = Path(__file__).parent / "fixtures"
SIZE = {f"p{i}": 5 + (i % 7) for i in range(40)}
SIZE_OF = PackageIndex.of(SIZE)
CAPACITY, ALPHA = 120, 0.6

#: SHA-256 of the canonical JSON of ``snapshot()`` of each fixture's
#: cache as loaded — and, for the v1 tail, as recovered — by commit
#: b7ee884, the parent of the v4 state file.
PARENT_SNAPSHOT_SHA256 = {
    "state_v2.json":
        "53136deeaabe2e00b8bf066c55cd86c62c8805847681dd8af9629696df293d96",
    "state_v3_journal_v1.json":
        "188e5437add4a7efb3af96e9a3e571050f4fcc7c4aa21de93d3d5c0cd7af0dc6",
    "state_v3_journal_v1.json recovered":
        "a3831a803eefaf3fa54c2b91948e18be938310134d0498e33aea6c26b6573992",
    "state_v3_journal_new.json":
        "ec550680229d30063287da6a1860544173891bde7e20ad37f46883a8153769e7",
    "state_v3_journal_base.json":
        "ec550680229d30063287da6a1860544173891bde7e20ad37f46883a8153769e7",
    # what b7ee884 recovers the v2 tail to: the twelve ops of
    # make_journal_base.py, applied serially
    "state_v3_journal_base.json recovered":
        "a28ba6a7b89bcac441979b61e28da826e7de1a5e57e6893fa0b27b42d8baede2",
}

#: What ``fixtures/state_v3_journal_v1.json`` (+ ``.journal``) went
#: through, written by commit d911383 (journal v1) with
#: ``JournaledState(snapshot_every=8)``, one ``apply`` per operation: the
#: state covers the first eight, the journal holds the other seven as v1
#: lines that list their packages.
FIXTURE_OPS = [
    ("request", {"packages": ["p0", "p1", "p2", "p3"]}),
    ("request", {"packages": ["p0", "p1", "p2", "p4"]}),
    ("request", {"packages": ["p10", "p11", "p12"]}),
    ("adopt", {"packages": ["p20", "p21", "p22", "p23"]}),
    ("request", {"packages": ["p30", "p31", "p32", "p33", "p34"]}),
    ("request", {"packages": ["p0", "p1"]}),
    ("evict_idle", {"max_idle_requests": 3}),
    ("request", {"packages": ["p5", "p6", "p7", "p8", "p9"]}),
    ("request", {"packages": ["p5", "p6", "p7", "p35"]}),
    ("adopt", {"packages": ["p36", "p37"]}),
    ("request", {"packages": ["p12", "p13", "p14", "p38", "p39"]}),
    ("evict_idle", {"max_idle_requests": 2}),
    ("request", {"packages": ["p0", "p1", "p2", "p3", "p15"]}),
    ("clear", {}),
    ("request", {"packages": ["p16", "p17", "p18", "p19"]}),
]
MORE_OPS = [
    ("request", {"packages": ["p16", "p17", "p35", "p2"]}),
    ("adopt", {"packages": ["p0", "p38", "p24"]}),
    ("request", {"packages": ["p24", "p25", "p26"]}),
    ("evict_idle", {"max_idle_requests": 1}),
    ("request", {"packages": ["p25", "p26", "p27", "p39"]}),
]


def make_cache(**kw):
    return LandlordCache(CAPACITY, ALPHA, SIZE_OF, **kw)


def serial_replay(ops, **kw):
    """A bare cache that applied ``ops`` through its public API."""
    cache = make_cache(**kw)
    for op, data in ops:
        if op == "request":
            cache.request(frozenset(data["packages"]))
        elif op == "adopt":
            cache.adopt(data["packages"])
        elif op == "evict_idle":
            cache.evict_idle(data["max_idle_requests"])
        else:
            cache.clear()
    return cache


def snapshot_sha256(cache):
    return hashlib.sha256(json.dumps(
        cache.snapshot(), sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()


def state_seq(state_path):
    """The journal sequence number a state file covers."""
    return json.loads(Path(state_path).read_bytes())["journal_seq"]


def names_of_mask(text, index=SIZE_OF):
    """The sorted names a mask text sets, read over ``index``."""
    mask = mask_of_text(text)
    return sorted(
        index.ids[i] for i in range(mask.bit_length()) if mask >> i & 1
    )


def journalled_names(state_path, journal_path=None, index=SIZE_OF):
    """Each request's or adoption's packages (sorted) as the journal
    records them beyond the state file: a v1 entry's list as written, a
    v3 entry's mask read over the repository numbering."""
    base = state_seq(state_path)
    journal = Journal(journal_path or f"{state_path}.journal")
    out = []
    for entry in journal.entries():
        if entry.seq <= base or entry.op not in ("request", "adopt"):
            continue
        if "packages" in entry.data:
            out.append(sorted(entry.data["packages"]))
            continue
        assert set(entry.data) == {"mask"}
        out.append(names_of_mask(entry.data["mask"], index))
    return out


def copy_fixture(directory, name="state_v3_journal_v1.json"):
    """A fixture state file and its journal, copied (recovery rewrites
    them)."""
    for path in FIXTURES.glob(f"{name}*"):
        shutil.copy(path, directory / path.name)
    return directory / name


def journal_records(state):
    return [json.loads(line) for line in
            Path(f"{state}.journal").read_text().splitlines()]


def state_masks(state):
    """Each image of a v4 state file, by id: the names its mask sets."""
    cache = json.loads(Path(state).read_bytes())["cache"]
    return {image["id"]: names_of_mask(image["mask"])
            for image in cache["images"]}


def cache_masks(cache):
    return {image.id: sorted(image.packages) for image in cache.images}


class TestEntryLayout:
    def store_after_a_checkpoint(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=2)
        cache = make_cache()
        store.initialise(cache, {})
        store.apply(cache, {}, "request", packages=["p0", "p1", "p2"])
        store.apply(cache, {}, "request", packages=["p3", "p4"])  # seq 2
        return store, cache

    def test_request_and_adopt_are_masks_over_the_generation(self, tmp_path):
        """The generation is the repository numbering."""
        store, cache = self.store_after_a_checkpoint(tmp_path)
        store.snapshot_every = 100
        store.apply(cache, {}, "request", packages=["p1", "p30", "p4"])
        store.apply(cache, {}, "adopt", packages=["p30", "p31"])
        store.apply(cache, {}, "evict_idle", max_idle_requests=5)
        records = journal_records(tmp_path / "state.json")
        # Bit i is the repository's package i, whatever the state file.
        assert [r["data"] for r in records[1:]] == [
            {"mask": mask_text(1 << 1 | 1 << 4 | 1 << 30)},
            {"mask": mask_text(1 << 30 | 1 << 31)},
            {"max_idle_requests": 5},
        ]
        assert mask_text(1 << 1 | 1 << 4 | 1 << 30) == "EgAAQA=="
        assert journalled_names(tmp_path / "state.json") == [
            ["p1", "p30", "p4"], ["p30", "p31"],
        ]

    def test_no_name_is_written(self, tmp_path):
        store, cache = self.store_after_a_checkpoint(tmp_path)
        store.snapshot_every = 100
        specs = [sorted({f"p{(7 * i + j) % 40}" for j in range(6)})
                 for i in range(12)]
        store.apply_batch(cache, {}, [("request", {"packages": s})
                                      for s in specs])
        for path in (store.state_path, store.journal.path):
            text = path.read_text()
            for name in SIZE:
                assert f'"{name}"' not in text
        assert journalled_names(tmp_path / "state.json") == specs
        store.journal.close()
        recovered, _, replayed = recover_state(
            tmp_path / "state.json", package_size=SIZE_OF
        )
        assert replayed == 12
        assert recovered.snapshot() == cache.snapshot()

    def test_live_path_applies_the_names_given(self, tmp_path):
        store, cache = self.store_after_a_checkpoint(tmp_path)
        seen = []
        store.apply_batch(
            cache, {}, [("request", {"packages": ["p9", "p8"]})],
            on_result=lambda entry, _result: seen.append(entry.data),
        )
        assert seen == [{"packages": ["p9", "p8"]}]

    def test_bad_names_fail_before_the_append(self, tmp_path):
        store, cache = self.store_after_a_checkpoint(tmp_path)
        journal = store.journal.path.read_bytes()
        with pytest.raises(KeyError):  # the index knows no 7
            store.apply_batch(cache, {}, [
                ("request", {"packages": ["p20"]}),
                ("request", {"packages": ["p21", 7]}),
            ])
        assert store.journal.last_seq == 2
        assert store.journal.path.read_bytes() == journal


class TestCompatibility:
    @pytest.mark.parametrize("name, size", [
        ("state_v2.json", PackageIndex.of({f"p{i}": 10 for i in range(30)})),
        ("state_v3_journal_v1.json", SIZE_OF),
        ("state_v3_journal_new.json", SIZE_OF),
        ("state_v3_journal_base.json", SIZE_OF),
    ])
    def test_old_state_files_load_as_the_parent_loads_them(
        self, tmp_path, name, size
    ):
        """Every fixture's state loads to the snapshot its parent build
        loads it to, and a save writes it as v4 with its masks over the
        repository."""
        bundle = load_bundle(FIXTURES / name, size)
        assert not bundle.canonical
        assert snapshot_sha256(bundle.cache) == PARENT_SNAPSHOT_SHA256[name]
        again = save_state(tmp_path / "again.json", bundle.cache,
                           bundle.metadata, bundle.journal_seq)
        payload = json.loads(again.read_bytes())
        assert payload["version"] == 4
        assert payload["cache"]["repository"] == size.digest
        assert "universe" not in payload["cache"]
        reloaded = load_bundle(again, size)
        assert reloaded.canonical
        assert reloaded.cache.snapshot() == bundle.cache.snapshot()

    def test_v1_fixture_recovers_to_a_serial_replay(self, tmp_path):
        state = copy_fixture(tmp_path)
        assert all("packages" in r["data"] for r in journal_records(state)
                   if r.get("op") in ("request", "adopt"))
        recovered, _, replayed = recover_state(
            state, package_size=SIZE_OF
        )
        assert replayed == 7
        assert recovered.snapshot() == serial_replay(FIXTURE_OPS).snapshot()
        assert snapshot_sha256(recovered) == \
            PARENT_SNAPSHOT_SHA256["state_v3_journal_v1.json recovered"]
        # recovery rewrote the site as v4
        assert json.loads(state.read_bytes())["version"] == 4
        assert load_bundle(state, SIZE_OF).canonical

    @pytest.mark.parametrize("loaded", [True, False])
    def test_v1_then_v2_entries_recover(self, tmp_path, loaded):
        """v1 entries, then v3 ones (the test keeps its journal-v2 name)."""
        state = copy_fixture(tmp_path)
        store = JournaledState(state, snapshot_every=1000)
        if loaded:
            cache, metadata, _ = store.load(SIZE_OF)
        else:  # a writer that appends without loading
            cache, metadata = serial_replay(FIXTURE_OPS), {}
        store.apply_batch(cache, metadata, MORE_OPS[:2])
        for op, data in MORE_OPS[2:]:
            store.apply(cache, metadata, op, **data)
        store.journal.close()
        kinds = ["packages" in r["data"] for r in journal_records(state)
                 if r.get("op") in ("request", "adopt")]
        assert kinds == [True] * 5 + [False] * 4
        recovered, _, replayed = recover_state(
            state, package_size=SIZE_OF
        )
        assert replayed == 7 + len(MORE_OPS)
        want = serial_replay(FIXTURE_OPS + MORE_OPS).snapshot()
        assert recovered.snapshot() == cache.snapshot() == want

    def test_a_v2_state_file_is_a_generation_too(self, tmp_path):
        # A v2 state file lists each image's names: they intern onto the
        # repository numbering, and entries after it are masks over it.
        size = PackageIndex.of({f"p{i}": 10 for i in range(30)})
        state = tmp_path / "s.json"
        shutil.copy(FIXTURES / "state_v2.json", state)
        Path(f"{state}.journal").write_text(_encode_marker(5))
        bundle = load_bundle(state, size)
        assert bundle.journal_seq == 5
        assert bundle.cache._universe.index is size
        store = JournaledState(state, snapshot_every=100)
        store.apply_batch(bundle.cache, bundle.metadata, [
            ("request", {"packages": ["p9", "p11"]}),
            ("adopt", {"packages": ["p20", "p22", "p11"]}),
        ])
        store.journal.close()
        assert [r["data"] for r in journal_records(state)[1:]] == [
            {"mask": mask_text(1 << 9 | 1 << 11)},
            {"mask": mask_text(1 << 11 | 1 << 20 | 1 << 22)},
        ]
        recovered, _, replayed = recover_state(state, package_size=size)
        assert replayed == 2
        assert recovered.snapshot() == bundle.cache.snapshot()

    def refused(self, tmp_path, name, match):
        """An old tail: its state file loads, its entries are refused,
        and no writer appends after them."""
        state = copy_fixture(tmp_path, name)
        journal = Path(f"{state}.journal").read_bytes()
        bundle = load_bundle(state, SIZE_OF)
        assert bundle.journal_seq == 8 and len(bundle.cache) > 0
        with pytest.raises(JournalError, match=match):
            recover_state(state, package_size=SIZE_OF)
        with pytest.raises(JournalError, match=match):
            JournaledState(state).load(SIZE_OF)
        with pytest.raises(JournalError, match=match):
            JournaledState(state).apply(bundle.cache, {}, "request",
                                        packages=["p0"])
        assert Path(f"{state}.journal").read_bytes() == journal
        return journal

    def test_a_tail_that_declares_names_is_refused_by_name(self, tmp_path):
        """A tail written before the generation rule (fixtures/README.md)."""
        journal = self.refused(
            tmp_path, "state_v3_journal_new.json",
            "journal entry 9: 'new' is not.*recover this site with commit "
            "47c9b7f",
        )
        assert b'"new":' in journal

    def test_a_tail_based_on_a_state_table_is_refused_by_name(self, tmp_path):
        """A journal-v2 tail, whose masks index the table of the state
        file at ``"base"`` (fixtures/README.md).  Recovered by that
        commit, it is the serial replay of its operations, which this
        build then loads."""
        journal = self.refused(
            tmp_path, "state_v3_journal_base.json",
            "journal entry 9: 'base' is not.*journal_seq 8: recover this "
            "site with commit b7ee884 first",
        )
        assert b'"base":8' in journal
        ops = [op for op in FIXTURE_OPS if op[0] in ("request", "adopt")]
        assert snapshot_sha256(serial_replay(ops[:12])) == \
            PARENT_SNAPSHOT_SHA256["state_v3_journal_base.json recovered"]

    def test_state_file_is_unchanged(self, tmp_path):
        # What the state file holds does not change: the fixture's cache
        # saves back as it was, its images' masks now over the
        # repository, plus the digest of the repository they index.
        state = copy_fixture(tmp_path)
        bundle = load_bundle(state, SIZE_OF)
        again = save_state(tmp_path / "again.json", bundle.cache,
                           bundle.metadata, bundle.journal_seq)
        was, now = json.loads(state.read_bytes()), json.loads(again.read_bytes())
        assert now["cache"].pop("repository") == SIZE_OF.digest
        universe = was["cache"].pop("universe")
        for old, new in zip(was["cache"]["images"], now["cache"]["images"]):
            mask = int(old.pop("mask"), 16)
            assert names_of_mask(new.pop("mask")) == sorted(
                universe[i] for i in range(mask.bit_length()) if mask >> i & 1
            )
        for payload in (was, now):
            del payload["checksum"], payload["version"]
        assert now == was


class TestGeneration:
    """A writer's numbering is the repository's: a checkpoint writes the
    masks as they stand, a writer that takes the files over reads no
    state file, and a failed append or save leaves nothing to re-read."""

    def make_store(self, tmp_path, snapshot_every=1000):
        store = JournaledState(tmp_path / "state.json",
                               snapshot_every=snapshot_every)
        cache = make_cache()
        store.initialise(cache, {})
        return store, cache

    def test_a_checkpoint_writes_the_masks_as_they_stand(self, tmp_path):
        store, cache = self.make_store(tmp_path, snapshot_every=3)
        store.apply_batch(cache, {}, FIXTURE_OPS[:4])
        assert state_seq(store.state_path) == 4
        images = json.loads(store.state_path.read_bytes())["cache"]["images"]
        assert [image["mask"] for image in images] == [
            mask_text(image.mask) for image in cache.images]
        assert state_masks(store.state_path) == cache_masks(cache)
        store.snapshot_every = 100
        store.apply_batch(cache, {}, FIXTURE_OPS[4:6])
        assert journalled_names(store.state_path) == [
            sorted(data["packages"]) for _op, data in FIXTURE_OPS[4:6]]
        loaded, _, _ = JournaledState(store.state_path).load(SIZE_OF)
        assert loaded._universe.index is SIZE_OF
        assert [image.mask for image in loaded.images] == [
            image.mask for image in cache.images]

    def test_a_fresh_writer_reads_no_state_file(self, tmp_path):
        store, cache = self.make_store(tmp_path)
        store.apply_batch(cache, {}, FIXTURE_OPS[:6])
        store.journal.close()
        # Moved away: a writer that took the files over cannot read it.
        aside = tmp_path / "aside.json"
        store.state_path.rename(aside)
        fresh = JournaledState(store.state_path, snapshot_every=1000)
        fresh.apply_batch(cache, {}, FIXTURE_OPS[6:])
        fresh.journal.close()
        aside.rename(store.state_path)
        recovered, _, _ = recover_state(store.state_path,
                                        package_size=SIZE_OF)
        assert recovered.snapshot() == serial_replay(FIXTURE_OPS).snapshot()

    def test_a_writer_bound_to_a_cache_that_lacks_table_names(
        self, tmp_path
    ):
        store, cache = self.make_store(tmp_path, snapshot_every=2)
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])  # images of p0..p4
        store.journal.close()
        fresh = JournaledState(store.state_path, snapshot_every=1000)
        other = make_cache()  # has met none of the state's names
        other.request(frozenset({"p30"}))
        fresh.apply(other, {}, "request", packages=["p3", "p31"])
        assert journal_records(store.state_path)[-1]["data"] == {
            "mask": mask_text(1 << 3 | 1 << 31),
        }
        assert journalled_names(store.state_path) == [["p3", "p31"]]

    @pytest.mark.parametrize("site, torn", [
        ("journal:append", None),   # nothing written
        ("journal:torn", None),     # written, fsync failed: cut back
        ("journal:torn", 0.5),      # a short write: cut back
    ])
    def test_a_failed_append_leaves_the_generation_as_it_was(
        self, tmp_path, site, torn
    ):
        store, cache = self.make_store(tmp_path)
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])
        failed = [("request", {"packages": ["p30", "p31"]}),
                  ("adopt", {"packages": ["p31", "p32"]})]
        fault = OSError(errno.EIO, os.strerror(errno.EIO))
        with CrashPoint(site, torn=torn, error=fault) as point:
            with pytest.raises(OSError):
                store.apply_batch(cache, {}, failed)
        assert point.fired
        # the next window takes the failed one's place, and replays
        reuse = [("request", {"packages": ["p31", "p32", "p33"]})]
        store.apply_batch(cache, {}, reuse)
        assert journal_records(store.state_path)[-1]["seq"] == 3
        assert journalled_names(store.state_path)[-1] == ["p31", "p32", "p33"]
        store.journal.close()
        recovered, _, replayed = recover_state(
            store.state_path, package_size=SIZE_OF
        )
        assert replayed == 3
        assert recovered.snapshot() == \
            serial_replay(FIXTURE_OPS[:2] + reuse).snapshot()

    @pytest.mark.parametrize("site, base", [
        ("state:write", 0),     # the old file stays
        ("state:synced", 0),
        ("state:renamed", 4),   # the new file is in place
    ])
    def test_a_failed_save_leaves_the_generation_on_disk(
        self, tmp_path, site, base
    ):
        store, cache = self.make_store(tmp_path, snapshot_every=4)
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])
        fault = OSError(errno.EIO, os.strerror(errno.EIO))
        with CrashPoint(site, error=fault):
            with pytest.raises(OSError):
                store.apply_batch(cache, {}, FIXTURE_OPS[2:4])
        assert state_seq(store.state_path) == base
        store.apply_batch(cache, {}, FIXTURE_OPS[4:6])
        assert set(journal_records(store.state_path)[-1]["data"]) == {"mask"}
        store.journal.close()
        recovered, _, _ = recover_state(store.state_path,
                                        package_size=SIZE_OF)
        assert recovered.snapshot() == \
            serial_replay(FIXTURE_OPS[:6]).snapshot()

    def test_a_checkpoint_covers_the_whole_journal(self, tmp_path):
        store, cache = self.make_store(tmp_path)
        store.apply_batch(cache, {}, FIXTURE_OPS[:3])
        with pytest.raises(AssertionError, match="cover"):
            store.flush(cache, {}, journal_seq=2)


class TestReplayRefuses:
    """Replay never reads a mask against a numbering it was not written
    for, nor a mask it cannot read."""

    def crafted(self, tmp_path, **data):
        store = JournaledState(tmp_path / "state.json", snapshot_every=2)
        cache = make_cache()
        store.initialise(cache, {})
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])  # checkpoint at seq 2
        store.apply(cache, {}, "request", packages=["p1", "p9"])  # seq 3
        store.journal.close()
        Journal(store.journal.path).append("request", **data)  # seq 4
        return store.state_path

    @pytest.mark.parametrize("data, match", [
        # A journal-v2 entry, its mask over a state file's table.
        ({"base": 0, "mask": "3"}, "journal_seq 0: recover this site with "
         "commit b7ee884 first"),
        ({"mask": mask_text(1 << 40)}, "past the 40 names"),
        # Entries as writers before the generation rule wrote them:
        # names declared in "new", each one a name the repository holds.
        ({"base": 2, "mask": "1", "new": ["p2"]}, "holds"),
        ({"base": 2, "mask": "1", "new": ["p9"]}, "holds"),
        ({"base": 2, "mask": "3", "new": ["p20", "p20"]}, "holds"),
        ({"mask": "AQ"}, "invalid mask text 'AQ': Incorrect padding"),
        ({"mask": "zz!"}, "invalid mask text"),
        ({"mask": 3}, "'mask' is not"),
        ({"base": 2, "mask": "3", "new": "p20"}, "'new' is not"),
        ({"base": 2, "mask": "3", "new": [20]}, "'new' is not"),
        ({"base": 2, "mask": "3", "new": []}, "'new' is not"),
        ({"base": 2, "mask": "3", "new": []}, "commit 47c9b7f first"),
        ({"mask": "-3"}, "invalid mask text"),
        ({"mask": "AQ==AQ=="}, "invalid mask text 'AQ==AQ==': not canonical"),
        ({"mask": "é"}, "invalid mask text"),
    ])
    def test_is_a_journal_error_naming_the_entry(self, tmp_path, data, match):
        state = self.crafted(tmp_path, **data)
        with pytest.raises(JournalError, match=match) as excinfo:
            recover_state(state, package_size=SIZE_OF)
        assert "journal entry 4" in str(excinfo.value)
        with pytest.raises(JournalError, match="journal entry 4"):
            JournaledState(state).load(SIZE_OF)

    def test_a_writer_refuses_to_append_after_it(self, tmp_path):
        state = self.crafted(tmp_path, base=0, mask="3")
        fresh = JournaledState(state)
        with pytest.raises(JournalError, match="journal entry 4"):
            fresh.apply(make_cache(), {}, "request", packages=["p0"])

    @pytest.mark.parametrize("data", [
        {"base": 0, "mask": "3"},
        {"base": 0, "mask": "1", "new": ["p30"]},
    ])
    def test_a_writer_appends_after_one_the_state_file_covers(
        self, tmp_path, data
    ):
        """An older writer's entries the state file covers (it crashed
        between a save and the compaction after it): recovery skips
        them, and a writer taking the files over appends after them."""
        state = tmp_path / "state.json"
        cache = serial_replay(FIXTURE_OPS[:2])
        journal = Journal(Path(f"{state}.journal"))
        journal.append("request", **data)
        journal.append("request", **data)
        journal.close()
        save_state(state, cache, {}, journal_seq=2)
        JournaledState(state).apply(cache, {}, "request", packages=["p0"])
        recovered, _, _ = recover_state(state, package_size=SIZE_OF)
        assert recovered.snapshot() == cache.snapshot()


class TestNotUtf8:
    """One non-UTF-8 byte corrupts its own line, nothing more."""

    def journalled(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        cache = make_cache()
        store.initialise(cache, {})
        store.apply_batch(cache, {}, FIXTURE_OPS[:3])
        store.journal.close()
        return store.state_path, store.journal.path

    def put_ff(self, path, offset):
        raw = bytearray(path.read_bytes())
        raw[offset] = 0xFF
        path.write_bytes(bytes(raw))

    def test_in_the_torn_tail_it_heals(self, tmp_path):
        state, journal = self.journalled(tmp_path)
        self.put_ff(journal, journal.stat().st_size - 30)
        assert [e.seq for e in Journal(journal).entries()] == [1, 2]
        recovered, _, replayed = recover_state(
            state, package_size=SIZE_OF
        )
        assert replayed == 2
        assert recovered.snapshot() == serial_replay(FIXTURE_OPS[:2]).snapshot()

    def test_mid_file_it_is_a_journal_error(self, tmp_path):
        state, journal = self.journalled(tmp_path)
        self.put_ff(journal, 20)
        with pytest.raises(JournalError, match="mid-file"):
            recover_state(state, package_size=SIZE_OF)

    def test_in_the_state_file_it_is_a_state_error(self, tmp_path):
        state, _journal = self.journalled(tmp_path)
        self.put_ff(state, state.stat().st_size // 2)
        with pytest.raises(StateError, match="corrupt state file"):
            load_bundle(state, SIZE_OF)

    def test_a_state_file_that_is_not_an_object_is_a_state_error(
        self, tmp_path
    ):
        state, _journal = self.journalled(tmp_path)
        state.write_text("[1, 2]")
        with pytest.raises(StateError, match="not a JSON object"):
            load_bundle(state, SIZE_OF)


# -- byte flips in v3 lines ----------------------------------------------------


@lru_cache(maxsize=None)
def flip_subject():
    """A state file and a v3 journal of four entries behind it, as
    bytes, and the snapshot of every prefix a recovery may reach."""
    with tempfile.TemporaryDirectory() as directory:
        store = JournaledState(Path(directory) / "state.json",
                               snapshot_every=4)
        cache = make_cache()
        store.initialise(cache, {})
        ops = FIXTURE_OPS[:12]
        store.apply_batch(cache, {}, ops[:4])  # checkpoint at 4
        for op, data in ops[4:]:
            store.apply(cache, {}, op, **data)
            if store.journal.last_seq == 8:
                store.snapshot_every = 1000
        store.journal.close()
        prefixes = {
            json.dumps(serial_replay(ops[:n]).snapshot(), sort_keys=True)
            for n in range(8, len(ops) + 1)
        }
        return (store.state_path.read_bytes(),
                store.journal.path.read_bytes(), prefixes)


class TestByteFlips:
    @settings(max_examples=150, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True),
           byte=st.integers(0, 255))
    def test_a_flip_is_a_typed_error_or_a_valid_prefix(self, where, byte):
        state_bytes, journal_bytes, prefixes = flip_subject()
        raw = bytearray(journal_bytes)
        raw[int(where * len(raw))] = byte
        with tempfile.TemporaryDirectory() as directory:
            state = Path(directory) / "state.json"
            state.write_bytes(state_bytes)
            Path(f"{state}.journal").write_bytes(bytes(raw))
            try:
                recovered, _, _ = recover_state(
                    state, package_size=SIZE_OF
                )
            except (JournalError, StateError):
                return
        assert json.dumps(recovered.snapshot(), sort_keys=True) in prefixes


# -- one numbering over generated histories ------------------------------------


operations = st.one_of(
    st.tuples(st.just("request"),
              st.lists(st.sampled_from(sorted(SIZE)), min_size=1,
                       max_size=6, unique=True)),
    st.tuples(st.just("adopt"),
              st.lists(st.sampled_from(sorted(SIZE)), min_size=1,
                       max_size=4, unique=True)),
    st.tuples(st.just("evict_idle"), st.integers(0, 6)),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("checkpoint"), st.none()),
    st.tuples(st.just("fresh writer"), st.none()),
    st.tuples(st.just("reload"), st.none()),
)


def as_op(kind, arg):
    if kind in ("request", "adopt"):
        return kind, {"packages": arg}
    if kind == "evict_idle":
        return kind, {"max_idle_requests": arg}
    return kind, {}


class TestGeneratedHistories:
    @settings(max_examples=40, deadline=None)
    @given(
        history=st.lists(operations, max_size=24),
        window=st.integers(1, 4),
        snapshot_every=st.integers(1, 9),
        crash_at=st.floats(0, 1),
        kill_at=st.floats(0, 1),
        engine=st.sampled_from(["naive", "vectorized"]),
    )
    def test_recovery_equals_a_serial_replay(
        self, history, window, snapshot_every, crash_at, kill_at, engine
    ):
        """Random operations, checkpoints, writers that take the files
        over and writers that load them (so the writer's own cache is a
        restored one, on the same shared index), from ``initialise`` on:
        the recovered cache equals a serial replay, and so does one
        recovered from any journalled prefix, as a SIGKILL between
        appends leaves."""
        history = history[:int(crash_at * len(history))]
        applied = []
        with tempfile.TemporaryDirectory() as directory:
            state = Path(directory) / "state.json"
            store = JournaledState(state, snapshot_every=snapshot_every)
            cache = make_cache(engine=engine)
            store.initialise(cache, {})
            pending = []

            def commit():
                if pending:
                    store.apply_batch(cache, {}, pending)
                    applied.extend(pending)
                    pending.clear()
                    # every writer's cache numbers by the shared index
                    assert cache._universe.index is SIZE_OF

            for kind, arg in history:
                if kind == "checkpoint":
                    commit()
                    store.flush(cache, {})
                elif kind in ("fresh writer", "reload"):
                    commit()
                    store.journal.close()
                    store = JournaledState(state,
                                           snapshot_every=snapshot_every)
                    if kind == "reload":
                        cache, _, _ = store.load(SIZE_OF, engine=engine)
                else:
                    pending.append(as_op(kind, arg))
                    if len(pending) == window:
                        commit()
            commit()
            store.journal.close()  # the crash: no final checkpoint
            base = state_seq(state)
            lines = store.journal.path.read_bytes().splitlines(keepends=True)
            entries = [line for line in lines if b'"compacted_to"' not in line]
            kept = int(kill_at * len(entries))
            killed = Path(directory) / "killed"
            killed.mkdir()
            shutil.copy(state, killed / "state.json")
            (killed / "state.json.journal").write_bytes(
                b"".join(lines[:len(lines) - len(entries) + kept])
            )
            prefix, _, _ = recover_state(
                killed / "state.json", package_size=SIZE_OF, engine=engine
            )
            recovered, _, _ = recover_state(
                state, package_size=SIZE_OF, engine=engine
            )
        want = serial_replay(applied, engine=engine).snapshot()
        assert recovered.snapshot() == cache.snapshot() == want
        assert prefix.snapshot() == serial_replay(
            applied[:base + kept], engine=engine
        ).snapshot()
