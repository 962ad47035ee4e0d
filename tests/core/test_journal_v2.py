"""Journal v2: a request or adoption is journalled as a hex mask over
the state file's own name table, each package name written once per
generation, and replayed without interning."""

import errno
import json
import os
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache
from repro.core.journal import (
    Journal,
    JournalError,
    JournaledState,
    _encode_marker,
    recover_state,
    replay,
)
from repro.core.persistence import (
    StateError,
    load_bundle,
    load_table,
    save_state,
)
from repro.testing.faults import CrashPoint

FIXTURES = Path(__file__).parent / "fixtures"
SIZE = {f"p{i}": 5 + (i % 7) for i in range(40)}
CAPACITY, ALPHA = 120, 0.6

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
    return LandlordCache(CAPACITY, ALPHA, SIZE.__getitem__, **kw)


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


def journalled_names(state_path, journal_path=None):
    """Each request's or adoption's packages (sorted) as the journal
    records them beyond the state file: a v1 entry's list as written, a
    v2 entry's mask decoded against its generation — the state file's
    table, then the names earlier entries declared in ``new``."""
    base, generation = load_table(state_path)
    journal = Journal(journal_path or f"{state_path}.journal")
    out = []
    for entry in journal.entries():
        if entry.seq <= base or entry.op not in ("request", "adopt"):
            continue
        if "packages" in entry.data:
            out.append(sorted(entry.data["packages"]))
            generation += [name for name in dict.fromkeys(
                entry.data["packages"]) if name not in generation]
            continue
        assert entry.data["base"] == base
        generation += entry.data["new"]
        mask = int(entry.data["mask"], 16)
        out.append(sorted(
            generation[i] for i in range(mask.bit_length()) if mask >> i & 1
        ))
    return out


def copy_fixture(directory):
    """The v3 state + v1 journal fixture, copied (recovery rewrites it)."""
    for name in ("state_v3_journal_v1.json",
                 "state_v3_journal_v1.json.journal"):
        shutil.copy(FIXTURES / name, directory / name)
    return directory / "state_v3_journal_v1.json"


def recovered_universe(state, **kw):
    """The universe, in id order, of a cache recovered from the files as
    they are (read-only: nothing is re-saved or compacted)."""
    bundle = load_bundle(state, SIZE.__getitem__, **kw)
    _floor, entries = Journal(f"{state}.journal")._read()
    replay(bundle.cache, entries, after_seq=bundle.journal_seq)
    return bundle.cache._universe._ids


def journal_records(state):
    return [json.loads(line) for line in
            Path(f"{state}.journal").read_text().splitlines()]


class TestEntryLayout:
    def store_after_a_checkpoint(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=2)
        cache = make_cache()
        store.initialise(cache, {})
        store.apply(cache, {}, "request", packages=["p0", "p1", "p2"])
        store.apply(cache, {}, "request", packages=["p3", "p4"])  # seq 2
        return store, cache

    def test_request_and_adopt_are_masks_over_the_generation(self, tmp_path):
        store, cache = self.store_after_a_checkpoint(tmp_path)
        store.snapshot_every = 100
        store.apply(cache, {}, "request", packages=["p1", "p30", "p4"])
        store.apply(cache, {}, "adopt", packages=["p30", "p31"])
        store.apply(cache, {}, "evict_idle", max_idle_requests=5)
        records = journal_records(tmp_path / "state.json")
        _base, table = load_table(tmp_path / "state.json")
        assert table == ["p0", "p1", "p2", "p3", "p4"]
        assert [r["data"] for r in records[1:]] == [
            # p1 is bit 1, p4 bit 4, p30 the generation's first new name
            {"base": 2, "mask": format(0b110010, "x"), "new": ["p30"]},
            {"base": 2, "mask": format(0b1100000, "x"), "new": ["p31"]},
            {"max_idle_requests": 5},
        ]
        assert journalled_names(tmp_path / "state.json") == [
            ["p1", "p30", "p4"], ["p30", "p31"],
        ]

    def test_each_name_is_written_once_per_generation(self, tmp_path):
        store, cache = self.store_after_a_checkpoint(tmp_path)
        store.snapshot_every = 100
        specs = [sorted({f"p{(7 * i + j) % 40}" for j in range(6)})
                 for i in range(12)]
        store.apply_batch(cache, {}, [("request", {"packages": s})
                                      for s in specs])
        text = Path(f"{tmp_path / 'state.json'}.journal").read_text()
        table = set(load_table(tmp_path / "state.json")[1])
        for name in SIZE:
            assert text.count(f'"{name}"') == (
                0 if name in table or not any(name in s for s in specs)
                else 1
            )
        assert journalled_names(tmp_path / "state.json") == specs
        store.journal.close()
        recovered, _, replayed = recover_state(
            tmp_path / "state.json", package_size=SIZE.__getitem__
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
        size = len(store._gen.names)
        with pytest.raises(KeyError):  # the size oracle knows no 7
            store.apply_batch(cache, {}, [
                ("request", {"packages": ["p20"]}),
                ("request", {"packages": ["p21", 7]}),
            ])
        assert len(store._gen.names) == size
        assert store.journal.last_seq == 2


class TestCompatibility:
    def test_v1_fixture_recovers_to_a_serial_replay(self, tmp_path):
        state = copy_fixture(tmp_path)
        assert all("packages" in r["data"] for r in journal_records(state)
                   if r.get("op") in ("request", "adopt"))
        recovered, _, replayed = recover_state(
            state, package_size=SIZE.__getitem__
        )
        assert replayed == 7
        assert recovered.snapshot() == serial_replay(FIXTURE_OPS).snapshot()

    @pytest.mark.parametrize("loaded", [True, False])
    def test_v1_then_v2_entries_recover(self, tmp_path, loaded):
        state = copy_fixture(tmp_path)
        store = JournaledState(state, snapshot_every=1000)
        if loaded:
            cache, metadata, _ = store.load(SIZE.__getitem__)
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
            state, package_size=SIZE.__getitem__
        )
        assert replayed == 7 + len(MORE_OPS)
        want = serial_replay(FIXTURE_OPS + MORE_OPS).snapshot()
        assert recovered.snapshot() == cache.snapshot() == want

    def test_a_v2_state_file_is_a_generation_too(self, tmp_path):
        # A v2 state file lists each image's names: its table is the
        # order restore first interns them.
        size = {f"p{i}": 10 for i in range(30)}.__getitem__
        state = tmp_path / "s.json"
        shutil.copy(FIXTURES / "state_v2.json", state)
        Path(f"{state}.journal").write_text(_encode_marker(5))
        bundle = load_bundle(state, size)
        assert load_table(state) == (5, bundle.cache._universe._ids)
        store = JournaledState(state, snapshot_every=100)
        store.apply_batch(bundle.cache, bundle.metadata, [
            ("request", {"packages": ["p9", "p11"]}),
            ("adopt", {"packages": ["p20", "p22", "p11"]}),
        ])
        store.journal.close()
        assert [r["data"]["new"] for r in journal_records(state)[1:]] == [
            ["p11"], ["p22"]]
        recovered, _, replayed = recover_state(state, package_size=size)
        assert replayed == 2
        assert recovered.snapshot() == bundle.cache.snapshot()

    def test_state_file_is_unchanged(self, tmp_path):
        # The state format does not change: the fixture's cache saves
        # back byte for byte.
        state = copy_fixture(tmp_path)
        bundle = load_bundle(state, SIZE.__getitem__)
        again = save_state(tmp_path / "again.json", bundle.cache,
                           bundle.metadata, bundle.journal_seq)
        assert again.read_bytes() == state.read_bytes()


class TestGeneration:
    def make_store(self, tmp_path, snapshot_every=1000):
        store = JournaledState(tmp_path / "state.json",
                               snapshot_every=snapshot_every)
        cache = make_cache()
        store.initialise(cache, {})
        return store, cache

    def test_a_checkpoint_starts_a_generation(self, tmp_path):
        store, cache = self.make_store(tmp_path, snapshot_every=3)
        store.apply_batch(cache, {}, FIXTURE_OPS[:4])
        assert store._gen.base == 4
        assert store._gen.names == load_table(store.state_path)[1]
        assert store._gen.names == recovered_universe(store.state_path)

    def test_a_fresh_writer_reads_the_generation_off_the_files(
        self, tmp_path
    ):
        store, cache = self.make_store(tmp_path)
        store.apply_batch(cache, {}, FIXTURE_OPS[:6])
        store.journal.close()
        fresh = JournaledState(store.state_path, snapshot_every=1000)
        fresh.apply_batch(cache, {}, FIXTURE_OPS[6:])
        extends = fresh._gen.names[:len(store._gen.names)]
        assert extends == store._gen.names
        assert fresh._gen.names == recovered_universe(store.state_path)
        fresh.journal.close()
        recovered, _, _ = recover_state(store.state_path,
                                        package_size=SIZE.__getitem__)
        assert recovered.snapshot() == serial_replay(FIXTURE_OPS).snapshot()

    def test_a_writer_bound_to_a_cache_that_lacks_table_names(
        self, tmp_path
    ):
        store, cache = self.make_store(tmp_path, snapshot_every=2)
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])  # table p0..p4, seq 2
        store.journal.close()
        fresh = JournaledState(store.state_path, snapshot_every=1000)
        other = make_cache()  # has met none of the table's names
        other.request(frozenset({"p30"}))
        fresh.apply(other, {}, "request", packages=["p3", "p31"])
        # p3 is found in the table once the cache meets it: not declared
        assert journal_records(store.state_path)[-1]["data"] == {
            "base": 2, "mask": format(0b101000, "x"), "new": ["p31"],
        }
        assert fresh._gen.names == recovered_universe(store.state_path)

    @pytest.mark.parametrize("site, torn", [
        ("journal:append", None),   # nothing written
        ("journal:torn", None),     # written, fsync failed: cut back
        ("journal:torn", 0.5),      # a short write: cut back
    ])
    def test_a_failed_append_forgets_the_names_it_declared(
        self, tmp_path, site, torn
    ):
        store, cache = self.make_store(tmp_path)
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])
        names = list(store._gen.names)
        failed = [("request", {"packages": ["p30", "p31"]}),
                  ("adopt", {"packages": ["p31", "p32"]})]
        fault = OSError(errno.EIO, os.strerror(errno.EIO))
        with CrashPoint(site, torn=torn, error=fault) as point:
            with pytest.raises(OSError):
                store.apply_batch(cache, {}, failed)
        assert point.fired and store._gen.names == names
        # the next window declares the same names again, and replays
        reuse = [("request", {"packages": ["p31", "p32", "p33"]})]
        store.apply_batch(cache, {}, reuse)
        assert journal_records(store.state_path)[-1]["data"]["new"] == [
            "p31", "p32", "p33"]
        assert store._gen.names == recovered_universe(store.state_path)
        store.journal.close()
        recovered, _, replayed = recover_state(
            store.state_path, package_size=SIZE.__getitem__
        )
        assert replayed == 3
        assert recovered.snapshot() == \
            serial_replay(FIXTURE_OPS[:2] + reuse).snapshot()

    @pytest.mark.parametrize("site, base", [
        ("state:write", 0),     # the old file stays: the old generation
        ("state:synced", 0),
        ("state:renamed", 4),   # the new file is in place: the new one
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
        store.apply_batch(cache, {}, FIXTURE_OPS[4:6])
        assert store._gen.base == base
        assert journal_records(store.state_path)[-1]["data"]["base"] == base
        assert store._gen.names == recovered_universe(store.state_path)
        store.journal.close()
        recovered, _, _ = recover_state(store.state_path,
                                        package_size=SIZE.__getitem__)
        assert recovered.snapshot() == \
            serial_replay(FIXTURE_OPS[:6]).snapshot()

    def test_a_checkpoint_covers_the_whole_journal(self, tmp_path):
        store, cache = self.make_store(tmp_path)
        store.apply_batch(cache, {}, FIXTURE_OPS[:3])
        with pytest.raises(AssertionError, match="cover"):
            store.flush(cache, {}, journal_seq=2)


class TestReplayRefuses:
    """Replay never reads a mask against a table it was not written for."""

    def crafted(self, tmp_path, **data):
        store = JournaledState(tmp_path / "state.json", snapshot_every=2)
        cache = make_cache()
        store.initialise(cache, {})
        store.apply_batch(cache, {}, FIXTURE_OPS[:2])  # table p0..p4, seq 2
        store.apply(cache, {}, "request", packages=["p1", "p9"])  # seq 3
        store.journal.close()
        Journal(store.journal.path).append("request", **data)  # seq 4
        return store.state_path

    @pytest.mark.parametrize("data, match", [
        ({"base": 0, "mask": "3", "new": []}, "journal_seq 0, not 2"),
        ({"base": 2, "mask": "40", "new": []}, "past the 6 names"),
        ({"base": 2, "mask": "1", "new": ["p2"]}, "holds"),
        ({"base": 2, "mask": "1", "new": ["p9"]}, "holds"),
        ({"base": 2, "mask": "3", "new": ["p20", "p20"]}, "holds"),
        ({"base": 2, "mask": "-3", "new": []}, "negative"),
        ({"base": 2, "mask": "zz", "new": []}, "invalid literal"),
        ({"base": 2, "mask": 3, "new": []}, "'mask' is not"),
        ({"base": 2, "mask": "3", "new": "p20"}, "'new' is not"),
        ({"base": 2, "mask": "3", "new": [20]}, "'new' is not"),
        ({"base": 2, "mask": "3"}, "'new' is not"),
    ])
    def test_is_a_journal_error_naming_the_entry(self, tmp_path, data, match):
        state = self.crafted(tmp_path, **data)
        with pytest.raises(JournalError, match=match) as excinfo:
            recover_state(state, package_size=SIZE.__getitem__)
        assert "journal entry 4" in str(excinfo.value)
        with pytest.raises(JournalError, match="journal entry 4"):
            JournaledState(state).load(SIZE.__getitem__)

    def test_a_writer_refuses_to_append_after_it(self, tmp_path):
        state = self.crafted(tmp_path, base=0, mask="3", new=[])
        fresh = JournaledState(state)
        with pytest.raises(JournalError, match="journal entry 4"):
            fresh.apply(make_cache(), {}, "request", packages=["p0"])


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
            state, package_size=SIZE.__getitem__
        )
        assert replayed == 2
        assert recovered.snapshot() == serial_replay(FIXTURE_OPS[:2]).snapshot()

    def test_mid_file_it_is_a_journal_error(self, tmp_path):
        state, journal = self.journalled(tmp_path)
        self.put_ff(journal, 20)
        with pytest.raises(JournalError, match="mid-file"):
            recover_state(state, package_size=SIZE.__getitem__)

    def test_in_the_state_file_it_is_a_state_error(self, tmp_path):
        state, _journal = self.journalled(tmp_path)
        self.put_ff(state, state.stat().st_size // 2)
        with pytest.raises(StateError, match="corrupt state file"):
            load_bundle(state, SIZE.__getitem__)
        with pytest.raises(StateError, match="corrupt state file"):
            load_table(state)

    def test_a_state_file_that_is_not_an_object_is_a_state_error(
        self, tmp_path
    ):
        state, _journal = self.journalled(tmp_path)
        state.write_text("[1, 2]")
        with pytest.raises(StateError, match="not a JSON object"):
            load_bundle(state, SIZE.__getitem__)


# -- byte flips in v2 lines ----------------------------------------------------


@lru_cache(maxsize=None)
def flip_subject():
    """A state file and a v2 journal of four entries behind it, as
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
                    state, package_size=SIZE.__getitem__
                )
            except (JournalError, StateError):
                return
        assert json.dumps(recovered.snapshot(), sort_keys=True) in prefixes


# -- the generation invariant over generated histories -------------------------


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
        engine=st.sampled_from(["naive", "vectorized"]),
    )
    def test_recovery_equals_a_serial_replay(
        self, history, window, snapshot_every, crash_at, engine
    ):
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
                    # the writer's generation is what recovery rebuilds
                    assert store._gen.names == recovered_universe(
                        state, engine=engine)

            for kind, arg in history:
                if kind == "checkpoint":
                    commit()
                    store.flush(cache, {})
                elif kind == "fresh writer":
                    commit()
                    store.journal.close()
                    store = JournaledState(state,
                                           snapshot_every=snapshot_every)
                else:
                    pending.append(as_op(kind, arg))
                    if len(pending) == window:
                        commit()
            commit()
            store.journal.close()  # the crash: no final checkpoint
            recovered, _, _ = recover_state(
                state, package_size=SIZE.__getitem__, engine=engine
            )
        want = serial_replay(applied, engine=engine).snapshot()
        assert recovered.snapshot() == cache.snapshot() == want
