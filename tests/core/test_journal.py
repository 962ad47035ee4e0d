"""Tests for the write-ahead journal and the journalled durable store."""

import errno
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache
from repro.core.journal import (
    _CANON,
    Journal,
    JournalEntry,
    JournalError,
    JournaledState,
    _crc,
    _decode,
    _encode,
    _encode_marker,
    apply_entry,
    recover_state,
    replay,
)
from repro.core.persistence import StateNotFound, load_bundle
from repro.testing.faults import CrashPoint

SIZE = {f"p{i}": 10 for i in range(30)}


def make_cache(**kw):
    return LandlordCache(500, 0.8, SIZE.__getitem__, **kw)


class TestJournal:
    def test_append_entries_roundtrip(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        journal.append("request", packages=["p0", "p1"])
        journal.append("adopt", packages=["p2"])
        entries = journal.entries()
        assert [(e.seq, e.op) for e in entries] == [
            (1, "request"), (2, "adopt"),
        ]
        assert entries[0].data == {"packages": ["p0", "p1"]}

    def test_empty_or_missing_journal(self, tmp_path):
        journal = Journal(tmp_path / "none.journal")
        assert journal.entries() == []
        assert journal.last_seq == 0

    def test_sequence_continues_across_sessions(self, tmp_path):
        path = tmp_path / "j.journal"
        Journal(path).append("request", packages=["p0"])
        second = Journal(path)
        entry = second.append("request", packages=["p1"])
        assert entry.seq == 2

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append("request", packages=["p0"])
        journal.append("request", packages=["p1"])
        journal.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # tear the last line
        entries = Journal(path).entries()
        assert [e.seq for e in entries] == [1]

    def test_midfile_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append("request", packages=["p0"])
        journal.append("request", packages=["p1"])
        journal.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-10] + "corrupted}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="mid-file"):
            Journal(path).entries()

    def test_crc_detects_bit_flip_in_tail(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append("request", packages=["p0"])
        journal.close()
        record = json.loads(path.read_text())
        record["data"]["packages"] = ["p9"]  # flip payload, keep old crc
        path.write_text(json.dumps(record) + "\n")
        assert Journal(path).entries() == []

    def test_sequence_regression_is_fatal(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        first = journal.append("request", packages=["p0"])
        journal.close()
        line = path.read_text()
        path.write_text(line + line)  # duplicate seq 1
        with pytest.raises(JournalError, match="regressed"):
            Journal(path).entries()
        assert first.seq == 1

    def test_compact_drops_snapshotted_prefix(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        for i in range(4):
            journal.append("request", packages=[f"p{i}"])
        dropped = journal.compact(upto_seq=2)
        assert dropped == 2
        assert [e.seq for e in journal.entries()] == [3, 4]
        # appends keep numbering after compaction
        assert journal.append("request", packages=["p9"]).seq == 5

    def test_numbering_survives_compaction_across_sessions(self, tmp_path):
        # regression: without the compaction marker a fresh process
        # restarted numbering at 1 after a full compaction, and replay
        # (filtering by the snapshot's journal_seq) silently skipped the
        # new entries — losing operations.
        path = tmp_path / "j.journal"
        journal = Journal(path)
        for i in range(3):
            journal.append("request", packages=[f"p{i}"])
        journal.compact(upto_seq=3)  # journal now empty of entries
        assert journal.entries() == []
        fresh = Journal(path)
        assert fresh.last_seq == 3
        assert fresh.append("request", packages=["p9"]).seq == 4

    def test_corrupt_compaction_marker_is_fatal(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append("request", packages=["p0"])
        journal.compact(upto_seq=1)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"compacted_to":1', '"compacted_to":7')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="marker"):
            Journal(path).entries()

    def test_reset_restarts_numbering(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        journal.append("request", packages=["p0"])
        journal.reset()
        assert journal.entries() == []
        assert journal.append("request", packages=["p1"]).seq == 1


class TestFailedAppend:
    """A write or fsync that raises is cut back off the file: the next
    append reuses its sequence numbers on a clean tail, and the journal
    still loads."""

    @pytest.mark.parametrize("torn, code", [
        (None, errno.EIO),     # fsync failed, the line stays in the file
        (0.5, errno.ENOSPC),   # short write
    ])
    def test_failed_append_is_cut_back(self, tmp_path, torn, code):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append("request", packages=["p0"])
        size = path.stat().st_size
        fault = OSError(code, os.strerror(code))
        with CrashPoint("journal:torn", torn=torn, error=fault) as point:
            with pytest.raises(OSError) as excinfo:
                journal.append("request", packages=["p1"])
        assert point.fired and excinfo.value is fault
        assert path.stat().st_size == size
        assert journal.append("request", packages=["p2"]).seq == 2
        # a fresh writer loads it: no "sequence regressed"
        _, entries = Journal(path).read_as_writer()
        assert [(e.seq, e.data["packages"]) for e in entries] == [
            (1, ["p0"]), (2, ["p2"]),
        ]

    def test_recovery_ends_at_the_acked_prefix(self, tmp_path):
        state = tmp_path / "state.json"
        store = JournaledState(state, snapshot_every=10_000)
        cache = make_cache()
        store.initialise(cache, {})
        windows = [[["p0", "p1"]], [["p2"], ["p3", "p4"]], [["p5"]]]
        fault = OSError(errno.EIO, os.strerror(errno.EIO))
        acked = []
        for number, window in enumerate(windows):
            ops = [("request", {"packages": spec}) for spec in window]
            if number == 1:
                with CrashPoint("journal:torn", error=fault):
                    with pytest.raises(OSError):
                        store.apply_batch(cache, {}, ops)
            else:
                store.apply_batch(cache, {}, ops)
                acked += window
        store.journal.close()
        recovered, _, replayed = recover_state(
            state, package_size=SIZE.__getitem__
        )
        assert replayed == len(acked)
        serial = make_cache()
        for spec in acked:
            serial.request(frozenset(spec))
        assert recovered.snapshot() == serial.snapshot() == cache.snapshot()

    def test_failed_cut_back_refuses_appends_until_reread(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append("request", packages=["p0"])

        def eio(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "fsync", eio)  # the append's and the cut's
        with pytest.raises(OSError):
            journal.append("request", packages=["p1"])
        monkeypatch.undo()
        with pytest.raises(JournalError, match="re-read"):
            journal.append("request", packages=["p2"])
        journal.read_as_writer()
        assert journal.append("request", packages=["p2"]).seq == 2
        assert [e.seq for e in Journal(path).entries()] == [1, 2]


class TestReplay:
    def test_replay_reproduces_decisions(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        live = make_cache()
        results = []
        for spec in (["p0", "p1"], ["p0", "p1", "p2"], ["p5"]):
            entry = journal.append("request", packages=spec)
            results.append(apply_entry(live, entry))
        replayed = replay(make_cache(), journal.entries())
        assert len(replayed) == 3
        for (entry, redo), original in zip(replayed, results):
            assert redo.action == original.action
            assert redo.image.id == original.image.id

    def test_replay_skips_covered_entries(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        for i in range(3):
            journal.append("request", packages=[f"p{i}"])
        cache = make_cache()
        replayed = replay(cache, journal.entries(), after_seq=2)
        assert [entry.seq for entry, _ in replayed] == [3]
        assert cache.stats.requests == 1

    def test_replay_detects_gap(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        for i in range(3):
            journal.append("request", packages=[f"p{i}"])
        journal.compact(upto_seq=2)
        with pytest.raises(JournalError, match="gap"):
            replay(make_cache(), journal.entries(), after_seq=0)

    def test_apply_entry_dispatch(self):
        cache = make_cache()
        apply_entry(cache, _entry(1, "request", {"packages": ["p0"]}))
        apply_entry(cache, _entry(2, "adopt", {"packages": ["p1"]}))
        assert len(cache) == 2
        apply_entry(
            cache, _entry(3, "evict_idle", {"max_idle_requests": 1000})
        )
        apply_entry(cache, _entry(4, "clear", {}))
        assert len(cache) == 0

    def test_apply_entry_unknown_op(self):
        with pytest.raises(JournalError, match="unknown"):
            apply_entry(make_cache(), _entry(1, "frobnicate", {}))


def _entry(seq, op, data):
    from repro.core.journal import JournalEntry

    return JournalEntry(seq, op, data)


class TestJournaledState:
    def test_load_before_initialise_raises(self, tmp_path):
        store = JournaledState(tmp_path / "state.json")
        with pytest.raises(StateNotFound):
            store.load(SIZE.__getitem__)

    def test_apply_snapshot_every_1_keeps_journal_empty(self, tmp_path):
        store = JournaledState(tmp_path / "state.json")
        cache = make_cache()
        store.initialise(cache, {"site": "s0"})
        store.apply(cache, {"site": "s0"}, "request", packages=["p0", "p1"])
        assert store.journal.entries() == []
        bundle = load_bundle(tmp_path / "state.json", SIZE.__getitem__)
        assert bundle.cache.stats.requests == 1
        assert bundle.journal_seq == 1

    def test_periodic_snapshot_leans_on_replay(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=3)
        cache = make_cache()
        store.initialise(cache)
        for i in range(5):
            store.apply(cache, None, "request", packages=[f"p{i}"])
        # 5 ops, snapshot fired at seq 3: journal holds the tail 4..5
        assert [e.seq for e in store.journal.entries()] == [4, 5]
        fresh = JournaledState(tmp_path / "state.json", snapshot_every=3)
        recovered, _meta, replayed = fresh.load(SIZE.__getitem__)
        assert len(replayed) == 2
        assert recovered.stats == cache.stats

    def test_snapshot_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            JournaledState(tmp_path / "state.json", snapshot_every=0)

    def test_recover_state_folds_tail(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        cache = make_cache()
        store.initialise(cache)
        for i in range(4):
            store.apply(cache, None, "request", packages=[f"p{i}"])
        # snapshot never fired; all 4 ops live only in the journal
        assert len(store.journal.entries()) == 4
        recovered, _meta, count = recover_state(
            tmp_path / "state.json", package_size=SIZE.__getitem__
        )
        assert count == 4
        assert recovered.stats == cache.stats
        # recovery compacted: snapshot now covers everything
        assert Journal(tmp_path / "state.json.journal").entries() == []
        bundle = load_bundle(tmp_path / "state.json", SIZE.__getitem__)
        assert bundle.cache.stats.requests == 4


class TestGroupCommit:
    """Batch append (one fsync per window) and batched application."""

    def test_append_many_assigns_contiguous_seqs(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        journal.append("request", packages=["p0"])
        entries = journal.append_many([
            ("request", {"packages": ["p1"]}),
            ("request", {"packages": ["p2"]}),
            ("clear", {}),
        ])
        assert [(e.seq, e.op) for e in entries] == [
            (2, "request"), (3, "request"), (4, "clear"),
        ]
        assert [e.seq for e in journal.entries()] == [1, 2, 3, 4]
        assert journal.append("request", packages=["p3"]).seq == 5

    def test_append_many_empty_is_a_noop(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        assert journal.append_many([]) == []
        assert journal.last_seq == 0

    def test_torn_batch_tail_keeps_intact_prefix(self, tmp_path):
        # A crash mid-group-commit must leave a gap-free prefix: the
        # entries before the tear replay, the torn one is dropped.
        path = tmp_path / "j.journal"
        journal = Journal(path)
        journal.append_many([
            ("request", {"packages": [f"p{i}"]}) for i in range(3)
        ])
        journal.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # tear the final record
        assert [e.seq for e in Journal(path).entries()] == [1, 2]

    def test_apply_batch_matches_serial_apply(self, tmp_path):
        ops = [("request", {"packages": [f"p{i}", f"p{(i * 3) % 20}"]})
               for i in range(7)]
        batch_store = JournaledState(
            tmp_path / "batch.json", snapshot_every=100
        )
        batch_cache = make_cache()
        batch_store.initialise(batch_cache)
        results = batch_store.apply_batch(batch_cache, None, ops)
        serial_store = JournaledState(
            tmp_path / "serial.json", snapshot_every=100
        )
        serial_cache = make_cache()
        serial_store.initialise(serial_cache)
        for op, data in ops:
            serial_store.apply(serial_cache, None, op, **data)
        assert len(results) == 7
        assert batch_cache.snapshot() == serial_cache.snapshot()
        assert (
            batch_store.journal.last_seq == serial_store.journal.last_seq
        )
        recovered, _meta, replayed = JournaledState(
            tmp_path / "batch.json"
        ).load(SIZE.__getitem__)
        assert len(replayed) == 7
        assert recovered.snapshot() == batch_cache.snapshot()

    def test_apply_batch_snapshot_cadence(self, tmp_path):
        # Crossing the snapshot_every boundary inside a batch flushes
        # once, after the batch: the journal is compacted to its end.
        store = JournaledState(tmp_path / "state.json", snapshot_every=4)
        cache = make_cache()
        store.initialise(cache)
        store.apply_batch(cache, None, [
            ("request", {"packages": [f"p{i}"]}) for i in range(6)
        ])
        assert store.journal.entries() == []  # compacted by the flush
        recovered, _meta, replayed = JournaledState(
            tmp_path / "state.json", snapshot_every=4
        ).load(SIZE.__getitem__)
        assert replayed == []
        assert recovered.snapshot() == cache.snapshot()

    def test_apply_batch_below_cadence_skips_snapshot(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=10)
        cache = make_cache()
        store.initialise(cache)
        store.apply_batch(cache, None, [
            ("request", {"packages": [f"p{i}"]}) for i in range(3)
        ])
        # no flush fired: all three ops still live in the journal only
        assert [e.seq for e in store.journal.entries()] == [1, 2, 3]

    def test_apply_batch_on_result_fires_in_entry_order(self, tmp_path):
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        cache = make_cache()
        store.initialise(cache)
        seen = []
        store.apply_batch(
            cache, None,
            [("request", {"packages": [f"p{i}"]}) for i in range(4)],
            on_result=lambda entry, result: seen.append(entry.seq),
        )
        assert seen == [1, 2, 3, 4]


class TestEncodeOnce:
    """The line is one canonical dump with the CRC spliced in — the
    same bytes the two-dump encoder wrote, so old journals stay
    readable and new ones are byte-identical to them."""

    _json = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    )

    @settings(max_examples=200, deadline=None)
    @given(
        seq=st.integers(min_value=1, max_value=2**63),
        op=st.sampled_from(["request", "adopt", "evict_idle", "clear"])
        | st.text(),
        data=st.dictionaries(st.text(), _json, max_size=4)
        | st.fixed_dictionaries({"packages": st.lists(st.text(), max_size=40)}),
    )
    def test_entry_line_equals_the_two_dump_encoding(self, seq, op, data):
        body = {"seq": seq, "op": op, "data": data}
        line = _encode(JournalEntry(seq, op, data))
        assert line == json.dumps({**body, "crc": _crc(body)}, **_CANON) + "\n"
        assert _decode(line) == JournalEntry(seq, op, data)

    @given(compacted_to=st.integers(min_value=0, max_value=2**63))
    def test_marker_line_equals_the_two_dump_encoding(self, compacted_to):
        body = {"compacted_to": compacted_to}
        assert _encode_marker(compacted_to) == (
            json.dumps({**body, "crc": _crc(body)}, **_CANON) + "\n"
        )


class TestJournalSpecsAreTransient:
    def test_apply_batch_and_recovery_retain_no_specs(self, tmp_path):
        # 200 unique ops out of the journal: neither the writer's cache
        # nor the recovered one memoises a spec only it would own.
        ops = [
            ("request", {"packages": sorted({f"p{i % 30}", f"p{i // 30}",
                                             f"p{(i * 7) % 29}"})})
            for i in range(200)
        ]
        store = JournaledState(tmp_path / "s.json", snapshot_every=1000)
        cache = make_cache()
        store.initialise(cache)
        before = len(cache._spec_memo)
        for start in range(0, 200, 25):
            store.apply_batch(cache, None, ops[start:start + 25])
        assert len(cache._spec_memo) == before
        store.journal.close()
        recovered, _, replayed = recover_state(
            tmp_path / "s.json", package_size=SIZE.__getitem__
        )
        assert replayed == 200
        assert len(recovered._spec_memo) == 0
        assert recovered.snapshot() == cache.snapshot()
        # the snapshot recover_state wrote restores without retaining
        # its image records either
        restored = load_bundle(tmp_path / "s.json", SIZE.__getitem__).cache
        assert len(restored._spec_memo) == 0
        assert restored.snapshot() == cache.snapshot()
