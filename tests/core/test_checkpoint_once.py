"""A checkpoint writes each byte once: the state file's layout, the
compaction that reads nothing, and CRCs over the bytes as they lie."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache
from repro.core.journal import (
    Journal,
    JournalEntry,
    JournalError,
    JournaledState,
    _crc,
    _decode,
    _encode,
    recover_state,
)
from repro.core.persistence import (
    StateError,
    StateNotFound,
    body_checksum,
    load_bundle,
    save_state,
)
from repro.obs import MetricsRegistry
from repro.testing.faults import (
    CRASH_SITES,
    TORN_SITES,
    CrashPoint,
    SimulatedCrash,
)

SIZE = {f"p{i}": 7 + (i % 5) for i in range(30)}
CANON = {"sort_keys": True, "separators": (",", ":")}


def make_cache(capacity=500):
    return LandlordCache(capacity, 0.8, SIZE.__getitem__)


def warm_cache():
    cache = make_cache()
    cache.request(frozenset({"p0", "p1", "p2"}))
    cache.request(frozenset({"p0", "p1", "p3"}))  # merge
    cache.request(frozenset({"p9", "p10"}))
    cache.request(frozenset({"p9", "p10"}))       # hit
    return cache


def digest(cache):
    return hashlib.sha256(
        json.dumps(cache.snapshot(), **CANON).encode("utf-8")
    ).hexdigest()


def request_ops(n, start=0):
    return [
        ("request", {"packages": sorted({f"p{(start + i) % 30}",
                                          f"p{(start + 3 * i + 1) % 30}"})})
        for i in range(n)
    ]


class Tripwire:
    """Stands in for ``owner.name``: counts calls, or forbids them."""

    def __init__(self, monkeypatch, owner, name, forbid):
        self.calls = 0
        self.forbid = forbid
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            assert not self.forbid, f"{name} was called"
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def read_tripwire(monkeypatch, forbid):
    """On ``Journal._read``: did anything read the journal file?"""
    return Tripwire(monkeypatch, Journal, "_read", forbid)


def dumps_tripwire(monkeypatch, forbid):
    """On ``json.dumps``: was anything (re-)encoded?"""
    return Tripwire(monkeypatch, json, "dumps", forbid)


# -- (a) the state file ------------------------------------------------------


class TestStateFileLayout:
    def payload_of(self, cache, metadata, journal_seq, version=3):
        """What a writer of ``version`` put in the file: v3 stores the
        name table and masks, v2 stored ``snapshot()``'s name lists."""
        body = {"metadata": metadata, "journal_seq": journal_seq,
                "cache": (cache.table_snapshot() if version == 3
                          else cache.snapshot())}
        # version and checksum first, then the body with its keys sorted
        # at every level: re-parse the canonical dump to get that order.
        ordered = json.loads(json.dumps(body, **CANON))
        return {"version": version, "checksum": body_checksum(body),
                **ordered}

    def test_file_bytes_are_one_compact_dump_of_the_payload(self, tmp_path):
        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache, {"site": "nd"}, 7)
        payload = self.payload_of(cache, {"site": "nd"}, 7)
        assert path.read_bytes() == json.dumps(
            payload, separators=(",", ":")
        ).encode("utf-8")
        assert list(payload)[:2] == ["version", "checksum"]
        assert list(payload)[2:] == sorted(list(payload)[2:])

    def test_save_state_encodes_once(self, tmp_path, monkeypatch):
        cache = warm_cache()
        dumps = dumps_tripwire(monkeypatch, forbid=False)
        save_state(tmp_path / "s.json", cache, {"site": "nd"}, 7)
        monkeypatch.undo()
        assert dumps.calls == 1

    def test_loading_a_written_file_never_re_encodes(
        self, tmp_path, monkeypatch
    ):
        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache, {"site": "nd"}, 7)
        dumps_tripwire(monkeypatch, forbid=True)
        bundle = load_bundle(path, SIZE.__getitem__)
        monkeypatch.undo()
        assert bundle.journal_seq == 7 and bundle.metadata == {"site": "nd"}
        assert digest(bundle.cache) == digest(cache)

    def test_parent_layout_file_loads_to_the_same_digest(self, tmp_path):
        cache = warm_cache()
        new = save_state(tmp_path / "new.json", cache, {"site": "nd"}, 7)
        old = tmp_path / "old.json"
        old.write_text(
            json.dumps(self.payload_of(cache, {"site": "nd"}, 7, version=2),
                       indent=1)
        )
        assert old.read_bytes() != new.read_bytes()
        loaded_old = load_bundle(old, SIZE.__getitem__)
        loaded_new = load_bundle(new, SIZE.__getitem__)
        assert digest(loaded_old.cache) == digest(loaded_new.cache) \
            == digest(cache)
        assert loaded_old.journal_seq == loaded_new.journal_seq == 7
        assert loaded_old.metadata == loaded_new.metadata

    @pytest.mark.parametrize("layout", ["written", "indent"])
    def test_flipped_byte_fails_the_checksum(self, tmp_path, layout):
        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache, {"site": "nd"}, 7)
        if layout == "indent":
            path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        text = path.read_text()
        assert '"p10"' in text
        path.write_text(text.replace('"p10"', '"p11"', 1))
        with pytest.raises(StateError, match="checksum"):
            load_bundle(path, SIZE.__getitem__)

    def test_header_tampering_fails_the_checksum(self, tmp_path):
        path = save_state(tmp_path / "s.json", warm_cache(), {}, 7)
        text = path.read_text()
        flipped = "0" if text[40] != "0" else "1"  # a checksum hex digit
        path.write_text(text[:40] + flipped + text[41:])
        with pytest.raises(StateError, match="checksum"):
            load_bundle(path, SIZE.__getitem__)

    def test_reformatted_file_is_still_accepted(self, tmp_path):
        # Whitespace and key order are not state: a hand-edited or
        # pretty-printed file verifies through the canonical re-encoding.
        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache, {"site": "nd"}, 7)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(dict(reversed(payload.items())), indent=4))
        assert digest(load_bundle(path, SIZE.__getitem__).cache) \
            == digest(cache)


# -- (b) the compaction that reads nothing ------------------------------------


class TestCompactionReadContract:
    def test_checkpoints_and_flush_never_read_the_journal(
        self, tmp_path, monkeypatch
    ):
        cache = make_cache()
        store = JournaledState(tmp_path / "state.json", snapshot_every=4)
        store.initialise(cache, {})
        store.apply_batch(cache, {}, request_ops(3))  # the first append
        read_tripwire(monkeypatch, forbid=True)
        store.apply_batch(cache, {}, request_ops(3, start=3))  # crosses 4
        store.apply_batch(cache, {}, request_ops(5, start=6))  # crosses 8
        store.flush(cache, {})  # journal_seq=None: the writer's own count
        monkeypatch.undo()
        assert store.journal.entries() == []
        assert store.journal.last_seq == 11
        bundle = load_bundle(store.state_path, SIZE.__getitem__)
        assert bundle.journal_seq == 11
        assert digest(bundle.cache) == digest(cache)

    def test_writer_on_an_existing_file_reads_it_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.journal"
        Journal(path).append_many(request_ops(3))
        journal = Journal(path)
        reads = read_tripwire(monkeypatch, forbid=False)
        assert journal.append_many(request_ops(2))[-1].seq == 5
        assert reads.calls == 1  # the read that establishes the numbering
        reads.forbid = True
        assert journal.last_seq == 5
        assert journal.compact(5) == 5
        assert journal.compact(5) == 0  # nothing counted: nothing written
        assert journal.append_many(request_ops(2))[0].seq == 6
        assert journal.compact(9) == 2  # beyond the newest: covers it all
        assert journal.last_seq == 7

    @pytest.mark.parametrize("n_entries", [0, 1, 6])
    def test_same_file_result_and_metric_as_the_reading_path(
        self, tmp_path, monkeypatch, n_entries
    ):
        def written(directory, reader):
            registry = MetricsRegistry()
            path = directory / "j.journal"
            journal = Journal(path, metrics=registry)
            journal.reset()
            journal.append_many(request_ops(4))
            journal.compact(2)  # a marker and two kept entries behind it
            journal.append_many(request_ops(n_entries, start=4))
            reads = read_tripwire(monkeypatch, forbid=False)
            if reader:  # an object that has not counted the file
                journal = Journal(path, metrics=registry)
            dropped = journal.compact(4 + n_entries)
            monkeypatch.undo()
            assert reads.calls == (1 if reader else 0)
            return (
                path.read_bytes(), dropped,
                registry.get("journal_entries_dropped_total").value(),
                registry.get("journal_compactions_total").value(),
            )

        (tmp_path / "fast").mkdir()
        (tmp_path / "read").mkdir()
        assert written(tmp_path / "fast", reader=False) \
            == written(tmp_path / "read", reader=True)

    def test_partial_keep_still_reads(self, tmp_path, monkeypatch):
        journal = Journal(tmp_path / "j.journal")
        journal.append_many(request_ops(5))
        reads = read_tripwire(monkeypatch, forbid=False)
        assert journal.compact(3) == 3  # upto_seq < newest: two are kept
        assert reads.calls == 1
        assert [e.seq for e in journal.entries()] == [4, 5]
        # ... and the count follows the kept tail, so the next full
        # compaction is silent again and reports exactly those two.
        reads.forbid = True
        assert journal.compact(5) == 2

    def test_fresh_object_and_parsed_still_read(self, tmp_path, monkeypatch):
        path = tmp_path / "j.journal"
        Journal(path).append_many(request_ops(5))
        reads = read_tripwire(monkeypatch, forbid=False)
        fresh = Journal(path)
        assert fresh.last_seq == 5
        assert reads.calls == 1
        assert fresh.compact(5) == 5
        assert reads.calls == 2
        # parsed= is the caller's own read: honoured even by a writer
        # that has counted the file (recovery hands it the one parse).
        writer = Journal(path)
        writer.append_many(request_ops(3))
        parsed = writer._read()
        assert reads.calls == 4  # the writer's first append, and this one
        reads.forbid = True
        assert writer.compact(7, parsed) == 2  # 6 and 7 dropped, 8 kept
        reads.forbid = False
        assert [e.seq for e in writer.entries()] == [8]

    def test_recovery_parses_once_and_hands_the_parse_on(
        self, tmp_path, monkeypatch
    ):
        cache = make_cache()
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        store.initialise(cache, {})
        store.apply_batch(cache, {}, request_ops(9))
        store.journal.close()
        reads = read_tripwire(monkeypatch, forbid=False)
        recovered, _metadata, replayed = recover_state(
            tmp_path / "state.json", package_size=SIZE.__getitem__
        )
        assert reads.calls == 1 and replayed == 9
        assert digest(recovered) == digest(cache)


class TestWrapperInvocationReadsOnce:
    """``load`` + one ``apply`` — a job wrapper's whole life — is one read:
    the parse that replays the tail also numbers the append."""

    def crashed_store(self, tmp_path, torn):
        """A state three requests behind its journal; optionally a torn
        fourth line, as a crash mid-append leaves it."""
        cache = make_cache()
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        store.initialise(cache, {})
        store.apply_batch(cache, {}, request_ops(3))
        store.journal.close()
        if torn:
            with open(store.journal.path, "a", encoding="utf-8") as fh:
                fh.write(_encode(JournalEntry(4, "clear", {}))[:9])
        return cache

    @pytest.mark.parametrize("torn", [False, True])
    def test_load_then_apply_reads_the_journal_once(
        self, tmp_path, monkeypatch, torn
    ):
        reference = self.crashed_store(tmp_path, torn)
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        reads = read_tripwire(monkeypatch, forbid=False)
        cache, metadata, replayed = store.load(SIZE.__getitem__)
        assert reads.calls == 1 and len(replayed) == 3
        reads.forbid = True
        assert store.journal.last_seq == 3
        (op, data), = request_ops(1, start=3)
        store.apply(cache, metadata, op, **data)
        store.flush(cache, metadata)
        monkeypatch.undo()
        # The torn tail was cut before the append, not glued to it: the
        # new entry is number 4 and a cold recovery sees all four.
        reference.request(data["packages"])
        assert store.journal.last_seq == 4
        assert digest(cache) == digest(reference)
        recovered, _metadata, _n = recover_state(
            tmp_path / "state.json", package_size=SIZE.__getitem__
        )
        assert digest(recovered) == digest(reference)

    def test_torn_tail_is_healed_before_the_first_append(self, tmp_path):
        self.crashed_store(tmp_path, torn=True)
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        cache, metadata, _replayed = store.load(SIZE.__getitem__)
        store.apply(cache, metadata, "clear")
        lines = store.journal.path.read_text(encoding="utf-8").splitlines()
        assert [_decode(line).seq for line in lines] == [1, 2, 3, 4]

    def test_a_second_load_counts_again(self, tmp_path):
        # One store object outliving a crash (the harness does this): the
        # reload must not number from what it believed before.
        self.crashed_store(tmp_path, torn=False)
        store = JournaledState(tmp_path / "state.json", snapshot_every=100)
        store.load(SIZE.__getitem__)
        Journal(store.journal.path).append_many(request_ops(2, start=3))
        cache, metadata, replayed = store.load(SIZE.__getitem__)
        assert len(replayed) == 5
        store.apply(cache, metadata, "clear")
        assert store.journal.last_seq == 6


class TestMarkerAsItLies:
    def compacted(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        journal.append_many(request_ops(4))
        journal.compact(3)
        return journal.path

    def test_written_marker_verifies_without_re_encoding(
        self, tmp_path, monkeypatch
    ):
        path = self.compacted(tmp_path)
        dumps_tripwire(monkeypatch, forbid=True)
        floor, entries = Journal(path)._read()
        monkeypatch.undo()
        assert floor == 3 and [e.seq for e in entries] == [4]

    def test_reformatted_marker_is_accepted_via_the_fallback(self, tmp_path):
        path = self.compacted(tmp_path)
        marker, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(
            json.dumps(json.loads(marker), indent=None) + "\n" + rest,
            encoding="utf-8",
        )
        assert Journal(path).last_seq == 4

    @pytest.mark.parametrize("old, new", [
        ('"compacted_to":3', '"compacted_to":2'),
        ('"compacted_to":3', '"compacted_to":"3"'),
    ])
    def test_tampered_marker_is_rejected(self, tmp_path, old, new):
        path = self.compacted(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(JournalError, match="marker"):
            Journal(path).entries()

    def test_flipped_marker_crc_digit_is_rejected(self, tmp_path):
        path = self.compacted(tmp_path)
        marker, rest = path.read_text(encoding="utf-8").split("\n", 1)
        digit = marker[-2]
        flipped = marker[:-2] + ("1" if digit != "1" else "2") + "}"
        path.write_text(flipped + "\n" + rest, encoding="utf-8")
        with pytest.raises(JournalError, match="marker"):
            Journal(path).entries()


# -- (c) the CRC over the line as it lies ---------------------------------------


ENTRIES = [
    JournalEntry(1, "request", {"packages": ["p0", "p1"]}),
    JournalEntry(2, "clear", {}),
    JournalEntry(3, "evict_idle", {"max_idle_requests": 10}),
    JournalEntry(2 ** 40, "adopt", {"packages": ["café/1.0", "p\"q\\r"]}),
]


class TestDecodeAsItLies:
    def test_encoded_lines_verify_without_re_encoding(self, monkeypatch):
        lines = [_encode(entry) for entry in ENTRIES]
        dumps_tripwire(monkeypatch, forbid=True)
        decoded = [_decode(line[:-1]) for line in lines]
        monkeypatch.undo()
        assert decoded == ENTRIES

    def test_whitespace_layout_is_accepted_via_the_fallback(self, monkeypatch):
        record = {"seq": 3, "op": "request", "data": {"packages": ["p0"]}}
        line = json.dumps({"crc": _crc(record), **record}, indent=1)
        dumps = dumps_tripwire(monkeypatch, forbid=False)
        assert _decode(line) == JournalEntry(3, "request",
                                             {"packages": ["p0"]})
        assert dumps.calls == 1

    def test_other_key_order_is_accepted_via_the_fallback(self):
        record = {"seq": 3, "op": "request", "data": {"packages": ["p0"]}}
        line = json.dumps({**record, "crc": _crc(record)},
                          separators=(",", ":"))
        assert _decode(line).seq == 3

    def test_flipped_payload_byte_is_rejected(self):
        line = _encode(ENTRIES[0])[:-1]
        assert '"p1"' in line
        with pytest.raises(JournalError, match="CRC"):
            _decode(line.replace('"p1"', '"p2"'))

    def test_flipped_crc_digit_is_rejected(self):
        line = _encode(ENTRIES[0])[:-1]
        digit = line[len('{"crc":')]
        other = "1" if digit != "1" else "2"
        with pytest.raises(JournalError, match="CRC"):
            _decode('{"crc":' + other + line[len('{"crc":') + 1:])

    def test_truncated_line_is_rejected(self):
        line = _encode(ENTRIES[0])[:-1]
        for cut in (len(line) - 1, len(line) // 2, len('{"crc":12')):
            with pytest.raises(ValueError):
                _decode(line[:cut])


# -- (d) the property: a line is its entry, or nothing --------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
journal_entries = st.builds(
    JournalEntry,
    seq=st.integers(1, 2 ** 63),
    op=st.sampled_from(["request", "adopt", "evict_idle", "clear"]) | st.text(),
    data=st.dictionaries(st.text(), json_values, max_size=4),
)


class TestJournalLineProperty:
    @settings(max_examples=300, deadline=None)
    @given(entry=journal_entries)
    def test_decode_inverts_encode(self, entry):
        line = _encode(entry)
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert _decode(line[:-1]) == entry

    @settings(max_examples=500, deadline=None)
    @given(
        entry=journal_entries,
        where=st.floats(0, 1, exclude_max=True),
        replacement=st.characters(blacklist_categories=["Cs"]),
    )
    def test_single_byte_mutation_never_yields_a_different_entry(
        self, entry, where, replacement
    ):
        line = _encode(entry)[:-1]
        position = int(where * len(line))
        if line[position] == replacement:
            return
        mutated = line[:position] + replacement + line[position + 1:]
        try:
            decoded = _decode(mutated)
        except (ValueError, KeyError):  # what Journal._read treats as torn
            return
        assert decoded == entry


# -- (e) crashes at every site of a long-lived writer ---------------------------

CAPACITY = 120
WINDOW = 3
SNAPSHOT_EVERY = 4
# Which arrival at each site crashes: late enough that a checkpoint has
# already compacted without reading (initialise() passes the state:* sites
# once; from the second window on, every window crosses a checkpoint).
CRASH_ON_HIT = {
    "journal:append": 4, "journal:torn": 4, "journal:synced": 4,
    "compact:write": 2, "compact:torn": 2, "compact:renamed": 2,
    "state:write": 3, "state:torn": 3, "state:synced": 3, "state:renamed": 3,
}


def crash_stream(n=40):
    rng = np.random.default_rng(16)
    return [
        sorted(f"p{int(i)}" for i in rng.choice(
            16, int(rng.integers(1, 5)), replace=False))
        for _ in range(n)
    ]


def decision_key(decision):
    """What a decision decided.  Not the image's size: ``apply_batch``
    reports a window's decisions after the whole window has applied,
    when a later merge may already have grown the image."""
    return (
        decision.action.value, decision.image.id, decision.requested_bytes,
        decision.bytes_added, tuple(decision.evicted),
    )


def crash_cases():
    cases = [(site, None) for site in CRASH_SITES]
    cases += [(site, torn) for site in TORN_SITES for torn in (0.3, 0.7)]
    return cases


class LongLivedWriter:
    """The daemon's shape: one ``JournaledState`` for the life of the
    process, windows through ``apply_batch``.  A crash kills it; the next
    process recovers from disk and carries on where the disk says."""

    def __init__(self, directory, monkeypatch):
        self.state = directory / "state.json"
        self.decisions = {}
        self.silent_compactions = []  # one count per process
        self.reads = read_tripwire(monkeypatch, forbid=False)
        original = Journal.compact

        def compact(journal, upto_seq, parsed=None):
            before = self.reads.calls
            dropped = original(journal, upto_seq, parsed)
            if dropped and self.reads.calls == before:
                self.silent_compactions[-1] += 1
            return dropped

        monkeypatch.setattr(Journal, "compact", compact)

    def record(self, entry, result):
        key = decision_key(result)
        assert self.decisions.setdefault(entry.seq - 1, key) == key

    def boot(self):
        self.silent_compactions.append(0)
        store = JournaledState(self.state, snapshot_every=SNAPSHOT_EVERY)
        try:
            cache, metadata, _ = store.load(
                SIZE.__getitem__, on_replay=self.record
            )
        except StateNotFound:
            cache, metadata = make_cache(CAPACITY), {}
            store.initialise(cache, metadata)
        return store, cache, metadata

    def serve(self, stream):
        """Serve the stream to its end, rebooting after each crash."""
        while True:
            store, cache, metadata = self.boot()
            try:
                while cache.stats.requests < len(stream):
                    done = cache.stats.requests
                    store.apply_batch(
                        cache, metadata,
                        [("request", {"packages": spec})
                         for spec in stream[done:done + WINDOW]],
                        on_result=self.record,
                    )
                store.flush(cache, metadata)
                return cache
            except SimulatedCrash:
                store.journal.close()


class TestLongLivedWriterCrashes:
    @pytest.mark.parametrize("site,torn", crash_cases())
    def test_every_site_recovers_identically(
        self, tmp_path, monkeypatch, site, torn
    ):
        stream = crash_stream()
        reference = make_cache(CAPACITY)
        expected = [decision_key(reference.request(spec)) for spec in stream]
        writer = LongLivedWriter(tmp_path, monkeypatch)
        with CrashPoint(site, hits=CRASH_ON_HIT[site], torn=torn) as armed:
            final = writer.serve(stream)
        assert armed.fired
        # The process that crashed and the one that finished the stream
        # both checkpointed on the writer's own count.
        assert len(writer.silent_compactions) == 2
        assert min(writer.silent_compactions) >= 1
        assert [writer.decisions[i] for i in range(len(stream))] == expected
        assert final.stats == reference.stats
        recovered, _metadata, replayed = recover_state(
            writer.state, package_size=SIZE.__getitem__
        )
        assert replayed == 0
        assert digest(recovered) == digest(final) == digest(reference)
