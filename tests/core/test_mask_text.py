"""The mask text — base64 of a mask's little-endian bytes — that state
files (v4) and journal entries (v3) write, at the paper's repository
width (9,660 packages): it round-trips every mask; malformed text is a
typed error before anything changes; and a flipped byte anywhere in a
state file or a journal line is refused, or is a torn tail."""

import json
import string
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.cache import LandlordCache, mask_of_text, mask_text
from repro.core.journal import (
    Journal,
    JournalEntry,
    JournalError,
    JournaledState,
    apply_entry,
    recover_state,
)
from repro.core.persistence import StateError, body_checksum, load_bundle
from repro.packages.repository import PackageIndex

WIDTH = 9_660  # the SFT repository's package count (PAPER.md)
NAMES = [f"pkg-{i:04d}" for i in range(WIDTH)]
INDEX = PackageIndex(NAMES, [1 + i % 97 for i in range(WIDTH)])
ALPHABET = string.ascii_letters + string.digits + "+/="

masks = (
    st.sampled_from([0, 1, 1 << (WIDTH - 1), (1 << WIDTH) - 1])
    | st.integers(0, WIDTH - 1).map(lambda bit: 1 << bit)
    | st.integers(0, (1 << WIDTH) - 1)
    | st.sets(st.integers(0, WIDTH - 1), max_size=300).map(
        lambda bits: sum(1 << bit for bit in bits))
)


def make_cache():
    return LandlordCache(40_000, 0.5, INDEX)


def warm_cache():
    cache = make_cache()
    for first in (0, 3_000, 9_000, 9_500):
        cache.request(NAMES[first:first + 150:3])
    cache.request(NAMES[0:60:2] + NAMES[9_600:])  # a merge, to bit 9,659
    return cache


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(masks)
    def test_text_round_trips_every_mask(self, mask):
        text = mask_text(mask)
        assert mask_of_text(text) == mask
        # base64 of the bytes up to the highest set bit, nothing more
        assert len(text) == -(-((mask.bit_length() + 7) // 8) // 3) * 4
        assert set(text) <= set(ALPHABET)

    def test_the_edges(self):
        assert mask_text(0) == "" and mask_of_text("") == 0
        assert mask_text(1) == "AQ=="
        top = mask_text(1 << (WIDTH - 1))
        assert len(top) == 1_612 and mask_of_text(top) == 1 << (WIDTH - 1)


#: Mask texts that are not base64, each with what the error says.
MALFORMED = [
    ("AQ", "padding"),               # padding missing
    ("AQ=", "padding"),
    ("A===", "1 more than a multiple of 4"),
    ("AQ==AQ==", "not canonical"),   # data after the padding
    ("AQ==\n", "not canonical"),
    ("A\nQ==", "not canonical"),     # not in the alphabet
    ("-_==", "not canonical"),       # the URL-safe alphabet
    ("A Q==", "not canonical"),
    ("é", "ASCII"),
    ("\x00", "not canonical"),
    ("AQA=", "not canonical"),       # a trailing zero byte
    ("AR==", "not canonical"),       # set bits in the padding
]


class TestMalformed:
    @pytest.mark.parametrize("text, says", MALFORMED)
    def test_is_a_value_error(self, text, says):
        with pytest.raises(ValueError, match=says):
            mask_of_text(text)

    @pytest.mark.parametrize("value", [3, None, b"AQ==", ["AQ=="]])
    def test_a_non_string_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="not a string"):
            mask_of_text(value)

    @settings(max_examples=150, deadline=None)
    @given(st.text(min_size=1, max_size=12))
    def test_any_text_decodes_or_is_a_value_error(self, text):
        try:
            mask = mask_of_text(text)
        except ValueError:
            return
        assert set(text) <= set(ALPHABET) and len(text) % 4 == 0
        assert mask_text(mask) == text

    @pytest.mark.parametrize("text, says", MALFORMED + [
        (mask_text(1 << WIDTH), f"bit {WIDTH}, beyond the {WIDTH} names"),
    ])
    def test_in_a_state_file_is_a_state_error_and_loads_nothing(
        self, tmp_path, text, says
    ):
        state = warm_cache().mask_snapshot()
        state["images"][-1]["mask"] = text
        body = {"metadata": {}, "journal_seq": 0, "cache": state}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(
            {"version": 4, "checksum": body_checksum(body), **body}))
        with pytest.raises(StateError, match=f"img-000004.*{says}"):
            load_bundle(path, INDEX)
        cache = make_cache()
        with pytest.raises(ValueError, match=says):
            cache.restore(state)
        assert len(cache) == 0 and cache.stats.requests == 0

    @pytest.mark.parametrize("text, says", MALFORMED + [
        (mask_text(1 << WIDTH), f"bit {WIDTH}, past the {WIDTH} names"),
    ])
    def test_in_a_journal_entry_is_a_journal_error_and_changes_nothing(
        self, tmp_path, text, says
    ):
        cache = warm_cache()
        before = cache.snapshot()
        entry = JournalEntry(7, "request", {"mask": text})
        with pytest.raises(JournalError, match=f"journal entry 7: .*{says}"):
            apply_entry(cache, entry)
        assert cache.snapshot() == before
        # and recovery refuses it by name, as the last entry or before one
        store = JournaledState(tmp_path / "state.json")
        store.initialise(make_cache(), {})
        journal = Journal(store.journal.path)
        journal.append("request", mask=mask_text(1 << 5))
        journal.append("request", mask=text)
        journal.close()
        with pytest.raises(JournalError, match=f"journal entry 2: .*{says}"):
            recover_state(store.state_path, package_size=INDEX)


# -- byte flips at paper width -------------------------------------------------


@lru_cache(maxsize=None)
def flip_subject():
    """A v4 state file of a warm cache, the v3 journal of five wide
    requests behind it, and the snapshot of each prefix of that tail."""
    ops = [("request", {"packages": NAMES[start:start + 200:4]})
           for start in (100, 4_000, 9_400, 50, 9_000)]
    with tempfile.TemporaryDirectory() as directory:
        state = Path(directory) / "state.json"
        store = JournaledState(state, snapshot_every=10 ** 9)
        cache = warm_cache()
        store.initialise(cache, {})
        prefixes = [cache.snapshot()]
        for op, data in ops:
            store.apply(cache, {}, op, **data)
            prefixes.append(cache.snapshot())
        store.journal.close()
        return state.read_bytes(), store.journal.path.read_bytes(), prefixes


def recover_from(state_bytes, journal_bytes):
    with tempfile.TemporaryDirectory() as directory:
        state = Path(directory) / "state.json"
        state.write_bytes(state_bytes)
        Path(f"{state}.journal").write_bytes(journal_bytes)
        return recover_state(state, package_size=INDEX)


class TestByteFlips:
    def test_the_subject_recovers_whole(self):
        state_bytes, journal_bytes, prefixes = flip_subject()
        recovered, _, replayed = recover_from(state_bytes, journal_bytes)
        assert replayed == 5 and recovered.snapshot() == prefixes[-1]
        assert len(journal_bytes.splitlines()[-1]) > 400  # wide masks

    @settings(max_examples=200, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255))
    def test_a_flip_in_the_state_file_is_refused(self, where, byte):
        """Anything but the version digit is under the checksum; that
        digit names another readable version of the same body or none."""
        state_bytes, journal_bytes, prefixes = flip_subject()
        raw = bytearray(state_bytes)
        at = int(where * len(raw))
        assume(raw[at] != byte)
        raw[at] = byte
        try:
            recovered, _, _ = recover_from(bytes(raw), journal_bytes)
        except StateError:
            return
        assert raw[:12] != state_bytes[:12]  # only the version moved
        assert recovered.snapshot() == prefixes[-1]

    @settings(max_examples=200, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255))
    def test_a_flip_in_a_journal_line_is_refused_or_a_torn_tail(
        self, where, byte
    ):
        state_bytes, journal_bytes, prefixes = flip_subject()
        raw = bytearray(journal_bytes)
        at = int(where * len(raw))
        assume(raw[at] != byte)
        raw[at] = byte
        try:
            recovered, _, replayed = recover_from(state_bytes, bytes(raw))
        except JournalError:
            return
        if replayed == 5:
            # The last newline became other JSON whitespace: the line
            # still holds the entry its CRC names (as re-encoded).
            assert at == len(raw) - 1 and chr(byte) in " \t\r"
            assert recovered.snapshot() == prefixes[5]
            return
        # Recovered: the flip fell in the last entry, which is dropped.
        last = journal_bytes.rstrip(b"\n").rfind(b"\n") + 1
        assert at >= last
        assert replayed == 4 and recovered.snapshot() == prefixes[4]
