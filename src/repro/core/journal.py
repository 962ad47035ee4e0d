"""Write-ahead event journal for the durable LANDLORD cache.

Snapshots (:mod:`repro.core.persistence`) are atomic but coarse: a
wrapper that dies after serving a request and before rewriting the
snapshot would silently lose that request.  This module closes the gap
with the classic WAL protocol:

1. every mutating cache operation is first appended to a JSON-lines
   journal — one fsynced line per operation, ``{"crc":N,`` spliced in
   front of the canonical encoding the CRC was taken over;
2. the operation is then applied to the in-memory cache;
3. every ``snapshot_every`` operations the full snapshot is rewritten
   (recording the journal sequence number it covers) and the journal is
   compacted down to the entries the snapshot does not yet include.

Recovery (:meth:`JournaledState.load` / ``repro-landlord recover``)
loads the snapshot and replays the journal tail — entries with a
sequence number greater than the snapshot's ``journal_seq`` — through
the deterministic cache, arriving at the exact pre-crash state.  A torn
final line (a crash mid-append) is detected by its CRC and discarded;
corruption *before* intact entries is a hard :class:`JournalError`, not
something to paper over.

**What the writer knows, it does not read back.**  A :class:`Journal`
that appends is its file's only writer, so it numbers entries from a
counter (one read of the file sets it: :meth:`JournaledState.load`'s, or
else one before the first append) — and by the same assumption it counts
the entries behind the compaction marker.  The periodic checkpoint's
compaction drops everything counted, so it writes the new marker without
reading the file it replaces; a partial keep, an object that has not
counted its file, and a caller-supplied parse still read (see
:meth:`Journal.compact`).  On the read side a line is
checked against its CRC as it lies on disk; only a line that is not in
the writer's layout is re-encoded canonically first.  The append handle
writes bytes and tracks where the file ends (no text layer, no seek or
tell per append), and a request or adoption line is built directly,
byte for byte the canonical dump (:func:`_masked_body`) — the daemon
pays both once per request, under its single committer.

**Journal v3: an entry is the mask the cache holds.**  A request or an
adoption is written as ``{"mask": "<base64>"}``: the mask the writer's
cache interned its names to, as :func:`~repro.core.cache.mask_text`
writes it, over the repository's numbering — the one every cache on
the repository shares, restored ones included, and the one the state
file's masks index (:mod:`repro.core.persistence`).  So a mask means
the same packages after any state file: the writer encodes the mask
``_intern`` already built (no second mask, no id translation, nothing
read off the state file), and replay hands it to the recovering cache
as it lies — no name is decoded, hashed or looked up.  v1 lines
(``"packages": [...]``) still replay as they always did, before or
after v3 ones; only v3 is written.  An entry of an older writer is
refused by name, by recovery and by a writer about to append after it:
one that carries ``"base"`` (v2, a mask over the table of the state
file at that ``journal_seq``) or declares names in ``"new"``.  One the
state file covers is skipped by both, as every covered entry is.

The cache is deterministic given its restored state (including, for
``candidate_order="random"``, the RNG state the v2 snapshot carries), so
replaying the journalled operations reproduces the original decisions
bit-for-bit — the property :mod:`repro.testing` hammers with crash
injection at every persistence call site.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.cache import LandlordCache, mask_of_text, mask_text
from repro.core.persistence import (
    StateBundle, load_bundle, load_journal_seq, save_state,
)
from repro.packages.repository import PackageIndex
from repro.testing.faults import checkpoint

__all__ = [
    "Journal",
    "JournalEntry",
    "JournalError",
    "JournaledState",
    "apply_entry",
    "recover_state",
    "replay",
]

PathLike = Union[str, Path]

_CANON = {"sort_keys": True, "separators": (",", ":")}
_BASE64_DIGITS = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
)
_CRC_KEY = '{"crc":'
_MARKER_CRC = ',"crc":'
_HEAL_BLOCK = 4096
_MASKED_OPS = ("request", "adopt")
_MASKED_KEYS = frozenset(("mask",))


class JournalError(ValueError):
    """Raised for corrupt, out-of-order, or gapped journals."""


@dataclass(frozen=True)
class JournalEntry:
    """One journalled cache operation.

    Attributes:
        seq: 1-based, strictly increasing sequence number.
        op: operation name — ``"request"``, ``"adopt"``,
            ``"evict_idle"``, or ``"clear"``.
        data: the operation's arguments, exactly as needed to re-apply
            it: a request's or adoption's ``mask`` (v3, see the module
            docstring) or ``packages`` (v1, and what the writer hands
            its callers), ``evict_idle``'s ``max_idle_requests``.
    """

    seq: int
    op: str
    data: dict


def _crc(body: dict) -> int:
    return zlib.crc32(json.dumps(body, **_CANON).encode("utf-8"))


def _encode(entry: JournalEntry) -> str:
    # One canonical dump serves both the CRC and the line: "crc" sorts
    # before "data" / "op" / "seq", so splicing it in after the brace
    # gives exactly the bytes of dumping the body again with crc added.
    body = _masked_body(entry) or json.dumps(
        {"seq": entry.seq, "op": entry.op, "data": entry.data}, **_CANON
    )
    return f'{{"crc":{zlib.crc32(body.encode("utf-8"))},{body[1:]}\n'


def _masked_body(entry: JournalEntry) -> Optional[str]:
    """The canonical dump of a v3 request or adoption, built directly.

    Byte for byte what ``json.dumps(..., **_CANON)`` writes for the
    layout the writer produces — an int ``seq`` and a base64 ``mask``,
    whose alphabet the dump writes as it is — at a fraction of its
    cost: the dump sorts two dicts and escape-scans the mask, up to
    ~1.6 KB, character by character.  Anything else is ``None``: the
    caller dumps it canonically.
    """
    data = entry.data
    if entry.op not in _MASKED_OPS or data.keys() != _MASKED_KEYS:
        return None
    mask = data["mask"]
    if (type(entry.seq) is not int or type(mask) is not str
            or not mask.isascii()
            or mask.encode("ascii").translate(None, _BASE64_DIGITS)):
        return None
    return f'{{"data":{{"mask":"{mask}"}},"op":"{entry.op}","seq":{entry.seq}}}'


def _crc_as_it_lies(line: str) -> bool:
    """Does ``line`` have :func:`_encode`'s layout and match its CRC?

    ``{"crc":N,`` followed by the canonical body minus its brace: the
    CRC is taken over the bytes on disk, with no re-encoding.
    """
    if not line.startswith(_CRC_KEY):
        return False
    digits, _, rest = line[len(_CRC_KEY):].partition(",")
    return digits == str(zlib.crc32(("{" + rest).encode("utf-8")))


def _decode(line: str) -> JournalEntry:
    # A line that matches its own CRC as written is what a writer wrote.
    # Any other line (re-formatted by hand, keys in another order) is
    # held to the CRC of its canonical re-encoding, as every line once
    # was — so whatever that check accepted is still accepted.
    intact = _crc_as_it_lies(line)
    record = json.loads(line)
    if not isinstance(record, dict):
        raise JournalError("journal entry is not a JSON object")
    crc = record.pop("crc")
    if not intact and _crc(record) != crc:
        raise JournalError("journal entry fails its CRC")
    seq = record["seq"]
    if not isinstance(seq, int) or seq < 1:
        raise JournalError(f"invalid journal sequence number {seq!r}")
    op, data = record["op"], record.get("data", {})
    if not isinstance(op, str) or not isinstance(data, dict):
        raise JournalError(f"journal entry {seq} is not an operation")
    return JournalEntry(seq, op, data)


def _encode_marker(compacted_to: int) -> str:
    # As _encode, but "compacted_to" sorts before "crc": splice at the end.
    body = json.dumps({"compacted_to": compacted_to}, **_CANON)
    return f'{body[:-1]}{_MARKER_CRC}{zlib.crc32(body.encode("utf-8"))}}}\n'


def _marker_crc_as_it_lies(line: str) -> bool:
    """:func:`_crc_as_it_lies` for :func:`_encode_marker`'s layout."""
    body, sep, tail = line.rpartition(_MARKER_CRC)
    return bool(sep) and tail == f'{zlib.crc32((body + "}").encode("utf-8"))}}}'


class _JournalInstruments:
    """Pre-bound ``journal_*`` metric children (see DESIGN.md schema)."""

    __slots__ = (
        "appends", "compactions", "entries_dropped",
        "append_s", "fsync_s", "compact_s",
    )

    def __init__(self, registry) -> None:
        self.appends = registry.counter(
            "journal_appends_total",
            "Operations durably appended to the write-ahead journal.",
        ).labels()
        self.compactions = registry.counter(
            "journal_compactions_total",
            "Journal compactions performed.",
        ).labels()
        self.entries_dropped = registry.counter(
            "journal_entries_dropped_total",
            "Entries removed by compaction (already snapshotted).",
        ).labels()
        self.append_s = registry.histogram(
            "journal_append_seconds",
            "Wall-clock seconds per durable append (write+flush+fsync).",
        ).labels()
        self.fsync_s = registry.histogram(
            "journal_fsync_seconds",
            "Wall-clock seconds in the append's fsync alone.",
        ).labels()
        self.compact_s = registry.histogram(
            "journal_compact_seconds",
            "Wall-clock seconds per journal compaction.",
        ).labels()


class _StateInstruments:
    """Pre-bound ``state_*`` metric children (see DESIGN.md schema)."""

    __slots__ = ("save_s", "bytes", "images")

    def __init__(self, registry) -> None:
        self.save_s = registry.histogram(
            "state_save_seconds",
            "Wall-clock seconds per state-file save (encode+write+fsyncs).",
        ).labels()
        self.bytes = registry.gauge(
            "state_bytes",
            "Size of the state file as last saved.",
        ).labels()
        self.images = registry.gauge(
            "state_images",
            "Images recorded in the state file as last saved.",
        ).labels()


class Journal:
    """An append-only, fsynced JSON-lines journal file.

    Appends are durable before they return (write, flush, fsync); a
    crash can therefore lose at most the entry being written, and a torn
    trailing line is recognised by its CRC and ignored on read.

    Compaction replaces the dropped prefix with a marker line recording
    the highest sequence number ever compacted away, so numbering stays
    strictly monotonic across process restarts even when the journal is
    emptied — without the marker, a fresh process would restart at 1 and
    its entries would be silently skipped by replay (they'd fall at or
    below the snapshot's ``journal_seq``).

    Pass ``metrics`` (a :class:`repro.obs.MetricsRegistry`) to record
    append/fsync/compaction latency histograms and operation counters
    under the ``journal_*`` names documented in DESIGN.md.
    """

    def __init__(self, path: PathLike, metrics=None):
        self.path = Path(path)
        # The append handle writes bytes (no text layer) and knows where
        # the file ends: set when it opens, advanced by every append.
        self._fh = None
        self._end = 0
        # What the writer knows of its own file: the next sequence number
        # and how many entries lie behind the marker.  Both come from
        # read_as_writer (or from reset) and follow every write since —
        # valid while this object is the only writer.
        self._next_seq: Optional[int] = None
        self._n_entries: Optional[int] = None
        # Why appends are refused: a failed append could not be cut back
        # off the file, so its tail is unknown until it is re-read.
        self._poisoned: Optional[str] = None
        self._ins = None
        if metrics is not None:
            self.enable_metrics(metrics)

    def enable_metrics(self, registry) -> None:
        """Record journal I/O metrics into ``registry`` from here on."""
        self._ins = _JournalInstruments(registry)

    @property
    def last_seq(self) -> int:
        """Highest sequence number the journal accounts for (0 when
        fresh) — the newest intact entry, or the compaction marker when
        every entry has been compacted away.  The writer answers from
        its own count; any other object reads the file."""
        if self._next_seq is not None:
            return self._next_seq - 1
        floor, entries = self._read()
        return entries[-1].seq if entries else floor

    def entries(self) -> List[JournalEntry]:
        """All intact entries, oldest first.

        A torn final line (crash mid-append) is silently dropped;
        anything unparsable *followed by* intact entries means the file
        was damaged at rest and raises :class:`JournalError`, as does a
        non-increasing sequence.
        """
        return self._read()[1]

    def _read(self) -> Tuple[int, List[JournalEntry]]:
        """Parse the file into ``(compaction floor, intact entries)``."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return 0, []
        # Lines are decoded one by one: a byte that is not UTF-8 makes
        # its own line corrupt (a torn tail when last), no other.
        lines = [line for line in raw.split(b"\n") if line]
        floor = 0
        start = 0
        if lines:
            try:
                first = lines[0].decode("utf-8")
                record = json.loads(first)
            except ValueError:
                record = None
            if isinstance(record, dict) and "compacted_to" in record:
                crc = record.pop("crc", None)
                upto = record.get("compacted_to")
                intact = _marker_crc_as_it_lies(first) or _crc(record) == crc
                if not intact or not isinstance(upto, int):
                    raise JournalError(
                        f"corrupt compaction marker in {self.path}"
                    )
                floor = upto
                start = 1
        out: List[JournalEntry] = []
        for position, line in enumerate(lines[start:], start=start):
            try:
                entry = _decode(line.decode("utf-8"))
            except (ValueError, KeyError) as exc:
                for later in lines[position + 1:]:
                    try:
                        _decode(later.decode("utf-8"))
                    except (ValueError, KeyError):
                        continue
                    raise JournalError(
                        f"corrupt journal entry mid-file in {self.path} "
                        f"(line {position + 1}): {exc}"
                    ) from exc
                break  # torn tail from a crashed append — discard
            newest = out[-1].seq if out else floor
            if entry.seq <= newest:
                raise JournalError(
                    f"journal {self.path} sequence regressed at "
                    f"line {position + 1} ({newest} -> {entry.seq})"
                )
            out.append(entry)
        return floor, out

    def read_as_writer(self) -> Tuple[int, List[JournalEntry]]:
        """:meth:`_read`, and number and count from what it found.

        From here on this object answers for its file without reading it
        (``last_seq``, the next append's sequence number, a full
        compaction) — so call it only from the file's one writer.
        """
        floor, intact = parsed = self._read()
        self._next_seq = (intact[-1].seq if intact else floor) + 1
        self._n_entries = len(intact)
        self._poisoned = None
        return parsed

    def append(self, op: str, **data: object) -> JournalEntry:
        """Durably append one operation; returns the written entry.

        The entry has reached stable storage (fsync) when this returns —
        the write-ahead guarantee the recovery protocol builds on.
        """
        return self.append_many([(op, dict(data))])[0]

    def append_many(
        self, ops: Sequence[Tuple[str, dict]]
    ) -> List[JournalEntry]:
        """Durably append a batch of operations with one fsync (group
        commit).

        All lines are written and flushed together, then fsynced once —
        the daemon's batched submission path pays one disk sync per
        request *window* instead of per request.  Every entry has reached
        stable storage when this returns.  A crash mid-write leaves an
        intact *prefix* of the batch (appends are sequential, and the
        torn final line is healed like any other), so the journal stays
        gap-free; entries beyond the tear were never reported durable.
        Returns the written entries in order.

        A write or fsync that *raises* (ENOSPC, EIO) is cut back off the
        file before the error propagates, so the next append reuses the
        failed batch's sequence numbers on a clean tail.  Should the cut
        fail too, every later append raises :class:`JournalError` until
        :meth:`read_as_writer` re-reads the file.
        """
        if not ops:
            return []
        if self._poisoned is not None:
            raise JournalError(
                f"journal {self.path} refuses appends until re-read: "
                f"{self._poisoned}"
            )
        if self._next_seq is None:
            self.read_as_writer()
        entries = [
            JournalEntry(self._next_seq + offset, op, dict(data))
            for offset, (op, data) in enumerate(ops)
        ]
        ins = self._ins
        t_append = perf_counter() if ins is not None else 0.0
        checkpoint("journal:append")
        fh = self._fh
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._heal()
            self._fh = fh = open(self.path, "ab")
            self._end = fh.seek(0, os.SEEK_END)
        start = self._end
        data = "".join(map(_encode, entries)).encode("utf-8")
        try:
            fh.write(data)
            fh.flush()
            checkpoint("journal:torn", fh=fh, start=start)
            t_fsync = perf_counter() if ins is not None else 0.0
            os.fsync(fh.fileno())
        except Exception:
            self._cut_back(start)
            raise
        end = perf_counter() if ins is not None else 0.0
        self._end = start + len(data)
        self._next_seq += len(entries)
        self._n_entries += len(entries)
        checkpoint("journal:synced")
        if ins is not None:
            ins.fsync_s.observe(end - t_fsync)
            ins.append_s.observe(end - t_append)
            ins.appends.inc(len(entries))
        return entries

    def _cut_back(self, start: int) -> None:
        """Truncate a failed append back to ``start`` and fsync the cut.

        The failed write may have left whole lines behind (an fsync
        error leaves them in the page cache); kept, they would collide
        with the next append's sequence numbers.  Closing the handle
        first flushes whatever the failed write left buffered, so the
        cut removes that too.
        """
        fh, self._fh = self._fh, None
        try:
            try:
                fh.close()
            except OSError:
                pass  # the handle is closed even when its flush fails
            with open(self.path, "rb+") as raw:
                raw.truncate(start)
                os.fsync(raw.fileno())
        except OSError as exc:
            self._poisoned = f"cutting back a failed append failed: {exc}"

    def compact(
        self,
        upto_seq: int,
        parsed: Optional[Tuple[int, List[JournalEntry]]] = None,
    ) -> int:
        """Drop every entry with ``seq <= upto_seq`` (already snapshotted).

        Crash-safe: the surviving tail is written to a temp file, fsynced
        and renamed over the journal, so a crash leaves either the old or
        the compacted journal — both of which recovery handles, because
        replay filters by the snapshot's ``journal_seq`` anyway.  Returns
        the number of entries dropped.

        ``parsed`` is a :meth:`_read` result the caller took with no
        write to the file since (recovery's one parse).

        Read contract: the file is not read when this object has counted
        it (:meth:`read_as_writer`, or reset) and ``upto_seq`` covers every
        entry counted — the periodic checkpoint's case, where nothing is
        kept and the new file is the marker alone.  A partial keep, an
        object that has not counted the file, and ``parsed`` all take
        the reading path; both paths write the same bytes.
        """
        counted = self._n_entries
        if (parsed is None and counted is not None
                and upto_seq >= self._next_seq - 1):
            total, kept, new_floor = counted, [], self._next_seq - 1
            unchanged = counted == 0  # then the marker already says so
        else:
            floor, entries = parsed if parsed is not None else self._read()
            newest = entries[-1].seq if entries else floor
            total = len(entries)
            kept = [entry for entry in entries if entry.seq > upto_seq]
            new_floor = max(floor, min(upto_seq, newest))
            unchanged = len(kept) == total and new_floor == floor
        if unchanged and self.path.exists():
            return 0
        ins = self._ins
        t_compact = perf_counter() if ins is not None else 0.0
        checkpoint("compact:write")
        tmp = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_encode_marker(new_floor))
            for entry in kept:
                fh.write(_encode(entry))
            fh.flush()
            checkpoint("compact:torn", fh=fh, start=0)
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        # At once, not after the directory fsync: should that fail, the
        # writer lives on, and the old append handle points at the
        # replaced inode (an append through it would be lost).
        self.close()
        if counted is not None:
            self._n_entries = len(kept)
        checkpoint("compact:renamed")
        self._fsync_dir()
        dropped = total - len(kept)
        if ins is not None:
            ins.compact_s.observe(perf_counter() - t_compact)
            ins.compactions.inc()
            ins.entries_dropped.inc(dropped)
        return dropped

    def reset(self) -> None:
        """Empty the journal and restart numbering at 1 (fresh state).

        Unlike :meth:`compact`, no marker is kept — the caller is
        declaring the old history void (a brand-new snapshot with
        ``journal_seq=0`` covers it), so numbering genuinely restarts.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        self._fsync_dir()
        self.close()
        self._next_seq = 1
        self._n_entries = 0
        self._poisoned = None

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _heal(self) -> None:
        """Truncate a torn trailing line before appending after it.

        A crash mid-append can leave the file ending in a partial record
        with no newline; appending straight after it would glue the new
        (fsynced, reported-durable) entry onto the garbage fragment,
        producing one unparsable line that swallows both.  Cutting back
        to the last complete line first keeps every later append intact.
        """
        try:
            fh = open(self.path, "rb+")
        except FileNotFoundError:
            return
        with fh:
            # Back from the end, a block at a time, to the last newline.
            size = pos = fh.seek(0, os.SEEK_END)
            cut = 0
            while pos:
                start = max(0, pos - _HEAL_BLOCK)
                fh.seek(start)
                newline = fh.read(pos - start).rfind(b"\n")
                if newline >= 0:
                    cut = start + newline + 1
                    break
                pos = start
            if cut < size:
                fh.truncate(cut)
                os.fsync(fh.fileno())

    def _fsync_dir(self) -> None:
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _is_masked(entry: JournalEntry) -> bool:
    """A v3 request or adoption (a v1 one lists ``"packages"``)."""
    return entry.op in _MASKED_OPS and "packages" not in entry.data


def _check_layout(entry: JournalEntry) -> None:
    """Refuse a masked entry an older writer wrote: its mask indexes
    another numbering than the repository's."""
    if "new" in entry.data:
        raise JournalError(
            f"journal entry {entry.seq}: 'new' is not part of an entry any "
            "more (the repository numbering holds every package); it was "
            "written before entries indexed a state file's table: recover "
            "this site with commit 47c9b7f first"
        )
    if "base" in entry.data:
        raise JournalError(
            f"journal entry {entry.seq}: 'base' is not part of an entry any "
            "more (every mask indexes the repository, which holds every "
            "package); its mask indexes the table of the state file at "
            f"journal_seq {entry.data['base']!r}: recover this site with "
            "commit b7ee884 first"
        )


def _apply_masked(cache: LandlordCache, entry: JournalEntry) -> object:
    """Apply a v3 request or adoption: hand its mask to the cache as it
    lies."""
    _check_layout(entry)
    mask = entry.data.get("mask")
    if not isinstance(mask, str):
        raise JournalError(
            f"journal entry {entry.seq}: 'mask' is not a base64 string"
        )
    try:
        return cache._apply_masked(entry.op, mask_of_text(mask))
    except ValueError as exc:
        raise JournalError(f"journal entry {entry.seq}: {exc}") from exc


def apply_entry(cache: LandlordCache, entry: JournalEntry) -> object:
    """Apply one journalled operation to a live cache.

    Returns whatever the underlying cache method returns (a
    :class:`~repro.core.cache.CacheDecision` for requests, the evicted id
    list for ``evict_idle``, …).  A request or adoption is either v1
    (``"packages"``: the names) or v3 (``"mask"`` over the cache's
    repository numbering); an older writer's masked entry is refused.
    """
    if _is_masked(entry):
        return _apply_masked(cache, entry)
    if entry.op == "request":
        return cache.request(entry.data["packages"])
    if entry.op == "adopt":
        return cache.adopt(entry.data["packages"])
    if entry.op == "evict_idle":
        return cache.evict_idle(int(entry.data["max_idle_requests"]))
    if entry.op == "clear":
        cache.clear()
        return None
    raise JournalError(f"unknown journal operation {entry.op!r}")


def _apply_live(
    cache: LandlordCache, entry: JournalEntry, interned: Optional[tuple]
) -> object:
    """Apply an operation the writer just journalled: a request or an
    adoption as the triple its names were interned to, anything else as
    :func:`apply_entry` does."""
    if interned is None:
        return apply_entry(cache, entry)
    return cache._apply_interned(entry.op, entry.data["packages"], interned)


def replay(
    cache: LandlordCache,
    entries: Sequence[JournalEntry],
    after_seq: int = 0,
    on_result: Optional[Callable[[JournalEntry, object], None]] = None,
) -> List[Tuple[JournalEntry, object]]:
    """Re-apply the journal tail (entries with ``seq > after_seq``).

    The tail must be gap-free starting at ``after_seq + 1`` — a gap means
    operations were lost between the snapshot and the surviving journal,
    which no replay can repair (:class:`JournalError`).  So is an
    entry an older writer wrote (:func:`_check_layout`): its mask would
    name other packages.
    Returns ``(entry, result)`` pairs for the replayed operations.

    ``on_result`` fires immediately after each entry is applied — use it
    to inspect a result *at decision time*; a returned
    :class:`~repro.core.cache.CacheDecision` holds a live image object
    that later entries in the same tail may mutate (e.g. grow by merge).
    """
    expected = after_seq
    out: List[Tuple[JournalEntry, object]] = []
    for entry in entries:
        if entry.seq <= after_seq:
            continue
        expected += 1
        if entry.seq != expected:
            raise JournalError(
                f"journal gap: expected entry {expected}, found {entry.seq} "
                "— operations between snapshot and journal were lost"
            )
        result = apply_entry(cache, entry)
        if on_result is not None:
            on_result(entry, result)
        out.append((entry, result))
    return out


class JournaledState:
    """A snapshot file plus its write-ahead journal — the durable store
    behind ``repro-landlord submit``.

    Args:
        state_path: the snapshot file.
        journal_path: the journal file (default: ``<state_path>.journal``).
        snapshot_every: rewrite the snapshot every N journalled
            operations (1 = after each, the safest and the default; a
            larger N amortises snapshot I/O across submissions and leans
            on journal replay after a crash).
        metrics: optional :class:`repro.obs.MetricsRegistry` forwarded
            to the journal (``journal_*`` latency/operation metrics) and
            given the checkpoint's own series: ``state_save_seconds``,
            ``state_bytes`` and ``state_images``, set at every save.
    """

    def __init__(
        self,
        state_path: PathLike,
        journal_path: Optional[PathLike] = None,
        snapshot_every: int = 1,
        metrics=None,
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.state_path = Path(state_path)
        self.snapshot_every = snapshot_every
        self._ins: Optional[_StateInstruments] = None
        self.journal = Journal(journal_path or self.state_path.with_name(
            self.state_path.name + ".journal"
        ))
        if metrics is not None:
            self.enable_metrics(metrics)

    def enable_metrics(self, registry) -> None:
        """Record checkpoint and journal I/O metrics into ``registry``
        from here on."""
        self._ins = _StateInstruments(registry)
        self.journal.enable_metrics(registry)

    def load(
        self,
        package_size: PackageIndex,
        on_replay: Optional[Callable[[JournalEntry, object], None]] = None,
        **cache_kwargs: object,
    ) -> Tuple[LandlordCache, dict, List[Tuple[JournalEntry, object]]]:
        """Recover the durable state: load the snapshot, replay the tail.

        Returns ``(cache, metadata, replayed)`` where ``replayed`` lists
        the journal entries (with their results) that were applied on top
        of the snapshot — empty when the last run shut down cleanly.
        ``on_replay`` is forwarded to :func:`replay` for callers that
        need each result at its decision time.  Raises
        :class:`~repro.core.persistence.StateNotFound` when no snapshot
        exists yet.
        """
        bundle: StateBundle = load_bundle(
            self.state_path, package_size, **cache_kwargs
        )
        # The store's journal is the writer's: this one parse also
        # numbers the append that follows in the same invocation.
        _floor, entries = self.journal.read_as_writer()
        replayed = replay(
            bundle.cache, entries,
            after_seq=bundle.journal_seq, on_result=on_replay,
        )
        return bundle.cache, bundle.metadata, replayed

    def initialise(
        self, cache: LandlordCache, metadata: Optional[dict] = None
    ) -> None:
        """First-time setup: persist a fresh cache with an empty journal."""
        self.journal.reset()
        self._save(cache, metadata, journal_seq=0)

    def _save(
        self, cache: LandlordCache, metadata: Optional[dict], journal_seq: int
    ) -> None:
        """:func:`save_state` to this store's file, measured when the
        store has metrics.

        ``journal_seq`` must cover the whole journal: the writer applies
        each entry right after appending it, so the cache already holds
        every journalled operation, and a state claiming to cover fewer
        would have recovery apply the rest twice.
        """
        t0 = perf_counter()
        assert journal_seq == self.journal.last_seq, (
            f"a checkpoint at {journal_seq} would not cover the "
            f"journal (last entry {self.journal.last_seq})"
        )
        save_state(self.state_path, cache, metadata, journal_seq)
        ins = self._ins
        if ins is not None:
            ins.save_s.observe(perf_counter() - t0)
            ins.bytes.set(self.state_path.stat().st_size)
            ins.images.set(len(cache))

    def apply(
        self,
        cache: LandlordCache,
        metadata: Optional[dict],
        op: str,
        on_result: Optional[Callable[[JournalEntry, object], None]] = None,
        **data: object,
    ) -> object:
        """Journal one operation, apply it, snapshot + compact when due.

        The write-ahead append is durable before the cache mutates, so a
        crash at any later instant replays the operation from the
        journal; a crash before the append loses the operation entirely
        (the wrapper is simply re-invoked).  Returns the operation's
        result (see :func:`apply_entry`).

        ``on_result`` fires as soon as the operation has been applied,
        *before* the periodic snapshot/compaction housekeeping — deliver
        the result to the caller there, so a crash during housekeeping
        cannot strand a decision that the snapshot already covers (and
        that replay would therefore never reproduce).  The name
        ``on_result`` is reserved and cannot be used as an operation
        data key.
        """
        return self.apply_batch(cache, metadata, [(op, data)], on_result)[0]

    def apply_batch(
        self,
        cache: LandlordCache,
        metadata: Optional[dict],
        ops: Sequence[Tuple[str, dict]],
        on_result: Optional[Callable[[JournalEntry, object], None]] = None,
        timings: Optional[dict] = None,
    ) -> List[object]:
        """Journal a whole batch with one group-commit fsync, then apply.

        The batched analogue of :meth:`apply` and the daemon's hot path:
        every operation is durably journalled (one
        :meth:`Journal.append_many` fsync for the lot) *before* any of
        them mutates the cache, so a crash at any later instant replays
        the full batch.  As in ``submit_batch``, every spec is interned
        before the first is decided — here before the append, whose
        encoding reads the interned ids — and then applied in order.  The
        snapshot is rewritten once, after the batch, whenever the batch
        crossed a ``snapshot_every`` boundary — the amortised equivalent
        of :meth:`apply`'s per-operation cadence.  Returns the per-op
        results in order.

        ``on_result`` fires for each operation once it is durable and
        applied: after the group fsync and *before* the checkpoint, so a
        caller acknowledging from it answers a durable decision even if
        the checkpoint then fails (the next boundary retries it).

        ``timings``, when a dict, receives window-wide stage timings for
        the caller's tracing spans: ``timings["fsync"]`` (set before the
        apply, so ``on_result`` can read it) and ``timings["apply"]``
        are each ``(start, duration)`` pairs on the ``perf_counter``
        timebase (the hybrid clock's monotonic base).
        """
        if not ops:
            return []
        t0 = perf_counter()
        appended = self._append(cache, ops)
        t1 = perf_counter()
        if timings is not None:  # before the apply: on_result may read it
            timings["fsync"] = (t0, t1 - t0)
        results = []
        for entry, interned in appended:
            result = _apply_live(cache, entry, interned)
            if on_result is not None:
                on_result(entry, result)
            results.append(result)
        if timings is not None:
            timings["apply"] = (t1, perf_counter() - t1)
        first, last = appended[0][0].seq, appended[-1][0].seq
        if last // self.snapshot_every > (first - 1) // self.snapshot_every:
            self.flush(cache, metadata, journal_seq=last)
        return results

    def _append(
        self, cache: LandlordCache, ops: Sequence[Tuple[str, dict]]
    ) -> List[Tuple[JournalEntry, Optional[tuple]]]:
        """Durably journal ``ops`` as v3 lines.

        Each request's and adoption's names are interned into ``cache``
        first — the pass ``submit_batch`` makes ahead of deciding a run,
        made here ahead of the append — and the interned mask is the
        entry, as it stands.  Returns each entry (with the op as given)
        and its interned triple (``None`` for other ops), which the live
        cache then applies without interning again.

        A writer that takes the files over (no load, save or append of
        its own yet) reads the journal once to number its entries, and
        refuses to append behind an older writer's entry that the state
        file does not cover, as recovery refuses to replay it.
        """
        journal = self.journal
        if journal._next_seq is None:
            covered = None
            for entry in journal.read_as_writer()[1]:
                if not _is_masked(entry):
                    continue
                try:
                    _check_layout(entry)
                except JournalError:
                    if covered is None:
                        covered = load_journal_seq(self.state_path)
                    if entry.seq > covered:
                        raise
        with cache.lock or nullcontext():
            interned = [
                cache._intern(data["packages"]) if op in _MASKED_OPS
                else None
                for op, data in ops
            ]
        written = journal.append_many([
            (op, data if triple is None else {"mask": mask_text(triple[0])})
            for (op, data), triple in zip(ops, interned)
        ])
        return [
            (JournalEntry(entry.seq, op, dict(data)), triple)
            for entry, (op, data), triple in zip(written, ops, interned)
        ]

    def flush(
        self,
        cache: LandlordCache,
        metadata: Optional[dict],
        journal_seq: Optional[int] = None,
    ) -> None:
        """Rewrite the snapshot to cover the journal, then compact it."""
        if journal_seq is None:
            journal_seq = self.journal.last_seq
        self._save(cache, metadata, journal_seq)
        self.journal.compact(journal_seq)


def recover_state(
    state_path: PathLike,
    journal_path: Optional[PathLike] = None,
    *,
    package_size: PackageIndex,
    **cache_kwargs: object,
) -> Tuple[LandlordCache, dict, int]:
    """One-shot crash recovery: load, replay the journal tail, re-snapshot.

    After this returns, the snapshot covers every surviving journalled
    operation and the journal is compacted to empty.  Returns
    ``(cache, metadata, replayed_count)``.  Raises
    :class:`~repro.core.persistence.StateError` when the snapshot is
    missing or unusable.

    The re-snapshot is skipped when it would change nothing: nothing was
    replayed, the snapshot covers the journal's last sequence number,
    and the file is canonical (the current version, its checksum held
    as it lies; a v2, v3 or re-formatted file is rewritten).  Compaction
    runs either way.
    """
    store = JournaledState(state_path, journal_path)
    journal = store.journal
    bundle = load_bundle(store.state_path, package_size, **cache_kwargs)
    # The tail is read, parsed and CRC-checked once: nothing writes the
    # journal between here and the compaction, so the same parse replays,
    # names the sequence number the new snapshot covers, and is compacted.
    floor, entries = parsed = journal._read()
    replayed = replay(bundle.cache, entries, after_seq=bundle.journal_seq)
    covered = entries[-1].seq if entries else floor
    if replayed or covered != bundle.journal_seq or not bundle.canonical:
        save_state(
            store.state_path, bundle.cache, bundle.metadata,
            journal_seq=covered,
        )
    journal.compact(covered, parsed)
    return bundle.cache, bundle.metadata, len(replayed)
