"""Durable cache state — LANDLORD as a real job wrapper.

The paper's prototype runs *"as an automated step during job submission"*
(§V): every submission invokes the wrapper, which consults and updates a
persistent image-cache directory.  Between invocations the state therefore
lives on disk.  This module provides that layer: a versioned JSON snapshot
of a :class:`~repro.core.cache.LandlordCache` (images, LRU clocks, full
statistics, and — since format v2 — every policy knob the cache was
configured with) plus arbitrary caller metadata (e.g. which repository
seed the site is configured for).

Since format v2 a state file guarantees:

- **Crash durability.**  ``save_state`` fsyncs the temp file before the
  atomic rename and fsyncs the directory after it, embeds a SHA-256
  checksum of the body so torn writes are detected on load, and stale
  ``.tmp`` files stranded by a crash between write and rename are
  cleaned up on the next load.
- **Policy fidelity.**  The snapshot records eviction, hit-selection,
  candidate-order, merge-write-mode, and the conflict-policy identity;
  :meth:`LandlordCache.restore` refuses to resume under different
  semantics than the state was built under.  Files written while the
  cache had a merge prefilter also record it; switched off (as every
  state the CLI and daemon wrote has it) the record is ignored,
  switched on it is refused by name.

**File layout.**  A state file is one line of JSON, every byte of it
encoded once: the body (``cache``, ``journal_seq``, ``metadata``) is
dumped in canonical form (sorted keys, no whitespace), those bytes are
hashed, and the file is ``{"version":3,"checksum":"sha256:…",`` followed
by the very same bytes minus their opening brace.  Loading hashes the
bytes after that header as they lie (no decode, slice or re-encode); a
file in any other layout (the ``indent=1`` files written before the
layout was fixed, or one a human re-formatted) is still one JSON object
with the same keys, and is verified by re-encoding its parsed body
canonically.  Read a state file
with ``python -m json.tool``.

**State file v3: every package name once.**  The ``cache`` section is
:meth:`LandlordCache.table_snapshot`::

    "cache": {"alpha": …, "capacity": …, "clock": …, "next_image": …,
              "policy": {…}, "stats": {…}, "repository": "sha256:…",
              "universe": ["pkg-a", "pkg-b", …],
              "images": [{"id": "img-000004", "mask": "1f03", …}, …]}

``universe`` is one table of names and each image's ``mask`` is a hex
integer whose bit *i* means ``universe[i]`` — where v2 wrote every
image's sorted name list (``"packages": [...]``), so a name shared by
300 images was encoded, hashed, written, parsed and interned 300 times.
Saving and loading now cost O(images + live names), not O(Σ names).

- *Live names only, by first appearance.*  The table holds the names at
  least one live image contains — a cache under eviction pressure has
  seen far more names than it holds (the paper's operating zone: ~9.4k
  seen, ~4.2k live) — in the order they first appear among the live
  images, smallest first, and every mask is re-based onto it at once.
- *One repository.*  ``"repository"`` is the digest of the repository's
  ids in repository order; a state written against another repository
  is refused on load (a file without the key loads as before).  A
  loaded cache numbers the file's generation: the table, then every
  other repository package in repository order.
- *``snapshot()`` stays the comparison form.*  Table positions follow
  the order names first appear among the live images, which two caches
  holding the same sets need not share — so equality, the ledger's
  digests, the differential suite and ``explain`` keep using :meth:`LandlordCache.snapshot` (sorted
  names, history-independent), and ``load(save(c)).snapshot() ==
  c.snapshot()`` is the round-trip property.  Ids are renumbered on
  load; no decision depends on them.
- *Read v2 and v3, write v3.*  ``restore`` accepts both record shapes,
  so a v2 file loads (and is checksummed under its own version's
  header, as it lies) and is next saved as v3.  v1 — no checksum, no
  policy block, last written before PR 2 — is refused by name.
- *The journal indexes the same generation.*  Journal v2 entries are
  masks over this file's ``universe`` followed by the rest of the
  repository (:mod:`repro.core.journal`); :func:`load_table` reads that
  table and ``journal_seq`` back without building a cache.  A
  checkpoint is still triggered by operation count, not bytes — ROADMAP
  item 10 (ii)/(iii).

Parent (v2) → this format on a 2-core sandbox (save/load best of 15;
``recover_s`` the median of alternating ledger pairs):

==========================  =================  ===================
at the end state of         ``replay_zone``    ``replay_wide``
==========================  =================  ===================
images × names an image     11 × ~820          985 × ~326
file bytes                  147,439 → 87,589   5,055,343 → 2,330,751
``save_state`` ms           6.5 → 4.2          123 → 27
``load_bundle`` ms          6.1 → 4.9          153 → 49
ledger ``recover_s``        0.0261 → 0.0205    0.359 → 0.119
==========================  =================  ===================

The actual container *files* are not stored — in a real deployment they sit
next to the state file in the cache directory; in this reproduction only
the accounting exists.

Used by ``repro-landlord submit`` / ``cache-status`` / ``recover`` (see
:mod:`repro.cli`), with :mod:`repro.core.journal` covering the window
between snapshots.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.core.cache import LandlordCache, table_names
from repro.packages.repository import PackageIndex
from repro.testing.faults import checkpoint

__all__ = [
    "STATE_VERSION",
    "StateBundle",
    "StateError",
    "StateNotFound",
    "body_checksum",
    "load_bundle",
    "load_state",
    "load_table",
    "save_state",
]

STATE_VERSION = 3
_READABLE_VERSIONS = (2, STATE_VERSION)

PathLike = Union[str, Path]

_CANON = {"sort_keys": True, "separators": (",", ":")}


class StateError(ValueError):
    """Raised for missing, corrupt, or incompatible state files."""


class StateNotFound(StateError):
    """No state file exists — the one recoverable :class:`StateError`.

    Callers initialising a fresh cache on first use catch this subclass
    specifically; every other :class:`StateError` (corruption, policy
    mismatch, unreadable version) signals real state that must not be
    silently discarded.
    """


@dataclass(frozen=True)
class StateBundle:
    """Everything a state file holds: the cache, caller metadata, and the
    journal sequence number the snapshot covers (0 when none)."""

    cache: LandlordCache
    metadata: dict
    journal_seq: int
    #: The file is the current version in :func:`save_state`'s own
    #: layout: its checksum held over the bytes as they lie, with no
    #: re-encoding.
    canonical: bool = False


def _canonical(body: dict) -> bytes:
    """The one encoding of a payload body — what is hashed is what is
    written."""
    return json.dumps(body, **_CANON).encode("utf-8")


def _checksum_of(canon: bytes) -> str:
    return "sha256:" + hashlib.sha256(canon).hexdigest()


def _header(version: int, checksum: str) -> str:
    """What precedes the body's bytes in a state file (see the module
    docstring): the body's opening brace, ``version`` and ``checksum``."""
    return f'{{"version":{version},"checksum":"{checksum}",'


def body_checksum(body: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a payload body.

    The body is the payload minus ``version`` and ``checksum`` — exactly
    the keys whose corruption a torn write could hide.
    """
    return _checksum_of(_canonical(body))


def _tmp_path(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_state(
    path: PathLike,
    cache: LandlordCache,
    metadata: Optional[dict] = None,
    journal_seq: int = 0,
) -> Path:
    """Write the cache snapshot crash-safely.

    The payload is written to ``<path>.tmp``, fsynced, renamed over
    ``path``, and the parent directory is fsynced — so after a crash the
    file at ``path`` is always either the old complete snapshot or the
    new complete snapshot, never a torn mix.  ``journal_seq`` records the
    last write-ahead-journal entry already folded into this snapshot
    (see :mod:`repro.core.journal`); recovery replays only later entries.
    """
    return _write_state(
        Path(path), cache.table_snapshot(), metadata, journal_seq
    )


def _write_state(
    path: Path, table: dict, metadata: Optional[dict], journal_seq: int
) -> Path:
    """:func:`save_state` of a :meth:`LandlordCache.table_snapshot` the
    caller already took (the journal's writer keeps its name table)."""
    canon = _canonical({
        "metadata": metadata or {},
        "journal_seq": int(journal_seq),
        "cache": table,
    })
    head = _header(STATE_VERSION, _checksum_of(canon)).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    checkpoint("state:write")
    with open(tmp, "wb") as fh:
        fh.write(head + canon[1:])
        fh.flush()
        checkpoint("state:torn", fh=fh, start=0)
        os.fsync(fh.fileno())
    checkpoint("state:synced")
    tmp.replace(path)
    checkpoint("state:renamed")
    _fsync_dir(path.parent)
    return path


def _verify_checksum(payload: dict, raw: bytes, path: Path) -> bool:
    """Check ``payload`` (parsed from ``raw``) against its checksum;
    ``True`` when it held over the bytes as they lie.

    A file :func:`save_state` wrote is hashed as it lies: the bytes
    after the header — built from the file's own ``version``, so a v2
    file is hashed as it lies too — are the canonical body minus its
    brace, and are hashed in place (no decode, slice or re-encode).
    Anything else is re-encoded canonically from the parsed body, which
    accepts exactly the files it always did — whatever their whitespace
    or key order.
    """
    recorded = payload.get("checksum")
    if not isinstance(recorded, str):
        raise StateError(f"state file {path} has no checksum (torn write?)")
    head = _header(payload["version"], recorded).encode("utf-8")
    if raw.startswith(head):
        digest = hashlib.sha256(b"{")
        digest.update(memoryview(raw)[len(head):])
        if recorded == "sha256:" + digest.hexdigest():
            return True
    body = {
        key: payload[key]
        for key in ("metadata", "journal_seq", "cache")
        if key in payload
    }
    if body_checksum(body) != recorded:
        raise StateError(
            f"state file {path} fails its checksum — torn or tampered write"
        )
    return False


def _verified_payload(path: Path, raw: bytes) -> Tuple[dict, bool]:
    """Parse a state file's bytes and check its version and checksum;
    anything that is not a readable state is a :class:`StateError`.
    Returns the payload and whether the file is canonical (see
    :attr:`StateBundle.canonical`)."""
    try:
        payload = json.loads(raw)
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise StateError(f"corrupt state file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateError(f"corrupt state file {path}: not a JSON object")
    version = payload.get("version")
    if version == 1:
        raise StateError(
            f"state file {path}: v1 state (no checksum, no policy block): "
            "load it "
            "with commit bf23e3f and re-save"
        )
    if version not in _READABLE_VERSIONS:
        raise StateError(
            f"state file {path}: version {version!r} unsupported (this "
            f"build reads {', '.join(map(str, _READABLE_VERSIONS))})"
        )
    as_it_lies = _verify_checksum(payload, raw, path)
    return payload, as_it_lies and version == STATE_VERSION


def load_table(path: PathLike) -> Tuple[int, List[str]]:
    """``(journal_seq, names)`` of a state file, checksum-verified,
    without building a cache.

    ``names`` is the table :meth:`LandlordCache.restore` numbers first
    (:func:`~repro.core.cache.table_names`): the v3 ``universe`` table,
    then (for image records that list ``"packages"``, as v2 files do)
    each name in the order restore first interns it.  The journal's
    writer numbers its entries' masks from here (see
    :mod:`repro.core.journal`).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise StateNotFound(f"no state file at {path}") from None
    payload, _ = _verified_payload(path, raw)
    try:
        names = table_names(payload["cache"])
        journal_seq = int(payload.get("journal_seq", 0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StateError(f"malformed state file {path}: {exc}") from exc
    return journal_seq, names


def load_bundle(
    path: PathLike,
    package_size: PackageIndex,
    **cache_kwargs: object,
) -> StateBundle:
    """Load a snapshot file into a fresh cache, validating everything.

    Capacity and α come from the snapshot itself (the state defines the
    site configuration); ``cache_kwargs`` set the remaining policy knobs,
    which must *match* the ones recorded in the snapshot — a mismatch
    raises :class:`StateError` instead of silently resuming with
    different semantics.  Stale ``.tmp`` files from a crashed
    :func:`save_state` are removed.  Versions 2 and 3 load; any other
    is refused by name.
    """
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        if tmp.exists():
            tmp.unlink()
            raise StateNotFound(
                f"no state file at {path} (removed stale partial write "
                f"{tmp.name})"
            ) from None
        raise StateNotFound(f"no state file at {path}") from None
    if tmp.exists():
        tmp.unlink()  # stranded by a crash between tmp write and rename
    payload, canonical = _verified_payload(path, raw)
    try:
        snapshot = payload["cache"]
        cache = LandlordCache(
            capacity=int(snapshot["capacity"]),
            alpha=float(snapshot["alpha"]),
            package_size=package_size,
            **cache_kwargs,  # type: ignore[arg-type]
        )
        cache.restore(snapshot)
    except (KeyError, TypeError) as exc:
        raise StateError(f"malformed state file {path}: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, StateError):
            raise
        raise StateError(f"incompatible state file {path}: {exc}") from exc
    return StateBundle(
        cache=cache,
        metadata=payload.get("metadata", {}),
        journal_seq=int(payload.get("journal_seq", 0)),
        canonical=canonical,
    )


def load_state(
    path: PathLike,
    package_size: PackageIndex,
    **cache_kwargs: object,
) -> Tuple[LandlordCache, dict]:
    """Load a snapshot back into a fresh cache; returns ``(cache, metadata)``.

    Thin wrapper over :func:`load_bundle` for callers that do not use the
    write-ahead journal.
    """
    bundle = load_bundle(path, package_size, **cache_kwargs)
    return bundle.cache, bundle.metadata
