"""Durable cache state — LANDLORD as a real job wrapper.

The paper's prototype runs *"as an automated step during job submission"*
(§V): every submission invokes the wrapper, which consults and updates a
persistent image-cache directory.  Between invocations the state therefore
lives on disk.  This module provides that layer: a versioned JSON snapshot
of a :class:`~repro.core.cache.LandlordCache` (images, LRU clocks, full
statistics, and — since format v2 — every policy knob the cache was
configured with) plus arbitrary caller metadata (e.g. which repository
seed the site is configured for).

Format v2 guarantees two properties v1 lacked:

- **Crash durability.**  ``save_state`` fsyncs the temp file before the
  atomic rename and fsyncs the directory after it, embeds a SHA-256
  checksum of the body so torn writes are detected on load, and stale
  ``.tmp`` files stranded by a crash between write and rename are
  cleaned up on the next load.
- **Policy fidelity.**  The snapshot records eviction, hit-selection,
  candidate-order, merge-write-mode, MinHash configuration, and the
  conflict-policy identity; :meth:`LandlordCache.restore` refuses to
  resume under different semantics than the state was built under.
  v1 files (which recorded none of this) fail with a descriptive
  :class:`StateError` unless ``migrate_v1=True`` explicitly adopts the
  caller's current knobs.

**File layout.**  A state file is one line of JSON, every byte of it
encoded once: the body (``cache``, ``journal_seq``, ``metadata``) is
dumped in canonical form (sorted keys, no whitespace), those bytes are
hashed, and the file is ``{"version":2,"checksum":"sha256:…",`` followed
by the very same bytes minus their opening brace.  Loading hashes the
text after that header as it lies; a file in any other layout (the
``indent=1`` files written before the layout was fixed, or one a human
re-formatted) is still one JSON object with the same keys, and is
verified by re-encoding its parsed body canonically.  Read a state file
with ``python -m json.tool``.

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
from typing import Callable, Optional, Tuple, Union

from repro.core.cache import LandlordCache
from repro.testing.faults import checkpoint

__all__ = [
    "STATE_VERSION",
    "StateBundle",
    "StateError",
    "StateNotFound",
    "body_checksum",
    "load_bundle",
    "load_state",
    "save_state",
]

STATE_VERSION = 2

PathLike = Union[str, Path]

_CANON = {"sort_keys": True, "separators": (",", ":")}


class StateError(ValueError):
    """Raised for missing, corrupt, or incompatible state files."""


class StateNotFound(StateError):
    """No state file exists — the one recoverable :class:`StateError`.

    Callers initialising a fresh cache on first use catch this subclass
    specifically; every other :class:`StateError` (corruption, policy
    mismatch, unmigrated v1 file) signals real state that must not be
    silently discarded.
    """


@dataclass(frozen=True)
class StateBundle:
    """Everything a state file holds: the cache, caller metadata, and the
    journal sequence number the snapshot covers (0 when none)."""

    cache: LandlordCache
    metadata: dict
    journal_seq: int


def _canonical(body: dict) -> bytes:
    """The one encoding of a payload body — what is hashed is what is
    written."""
    return json.dumps(body, **_CANON).encode("utf-8")


def _checksum_of(canon: bytes) -> str:
    return "sha256:" + hashlib.sha256(canon).hexdigest()


def _header(checksum: str) -> str:
    """What precedes the body's bytes in a state file (see the module
    docstring): the body's opening brace, ``version`` and ``checksum``."""
    return f'{{"version":{STATE_VERSION},"checksum":"{checksum}",'


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
    path = Path(path)
    canon = _canonical({
        "metadata": metadata or {},
        "journal_seq": int(journal_seq),
        "cache": cache.snapshot(),
    })
    head = _header(_checksum_of(canon)).encode("utf-8")
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


def _verify_checksum(payload: dict, text: str, path: Path) -> None:
    """Check ``payload`` (parsed from ``text``) against its checksum.

    A file :func:`save_state` wrote is hashed as it lies: the text after
    the header is the canonical body minus its brace.  Anything else is
    re-encoded canonically from the parsed body, which accepts exactly
    the files it always did — whatever their whitespace or key order.
    """
    recorded = payload.get("checksum")
    if not isinstance(recorded, str):
        raise StateError(f"state file {path} has no checksum (torn write?)")
    head = _header(recorded)
    if text.startswith(head) and recorded == _checksum_of(
        ("{" + text[len(head):]).encode("utf-8")
    ):
        return
    body = {
        key: payload[key]
        for key in ("metadata", "journal_seq", "cache")
        if key in payload
    }
    if body_checksum(body) != recorded:
        raise StateError(
            f"state file {path} fails its checksum — torn or tampered write"
        )


def _migrate_v1(snapshot: dict, cache: LandlordCache) -> dict:
    """Upgrade a v1 cache snapshot to v2 semantics, in memory.

    v1 recorded no policy knobs, so migration *defines* them to be the
    ones the caller constructed ``cache`` with — an explicit decision the
    caller opted into via ``migrate_v1=True``.  Per-image
    ``last_request`` (absent in v1) is approximated by clamping the v1
    clock-based ``last_used`` to the request counter.
    """
    out = dict(snapshot)
    out.setdefault("policy", cache.policy_snapshot())
    return out


def load_bundle(
    path: PathLike,
    package_size: Callable[[str], int],
    migrate_v1: bool = False,
    **cache_kwargs: object,
) -> StateBundle:
    """Load a snapshot file into a fresh cache, validating everything.

    Capacity and α come from the snapshot itself (the state defines the
    site configuration); ``cache_kwargs`` set the remaining policy knobs,
    which must *match* the ones recorded in the snapshot — a mismatch
    raises :class:`StateError` instead of silently resuming with
    different semantics.  Stale ``.tmp`` files from a crashed
    :func:`save_state` are removed.  A v1-format file raises a
    descriptive :class:`StateError` unless ``migrate_v1`` is true, in
    which case the current knobs are stamped into the state.
    """
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        text = path.read_text(encoding="utf-8")
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
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateError(f"corrupt state file {path}: {exc}") from exc
    version = payload.get("version")
    if version == 1:
        if not migrate_v1:
            raise StateError(
                f"state file {path} uses the v1 format, which records no "
                "policy knobs (eviction, hit selection, candidate order, "
                "merge write mode, MinHash, conflict policy) — pass "
                "migrate_v1=True (CLI: --migrate-v1) to adopt the current "
                "configuration, or rebuild the state"
            )
    elif version != STATE_VERSION:
        raise StateError(
            f"state version {version!r} unsupported "
            f"(expected {STATE_VERSION})"
        )
    else:
        _verify_checksum(payload, text, path)
    try:
        snapshot = payload["cache"]
        cache = LandlordCache(
            capacity=int(snapshot["capacity"]),
            alpha=float(snapshot["alpha"]),
            package_size=package_size,
            **cache_kwargs,  # type: ignore[arg-type]
        )
        if version == 1:
            snapshot = _migrate_v1(snapshot, cache)
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
    )


def load_state(
    path: PathLike,
    package_size: Callable[[str], int],
    migrate_v1: bool = False,
    **cache_kwargs: object,
) -> Tuple[LandlordCache, dict]:
    """Load a snapshot back into a fresh cache; returns ``(cache, metadata)``.

    Thin wrapper over :func:`load_bundle` for callers that do not use the
    write-ahead journal.
    """
    bundle = load_bundle(
        path, package_size, migrate_v1=migrate_v1, **cache_kwargs
    )
    return bundle.cache, bundle.metadata
