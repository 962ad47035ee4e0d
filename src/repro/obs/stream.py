"""JSONL event streams compatible with the in-memory ``CacheEvent`` log.

A cache's ``record_events`` log lives in memory; operators (and
``analysis/report.py``) want a flat, greppable stream.  This module
serialises :class:`~repro.core.events.CacheEvent` records to JSON-lines
and back — the one on-disk format for ``replay --events-out`` and the
``--trace`` decision sidecar alike — and folds a stream into
:class:`~repro.core.cache.CacheStats` (:func:`fold_event`) so the parity
invariant *counters never drift from events* is checkable (and checked,
in ``tests/obs/test_stream.py``).

Only :mod:`repro.core.events` is imported at module scope; the
``CacheStats`` import in :func:`stats_from_events` is deferred so that
``repro.core.cache`` can import ``repro.obs`` without a cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from ..core.events import CacheEvent, EventKind, MergeCandidate

__all__ = [
    "event_to_jsonable",
    "event_from_jsonable",
    "write_event_stream",
    "read_event_stream",
    "iter_event_stream",
    "fold_event",
    "stats_from_events",
]

PathLike = Union[str, Path]


def event_to_jsonable(event: CacheEvent) -> dict:
    """JSON-safe dict form of one event (kind as its string value).

    Decision events also carry the explain fields (``n_packages``,
    ``alpha``, ``images_scanned``, ``bytes_added``, ``candidates``);
    ``reason``, ``distance`` and ``trace_id`` are written only when set.
    """
    out = {
        "kind": event.kind.value,
        "request_index": event.request_index,
        "image_id": event.image_id,
        "image_bytes": event.image_bytes,
        "bytes_written": event.bytes_written,
        "requested_bytes": event.requested_bytes,
        "candidates_examined": event.candidates_examined,
        "conflicts_skipped": event.conflicts_skipped,
    }
    if event.reason is not None:
        out["reason"] = event.reason
    if event.distance is not None:
        out["distance"] = event.distance
    if event.kind is not EventKind.DELETE:
        out["n_packages"] = event.n_packages
        out["alpha"] = event.alpha
        out["images_scanned"] = event.images_scanned
        out["bytes_added"] = event.bytes_added
        out["candidates"] = [
            {"image_id": c.image_id, "distance": c.distance,
             "size": c.size, "outcome": c.outcome}
            for c in event.candidates
        ]
    if event.trace_id is not None:
        out["trace_id"] = event.trace_id
    return out


def event_from_jsonable(data: dict) -> CacheEvent:
    """Inverse of :func:`event_to_jsonable` (tolerates old streams
    written before the optional and explain fields existed)."""
    return CacheEvent(
        kind=EventKind(data["kind"]),
        request_index=data["request_index"],
        image_id=data["image_id"],
        image_bytes=data["image_bytes"],
        bytes_written=data.get("bytes_written", 0),
        requested_bytes=data.get("requested_bytes"),
        reason=data.get("reason"),
        distance=data.get("distance"),
        candidates_examined=data.get("candidates_examined", 0),
        conflicts_skipped=data.get("conflicts_skipped", 0),
        n_packages=data.get("n_packages", 0),
        alpha=data.get("alpha"),
        images_scanned=data.get("images_scanned", 0),
        bytes_added=data.get("bytes_added", 0),
        candidates=tuple(
            MergeCandidate(
                c["image_id"], c["distance"], c["size"], c["outcome"]
            )
            for c in data.get("candidates", ())
        ),
        trace_id=data.get("trace_id"),
    )


def write_event_stream(
    events: Iterable[CacheEvent], path: PathLike, append: bool = False
) -> Path:
    """Write events as JSON-lines, one event per line, in order;
    ``append`` accumulates across invocations (the ``--trace``
    sidecar)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a" if append else "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event_to_jsonable(event), sort_keys=True))
            fh.write("\n")
    return path


def iter_event_stream(
    path: PathLike, heal_torn_tail: bool = True
) -> Iterator[CacheEvent]:
    """Lazily yield events from a JSONL stream file.

    A *torn final line* — a truncated JSON fragment left by a writer
    that crashed mid-write — is silently dropped, the same healing
    contract the write-ahead journal honours: the stream replays to
    the last complete event instead of raising.  A malformed line that
    is *not* last is real corruption and raises :class:`ValueError`
    (pass ``heal_torn_tail=False`` to make even a torn tail raise).  So
    does a line with no ``"kind"`` key, wherever it is: that is a
    decision sidecar in the old one-record-per-request format, not a
    torn event.
    """
    pending_error: "tuple[str, Exception] | None" = None
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if pending_error is not None:
                bad, exc = pending_error
                raise ValueError(
                    f"corrupt event stream {path}: unparseable non-final "
                    f"line {bad!r}: {exc}"
                )
            try:
                event = event_from_jsonable(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                if isinstance(exc, KeyError) and exc.args == ("kind",):
                    raise ValueError(
                        f"{path}: a line has no \"kind\" key — an "
                        "old-format decision sidecar (one record per "
                        "request), not an event stream; delete it and "
                        "record again with --trace"
                    ) from None
                if not heal_torn_tail:
                    raise ValueError(
                        f"corrupt event stream {path}: {line!r}: {exc}"
                    ) from exc
                # Maybe a torn tail: defer the verdict until we know
                # whether any later line exists.
                pending_error = (line, exc)
                continue
            yield event


def read_event_stream(
    path: PathLike, heal_torn_tail: bool = True
) -> List[CacheEvent]:
    """Read a whole JSONL stream file into a list (healing a torn
    final line unless ``heal_torn_tail=False``)."""
    return list(iter_event_stream(path, heal_torn_tail=heal_torn_tail))


def fold_event(stats, event: CacheEvent) -> None:
    """Fold one event into ``stats`` (a ``CacheStats``), in place.

    The one event → counters rule, shared by :func:`stats_from_events`,
    the dashboard replay and the Figure-5 timeline rebuild.  A decision
    (hit, merge, insert) is one request; a DELETE is one eviction and
    belongs to the decision before it in the stream.
    """
    if event.kind is EventKind.DELETE:
        stats.deletes += 1
        if event.reason == "idle":
            stats.evictions_idle += 1
        else:
            stats.evictions_capacity += 1
        return
    stats.requests += 1
    stats.requested_bytes += event.requested_bytes or 0
    stats.candidates_examined += event.candidates_examined
    stats.conflicts_skipped += event.conflicts_skipped
    # used_bytes accumulates the size of the image each request actually
    # ran with — exactly the event's image_bytes.
    stats.used_bytes += event.image_bytes
    if event.kind is EventKind.HIT:
        stats.hits += 1
    elif event.kind is EventKind.MERGE:
        stats.merges += 1
        stats.bytes_written += event.bytes_written
    else:
        stats.inserts += 1
        stats.bytes_written += event.bytes_written


def stats_from_events(events: Iterable[CacheEvent]):
    """Reconstruct a ``CacheStats`` from an event log.

    Valid for request/evict-driven histories (``request`` +
    ``evict_idle`` — everything the simulator and CLI produce): the
    ``splits``/``adoptions`` counters only move under the tenancy
    split/adopt operations, which do not emit events, and stay zero
    here.  Used by the parity test asserting that replaying the event
    log reproduces the live cache's counters exactly.
    """
    from ..core.cache import CacheStats

    stats = CacheStats()
    for event in events:
        fold_event(stats, event)
    return stats
