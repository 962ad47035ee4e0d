"""Decision tracing: why did the cache hit, merge, or insert?

Figures 4–6 show *what* the LANDLORD cache did; a surprising merge or a
storm of capacity evictions raises the question of *why*.  The answer
is already in the event stream: a HIT/MERGE/INSERT
:class:`~repro.core.events.CacheEvent` carries the candidates the merge
scan considered with their Jaccard distances and outcomes, and the
DELETEs after it are the victims, with their reason (capacity vs. idle).
:func:`explain` renders a slice of that stream as a human-readable
narrative — the one renderer behind ``repro-landlord explain <index>``
and ``/traces``.

A :class:`DecisionTracer` attached to a ``LandlordCache`` (via
``enable_tracing``) is a bounded, drainable index over the stream it is
fed.  Tracing must never perturb behaviour — the traced and untraced
decision sequences are asserted bit-identical in the test suite — so
the tracer only *records*; it owns no policy state and the cache never
reads from it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from ..core.events import CacheEvent, EventKind
from ..util.units import format_bytes

__all__ = ["DecisionTracer", "by_request", "explain"]

_OUTCOME_NOTES = {
    "merged": "chosen (closest non-conflicting)",
    "conflict": "rejected: package version conflict",
    "unused": "not chosen",
}


def by_request(events: Iterable[CacheEvent]) -> Iterator[List[CacheEvent]]:
    """Group a stream into per-request records: each decision event
    followed by the DELETEs after it (a DELETE belongs to the decision
    before it).  DELETEs before the first decision have no record and
    are skipped."""
    record: Optional[List[CacheEvent]] = None
    for event in events:
        if event.kind is not EventKind.DELETE:
            if record is not None:
                yield record
            record = [event]
        elif record is not None:
            record.append(event)
    if record is not None:
        yield record


def _narrative(record: List[CacheEvent]) -> str:
    decision = record[0]
    kind = decision.kind
    lines = [
        f"request #{decision.request_index}: {decision.n_packages} packages, "
        f"{format_bytes(decision.requested_bytes)} requested "
        f"(alpha={decision.alpha:g})",
    ]
    if kind is EventKind.HIT:
        lines.append(
            f"  HIT image {decision.image_id} "
            f"({format_bytes(decision.image_bytes)}): an existing image "
            "already contains every requested package "
            f"(scanned {decision.images_scanned} images)."
        )
    elif kind is EventKind.MERGE:
        lines.append(
            f"  MERGE into image {decision.image_id}: rewrote "
            f"{format_bytes(decision.image_bytes)} to add "
            f"{format_bytes(decision.bytes_added)} of new packages."
        )
    else:
        lines.append(
            f"  INSERT image {decision.image_id} "
            f"({format_bytes(decision.image_bytes)}): no hit and no "
            "mergeable candidate."
        )
    if decision.candidates:
        lines.append(
            f"  candidates within alpha ({len(decision.candidates)} "
            f"of {decision.images_scanned} scanned):"
        )
        for cand in decision.candidates:
            lines.append(
                f"    image {cand.image_id}: distance "
                f"{cand.distance:.3f}, {format_bytes(cand.size)} "
                f"-- {_OUTCOME_NOTES[cand.outcome]}"
            )
    elif kind is EventKind.INSERT:
        lines.append(
            f"  candidates within alpha: none "
            f"(scanned {decision.images_scanned} images)."
        )
    if decision.distance is not None and kind is EventKind.MERGE:
        lines.append(f"  chosen Jaccard distance: {decision.distance:.3f}")
    for victim in record[1:]:
        why = (
            "to fit under the byte capacity"
            if victim.reason == "capacity"
            else "idle too long"
        )
        lines.append(
            f"  EVICTED image {victim.image_id} "
            f"({format_bytes(victim.image_bytes)}): {why}."
        )
    if decision.trace_id is not None:
        lines.append(
            f"  trace {decision.trace_id} "
            "(pipeline waterfall: repro-landlord trace "
            f"{decision.trace_id[:8]} --url <daemon>)"
        )
    return "\n".join(lines)


def explain(events: Iterable[CacheEvent]) -> str:
    """Render a slice of an event stream as decision narratives: one
    paragraph per request (grouped by :func:`by_request`), separated by
    blank lines."""
    return "\n\n".join(_narrative(record) for record in by_request(events))


class DecisionTracer:
    """A bounded, drainable index over a cache's event stream.

    The cache hands every event it emits to :meth:`on_event`.  Each
    decision opens a record keyed by its request index; each DELETE
    joins the record of the decision before it, so ``evict_idle`` and
    ``adopt()`` victims land on the last completed request.  ``limit``
    bounds memory on long streams by keeping only the most recent N
    records; :meth:`drain` hands out the events recorded since the last
    drain (of records still held), which is how the CLI and the daemon
    append to the ``--trace`` sidecar.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive (or None)")
        self._limit = limit
        # Insertion-ordered: the last record is the latest decision's.
        self._records: Dict[int, List[CacheEvent]] = {}
        self._undrained: Deque[CacheEvent] = deque()

    def __len__(self) -> int:
        return len(self._records)

    def on_event(self, event: CacheEvent) -> None:
        """Index one emitted event (cache hook)."""
        records = self._records
        if event.kind is EventKind.DELETE:
            if not records:
                return  # no decision recorded yet to attach it to
            next(reversed(records.values())).append(event)
        else:
            # Re-insert so a re-traced index is also the newest record.
            records.pop(event.request_index, None)
            records[event.request_index] = [event]
            if self._limit is not None and len(records) > self._limit:
                oldest = records.pop(next(iter(records)))
                undrained = self._undrained
                while undrained and any(undrained[0] is e for e in oldest):
                    undrained.popleft()
        self._undrained.append(event)

    def record(self, request_index: int) -> Optional[List[CacheEvent]]:
        """One request's events — its decision, then the DELETEs after
        it — or ``None`` if not held."""
        record = self._records.get(request_index)
        return list(record) if record is not None else None

    def recent(self, n: Optional[int] = None) -> List[CacheEvent]:
        """The events of the last ``n`` held requests (all when
        ``None``), in stream order."""
        records = list(self._records.values())
        if n is not None:
            records = records[-n:]
        return [event for record in records for event in record]

    def explain(self, request_index: int) -> str:
        """Human-readable narrative for one request index."""
        record = self._records.get(request_index)
        if record is None:
            held = sorted(self._records)
            span = (
                f" (holding {held[0]}..{held[-1]})" if held else " (empty)"
            )
            return f"no trace recorded for request #{request_index}{span}"
        return explain(record)

    def drain(self) -> List[CacheEvent]:
        """Events recorded since the last drain, in stream order."""
        out = list(self._undrained)
        self._undrained.clear()
        return out
