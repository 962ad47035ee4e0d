"""Typed cache-event log: the one decision record.

Every cache decision emits a :class:`CacheEvent` — one HIT, MERGE or
INSERT per request, then a DELETE per image evicted.  The event carries
everything needed to explain the decision (the candidates the merge
scan considered, the α in force, the distributed trace id), so the same
record feeds the in-memory ``cache.events`` log, the JSONL streams of
:mod:`repro.obs.stream`, the ``--trace`` sidecar, and the
:class:`~repro.obs.trace.DecisionTracer` behind ``explain`` and
``/traces``.

A DELETE belongs to the decision before it in the stream: capacity
evictions follow the request that forced them, and ``evict_idle`` /
``adopt()`` victims follow the last completed request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["EventKind", "MergeCandidate", "CacheEvent"]


class EventKind(enum.Enum):
    """The four operations of Algorithm 1 plus eviction."""

    HIT = "hit"          # an existing image satisfied the request
    MERGE = "merge"      # request merged into a near image (rewrite I/O)
    INSERT = "insert"    # a fresh image was built for the request
    DELETE = "delete"    # an image was evicted to respect capacity


@dataclass(frozen=True)
class MergeCandidate:
    """One image the merge scan found within α of a request.

    ``outcome`` is ``"merged"`` (chosen), ``"conflict"`` (within α but
    rejected by the package-conflict check), or ``"unused"`` (examined
    but not chosen — an earlier candidate won).  ``size`` is the
    image's size before any merge rewrite.
    """

    image_id: str
    distance: float
    size: int
    outcome: str


@dataclass(frozen=True)
class CacheEvent:
    """One cache operation.

    Attributes:
        kind: which operation occurred.
        request_index: 0-based index of the request that triggered it
            (capacity DELETEs carry the index of the request being
            served when capacity forced them — for an ``adopt()``, the
            next request's; idle DELETEs the last completed request's).
        image_id: id of the image hit/created/merged/evicted.
        image_bytes: byte size of that image after the operation.
        bytes_written: bytes of I/O charged by this event — the full image
            size for inserts and merges (merged images are rewritten in
            their entirety, the paper's dominant I/O cost), zero for hits
            and deletes.
        requested_bytes: size of the image the job actually asked for
            (None for delete events).
        reason: why a DELETE happened — ``"capacity"`` (evicted to fit a
            request under the byte budget) or ``"idle"`` (aged out by
            ``evict_idle``); None for non-delete events.
        distance: the Jaccard distance between the request and the merge
            target on MERGE events; None otherwise.
        candidates_examined: how many images the merge scan examined
            while serving this request (decision events only; deltas,
            so summing over the log reproduces the stats counter).
        conflicts_skipped: how many within-α candidates the conflict
            check rejected while serving this request (deltas, as
            above).
        n_packages: how many packages the request named.
        alpha: the merge threshold the decision was taken under.
        images_scanned: how many images were cached when the request
            arrived.
        bytes_added: new content materialised — the merged-in packages
            on a MERGE, the whole image on an INSERT, 0 on a HIT.
        candidates: the images within α, in the order the merge step
            tried them, with their outcomes.
        trace_id: the distributed trace the request was served under
            (set by the service daemon); resolves to a pipeline
            waterfall through ``repro-landlord trace``.

    The last six are decision-event fields; DELETEs leave them at their
    defaults.
    """

    kind: EventKind
    request_index: int
    image_id: str
    image_bytes: int
    bytes_written: int = 0
    requested_bytes: Optional[int] = None
    reason: Optional[str] = None
    distance: Optional[float] = None
    candidates_examined: int = 0
    conflicts_skipped: int = 0
    n_packages: int = 0
    alpha: Optional[float] = None
    images_scanned: int = 0
    bytes_added: int = 0
    candidates: Tuple[MergeCandidate, ...] = ()
    trace_id: Optional[str] = None
