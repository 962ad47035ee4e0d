"""Decision engines: the data-parallel kernels behind Algorithm 1.

Every request to :class:`~repro.core.cache.LandlordCache` runs three inner
scans over the cached image collection:

1. the **superset (hit) scan** — is some cached image a superset of the
   request specification?
2. the **merge-candidate scan** — which cached images are within exact
   Jaccard distance α of the request, and at what distance?
3. the **eviction-victim search** — which image does the configured
   policy (LRU / FIFO / size) evict next under capacity pressure?

The reference implementation (:class:`NaiveEngine`) answers all three
with O(cache size) Python loops over big-int bitmasks — clear, exactly
the paper's Algorithm 1, and the semantic ground truth.

:class:`VectorizedEngine` answers the same three questions from
incrementally maintained NumPy state instead:

- all cached-image package sets live in one padded ``uint64`` bit matrix
  (rows = images, columns = 64-package words, never more than an eighth
  wider than the package universe), alongside parallel arrays for size,
  ``last_used``, ``created_at``, package count, and a dict-insertion
  sequence number;
- the hit scan asks the request's *rarest* package: a superset of the
  request holds every package of it, so the cache's per-package
  live-image counts either rule a hit out without reading the matrix (a
  package nobody holds) or name one bit column whose few set rows are
  the only possible supersets;
- the merge scan is one batched popcount intersection
  (:func:`numpy.bitwise_count`) yielding every exact Jaccard distance in
  one shot — no approximation on the fast path;
- the eviction search is a lazy-deletion heap keyed by the policy, so a
  capacity storm evicting k of n images costs O(k log n) instead of
  O(k·n).

The two engines are **bit-identical**: same decisions, same statistics,
same events, same snapshots, for every combination of policy knobs.
This is not accidental — each vectorised kernel reproduces the naive
loop's selection rule *including its tie-breaking*, which falls out of
dict iteration order.  The sequence-number array makes that order
explicit (see the individual kernel docstrings and the proof sketch in
DESIGN.md, "Decision-engine internals"); the differential property
suite in ``tests/core/test_engine_differential.py`` enforces it over
randomized workloads across the full knob grid.

Engines hold *derived* state only: the cache remains the single source
of truth (its ``_images`` dict and the ``CachedImage`` objects; the
vectorized hit scan also reads the cache's ``_refcounts`` array, which
is current whenever a scan can run), and
notifies its engine through four hooks — :meth:`~NaiveEngine.on_add`,
:meth:`~NaiveEngine.on_remove`, :meth:`~NaiveEngine.on_touch` (the
image's ``last_used`` changed), :meth:`~NaiveEngine.on_update` (its
contents/size changed, i.e. a merge rewrite).  Restoring a snapshot
replays ``on_add`` per image, which is how a recovered cache rebuilds
its matrix.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cache import CachedImage, LandlordCache

__all__ = ["ENGINES", "NaiveEngine", "VectorizedEngine", "make_engine"]

#: Valid values for the cache's ``engine=`` knob.
ENGINES = ("naive", "vectorized")

# Little-endian uint64: to_bytes(..., "little") then frombuffer must give
# the same words on any host, so the byte order is pinned explicitly.
_WORD = np.dtype("<u8")


class _Arena:
    """Named scratch buffers reused across kernel invocations.

    Each name owns one flat array that only ever grows (geometrically);
    :meth:`take` returns a reshaped view over its prefix.  Views are
    only valid until the next ``take`` of the same name, which is fine:
    every kernel fully consumes its scratch within the call.  Keeping
    the buffers flat makes them shape-agnostic, so matrix widening and
    row growth never invalidate the arena.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        n = 1
        for dim in shape:
            n *= int(dim)
        buf = self._buffers.get(name)
        if buf is None or buf.size < n or buf.dtype != np.dtype(dtype):
            capacity = max(64, n)
            if buf is not None and buf.dtype == np.dtype(dtype):
                capacity = max(capacity, 2 * buf.size)
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
        return buf[:n].reshape(shape)


class NaiveEngine:
    """The reference engine: Algorithm 1's scans as plain Python loops.

    Selection/tie-breaking semantics (the contract the vectorized engine
    must reproduce):

    - iteration is always over ``cache._images`` in dict order, which is
      image *insertion* order (merges mutate in place and never reorder);
    - the hit scan keeps the **first** best image under the configured
      ``hit_selection`` (strict comparisons, so ties go to the earliest
      inserted image);
    - the candidate scan returns images in iteration order with their
      exact Jaccard distances (the cache sorts or shuffles afterwards);
    - the eviction search is ``min()``/``max()`` over the non-pinned
      images, which also keeps the earliest on ties.
    """

    name = "naive"

    def bind(self, cache: "LandlordCache") -> None:
        """Attach to the owning cache (called once, from its ctor)."""
        self._cache = cache
        self.compaction_stats = {"compactions": 0, "rows_reclaimed": 0}

    # -- maintenance hooks (derived state: none) ---------------------------

    def on_add(self, image: "CachedImage") -> None:
        """A new image entered the cache (insert / adopt / restore)."""

    def on_remove(self, image: "CachedImage") -> None:
        """An image left the cache (eviction, clear, split source)."""

    def on_touch(self, image: "CachedImage") -> None:
        """The image's ``last_used`` clock was refreshed."""

    def on_update(self, image: "CachedImage") -> None:
        """The image's mask/size/count changed (a merge rewrite)."""

    # -- kernels -----------------------------------------------------------

    def find_hit(
        self, mask: int, indices: np.ndarray
    ) -> Optional["CachedImage"]:
        """The image that serves a hit for ``mask``, or ``None``.

        ``indices`` is the request's sorted package-index array (the
        second element of the cache's ``_intern`` triple); the loop
        needs only the mask and ignores it.
        """
        cache = self._cache
        selection = cache.hit_selection
        best: Optional["CachedImage"] = None
        for img in cache._images.values():
            if mask & img.mask == mask:
                if selection == "first":
                    return img
                if best is None:
                    best = img
                elif selection == "smallest" and img.size < best.size:
                    best = img
                elif selection == "mru" and img.last_used > best.last_used:
                    best = img
        return best

    def scan_candidates(
        self, mask: int, n_request: int, alpha: float
    ) -> Tuple[List[Tuple[float, "CachedImage"]], int]:
        """All images with exact Jaccard distance < ``alpha``.

        Returns ``(candidates, examined)`` where ``candidates`` are
        ``(distance, image)`` pairs in cache (insertion) order and
        ``examined`` is the number of images scanned (the
        ``candidates_examined`` delta).
        """
        images = self._cache._images
        out: List[Tuple[float, "CachedImage"]] = []
        for img in images.values():
            inter = (mask & img.mask).bit_count()
            union = n_request + img.package_count - inter
            distance = 1.0 - (inter / union) if union else 0.0
            if distance < alpha:
                out.append((distance, img))
        return out, len(images)

    def eviction_victim(self, pinned_id: str) -> Optional["CachedImage"]:
        """The next eviction victim under the configured policy."""
        cache = self._cache
        candidates = (
            img for img in cache._images.values() if img.id != pinned_id
        )
        if cache.eviction == "lru":
            return min(candidates, key=lambda im: im.last_used, default=None)
        if cache.eviction == "fifo":
            return min(candidates, key=lambda im: im.created_at, default=None)
        return max(candidates, key=lambda im: im.size, default=None)  # "size"


class VectorizedEngine(NaiveEngine):
    """Batched NumPy kernels with bit-identical naive-engine semantics.

    State layout (rows are allocated on demand and double, freed rows
    are recycled, columns grow in steps of at least an eighth):

    - ``_matrix[row, word]`` — the image's package set as ``uint64`` words
      (little-endian bit order, matching the cache's big-int masks);
    - ``_size`` / ``_last_used`` / ``_created`` / ``_count`` — parallel
      ``int64`` arrays mirroring the ``CachedImage`` fields;
    - ``_order`` — a monotonically increasing sequence number assigned
      when the image enters ``cache._images``; because images are only
      ever appended to that dict, ascending ``_order`` *is* dict
      iteration order, which is what every naive tie-break reduces to;
    - ``_heap`` — a lazy-deletion heap of ``(key, order, image_id)``
      entries for the bound eviction policy (``last_used`` for LRU,
      ``created_at`` for FIFO, ``-size`` for size-based).  Key changes
      push a fresh entry; stale entries are detected at pop time by
      comparing against the live arrays.  ``order`` is unique, so heap
      order is total and equals the naive scan's first-minimum rule.

    The eviction policy is fixed at bind time (the cache validates and
    never mutates it); ``alpha`` and ``hit_selection`` are read per call
    because :class:`~repro.core.adaptive.AlphaController` retunes α on a
    live cache.

    **Hit scan** (:meth:`_scan_hit`): the request's package held by the
    fewest live images decides.  Its one input from outside the engine
    is ``cache._refcounts[p]``, the number of live images holding
    package ``p``: the cache updates it before the matching engine
    hook on every insert, merge, drop, restore, split and adopt
    (its unique-byte gauge needs it); the engine reads it and never
    writes it.

    **Small caches**: at or below ``_SMALL_CACHE`` live images the hit
    scan and the merge scan run the inherited
    :class:`NaiveEngine` loops — a dozen big-int tests cost less than
    the matrix kernels' fixed numpy dispatch.  Every maintenance hook
    still runs, so matrix, arrays and heap are current whenever the
    cache grows past the threshold; the switch reads ``_n_live`` and
    nothing else.

    **Count window**: the full merge scan first narrows to the rows
    whose package count admits a match — d(s, j) < α forces
    ``t·n_s ≤ n_j ≤ n_s/t`` with ``t = 1 − α``, an exact bound since
    ``|s∩j|/|s∪j| ≤ min(n_s,n_j)/max(n_s,n_j)`` — and gathers +
    popcounts only those rows when the window is selective (fewer than
    half the allocated rows); otherwise it popcounts the whole matrix in
    place.  Every skipped row is excluded by the exact bound, so
    decisions stay bit-identical to the naive loops (DESIGN.md,
    "Decision-engine internals").
    """

    name = "vectorized"

    _INITIAL_ROWS = 64
    # Compact the heap when it holds > _HEAP_SLACK× more entries than
    # live images (and is big enough for the rebuild to matter).
    _HEAP_MIN = 64
    _HEAP_SLACK = 4
    # Compact the matrix when more than this fraction of allocated rows
    # is dead (and the matrix is big enough for the copy to pay off).
    _COMPACT_MIN_TOP = 128
    _COMPACT_DEAD_FRACTION = 0.5
    # At or below this many live images the scans run the inherited
    # reference loops.  From the crossover table in DESIGN.md
    # ("Small-cache rule"): at 32 the loops are >= 3x faster where
    # images resemble the request and at most ~11 us slower where the
    # count window would have excluded every row.
    _SMALL_CACHE = 32

    def bind(self, cache: "LandlordCache") -> None:
        """Attach to the owning cache and allocate the empty matrix."""
        self._cache = cache
        self._policy = cache.eviction
        # Observable merge-scan accounting (plain counters, reset never):
        # windowed = scans served from the count-window gather;
        # full = scans that fell back to the full bit-matrix pass;
        # rows_scanned = physical rows popcounted by merge scans.
        self.prefilter_stats = {"windowed": 0, "full": 0, "rows_scanned": 0}
        self.compaction_stats = {"compactions": 0, "rows_reclaimed": 0}
        rows = self._INITIAL_ROWS
        self._rows = rows
        self._words = 1
        self._matrix = np.zeros((rows, 1), dtype=_WORD)
        # Kernel temporaries live in a named-buffer arena: the kernels
        # run every request, so AND/popcount scratch is written into
        # reused flat buffers instead of allocated fresh per call (a
        # measurable win at thousands of rows).
        self._arena = _Arena()
        self._size = np.zeros(rows, dtype=np.int64)
        self._last_used = np.zeros(rows, dtype=np.int64)
        self._created = np.zeros(rows, dtype=np.int64)
        self._count = np.zeros(rows, dtype=np.int64)
        self._order = np.zeros(rows, dtype=np.int64)
        self._live = np.zeros(rows, dtype=bool)
        self._image_of_row: List[Optional["CachedImage"]] = [None] * rows
        self._row_of: dict = {}
        self._free: List[int] = []
        self._top = 0  # high-water mark of ever-allocated rows
        self._order_seq = 0
        self._n_live = 0
        self._heap: List[Tuple[int, int, str]] = []

    # -- layout ------------------------------------------------------------

    @staticmethod
    def _words_for(mask: int) -> int:
        return max(1, (mask.bit_length() + 63) >> 6)

    def _widen(self, words: int) -> None:
        """Grow the matrix to at least ``words`` columns, in steps.

        A step is at least an eighth of the current width, rounded up to
        a multiple of 8 words (one cache line): amortised like doubling,
        but the matrix settles within 12.5 % of the universe instead of
        up to 2x wide, and every scan reads what the universe needs.
        """
        if words <= self._words:
            return
        new_words = max(words, self._words + (self._words >> 3))
        new_words = (new_words + 7) & ~7
        grown = np.zeros((self._rows, new_words), dtype=_WORD)
        grown[:, : self._words] = self._matrix
        self._matrix = grown
        self._words = new_words

    def _grow_rows(self) -> None:
        old = self._rows
        new = old * 2
        grown = np.zeros((new, self._words), dtype=_WORD)
        grown[:old] = self._matrix
        self._matrix = grown
        for attr in ("_size", "_last_used", "_created", "_count", "_order"):
            arr = getattr(self, attr)
            wide = np.zeros(new, dtype=np.int64)
            wide[:old] = arr
            setattr(self, attr, wide)
        live = np.zeros(new, dtype=bool)
        live[:old] = self._live
        self._live = live
        self._image_of_row.extend([None] * old)
        self._rows = new

    def _alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        if self._top >= self._rows:
            self._grow_rows()
        row = self._top
        self._top += 1
        return row

    def _mask_words(self, mask: int) -> np.ndarray:
        """Full-matrix-width word vector of an *image* mask (widening)."""
        self._widen(self._words_for(mask))
        raw = mask.to_bytes(self._words * 8, "little")
        return np.frombuffer(raw, dtype=_WORD)

    def _query_words(self, mask: int) -> np.ndarray:
        """A *request* mask as matrix-width words, for intersections.

        Bits beyond the matrix width belong to packages no cached image
        contains: they contribute zero to every intersection, so
        truncating them is exact.  (They also make a hit impossible,
        which :meth:`_scan_hit` reads off the refcounts.)
        """
        width_bits = self._words << 6
        if mask >> width_bits:
            mask &= (1 << width_bits) - 1
        raw = mask.to_bytes(self._words * 8, "little")
        return np.frombuffer(raw, dtype=_WORD)

    # -- maintenance hooks -------------------------------------------------

    def on_add(self, image: "CachedImage") -> None:
        """Mirror a new image into the matrix and parallel arrays."""
        row = self._alloc_row()
        self._matrix[row] = self._mask_words(image.mask)
        self._size[row] = image.size
        self._last_used[row] = image.last_used
        self._created[row] = image.created_at
        self._count[row] = image.package_count
        self._order[row] = self._order_seq
        self._order_seq += 1
        self._live[row] = True
        self._image_of_row[row] = image
        self._row_of[image.id] = row
        self._n_live += 1
        self._push(row, image.id)

    def on_remove(self, image: "CachedImage") -> None:
        """Free the image's row (heap entries die lazily)."""
        row = self._row_of.pop(image.id)
        self._live[row] = False
        self._image_of_row[row] = None
        self._free.append(row)
        self._n_live -= 1
        if self._should_compact():
            self.compact()

    def on_touch(self, image: "CachedImage") -> None:
        """Refresh ``last_used``; LRU gets a fresh heap entry."""
        row = self._row_of[image.id]
        self._last_used[row] = image.last_used
        if self._policy == "lru":
            self._push(row, image.id)

    def on_update(self, image: "CachedImage") -> None:
        """Re-mirror a merged image (mask, size, count, last_used)."""
        row = self._row_of[image.id]
        self._matrix[row] = self._mask_words(image.mask)
        self._size[row] = image.size
        self._count[row] = image.package_count
        self._last_used[row] = image.last_used
        if self._policy != "fifo":  # created_at never changes
            self._push(row, image.id)

    # -- live-row compaction -------------------------------------------------

    def _should_compact(self) -> bool:
        top = self._top
        return (
            top >= self._COMPACT_MIN_TOP
            and (top - self._n_live) > top * self._COMPACT_DEAD_FRACTION
        )

    def compact(self) -> int:
        """Pack live rows into a contiguous prefix; return rows reclaimed.

        Merges and evictions free rows onto ``_free``, but freed rows
        stay inside ``[:top]`` and every popcount kernel still walks
        them as garbage.  Compaction gathers the live rows (in ascending
        physical order — a stable pack) to the front of the matrix and
        every parallel array, remaps ``_row_of``/``_image_of_row``, and
        drops ``_top`` to ``n_live``, so subsequent scans touch live
        rows only.

        Exactness: no selection rule ever consults a physical row index
        — hits, merges, and evictions all tie-break on the ``_order``
        sequence numbers, which move with their rows — and lazy-deletion
        heap entries are keyed by ``image_id`` and revalidated through
        ``_row_of`` at pop time, so relocation cannot resurrect or lose
        an entry.
        """
        top = self._top
        n_dead = top - self._n_live
        if n_dead <= 0:
            return 0
        live_rows = np.flatnonzero(self._live[:top])
        n = int(live_rows.size)
        self._matrix[:n] = self._matrix[live_rows]
        for attr in ("_size", "_last_used", "_created", "_count", "_order"):
            arr = getattr(self, attr)
            arr[:n] = arr[live_rows]
        self._live[:top] = False
        self._live[:n] = True
        image_of = self._image_of_row
        packed: List[Optional["CachedImage"]] = [None] * self._rows
        row_of = self._row_of
        for new_row, old_row in enumerate(live_rows.tolist()):
            image = image_of[old_row]
            packed[new_row] = image
            row_of[image.id] = new_row
        self._image_of_row = packed
        self._free = []
        self._top = n
        self.compaction_stats["compactions"] += 1
        self.compaction_stats["rows_reclaimed"] += n_dead
        return n_dead

    # -- kernels -----------------------------------------------------------

    def find_hit(
        self, mask: int, indices: np.ndarray
    ) -> Optional["CachedImage"]:
        """Rarest-package superset scan + the naive scan's selection rule."""
        if self._n_live <= self._SMALL_CACHE:
            return super().find_hit(mask, indices)
        return self._scan_hit(mask, indices)

    def _scan_hit(
        self, mask: int, indices: np.ndarray
    ) -> Optional["CachedImage"]:
        """The hit for ``mask`` from the refcounts and one bit column.

        A superset of the request holds every package of it, in
        particular the one the fewest live images hold.  That count is
        ``cache._refcounts[p]``, which the cache keeps exact for its
        byte accounting (see the class docstring): zero for any package
        of the request — or a package index past the array, one no image
        has held yet — means no superset exists, and the matrix is not
        read at all.  Otherwise the rows with the rarest package's bit
        set (one column pass over ``top`` words) are the only possible
        supersets; each is checked with the reference test on the
        image's own mask.  Freed rows keep their bits until the row is
        reused, so a set bit proves nothing about liveness: rows without
        an image are dropped first.  Among the supersets
        :meth:`_select_hit` applies the selection rule.
        """
        if indices.size == 0:
            # Empty request: every live image is a superset.
            return self._select_hit(np.flatnonzero(self._live[: self._top]))
        refcounts = self._cache._refcounts
        if indices[-1] >= refcounts.size:
            return None
        held = refcounts[indices]
        rarest = int(held.argmin())
        if held[rarest] == 0:
            return None
        # Some live image holds the package, so the matrix is wide
        # enough for its word.
        package = int(indices[rarest])
        column = self._matrix[: self._top, package >> 6]
        rows = np.flatnonzero(column & _WORD.type(1 << (package & 63)))
        image_of = self._image_of_row
        supersets = []
        for row in rows.tolist():
            image = image_of[row]
            if image is not None and mask & image.mask == mask:
                supersets.append(row)
        if not supersets:
            return None
        if len(supersets) == 1:
            return image_of[supersets[0]]
        return self._select_hit(np.array(supersets))

    def _select_hit(self, rows: np.ndarray) -> Optional["CachedImage"]:
        """The winner among superset rows under the cache's selection rule.

        Reduces to a lexicographic extremum with ``_order`` as the
        tiebreaker, matching the naive scan's strict-comparison
        first-winner semantics exactly.
        """
        selection = self._cache.hit_selection
        if selection == "first":
            row = rows[np.argmin(self._order[rows])]
        elif selection == "smallest":
            row = rows[np.lexsort((self._order[rows], self._size[rows]))[0]]
        else:  # "mru": max last_used, earliest order on ties
            row = rows[
                np.lexsort((self._order[rows], -self._last_used[rows]))[0]
            ]
        return self._image_of_row[int(row)]

    def _window_rows(
        self, n_request: int, alpha: float
    ) -> Optional[np.ndarray]:
        """Live rows whose package count admits distance < ``alpha``.

        Exact bound, not an approximation: with ``t = 1 − α`` and set
        sizes ``n_s`` (request) and ``n_j`` (image),
        ``sim(s, j) ≤ min(n_s, n_j) / max(n_s, n_j)``, so ``d < α``
        forces ``t·n_s ≤ n_j ≤ n_s / t``.  The bounds are widened by an
        epsilon dwarfing the ≤2-ulp rounding error of the two float ops
        (counts stay below 2^31, so 1 ulp < 1e-6 absolute), which can
        only *admit* extra rows — those fall to the exact distance test.
        ``None`` means the window is vacuous (``α ≥ 1`` admits every
        count).
        """
        t = 1.0 - alpha
        if t <= 0.0:
            return None
        top = self._top
        counts = self._count[:top]
        lo = t * n_request - 1e-6
        hi = n_request / t + 1e-6
        ok = self._live[:top] & (counts >= lo) & (counts <= hi)
        return np.flatnonzero(ok)

    def scan_candidates(
        self, mask: int, n_request: int, alpha: float
    ) -> Tuple[List[Tuple[float, "CachedImage"]], int]:
        """Batched popcount intersection → all exact Jaccard distances.

        ``|s ∩ j|`` is one ``bitwise_count`` over the masked matrix and a
        row sum; distances come out of the same IEEE-754 expression the
        naive loop evaluates (int64 division and subtraction are
        correctly rounded in both), so the floats are bit-identical.
        Candidates are returned in ascending ``_order`` (= dict order).

        The scan first narrows to the exact count window
        (:meth:`_window_rows`) and gathers only those rows when the
        window is selective; the reported ``examined`` stays the
        *logical* pool size (``n_live``), because every window-excluded
        row was examined — by an exact bound on its count — and the
        statistic must not depend on physical strategy.
        """
        if self._n_live == 0:
            return [], 0
        if self._n_live <= self._SMALL_CACHE:
            self.prefilter_stats["full"] += 1
            self.prefilter_stats["rows_scanned"] += self._n_live
            return super().scan_candidates(mask, n_request, alpha)
        top = self._top
        examined = self._n_live
        rows = self._window_rows(n_request, alpha)
        if rows is not None and (rows.size << 1) < top:
            self.prefilter_stats["windowed"] += 1
            self.prefilter_stats["rows_scanned"] += int(rows.size)
            if rows.size == 0:
                return [], examined
            if rows.size > 1:
                rows = rows[np.argsort(self._order[rows])]
            return self._scan_rows(rows, n_request, alpha, mask), examined
        self.prefilter_stats["full"] += 1
        self.prefilter_stats["rows_scanned"] += top
        all_rows = np.arange(top, dtype=np.int64)
        dist = self._distances(None, all_rows, n_request, mask)
        ok = self._live[:top] & (dist < alpha)
        rows = np.flatnonzero(ok)
        if rows.size > 1:
            rows = rows[np.argsort(self._order[rows])]
        image_of = self._image_of_row
        out = [(float(dist[int(r)]), image_of[int(r)]) for r in rows]
        return out, examined

    def _scan_rows(
        self, rows: np.ndarray, n_request: int, alpha: float, mask: int
    ) -> List[Tuple[float, "CachedImage"]]:
        """Gather ``rows`` and keep those within ``alpha``, in given order."""
        dist = self._distances(self._matrix[rows], rows, n_request, mask)
        image_of = self._image_of_row
        return [
            (float(dist[i]), image_of[int(rows[i])])
            for i in np.flatnonzero(dist < alpha)
        ]

    def _distances(
        self,
        sub: Optional[np.ndarray],
        rows: np.ndarray,
        n_request: int,
        mask: int,
    ) -> np.ndarray:
        """Exact Jaccard distances of ``rows`` (garbage on dead rows).

        ``sub=None`` means "the first ``len(rows)`` matrix rows" and runs
        through arena scratch buffers (the full-scan fast path); an
        explicit ``sub`` (a gathered count window) allocates
        normally.
        """
        q = self._query_words(mask)
        if sub is None:
            top = len(rows)
            shape = (top, self._words)
            anded = np.bitwise_and(
                self._matrix[:top], q, out=self._arena.take("and", shape, _WORD)
            )
            pops = np.bitwise_count(
                anded, out=self._arena.take("pop", shape, np.uint8)
            )
        else:
            pops = np.bitwise_count(sub & q)
        # A row sum is at most 64 * words, far inside uint32, whose
        # accumulation loop costs half the int64 one; the int64 counts
        # promote the arithmetic below back to int64 with the same value.
        inter = pops.sum(axis=1, dtype=np.uint32)
        union = n_request + self._count[rows] - inter
        # Dead rows carry stale counts, so union may be <= 0 there; the
        # caller filters them via _live.  union == 0 on a live row means
        # empty-vs-empty, defined as distance 0.0 (as in the naive loop).
        # The max(union, 1) denominator avoids a divide warning without
        # an errstate context (measurably slow per call); rows where it
        # kicked in are overwritten by the where().
        return np.where(
            union > 0, 1.0 - inter / np.maximum(union, 1), 0.0
        )

    # -- eviction heap -----------------------------------------------------

    def _key_of_row(self, row: int) -> int:
        if self._policy == "lru":
            return int(self._last_used[row])
        if self._policy == "fifo":
            return int(self._created[row])
        return -int(self._size[row])  # "size": largest first

    def _push(self, row: int, image_id: str) -> None:
        heapq.heappush(
            self._heap, (self._key_of_row(row), int(self._order[row]), image_id)
        )
        if (
            len(self._heap) > self._HEAP_MIN
            and len(self._heap) > self._HEAP_SLACK * max(self._n_live, 1)
        ):
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._heap = [
            (self._key_of_row(row), int(self._order[row]), image_id)
            for image_id, row in self._row_of.items()
        ]
        heapq.heapify(self._heap)

    def eviction_victim(self, pinned_id: str) -> Optional["CachedImage"]:
        """Pop to the freshest minimal entry, skipping the pinned image.

        An entry is *stale* when its image is gone or its key no longer
        matches the live arrays (every key change pushed a newer entry,
        so the current key is always present).  A valid entry for the
        pinned image is set aside and pushed back afterwards — it stays
        the would-be victim for a later, unpinned eviction.
        """
        heap = self._heap
        stash = None
        victim = None
        while heap:
            key, order, image_id = heap[0]
            row = self._row_of.get(image_id)
            if (
                row is None
                or self._order[row] != order
                or self._key_of_row(row) != key
            ):
                heapq.heappop(heap)  # stale
                continue
            if image_id == pinned_id:
                stash = heapq.heappop(heap)
                continue
            victim = self._image_of_row[row]
            break
        if stash is not None:
            heapq.heappush(heap, stash)
        return victim


def make_engine(name: str):
    """Instantiate a decision engine by knob value (unbound)."""
    if name == "naive":
        return NaiveEngine()
    if name == "vectorized":
        return VectorizedEngine()
    raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
