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

:class:`VectorizedEngine` answers the first two from incrementally
maintained NumPy state instead, and the third as the reference does:

- all cached-image package sets live in one padded ``uint64`` bit matrix
  stored word-major (one line per 64-package word, one column per
  image, as wide as the cache's fixed package numbering),
  alongside the two per-row arrays its scans read: package count and a
  dict-insertion sequence number;
- the hit scan asks the request's *rarest* package: a superset of the
  request holds every package of it, so the cache's per-package
  live-image counts either rule a hit out without reading the matrix (a
  package nobody holds) or name one word line whose few images with
  that bit set are the only possible supersets;
- the merge scan is one batched popcount intersection
  (:func:`numpy.bitwise_count`) over only the words the request has
  bits in, yielding every exact Jaccard distance in one shot — no
  approximation on the fast path;
- the eviction search is the inherited ``min()`` at every size: it reads
  the ``CachedImage`` fields the policy names, which the cache already
  owns.  The caches that evict hold about a hundred live images at most,
  where an O(n) pick per victim costs no more per run than an index
  kept current on every touch (DESIGN.md, "Eviction").

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
of truth (its ``_images`` dict and the ``CachedImage`` objects, the one
owner of every image's size and clocks; the vectorized hit scan also
reads the cache's ``_refcounts`` array, which the cache starts when the
engine first mirrors and keeps exact from then on, so it is current
whenever a scan can run), and notifies its engine through four hooks —
:meth:`~NaiveEngine.on_add`, :meth:`~NaiveEngine.on_remove`,
:meth:`~NaiveEngine.on_update` (its contents changed, i.e. a merge
rewrite) and :meth:`~NaiveEngine.on_restore`.  A refreshed
``last_used`` needs no hook: no engine keeps a copy of it.  Restoring a
snapshot hands the engine every image at once, which is how a recovered
cache rebuilds its matrix — the vectorized engine builds it in one pass
when the images are past its small-cache threshold (as it does on the
add that takes a running cache past it), and holds none below it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cache import CachedImage, LandlordCache

__all__ = ["ENGINES", "NaiveEngine", "VectorizedEngine", "make_engine"]

#: Valid values for the cache's ``engine=`` knob.
ENGINES = ("naive", "vectorized")

# Per eviction policy: which extremum of which CachedImage field goes next.
_EVICTION_RULE = {
    "lru": (min, attrgetter("last_used")),
    "fifo": (min, attrgetter("created_at")),
    "size": (max, attrgetter("size")),
}

# Little-endian uint64: to_bytes(..., "little") then frombuffer must give
# the same words on any host, so the byte order is pinned explicitly.
_WORD = np.dtype("<u8")


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
        """A new image entered the cache (insert / adopt)."""

    def on_restore(self, images: List["CachedImage"]) -> None:
        """``images`` entered an empty cache together (a restore)."""

    def on_remove(self, image: "CachedImage") -> None:
        """An image left the cache (eviction, clear, split source)."""

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
        """The next eviction victim under the configured policy: the
        first extremum, in dict order, among the images but the pinned
        one (``None`` when it is the only one left).

        One C-level ``min``/``max`` over every image; only when the
        pinned image is that extremum (for LRU it is the freshest image,
        so rarely) are the others scanned again without it.
        """
        cache = self._cache
        images = cache._images.values()
        pick, key = _EVICTION_RULE[cache.eviction]
        victim = pick(images, key=key, default=None)
        if victim is None or victim.id != pinned_id:
            return victim
        return pick(
            (img for img in images if img.id != pinned_id),
            key=key, default=None,
        )


class VectorizedEngine(NaiveEngine):
    """Batched NumPy kernels with bit-identical naive-engine semantics.

    State layout (rows are allocated on demand and double, freed rows
    are recycled; the words cover the cache's whole numbering, which
    never grows):

    - ``_matrix[word, row]`` — word-major: row ``r``'s package set is
      column ``r``, as ``uint64`` words (little-endian bit order,
      matching the cache's big-int masks), so one word of every row is
      one contiguous line;
    - ``_count`` — each row's package count, the one image scalar the
      count window reads as a vector;
    - ``_order`` — a monotonically increasing sequence number assigned
      when the image enters ``cache._images``; because images are only
      ever appended to that dict, ascending ``_order`` *is* dict
      iteration order, which is what every naive tie-break reduces to;
    - ``_live`` and the row↔image maps (``_image_of_row``, ``_row_of``).

    Nothing else is copied: an image's size and clocks are read off its
    ``CachedImage`` where a rule needs them (the hit selection among a
    few supersets), so a touch needs no hook, and eviction is the
    inherited ``min()`` over ``cache._images`` at every size.  ``alpha``
    and ``hit_selection`` are read per call because
    :class:`~repro.core.adaptive.AlphaController` retunes α on a live
    cache.

    **Hit scan** (:meth:`_scan_hit`): the request's package held by the
    fewest live images decides.  Its one input from outside the engine
    is ``cache._refcounts[p]``, the number of live images holding
    package ``p``.  The cache builds it when :meth:`_mirror` asks it to
    (``cache.count_packages``, a no-op if a per-request reader of the
    unique-byte gauge started the counts earlier) and from then on
    updates it before the matching engine hook on every insert, merge,
    drop, restore, split and adopt; the engine reads it and never
    writes it.  Before the first mirror the array may not exist, and no
    scan reads it.

    **Small caches**: at or below ``_SMALL_CACHE`` live images the hit
    scan and the merge scan run the inherited
    :class:`NaiveEngine` loops — a dozen big-int tests cost less than
    the matrix kernels' fixed numpy dispatch.  No reader of matrix or
    arrays runs there, so until the cache first grows past the
    threshold the engine keeps neither, and the cache keeps no
    refcounts: the hooks count ``_n_live`` (and the scans
    ``prefilter_stats``).  The add that crosses the threshold builds the
    state from ``cache._images`` in dict order, and has the cache count
    its packages (:meth:`_mirror`); from then on every hook keeps both
    current, below the threshold too.  The scan switch reads
    ``_n_live`` and nothing else.

    **Count window**: the full merge scan first narrows to the rows
    whose package count admits a match — d(s, j) < α forces
    ``t·n_s ≤ n_j ≤ n_s/t`` with ``t = 1 − α``, an exact bound since
    ``|s∩j|/|s∪j| ≤ min(n_s,n_j)/max(n_s,n_j)`` — and gathers +
    popcounts only those rows when the window is selective (fewer than
    half the allocated rows); otherwise it scans every allocated row.
    Either way it reads only the request's nonzero words: a word the
    request has no bit in adds nothing to any intersection.  Every
    skipped row is excluded by the exact bound, so
    decisions stay bit-identical to the naive loops (DESIGN.md,
    "Decision-engine internals").
    """

    name = "vectorized"

    _INITIAL_ROWS = 64
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
        # Observable merge-scan accounting (plain counters, reset never):
        # windowed = scans served from the count-window gather;
        # full = scans that fell back to the full bit-matrix pass;
        # rows_scanned = physical rows popcounted by merge scans.
        self.prefilter_stats = {"windowed": 0, "full": 0, "rows_scanned": 0}
        self.compaction_stats = {"compactions": 0, "rows_reclaimed": 0}
        rows = self._INITIAL_ROWS
        self._rows = rows
        self._words = 0  # set, with the matrix, by the first mirror
        self._matrix = np.zeros((0, rows), dtype=_WORD)  # [word, row]
        self._count = np.zeros(rows, dtype=np.int64)
        self._order = np.zeros(rows, dtype=np.int64)
        self._live = np.zeros(rows, dtype=bool)
        self._image_of_row: List[Optional["CachedImage"]] = [None] * rows
        self._row_of: dict = {}
        self._free: List[int] = []
        self._top = 0  # high-water mark of ever-allocated rows
        self._order_seq = 0
        self._n_live = 0
        self._mirrored = False  # set by the add that crosses _SMALL_CACHE

    # -- layout ------------------------------------------------------------

    def _grow_rows(self) -> None:
        old = self._rows
        new = old * 2
        grown = np.zeros((self._words, new), dtype=_WORD)
        grown[:, :old] = self._matrix
        self._matrix = grown
        for attr in ("_count", "_order"):
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
        """A mask as matrix-width words."""
        raw = mask.to_bytes(self._words * 8, "little")
        return np.frombuffer(raw, dtype=_WORD)

    # -- maintenance hooks -------------------------------------------------

    def on_add(self, image: "CachedImage") -> None:
        """Count a new image; mirror it once the cache is past the
        small-cache threshold (the add that crosses it builds the state)."""
        self._n_live += 1
        if self._mirrored:
            row = self._add_row(image)
            self._matrix[:, row] = self._mask_words(image.mask)
        elif self._n_live > self._SMALL_CACHE:
            self._mirror()

    def on_restore(self, images: List["CachedImage"]) -> None:
        """Count the restored images; mirror them all in one pass when
        they are past the small-cache threshold."""
        if self._mirrored:  # emptied by clear(), not fresh
            for image in images:
                self.on_add(image)
            return
        self._n_live += len(images)
        if self._n_live > self._SMALL_CACHE:
            self._mirror()

    def _mirror(self) -> None:
        """Build matrix and arrays from ``cache._images``, and have
        the cache start the refcounts :meth:`_scan_hit` reads.

        Rows are filled in dict order, so ``_order`` ranks the images as
        a sequence kept from the first add would have, and tie-breaks
        depend on that ranking only.  The matrix is written in one pass
        (the masks' bytes laid out image-major, transposed into the
        first ``n`` columns) rather than one strided column per image.
        From here on the hooks keep the state current, and the cache its
        refcounts, below the threshold too.
        """
        self._mirrored = True
        cache = self._cache
        images = list(cache._images.values())
        self._words = max(1, (len(cache._universe) + 63) >> 6)
        self._matrix = np.zeros((self._words, self._rows), dtype=_WORD)
        for image in images:
            self._add_row(image)  # an empty engine: rows 0.. in dict order
        width = self._words * 8
        raw = b"".join(image.mask.to_bytes(width, "little") for image in images)
        n = len(images)
        self._matrix[:, :n] = np.frombuffer(raw, dtype=_WORD).reshape(n, -1).T
        cache.count_packages()

    def _add_row(self, image: "CachedImage") -> int:
        """Mirror a new image into the parallel arrays; the caller writes
        its matrix column."""
        row = self._alloc_row()
        self._count[row] = image.package_count
        self._order[row] = self._order_seq
        self._order_seq += 1
        self._live[row] = True
        self._image_of_row[row] = image
        self._row_of[image.id] = row
        return row

    def on_remove(self, image: "CachedImage") -> None:
        """Free the image's row."""
        self._n_live -= 1
        if not self._mirrored:
            return
        row = self._row_of.pop(image.id)
        self._live[row] = False
        self._image_of_row[row] = None
        self._free.append(row)
        if self._should_compact():
            self.compact()

    def on_update(self, image: "CachedImage") -> None:
        """Re-mirror a merged image's mask and package count."""
        if not self._mirrored:
            return
        row = self._row_of[image.id]
        self._matrix[:, row] = self._mask_words(image.mask)
        self._count[row] = image.package_count

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
        — hits and merges tie-break on the ``_order`` sequence numbers,
        which move with their rows, and eviction reads no row at all.
        """
        top = self._top
        n_dead = top - self._n_live
        if n_dead <= 0:
            return 0
        live_rows = np.flatnonzero(self._live[:top])
        n = int(live_rows.size)
        self._matrix[:, :n] = self._matrix[:, live_rows]
        for attr in ("_count", "_order"):
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
        """The hit for ``mask`` from the refcounts and one word line.

        A superset of the request holds every package of it, in
        particular the one the fewest live images hold.  That count is
        ``cache._refcounts[p]``, which the cache keeps exact from the
        first mirror on, so it is current whenever a scan can run (see
        the class docstring): zero for any package
        of the request means no superset exists, and the matrix is not
        read at all.  Otherwise the rows with the rarest package's bit
        set (one pass over ``top`` contiguous words) are the only possible
        supersets; each is checked with the reference test on the
        image's own mask.  Freed rows keep their bits until the row is
        reused, so a set bit proves nothing about liveness: rows without
        an image are dropped first.  Among the supersets
        :meth:`_select_hit` applies the selection rule.
        """
        if indices.size == 0:
            # Empty request: every live image is a superset.
            return self._select_hit(
                np.flatnonzero(self._live[: self._top]).tolist()
            )
        held = self._cache._refcounts[indices]
        rarest = int(held.argmin())
        if held[rarest] == 0:
            return None
        package = int(indices[rarest])
        word = self._matrix[package >> 6, : self._top]
        rows = np.flatnonzero(word & _WORD.type(1 << (package & 63)))
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
        return self._select_hit(supersets)

    def _select_hit(self, rows: List[int]) -> "CachedImage":
        """The winner among superset rows under the cache's selection rule.

        A lexicographic minimum over the few supersets, keyed on the
        image's own ``size`` (or ``-last_used``) with ``_order`` as the
        tiebreaker, matching the naive scan's strict-comparison
        first-winner semantics exactly.
        """
        selection = self._cache.hit_selection
        image_of = self._image_of_row
        order = self._order
        if selection == "first":
            key = order.__getitem__
        elif selection == "smallest":
            def key(row):
                return image_of[row].size, order[row]
        else:  # "mru": max last_used, earliest order on ties
            def key(row):
                return -image_of[row].last_used, order[row]
        return image_of[min(rows, key=key)]

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

        ``|s ∩ j|`` is one ``bitwise_count`` over the request's nonzero
        words (gathered as contiguous lines, ANDed with the request) and
        a sum over them; distances come out of the same IEEE-754
        expression the naive loop evaluates (int64 division and
        subtraction are correctly rounded in both), so the floats are
        bit-identical.
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
        q = self._mask_words(mask)
        words = np.flatnonzero(q)  # only these can intersect any image
        rows = self._window_rows(n_request, alpha)
        if rows is not None and (rows.size << 1) < top:
            self.prefilter_stats["windowed"] += 1
            self.prefilter_stats["rows_scanned"] += int(rows.size)
            if rows.size == 0:
                return [], examined
            dist = self._distances(
                self._matrix[words[:, None], rows], q[words],
                self._count[rows], n_request,
            )
            keep = np.flatnonzero(dist < alpha)
            rows, dist = rows[keep], dist[keep]
        else:
            self.prefilter_stats["full"] += 1
            self.prefilter_stats["rows_scanned"] += top
            dist = self._distances(
                self._matrix[words, :top], q[words], self._count[:top],
                n_request,
            )
            rows = np.flatnonzero(self._live[:top] & (dist < alpha))
            dist = dist[rows]
        if rows.size > 1:
            by_order = np.argsort(self._order[rows])
            rows, dist = rows[by_order], dist[by_order]
        image_of = self._image_of_row
        return [
            (d, image_of[r]) for d, r in zip(dist.tolist(), rows.tolist())
        ], examined

    @staticmethod
    def _distances(
        block: np.ndarray, q: np.ndarray, counts: np.ndarray, n_request: int
    ) -> np.ndarray:
        """Exact Jaccard distances of the image columns in ``block``.

        ``block`` is a fresh gather of the request's nonzero words (one
        row per word in ``q``, one column per image, ``counts`` their
        package counts); it is ANDed in place.  Dead columns give
        garbage, which the caller drops.
        """
        np.bitwise_and(block, q[:, None], out=block)
        # A column sum is at most 64 * len(q): the narrowest unsigned
        # type that holds it accumulates fastest (uint16 at half the
        # uint32 cost, up to 1023 words), and the int64 counts promote
        # the arithmetic below back to int64 with the same value.
        total = np.uint16 if q.size < 1024 else np.uint32
        inter = np.bitwise_count(block).sum(axis=0, dtype=total)
        union = n_request + counts - inter
        # Dead rows carry stale counts, so union may be <= 0 there; the
        # caller filters them via _live.  union == 0 on a live row means
        # empty-vs-empty, defined as distance 0.0 (as in the naive loop).
        # The max(union, 1) denominator avoids a divide warning without
        # an errstate context (measurably slow per call); rows where it
        # kicked in are overwritten by the where().
        return np.where(
            union > 0, 1.0 - inter / np.maximum(union, 1), 0.0
        )


def make_engine(name: str):
    """Instantiate a decision engine by knob value (unbound)."""
    if name == "naive":
        return NaiveEngine()
    if name == "vectorized":
        return VectorizedEngine()
    raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
