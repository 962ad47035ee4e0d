"""LandlordCache — Algorithm 1 of the paper with full byte accounting.

Given a cached image collection ``I`` and a request specification ``s``:

1. if some ``i ∈ I`` has ``s ⊆ i``: **hit**, return ``i``;
2. else for ``j ∈ I`` with ``d_j(s, j) < α`` (sorted by distance): if ``s``
   and ``j`` do not conflict, **merge** — replace ``j`` with ``merge(s, j)``
   and return it (the merged image is rewritten in full, the dominant I/O
   cost in the paper's measurements);
3. else **insert** a new image built exactly from ``s``.

An LRU **eviction** loop keeps total cached bytes within ``capacity``; the
image serving the current request is pinned and never evicted while being
returned (a worker holds it), so a single oversized image may transiently
exceed capacity until the next request.

Performance note (this is the hot loop of every experiment): package sets
are interned into bit indices of the repository's numbering (its
:class:`~repro.packages.repository.PackageIndex`, shared by every
cache on it, restored ones included, and fixed for their lives), and
each cached image carries its set as a Python big-int bitmask — the one
stored copy; index arrays and id sets are views expanded from it on
demand, and the state file and the journal write it as it stands
(:func:`mask_text`).  Subset tests (``s & i == s``) and
Jaccard intersections (``(s & j).bit_count()``) then run at C speed over
~1.2 KB ints instead of hashing thousands of strings per candidate, and
a merge is integer work only (``mask |= request``; no id is handled
unless a conflict policy asks for sets).  On top of that, the
three inner scans of the algorithm (hit scan, merge-candidate scan,
eviction-victim search) are pluggable **decision engines**
(:mod:`repro.core.engine`).  ``engine="naive"`` is the reference: one
Python loop over the images per scan, ~0.3 us per image, which is also
the fastest way to scan the dozen huge images of the paper's operating
zone (alpha 0.8, 1.4 TB).  The default ``engine="vectorized"`` is for
caches that grow: it runs those same loops (and keeps no state of its
own) while at most 32 images are live, and once the cache has grown past
that resolves the hit and merge scans from an incrementally maintained
``uint64`` bit matrix — batched NumPy subset tests and popcount Jaccard
whose ~30 us of dispatch buys scans that barely grow with the row count.
Eviction is the reference loop on both engines, over the size and
clocks each ``CachedImage`` alone holds (no engine copies them, so a
touch notifies no one).  The per-package live-image counts its
rarest-package hit scan reads are derived state too: the cache starts
them (``_refcounts`` and a running unique-byte total,
:meth:`LandlordCache.count_packages`) when the engine first builds its
matrix and keeps them exact from then on.  Before that, and on the
naive engine, no count is kept and unique bytes are an O(images) read
of the union of the image masks, which suits a gauge read per scrape,
lap or checkpoint.  A reader that looks after every request (a
simulation timeline, per-request alert evaluation) starts the counts
itself, so its reads stay O(1).  The two engines
are bit-identical (same decisions, stats, events, snapshots), enforced by
``tests/core/test_engine_differential.py`` and
``test_engine_small_cache.py``; ``BENCH_cache.json``
(``benchmarks/test_cache_kernel.py``) records the speedup at thousands
of images and, in the zone, where both run the same loops, the ratio
of the two.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice, repeat
from time import perf_counter
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.engine import ENGINES, make_engine
from repro.core.events import CacheEvent, EventKind, MergeCandidate
from repro.core.spec import ImageSpec
from repro.packages.conflicts import ConflictPolicy, NoConflicts
from repro.packages.repository import PackageIndex

__all__ = [
    "CachedImage", "CacheStats", "CacheDecision", "LandlordCache", "ENGINES",
]

HIT_SELECTION = ("smallest", "mru", "first")
CANDIDATE_ORDER = ("distance", "insertion", "random")
EVICTION = ("lru", "fifo", "size")


def _packages_of(spec: "ImageSpec | Collection[str]") -> Collection[str]:
    """The package collection a request argument names, as given — never
    copied, so ``_intern``'s ownership rule sees what the caller holds."""
    return spec.packages if isinstance(spec, ImageSpec) else spec


def mask_of_indices(indices: np.ndarray, top: int) -> int:
    """The bitmask with the bits ``indices`` (any order; ``top`` the
    largest) set: vectorised scatter + ``np.packbits``, or a plain loop
    for tiny sets, which beats numpy's fixed call overhead below a few
    dozen elements."""
    if indices.size < 32:
        buf = bytearray(top // 8 + 1)
        for i in indices.tolist():
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bytes(buf), "little")
    bits = np.zeros(top + 1, dtype=np.uint8)
    bits[indices] = 1
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def mask_text(mask: int) -> str:
    """A mask as the state file and the journal write it: base64 of its
    little-endian bytes, up to the byte of its highest set bit (``""``
    for 0).  Two thirds the width of hex, and the same C call each way."""
    return b2a_base64(
        mask.to_bytes((mask.bit_length() + 7) // 8, "little"), newline=False
    ).decode("ascii")


def mask_of_text(text: str) -> int:
    """:func:`mask_text`'s inverse: a :class:`ValueError` for anything
    but a text :func:`mask_text` writes (the base64 alphabet, correctly
    padded, no trailing zero byte)."""
    if not isinstance(text, str):
        raise ValueError(f"mask text is a {type(text).__name__}, not a string")
    try:
        raw = a2b_base64(text)
    except ValueError as exc:  # binascii.Error is one
        raise ValueError(f"invalid mask text {text[:40]!r}: {exc}") from None
    # The decoder skips characters outside the alphabet and anything
    # after the padding; only the text mask_text writes is read.
    if raw[-1:] == b"\0" or b2a_base64(raw, newline=False) != text.encode():
        raise ValueError(f"invalid mask text {text[:40]!r}: not canonical")
    return int.from_bytes(raw, "little")


class _Universe:
    """A cache's package numbering: bit *i* of a mask is ``ids[i]``.

    A view of one :class:`~repro.packages.repository.PackageIndex`,
    fixed for the cache's life: it reads the index's position dict, id
    list and sizes array (shared, read-only, never copied), so every
    name it can intern is numbered before the first request, and a name
    the index lacks is rejected before anything changes.
    """

    def __init__(self, index: PackageIndex):
        self.index = index
        self._sizes = index.sizes

    def __len__(self) -> int:
        return self._sizes.size

    def mask_of(self, packages: Iterable[str]) -> Tuple[int, np.ndarray]:
        """Return (bitmask, sorted index array) for a package collection
        (duplicate ids collapse: a wire list is not a set yet).

        One pass over the collection: every name is looked up in the
        index dictionary at C level, straight into the index array, with
        ``-1`` for a name the index lacks; the first such name (by
        position, not by walking the collection again) is the index's
        ``KeyError``.
        """
        if not isinstance(packages, (set, frozenset, list, tuple)):
            packages = list(packages)  # positions need a sized collection
        arr = np.fromiter(
            map(self.index.position.get, packages, repeat(-1)),
            dtype=np.int64, count=len(packages),
        )
        if not arr.size:
            return 0, arr
        unknown = np.flatnonzero(arr < 0)
        if unknown.size:
            # A set has no positions: it is listed in its iteration
            # order, which is the order the lookups above saw.
            first = int(unknown[0])
            self.index(next(islice(packages, first, None)))  # raises
        arr.sort()
        if not isinstance(packages, (set, frozenset)):
            distinct = arr[1:] != arr[:-1]  # repeats are adjacent now
            if not distinct.all():
                arr = arr[np.concatenate(([True], distinct))]
        return mask_of_indices(arr, int(arr[-1])), arr

    def indices_of_mask(self, mask: int) -> np.ndarray:
        """Expand a bitmask back into its sorted index array."""
        if mask == 0:
            return np.zeros(0, dtype=np.int64)
        raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        # Viewed as bool the 0/1 bytes take nonzero's SIMD path (4x the
        # uint8 one on a 10k-bit mask).
        return bits.view(np.bool_).nonzero()[0].astype(np.int64, copy=False)

    def bytes_of_indices(self, indices: np.ndarray) -> int:
        return int(self._sizes[indices].sum())

    def _pack(self, masks: List[int], n_bytes: int) -> np.ndarray:
        """``masks`` as one bit matrix, a row of ``n_bytes`` bytes each
        (little bit order)."""
        return np.frombuffer(
            b"".join([mask.to_bytes(n_bytes, "little") for mask in masks]),
            dtype=np.uint8,
        ).reshape(len(masks), n_bytes)

    def bytes_of_masks(self, masks: List[int]) -> List[int]:
        """Each mask's total size, all masks at once: the size of every
        value of every nibble position is tabled (16 entries a nibble),
        and each mask sums the entries its nonzero bytes pick — as far as
        the widest mask reaches."""
        n_bytes = (max(map(int.bit_length, masks), default=0) + 7) // 8
        packed = self._pack(masks, n_bytes)
        sizes = np.zeros((n_bytes, 2, 4), dtype=np.int64)
        width = min(n_bytes * 8, len(self))
        sizes.reshape(-1)[:width] = self._sizes[:width]
        table = np.zeros((n_bytes, 2, 16), dtype=np.int64)
        for bit in range(4):
            low = 1 << bit
            table[:, :, low:2 * low] = table[:, :, :low] + sizes[:, :, bit:bit + 1]
        at = np.flatnonzero(packed != 0)  # row-major, so grouped by mask
        rows, columns = np.divmod(at, max(n_bytes, 1))
        values = packed.reshape(-1)[at]
        table = table.reshape(-1)
        picked = table.take(columns * 32 + (values & 15))
        picked += table.take(columns * 32 + 16 + (values >> 4))
        running = np.concatenate(([0], np.cumsum(picked)))
        ends = np.searchsorted(rows, np.arange(len(masks) + 1))
        return (running[ends[1:]] - running[ends[:-1]]).tolist()

    def counts_of_masks(self, masks: List[int]) -> np.ndarray:
        """How many of ``masks`` hold each id: 255 masks' bits unpacked
        at a time, so their sums fit the bytes they are added in."""
        counts = np.zeros((len(self) + 7) // 8 * 8, dtype=np.int32)
        for start in range(0, len(masks), 255):
            bits = np.unpackbits(
                self._pack(masks[start:start + 255], counts.size // 8),
                axis=1, bitorder="little",
            )
            counts += bits.sum(axis=0, dtype=np.uint8)
        return counts[: len(self)]

    def names_of_indices(self, indices: np.ndarray) -> List[str]:
        """Package ids at ``indices``, in index order."""
        return list(map(self.index.ids.__getitem__, indices.tolist()))

    def ids_of_indices(self, indices: np.ndarray) -> FrozenSet[str]:
        return frozenset(self.names_of_indices(indices))

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes


class CachedImage:
    """One container image resident in the cache."""

    __slots__ = (
        "id",
        "mask",
        "package_count",
        "size",
        "created_at",
        "last_used",
        "last_request",
        "merge_count",
        "_universe",
    )

    def __init__(
        self,
        image_id: str,
        mask: int,
        package_count: int,
        size: int,
        created_at: int,
        universe: _Universe,
    ):
        self.id = image_id
        self.mask = mask
        self.package_count = package_count
        self.size = size
        self.created_at = created_at
        self.last_used = created_at
        self.last_request = 0
        self.merge_count = 0
        self._universe = universe

    @property
    def indices(self) -> np.ndarray:
        """Sorted bit indices of the image's packages, expanded from the
        mask (the mask is the one stored copy of the set)."""
        return self._universe.indices_of_mask(self.mask)

    @property
    def packages(self) -> FrozenSet[str]:
        """The image's package set as ids (materialised on demand)."""
        return self._universe.ids_of_indices(self.indices)

    def spec(self) -> ImageSpec:
        """The image contents as an :class:`ImageSpec`."""
        return ImageSpec(self.packages, label=self.id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachedImage({self.id}, {self.package_count} pkgs, "
            f"{self.size} B, merges={self.merge_count})"
        )


@dataclass
class CacheStats:
    """Cumulative counters over a cache's lifetime.

    ``requested_bytes`` is the paper's "Requested Writes" (what jobs asked
    for); ``bytes_written`` is "Actual Writes" (inserts + merge rewrites);
    ``used_bytes`` accumulates the size of the image each request actually
    ran with, giving bytes-weighted container efficiency.

    ``deletes`` is the total eviction count;
    ``evictions_capacity``/``evictions_idle`` break it down by cause
    (capacity pressure vs. ``evict_idle`` aging) and always sum to it for
    histories recorded since the breakdown existed.
    """

    requests: int = 0
    hits: int = 0
    merges: int = 0
    inserts: int = 0
    deletes: int = 0
    splits: int = 0
    adoptions: int = 0  # images imported from elsewhere (federation pulls)
    requested_bytes: int = 0
    bytes_written: int = 0
    used_bytes: int = 0
    conflicts_skipped: int = 0
    candidates_examined: int = 0
    evictions_capacity: int = 0
    evictions_idle: int = 0

    def copy(self) -> "CacheStats":
        """One-shot value copy of the counters."""
        return CacheStats(**self.__dict__)

    @property
    def container_efficiency(self) -> float:
        """Requested bytes / used bytes (1.0 when no request was served)."""
        if self.used_bytes == 0:
            return 1.0
        return self.requested_bytes / self.used_bytes

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def write_amplification(self) -> float:
        """Actual writes / requested writes (the Fig. 4c overhead ratio)."""
        if self.requested_bytes == 0:
            return 0.0
        return self.bytes_written / self.requested_bytes


@dataclass
class CacheDecision:
    """Outcome of one request."""

    action: EventKind
    image: CachedImage
    requested_bytes: int
    distance: Optional[float] = None  # Jaccard distance to merge target
    bytes_added: int = 0  # new content materialised (0 on a hit)
    evicted: List[str] = field(default_factory=list)


class _CacheInstruments:
    """The cache's metric series, built once by
    :meth:`LandlordCache.enable_metrics`.

    Counters and gauges are *read*, not pushed: every
    ``landlord_*_total`` series is bound to its :class:`CacheStats`
    field and the three size gauges to the cache, so they cost the hot
    path nothing and can never disagree with the stats (``counters``
    keeps the counter series for :meth:`LandlordCache.restore` to
    re-base).  What a request pushes is its latency and, on a merge, its
    distance, into pre-bound histogram children.  When no registry is
    attached the cache holds ``None`` instead and each instrumentation
    site is a single ``is not None`` check — the <2% disabled-path
    budget of ``benchmarks/test_obs_overhead.py``.

    Metric names follow the schema in DESIGN.md: ``landlord_*`` for the
    cache, with wall-clock histograms suffixed ``_seconds`` (excluded
    from deterministic snapshots).  Each ``landlord_request_seconds``
    observation carries an exemplar with the request index, so an
    OpenMetrics scrape links a slow bucket straight to
    ``repro-landlord explain <index>`` (the DecisionTracer narrative).
    """

    __slots__ = (
        "registry", "counters", "merge_distance",
        "request_s", "subset_scan_s",
        "candidate_probe_s", "merge_rewrite_s", "eviction_s",
        "wall_offset",
    )

    def __init__(self, registry, cache: "LandlordCache") -> None:
        from repro.obs.clock import default_clock
        from repro.obs.metrics import DEFAULT_TIME_BUCKETS, DISTANCE_BUCKETS

        self.registry = registry
        # Exemplar timestamps: a perf_counter reading plus this offset is
        # the process clock's wall time for it (HybridClock.wall_of).
        self.wall_offset = default_clock().wall_of(0.0)

        def stat(name: str) -> Callable[[], int]:
            return lambda: getattr(cache.stats, name)

        requests = registry.counter(
            "landlord_requests_total",
            "Requests served, by Algorithm 1 outcome.",
            labelnames=("action",),
        )
        evictions = registry.counter(
            "landlord_evictions_total",
            "Images evicted, by cause.",
            labelnames=("reason",),
        )
        self.counters = [
            requests.bind(stat("hits"), action="hit"),
            requests.bind(stat("merges"), action="merge"),
            requests.bind(stat("inserts"), action="insert"),
            evictions.bind(stat("evictions_capacity"), reason="capacity"),
            evictions.bind(stat("evictions_idle"), reason="idle"),
            registry.counter(
                "landlord_requested_bytes_total",
                "Bytes jobs asked for (the paper's Requested Writes).",
            ).bind(stat("requested_bytes")),
            registry.counter(
                "landlord_bytes_written_total",
                "Bytes of build/rewrite I/O (the paper's Actual Writes).",
            ).bind(stat("bytes_written")),
            registry.counter(
                "landlord_conflicts_skipped_total",
                "Within-alpha merge candidates rejected by the conflict "
                "check.",
            ).bind(stat("conflicts_skipped")),
            registry.counter(
                "landlord_candidates_examined_total",
                "Images examined by the merge-candidate scan.",
            ).bind(stat("candidates_examined")),
        ]
        registry.gauge(
            "landlord_cached_bytes",
            "Total bytes of all cached images.",
        ).bind(lambda: cache.cached_bytes)
        registry.gauge(
            "landlord_unique_bytes",
            "Bytes of distinct packages present in the cache.",
        ).bind(lambda: cache.unique_bytes)
        registry.gauge(
            "landlord_images",
            "Number of cached images.",
        ).bind(cache.__len__)
        self.merge_distance = registry.histogram(
            "landlord_merge_distance",
            "Jaccard distance of accepted merges.",
            buckets=DISTANCE_BUCKETS,
        ).labels()

        def timing(name: str, help: str):
            return registry.histogram(
                name, help, buckets=DEFAULT_TIME_BUCKETS
            ).labels()

        # Labelled by engine so the SLO tracker and dashboards can tell
        # the two apart.
        self.request_s = registry.histogram(
            "landlord_request_seconds",
            "Wall-clock seconds to serve one request end to end.",
            buckets=DEFAULT_TIME_BUCKETS,
            labelnames=("engine",),
        ).labels(engine=cache.engine)
        self.subset_scan_s = timing(
            "landlord_subset_scan_seconds",
            "Wall-clock seconds in the superset (hit) scan.")
        self.candidate_probe_s = timing(
            "landlord_candidate_probe_seconds",
            "Wall-clock seconds in the merge-candidate scan.")
        self.merge_rewrite_s = timing(
            "landlord_merge_rewrite_seconds",
            "Wall-clock seconds in the merge rewrite (mask/index update).")
        self.eviction_s = timing(
            "landlord_eviction_seconds",
            "Wall-clock seconds in the capacity-eviction loop (when it ran).")


class LandlordCache:
    """The online container-image cache of Algorithm 1.

    Args:
        capacity: cache capacity in bytes.
        alpha: maximal Jaccard distance for merge candidates, in [0, 1].
        package_size: the site's package numbering and size oracle, a
            :class:`~repro.packages.repository.PackageIndex` (typically
            ``repository.size_of``; :meth:`PackageIndex.of
            <repro.packages.repository.PackageIndex.of>` builds one from
            a name → size mapping).  Anything else is a
            :class:`TypeError`.
        conflict_policy: when merging is legal; defaults to
            :class:`~repro.packages.conflicts.NoConflicts` (the CVMFS case).
        hit_selection: which superset image serves a hit — ``"smallest"``
            (best container efficiency, default), ``"mru"``, or ``"first"``.
        candidate_order: merge-candidate ordering — ``"distance"`` (the
            paper's "selection can be sorted by d_j", default),
            ``"insertion"``, or ``"random"`` (ablations).
        eviction: ``"lru"`` (default), ``"fifo"``, or ``"size"`` (largest
            first).
        record_events: keep a :class:`CacheEvent` log in :attr:`events`.
        rng: source of randomness for ``candidate_order="random"``.
        merge_write_mode: ``"full"`` (the paper's mechanism — a merged
            image is rewritten in its entirety) or ``"delta"`` (a
            hypothetical copy-on-write image format where a merge only
            writes the added content).  The ablation in DESIGN.md §5 uses
            this to separate Figure 4c's policy cost from its mechanism
            cost.
        metrics: optional :class:`repro.obs.MetricsRegistry` to record
            counters, gauges, and hot-path latency histograms into
            (equivalent to calling :meth:`enable_metrics` after
            construction).
        tracer: optional :class:`repro.obs.DecisionTracer` fed every
            :class:`CacheEvent` as it is emitted (equivalent to calling
            :meth:`enable_tracing`).  Tracing never perturbs decisions.
        slo: optional :class:`repro.obs.SloTracker` fed one observation
            per request for rolling-window telemetry (equivalent to
            calling :meth:`enable_slo`).  Like tracing, it only reads —
            decisions are bit-identical with or without it.
        engine: which decision engine resolves the hit scan, the
            merge-candidate scan, and the eviction-victim search —
            ``"vectorized"`` (the default: the reference loops while
            the cache is small, batched NumPy kernels over a bit matrix
            once it is not) or ``"naive"`` (per-image Python loops at
            every size, the reference).  A pure performance knob: the
            engines are bit-identical, so it is *not* part of
            :meth:`policy_snapshot` and snapshots restore across
            engines.
    """

    def __init__(
        self,
        capacity: int,
        alpha: float,
        package_size: PackageIndex,
        conflict_policy: Optional[ConflictPolicy] = None,
        hit_selection: str = "smallest",
        candidate_order: str = "distance",
        eviction: str = "lru",
        record_events: bool = False,
        rng: Optional[np.random.Generator] = None,
        merge_write_mode: str = "full",
        metrics=None,
        tracer=None,
        slo=None,
        engine: str = "vectorized",
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if hit_selection not in HIT_SELECTION:
            raise ValueError(f"hit_selection must be one of {HIT_SELECTION}")
        if candidate_order not in CANDIDATE_ORDER:
            raise ValueError(f"candidate_order must be one of {CANDIDATE_ORDER}")
        if eviction not in EVICTION:
            raise ValueError(f"eviction must be one of {EVICTION}")
        if merge_write_mode not in ("full", "delta"):
            raise ValueError(
                f"merge_write_mode must be 'full' or 'delta', "
                f"got {merge_write_mode!r}"
            )
        self.merge_write_mode = merge_write_mode
        self.capacity = capacity
        self.alpha = alpha
        self.conflict_policy = conflict_policy or NoConflicts()
        self.hit_selection = hit_selection
        self.candidate_order = candidate_order
        self.eviction = eviction
        self.record_events = record_events
        self._rng = rng or np.random.default_rng(0)

        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if not isinstance(package_size, PackageIndex):
            raise TypeError(
                "package_size must be a PackageIndex (PackageIndex.of builds "
                f"one from a mapping), got {type(package_size).__name__}"
            )
        self.engine = engine
        self._universe = _Universe(package_size)
        self._images: Dict[str, CachedImage] = {}
        self._clock = 0
        self._next_image = 0
        self._cached_bytes = 0
        # Live images per package index, and in _unique_bytes the sizes
        # of the indices it counts: None until count_packages (called by
        # the vectorized engine's first mirror, or by a per-request
        # reader of the gauge), then kept exact by every mutation
        # (_account_add/_account_remove) before its engine hook, on both
        # sides of the threshold.  _scan_hit reads it; while it is None,
        # unique bytes and live ids are read off the image masks.
        self._refcounts: Optional[np.ndarray] = None
        self._unique_bytes = 0
        self._spec_memo: Dict[FrozenSet[str], Tuple[int, np.ndarray, int]] = {}
        self.stats = CacheStats()
        self.events: List[CacheEvent] = []
        self._ins: Optional[_CacheInstruments] = None
        self._tracer = None
        self._trace_ids: Optional[Dict[int, str]] = None
        self._slo = None
        self._lock = None
        # The engine binds last: it reads the validated policy knobs and
        # mirrors _images (empty here; restore() replays adds into it).
        self._engine = make_engine(engine)
        self._engine.bind(self)
        if metrics is not None:
            self.enable_metrics(metrics)
        if tracer is not None:
            self.enable_tracing(tracer)
        if slo is not None:
            self.enable_slo(slo)

    # -- observability -----------------------------------------------------

    @property
    def metrics(self):
        """The attached metrics registry, or ``None`` when disabled."""
        return self._ins.registry if self._ins is not None else None

    @property
    def tracer(self):
        """The attached decision tracer, or ``None`` when disabled."""
        return self._tracer

    def enable_metrics(self, registry) -> None:
        """Expose counters/gauges/latency histograms in ``registry``.

        Counters and gauges are views of :attr:`stats` and of the
        cache's sizes, read whenever the registry is.  Safe to call on
        a live cache (e.g. after a journal replay, so replayed history
        is not double-counted): the gauges read the cache as it stands,
        the counters continue from the registry's values and advance
        from here on.
        """
        self._ins = _CacheInstruments(registry, self)

    def enable_tracing(self, tracer) -> None:
        """Feed every emitted :class:`CacheEvent` to ``tracer.on_event``."""
        self._tracer = tracer

    def set_exemplar_traces(self, trace_ids) -> None:
        """Map request indices to distributed trace ids for the next
        window.

        The service daemon calls this before :meth:`submit_batch` with
        ``{request_index: trace_id}`` and clears it (``None``)
        afterwards.  A request whose index is mapped gets the id on its
        decision event (so the ``--trace`` sidecar links to the
        waterfall) and on its ``landlord_request_seconds`` exemplar.
        """
        self._trace_ids = trace_ids

    @property
    def slo(self):
        """The attached SLO tracker, or ``None`` when disabled."""
        return self._slo

    def enable_slo(self, tracker) -> None:
        """Feed rolling-window telemetry into ``tracker``.

        One :meth:`repro.obs.SloTracker.sample` of :attr:`stats` per
        request, behind the same ``is not None`` guard as the other
        instruments; the window starts at the stats as they stand, and
        the tracker is configured with this cache's capacity and α so
        windowed occupancy is meaningful.  Cache efficiency is bound as
        a reader of :attr:`cache_efficiency`, so the unique bytes behind
        it are computed per read of the window, not per request.
        """
        tracker.configure(
            self.capacity, self.alpha,
            cache_efficiency=lambda: self.cache_efficiency,
        )
        tracker.start(self.stats)
        self._slo = tracker

    @property
    def lock(self):
        """The attached mutation lock, or ``None`` when disabled."""
        return self._lock

    def enable_lock(self, lock) -> None:
        """Serialise mutating entry points under ``lock``.

        ``lock`` must be *re-entrant* (a :class:`threading.RLock`):
        :meth:`submit_batch` holds it across a call while
        :meth:`request` re-acquires per request.  Attach the same lock
        to an :class:`~repro.obs.ObsServer` (its ``lock=`` parameter)
        and scrapes render a consistent view of the registry, SLO
        window, and cache gauges — no ``/statusz`` mid-mutation tears.
        Guard-gated like every other instrument: when no lock is
        attached each entry point pays one ``is not None`` check, so
        the disabled-path overhead bound in ``BENCH_obs.json`` holds.
        """
        self._lock = lock

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._images)

    @property
    def images(self) -> List[CachedImage]:
        """Snapshot of cached images (unspecified order)."""
        return list(self._images.values())

    @property
    def cached_bytes(self) -> int:
        """Total bytes of all cached images (with cross-image duplication)."""
        return self._cached_bytes

    @property
    def unique_bytes(self) -> int:
        """Bytes of distinct packages present in at least one cached image.

        The running total once the refcounts exist; before that (and
        always on the naive engine) the sizes under the union of the
        image masks, O(images) per read.
        """
        if self._refcounts is not None:
            return self._unique_bytes
        return self._universe.bytes_of_indices(self._live_ids())

    @property
    def cache_efficiency(self) -> float:
        """Unique bytes / total bytes (the paper's cache-efficiency metric)."""
        if self._cached_bytes == 0:
            return 1.0
        return self.unique_bytes / self._cached_bytes

    def count_packages(self) -> None:
        """Keep per-package live-image counts, and so :attr:`unique_bytes`
        as a running total, from now on (a no-op once they are kept).

        Without them every read of the gauge is a union of the image
        masks.  That suits readers that look per scrape, lap or
        checkpoint; a reader that looks after every request (a
        simulation timeline, per-request alert evaluation) calls this
        first, and the vectorized engine calls it when it first mirrors,
        because its hit scan reads the counts.
        """
        with self._lock or nullcontext():
            if self._refcounts is None:
                self._count_all()

    def _count_all(self) -> None:
        """Count every image's packages afresh, all masks at once."""
        universe = self._universe
        self._refcounts = counts = universe.counts_of_masks(
            [image.mask for image in self._images.values()]
        )
        self._unique_bytes = universe.bytes_of_indices(np.flatnonzero(counts))

    def clear(self) -> None:
        """Drop every cached image without touching the statistics.

        Used by baseline policies (build-per-job) and tests; regular
        operation relies on eviction instead.
        """
        with self._lock or nullcontext():
            for image in list(self._images.values()):
                self._drop_image(image)

    def evict_idle(self, max_idle_requests: int) -> List[str]:
        """Administrative maintenance: drop images unused for a while.

        The paper's bloat argument relies on eventual eviction ("without
        regular use, the bloated image will eventually be evicted from the
        cache"); under capacity pressure LRU provides that, but an
        under-full cache can hold stale images forever.  This sweeps out
        every image that no request has used within the last
        ``max_idle_requests`` requests (``stats.requests`` is the unit:
        federation adoptions and splits advance the internal LRU clock
        but do *not* age images, so the idle window is measured in actual
        job requests as documented).  Returns the evicted ids (counted as
        deletes).

        Each emitted DELETE carries ``stats.requests - 1`` — the 0-based
        index of the last completed request, i.e. the request the images
        idled out *after* (an idle eviction requires at least one
        request, so the index is never negative) and the decision the
        DELETE follows in the event stream.
        """
        if max_idle_requests < 0:
            raise ValueError("max_idle_requests must be non-negative")
        with self._lock or nullcontext():
            horizon = self.stats.requests - max_idle_requests
            request_index = self.stats.requests - 1
            recorded = self.record_events or self._tracer is not None
            evicted = []
            for image in list(self._images.values()):
                if image.last_request < horizon:
                    self._drop_image(image)
                    self.stats.deletes += 1
                    self.stats.evictions_idle += 1
                    evicted.append(image.id)
                    if recorded:
                        self._emit(
                            CacheEvent(
                                EventKind.DELETE, request_index,
                                image.id, image.size, reason="idle",
                            )
                        )
            return evicted

    def peek(self, spec: "ImageSpec | Collection[str]") -> Optional[CachedImage]:
        """Non-mutating hit check: the image that *would* serve ``spec``.

        Touches no statistics, LRU clock or image, and inserts nothing;
        interning a ``frozenset`` spec may memoise it.  That, and the
        engine state the hit scan reads, is why it runs under the cache
        lock like the mutating entry points.  Federation layers use this to decide whether to consult
        a remote registry before letting :meth:`request` build locally.
        """
        with self._lock or nullcontext():
            mask, indices, _size = self._intern(_packages_of(spec))
            return self._engine.find_hit(mask, indices)

    def adopt(self, packages: "Collection[str]") -> CachedImage:
        """Import an externally built image into the cache.

        The image's contents were produced elsewhere (pulled from a
        registry, staged by an administrator), so no build I/O is charged
        here — the transport layer accounts its own transfer.  The adopted
        image participates in hits, merges, and eviction exactly like a
        locally built one.

        Capacity evictions an adoption forces emit DELETE events with the
        next request's index, as for in-request capacity evictions; in
        the stream they follow the last completed request's decision, so
        a tracer files them there (like ``evict_idle`` victims).
        """
        with self._lock or nullcontext():
            return self._adopt(packages)

    def _adopt(
        self,
        packages: "Optional[Collection[str]]",
        interned: Optional[Tuple[int, np.ndarray, int]] = None,
    ) -> CachedImage:
        mask, indices, size = (
            interned if interned is not None else self._intern(packages)
        )
        if not indices.size:
            raise ValueError("cannot adopt an empty image")
        self._clock += 1
        image = self._new_image(mask, indices, size)
        self.stats.adoptions += 1
        self._evict_to_capacity(image.id, self.stats.requests)
        return image

    # -- persistence support -------------------------------------------------

    def policy_snapshot(self) -> dict:
        """The full set of policy knobs this cache was configured with.

        Everything that changes *behaviour* without changing the byte
        gauges: eviction, hit selection, candidate order, merge write
        mode, and the conflict-policy identity (via
        :meth:`~repro.packages.conflicts.ConflictPolicy.describe`).
        Recorded in every :meth:`snapshot` and validated by
        :meth:`restore`, so a persisted cache can never silently resume
        under different semantics than the state was built under.
        """
        return {
            "eviction": self.eviction,
            "hit_selection": self.hit_selection,
            "candidate_order": self.candidate_order,
            "merge_write_mode": self.merge_write_mode,
            "conflict_policy": self.conflict_policy.describe(),
        }

    def _state_record(self, contents_key: str, contents_of) -> dict:
        """Everything :meth:`restore` needs, each image's package set
        stored under ``contents_key`` as ``contents_of(image)`` gives it."""
        state = {
            "capacity": self.capacity,
            "alpha": self.alpha,
            "clock": self._clock,
            "next_image": self._next_image,
            "policy": self.policy_snapshot(),
            "stats": dict(self.stats.__dict__),
            "images": [
                {
                    "id": img.id,
                    contents_key: contents_of(img),
                    "created_at": img.created_at,
                    "last_used": img.last_used,
                    "last_request": img.last_request,
                    "merge_count": img.merge_count,
                }
                for img in self._images.values()
            ],
        }
        if self.candidate_order == "random":
            state["rng_state"] = self._rng.bit_generator.state
        return state

    def snapshot(self) -> dict:
        """Serialisable view of the full cache state.

        Package sets are materialised to sorted id lists; policy knobs
        are recorded via :meth:`policy_snapshot`; when
        ``candidate_order="random"`` the RNG state rides along so a
        restored cache draws the same shuffles the original would have.
        This is the *comparison* form: it depends on what the cache
        holds and never on the order names were first seen in, so two
        caches in the same state give equal snapshots (the ledger
        digests, the differential suite and ``explain`` rely on that).
        Pair with :meth:`restore`; the state file stores
        :meth:`mask_snapshot` instead (see :mod:`repro.core.persistence`).
        """
        names_of = self._universe.names_of_indices
        return self._state_record(
            "packages", lambda img: sorted(names_of(img.indices))
        )

    def mask_snapshot(self) -> dict:
        """:meth:`snapshot` with no package name in it — the storage form
        (state format v4).

        Each image carries ``"mask"``, its mask as it stands, as
        :func:`mask_text`; ``"repository"`` is the digest of the
        numbering the masks index (:attr:`PackageIndex.digest
        <repro.packages.repository.PackageIndex.digest>`), which
        :meth:`restore` holds the cache's repository to.  Costs
        O(images): no mask is unpacked, re-based or compared.  Since
        every cache on a repository numbers by it, equal caches give
        equal records, but :meth:`snapshot` stays the form to compare.
        """
        state = self._state_record("mask", lambda img: mask_text(img.mask))
        state["repository"] = self._universe.index.digest
        return state

    def _live_ids(self) -> np.ndarray:
        """Ascending internal ids of the names some live image holds
        (the refcounts' nonzero entries once they exist, the union of
        the masks before)."""
        refcounts = self._refcounts
        if refcounts is None:
            union = 0
            for image in self._images.values():
                union |= image.mask
            return self._universe.indices_of_mask(union)
        return np.flatnonzero(refcounts)

    def _decode_masks(self, state: dict) -> List[Optional[int]]:
        """Each image's mask in this cache's numbering (``None`` for a
        record that lists ``"packages"``), touching nothing: whatever is
        wrong is a :class:`ValueError` naming the image, raised before
        :meth:`restore` changes the cache.

        A v4 ``"mask"`` is :func:`mask_text` over the repository named by
        ``"repository"``, taken as it lies.  A v3 record has a
        ``"universe"`` table instead, and hex masks over it: each is
        re-based once onto the repository (:meth:`_rebase`).
        """
        table = state.get("universe")
        if table is not None:
            if not isinstance(table, list) or set(map(type, table)) - {str}:
                raise ValueError(
                    "snapshot universe is not a list of package names"
                )
            if len(set(table)) != len(table):
                raise ValueError("snapshot universe names a package twice")
        width = len(self._universe) if table is None else len(table)
        masks: List[Optional[int]] = []
        seen = set()
        for record in state["images"]:
            image_id = record["id"]
            if image_id in seen:
                raise ValueError(f"duplicate image id in snapshot: {image_id}")
            seen.add(image_id)
            if ("packages" in record) == ("mask" in record):
                raise ValueError(
                    f"image {image_id!r} must record exactly one of "
                    "'packages' and 'mask'"
                )
            if "packages" in record:
                masks.append(None)
                continue
            text = record["mask"]
            if table is None:
                if "repository" not in state:
                    raise ValueError(
                        f"image {image_id!r} has a mask, but the snapshot "
                        "names no repository for it to index"
                    )
                try:
                    mask = mask_of_text(text)
                except ValueError as exc:
                    raise ValueError(f"image {image_id!r}: {exc}") from None
            else:
                try:
                    mask = int(text, 16)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"image {image_id!r} has a mask that is not a hex "
                        f"integer: {text!r}"
                    ) from None
                if mask < 0:
                    raise ValueError(f"image {image_id!r} has a negative mask")
            if mask.bit_length() > width:
                raise ValueError(
                    f"image {image_id!r} sets bit {mask.bit_length() - 1}, "
                    f"beyond the {width} names of the universe"
                )
            masks.append(mask)
        return masks if table is None else self._rebase(masks, table)

    def _rebase(
        self, masks: List[Optional[int]], table: List[str]
    ) -> List[Optional[int]]:
        """v3 masks — bit *k* is ``table[k]`` — in this cache's
        numbering: ~25 us an image, once, when a v3 file is loaded."""
        index = self._universe.index
        at = np.fromiter(
            map(index.position.get, table, repeat(-1)),
            dtype=np.int64, count=len(table),
        )
        unknown = np.flatnonzero(at < 0)
        if unknown.size:
            index(table[unknown[0]])  # raises the index's KeyError
        out: List[Optional[int]] = []
        for mask in masks:
            if mask:
                ids = at[self._universe.indices_of_mask(mask)]
                mask = mask_of_indices(ids, int(ids.max()))
            out.append(mask)
        return out

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` or :meth:`mask_snapshot` into
        this (empty) cache.

        The cache must be freshly constructed — restoring over live images
        would corrupt the byte gauges.  Configuration (capacity, alpha,
        and every :meth:`policy_snapshot` knob) must match the snapshot;
        mismatches raise :class:`ValueError` rather than silently running
        with different semantics than the state was built under.

        The restored cache keeps its own numbering — the repository's,
        which a ``"mask"`` record indexes — so each such record is its
        image's mask as it stands: no per-image interning.  A v3 record
        (a ``"universe"`` table and hex masks over it) is re-based onto
        it once; ``"packages"`` records intern their names as they always
        have.  Sizes are read off every mask at once, and the engine gets
        the images together.  A state that records the digest of another
        repository than the cache's is refused.

        State written while the cache still had a MinHash/LSH merge
        prefilter records ``use_minhash`` and its three parameters among
        the knobs.  Switched off, they never changed a decision and are
        ignored; switched on, the state is refused.
        """
        if self._images or self.stats.requests:
            raise ValueError("restore requires a fresh cache")
        if state["capacity"] != self.capacity or state["alpha"] != self.alpha:
            raise ValueError(
                "snapshot was taken with capacity="
                f"{state['capacity']} alpha={state['alpha']}, cache has "
                f"capacity={self.capacity} alpha={self.alpha}"
            )
        recorded = state.get("policy")
        if recorded is None:
            raise ValueError(
                "snapshot records no policy knobs (pre-v2 format)"
            )
        for section in ("policy", "stats"):
            if not isinstance(state[section], dict):
                raise ValueError(
                    f"snapshot {section} is a {type(state[section]).__name__},"
                    " not a JSON object"
                )
        if recorded.get("use_minhash"):
            raise ValueError(
                "snapshot was built with use_minhash=True, the MinHash/LSH "
                "merge prefilter this build no longer has: load it with "
                "commit 972d360"
            )
        retired = (
            "use_minhash", "minhash_perm", "minhash_bands", "minhash_seed"
        )
        recorded = {k: v for k, v in recorded.items() if k not in retired}
        mine = self.policy_snapshot()
        mismatched = [
            knob
            for knob in sorted(set(mine) | set(recorded))
            if recorded.get(knob) != mine.get(knob)
        ]
        if mismatched:
            detail = ", ".join(
                f"{knob}: snapshot={recorded.get(knob)!r} "
                f"cache={mine.get(knob)!r}"
                for knob in mismatched
            )
            raise ValueError(f"snapshot policy mismatch — {detail}")
        universe = self._universe
        written = state.get("repository")
        if written is not None and written != universe.index.digest:
            raise ValueError(
                f"snapshot was written against the repository {written}, "
                f"not this cache's {universe.index.digest}"
            )
        masks = self._decode_masks(state)
        rng_state = state.get("rng_state")
        if rng_state is not None:
            mine_bg = type(self._rng.bit_generator).__name__
            if rng_state.get("bit_generator") != mine_bg:
                raise ValueError(
                    f"snapshot RNG is {rng_state.get('bit_generator')!r}, "
                    f"cache uses {mine_bg!r}"
                )
            self._rng.bit_generator.state = rng_state
        ins = self._ins
        counted = [c.value for c in ins.counters] if ins is not None else []
        for field_name, value in state["stats"].items():
            if not hasattr(self.stats, field_name):
                raise ValueError(f"unknown stats field {field_name!r}")
            setattr(self.stats, field_name, value)
        # Restored history is not counted, by the counters or the window.
        if ins is not None:
            for counter, value in zip(ins.counters, counted):
                counter.rebase(value)
        if self._slo is not None:
            self._slo.start(self.stats)
        self._clock = int(state["clock"])
        self._next_image = int(state["next_image"])
        masks = [
            self._intern(record["packages"])[0] if mask is None else mask
            for record, mask in zip(state["images"], masks)
        ]
        sizes = universe.bytes_of_masks(masks)
        images = []
        for record, mask, size in zip(state["images"], masks, sizes):
            image = CachedImage(
                record["id"], mask, mask.bit_count(), size,
                int(record["created_at"]), universe,
            )
            image.last_used = int(record["last_used"])
            image.last_request = int(record["last_request"])
            image.merge_count = int(record["merge_count"])
            self._images[image.id] = image
            images.append(image)
        self._cached_bytes += sum(sizes)
        # Every image is in before anything is derived from them: counts
        # kept since before the restore are taken afresh, and the engine
        # mirrors (and has the counts started) in one pass.
        if self._refcounts is not None:
            self._count_all()
        self._engine.on_restore(images)

    def split(
        self,
        image_id: str,
        parts: "List[Collection[str]]",
    ) -> List[CachedImage]:
        """Split a cached image into smaller images (the abstract's fourth
        operation, for de-bloating without waiting on eviction).

        Each part must be a non-empty subset of the image's contents;
        packages not covered by any part are dropped from the cache.  The
        original image is removed and each part is written out as a fresh
        image (writes are charged — splitting is I/O, like merging).
        Returns the new images, most-recently-used last.

        Raises :class:`KeyError` for unknown images and
        :class:`ValueError` for empty/out-of-image parts.
        """
        with self._lock or nullcontext():
            image = self._images.get(image_id)
            if image is None:
                raise KeyError(f"unknown image: {image_id!r}")
            if not parts:
                raise ValueError("split needs at least one part")
            interned = []
            for part in parts:
                mask, indices, size = self._intern(part)
                if not indices.size:
                    raise ValueError("split parts must be non-empty")
                if mask & image.mask != mask:
                    raise ValueError(
                        "split part is not a subset of the image contents"
                    )
                interned.append((mask, indices, size))
            self._drop_image(image)
            new_images = []
            for mask, indices, size in interned:
                self._clock += 1
                new_images.append(self._new_image(mask, indices, size))
                self.stats.bytes_written += size
            self.stats.splits += 1
            return new_images

    # -- internals ---------------------------------------------------------------

    def _emit(self, event: CacheEvent) -> None:
        # Callers build the event only when one of these sinks exists.
        if self.record_events:
            self.events.append(event)
        if self._tracer is not None:
            self._tracer.on_event(event)

    # Incidental-memory bound for _spec_memo; class attribute so tests can
    # shrink it without replaying 64Ki distinct specs.
    _SPEC_MEMO_LIMIT = 65536

    def _intern(self, packages: Collection[str]) -> Tuple[int, np.ndarray, int]:
        """Resolve a package collection to ``(mask, sorted indices, bytes)``.

        Ownership rule for the memo: it admits only a ``frozenset`` — a
        value the caller already holds and resubmits (an
        ``ImageSpec.packages``, the simulator's and sweeps' spec sets),
        so a memo entry is never the sole owner of a package set.  Any
        other collection — the list off the wire, out of the journal or
        a snapshot record — is transient: it is interned directly and
        nothing of it is retained.  (Arriving as fresh strings, a
        300-package spec interns in ~30 us; memoised, a resubmission —
        which serving paths never make — would cost ~20 us, and the
        entry pins ~45 KB of set, strings and arrays until evicted.)
        """
        if not isinstance(packages, frozenset):
            mask, indices = self._universe.mask_of(packages)
            return mask, indices, self._universe.bytes_of_indices(indices)
        memo = self._spec_memo.get(packages)
        if memo is not None:
            return memo
        mask, indices = self._universe.mask_of(packages)
        size = self._universe.bytes_of_indices(indices)
        if len(self._spec_memo) >= self._SPEC_MEMO_LIMIT:
            # Drop the oldest half rather than wiping everything: recently
            # repeated specs stay memoized across the threshold.
            for stale in list(self._spec_memo)[: self._SPEC_MEMO_LIMIT // 2]:
                del self._spec_memo[stale]
        self._spec_memo[packages] = (mask, indices, size)
        return mask, indices, size

    def _account_add(self, indices: np.ndarray) -> None:
        if self._refcounts is None or indices.size == 0:
            return
        prev = self._refcounts[indices]
        self._refcounts[indices] = prev + 1
        fresh = indices[prev == 0]
        self._unique_bytes += self._universe.bytes_of_indices(fresh)

    def _account_remove(self, mask: int) -> None:
        """Uncount an image's packages; its mask is unpacked only when
        there are refcounts to update."""
        if self._refcounts is None or mask == 0:
            return
        indices = self._universe.indices_of_mask(mask)
        prev = self._refcounts[indices]
        self._refcounts[indices] = prev - 1
        gone = indices[prev == 1]
        self._unique_bytes -= self._universe.bytes_of_indices(gone)

    def _new_image(
        self, mask: int, indices: np.ndarray, size: int
    ) -> CachedImage:
        image_id = f"img-{self._next_image:06d}"
        self._next_image += 1
        image = CachedImage(
            image_id, mask, int(indices.size), size, self._clock,
            self._universe,
        )
        image.last_request = self.stats.requests
        self._images[image_id] = image
        self._cached_bytes += size
        self._account_add(indices)
        self._engine.on_add(image)
        return image

    def _drop_image(self, image: CachedImage) -> None:
        del self._images[image.id]
        self._cached_bytes -= image.size
        self._account_remove(image.mask)
        self._engine.on_remove(image)

    def _evict_to_capacity(self, pinned_id: str, request_index: int) -> List[str]:
        evicted: List[str] = []
        if self._cached_bytes <= self.capacity:
            return evicted
        ins = self._ins
        recorded = self.record_events or self._tracer is not None
        start = perf_counter() if ins is not None else 0.0
        while self._cached_bytes > self.capacity:
            victim = self._engine.eviction_victim(pinned_id)
            if victim is None:
                break  # only the pinned image remains; allow transient overflow
            self._drop_image(victim)
            self.stats.deletes += 1
            self.stats.evictions_capacity += 1
            evicted.append(victim.id)
            if recorded:
                self._emit(
                    CacheEvent(
                        EventKind.DELETE,
                        request_index,
                        victim.id,
                        victim.size,
                        reason="capacity",
                    )
                )
        if ins is not None:
            ins.eviction_s.observe(perf_counter() - start)
        return evicted

    # -- the algorithm -----------------------------------------------------------

    def request(self, spec: "ImageSpec | Collection[str]") -> CacheDecision:
        """Serve one job request; returns the decision with the image used."""
        lock = self._lock
        if lock is None:
            return self._request(spec)
        with lock:
            return self._request(spec)

    def _request(
        self,
        spec: "ImageSpec | Collection[str] | None",
        interned: Optional[Tuple[int, np.ndarray, int]] = None,
    ) -> CacheDecision:
        """Algorithm 1 for one spec; ``interned`` is its ``_intern``
        triple when the caller (the batch path, journal replay) already
        resolved it — replay passes no ``spec`` at all."""
        packages = _packages_of(spec)
        mask, indices, requested = (
            interned if interned is not None else self._intern(packages)
        )
        n_request = int(indices.size)
        request_index = self.stats.requests
        self.stats.requests += 1
        self.stats.requested_bytes += requested
        self._clock += 1
        ins = self._ins
        recorded = self.record_events or self._tracer is not None
        timed = ins is not None or self._slo is not None
        images_scanned = len(self._images)
        action = EventKind.HIT
        distance: Optional[float] = None
        bytes_added = written = examined = conflicts = 0
        evicted: List[str] = []
        tried: List[MergeCandidate] = []

        # Step 1: reuse an existing superset image.  The request's clock
        # starts with the scan, so one reading serves both.
        started = perf_counter() if timed else 0.0
        image = self._engine.find_hit(mask, indices)
        scanned = perf_counter() if ins is not None else 0.0
        if image is not None:
            if ins is not None:
                ins.subset_scan_s.observe(scanned - started)
            image.last_used = self._clock
            image.last_request = self.stats.requests
            self.stats.hits += 1
            self.stats.used_bytes += image.size
        else:
            # Step 2: merge into the first near image that does not
            # conflict.  The probe's clock starts where the scan's ended,
            # and both are observed after it, so neither interval holds
            # an observe.
            candidates, examined = self._engine.scan_candidates(
                mask, n_request, self.alpha
            )
            self.stats.candidates_examined += examined
            if ins is not None:
                probed = perf_counter()
                ins.subset_scan_s.observe(scanned - started)
                ins.candidate_probe_s.observe(probed - scanned)
            can_conflict = type(self.conflict_policy) is not NoConflicts
            if can_conflict and not isinstance(packages, frozenset):
                # Conflict policies see a set, as they always have; the
                # default configuration never builds one — not of a
                # transient spec, not of a merge target.
                packages = frozenset(
                    packages if packages is not None
                    else self._universe.names_of_indices(indices)
                )
            if candidates:
                if self.candidate_order == "distance":
                    candidates.sort(key=lambda pair: (pair[0], pair[1].id))
                elif self.candidate_order == "random":
                    self._rng.shuffle(candidates)
            for pos, (distance, target) in enumerate(candidates):
                if can_conflict and self.conflict_policy.conflicts(
                    packages, target.packages
                ):
                    self.stats.conflicts_skipped += 1
                    conflicts += 1
                    if recorded:
                        tried.append(MergeCandidate(
                            target.id, distance, target.size, "conflict"
                        ))
                    continue
                if recorded:
                    # Record the chosen candidate's size before the merge
                    # rewrite mutates it, and the never-reached rest.
                    tried.append(MergeCandidate(
                        target.id, distance, target.size, "merged"
                    ))
                    for rest_distance, rest in candidates[pos + 1:]:
                        tried.append(MergeCandidate(
                            rest.id, rest_distance, rest.size, "unused"
                        ))
                action = EventKind.MERGE
                image = target
                bytes_added, written = self._do_merge(target, mask)
                break
            else:
                # Step 3: no mergeable candidate — insert a fresh image.
                action = EventKind.INSERT
                distance = None
                image = self._new_image(mask, indices, requested)
                self.stats.inserts += 1
                self.stats.bytes_written += requested
                self.stats.used_bytes += requested
                bytes_added = written = requested

        trace_ids = self._trace_ids
        trace_id = (
            trace_ids.get(request_index) if trace_ids is not None else None
        )
        if recorded:
            # The one decision record; capacity DELETEs follow it.
            self._emit(
                CacheEvent(
                    action, request_index, image.id, image.size,
                    bytes_written=written, requested_bytes=requested,
                    distance=distance, candidates_examined=examined,
                    conflicts_skipped=conflicts, n_packages=n_request,
                    alpha=self.alpha, images_scanned=images_scanned,
                    bytes_added=bytes_added, candidates=tuple(tried),
                    trace_id=trace_id,
                )
            )
        if action is not EventKind.HIT:
            # Step 4: evict down to capacity, never the image being returned.
            evicted = self._evict_to_capacity(image.id, request_index)

        decision = CacheDecision(
            action, image, requested,
            distance=distance, bytes_added=bytes_added, evicted=evicted,
        )
        if timed:
            self._observe(decision, request_index, trace_id, started)
        return decision

    def _observe(
        self,
        decision: CacheDecision,
        request_index: int,
        trace_id: Optional[str],
        started: float,
    ) -> None:
        """Report one finished request to the attached observers.

        The single seam between Algorithm 1 and the metrics registry and
        the SLO window: ``_request`` decides, then hands over what it
        decided.  The counters need nothing — they read :attr:`stats` —
        so a request pushes its latency (with its exemplar), a merge its
        distance, and the window takes one sample of the stats (no
        unique bytes: it reads :attr:`cache_efficiency` when it is read).
        One clock reading ends the request: both observers see the same
        latency, and it is the exemplar's timestamp too.
        """
        ended = perf_counter()
        elapsed = ended - started
        ins = self._ins
        if ins is not None:
            if decision.action is EventKind.MERGE:
                ins.merge_distance.observe(decision.distance)
            exemplar = (("request", str(request_index)),)
            if trace_id is not None:
                exemplar += (("trace_id", trace_id),)
            ins.request_s.observe(elapsed, exemplar, ins.wall_offset + ended)
        slo = self._slo
        if slo is not None:
            slo.sample(
                self.stats, elapsed,
                self._cached_bytes, None, len(self._images),
            )

    def submit_batch(
        self,
        specs: Iterable["ImageSpec | Collection[str]"],
        batch_size: int = 1024,
    ) -> List[CacheDecision]:
        """Serve a vector of requests under one acquisition of the lock.

        Identical to ``[self.request(s) for s in specs]`` — same
        decisions, stats, events and final state, enforced by the
        differential suite.  Each run of ``batch_size`` specs is
        interned before the first of them is decided (measurably cheaper
        than interleaving the two, DESIGN.md "Batched submission"), and
        that is all ``batch_size`` means: how many interned triples are
        held at once.
        """
        if type(batch_size) is not int or batch_size < 1:  # no bool, no float
            raise ValueError(
                f"batch_size must be an int >= 1, got {batch_size!r}"
            )
        lock = self._lock
        if lock is None:
            return self._submit_batch(specs, batch_size)
        with lock:
            return self._submit_batch(specs, batch_size)

    def _submit_batch(
        self,
        specs: Iterable["ImageSpec | Collection[str]"],
        batch_size: int,
    ) -> List[CacheDecision]:
        specs = list(specs)
        decisions: List[CacheDecision] = []
        for start in range(0, len(specs), batch_size):
            run = specs[start : start + batch_size]
            interned = [self._intern(_packages_of(spec)) for spec in run]
            for spec, triple in zip(run, interned):
                decisions.append(self._request(spec, triple))
        return decisions

    def _apply_masked(
        self, op: str, mask: int
    ) -> "CacheDecision | CachedImage":
        """Journal replay's seam: a ``"request"`` or ``"adopt"`` given as
        a bitmask over this cache's own universe.

        ``mask`` goes straight to Algorithm 1 (or the adoption) as it
        lies: no name of the spec is decoded, hashed or looked up.  A
        negative mask and a bit at or past the end of the universe are
        :class:`ValueError`\\ s raised before anything changes.
        """
        universe = self._universe
        with self._lock or nullcontext():
            if mask < 0:
                raise ValueError("negative mask")
            if mask.bit_length() > len(universe):
                raise ValueError(
                    f"mask sets bit {mask.bit_length() - 1}, past the "
                    f"{len(universe)} names of the universe"
                )
            indices = universe.indices_of_mask(mask)
            return self._apply_interned(
                op, None, (mask, indices, universe.bytes_of_indices(indices))
            )

    def _apply_interned(
        self,
        op: str,
        spec: "Optional[Collection[str]]",
        interned: Tuple[int, np.ndarray, int],
    ) -> "CacheDecision | CachedImage":
        """A ``"request"`` or ``"adopt"`` of a spec already interned (its
        ``_intern`` triple; ``spec``, the names, may be ``None``): the
        seam the journal's writer and its replay apply through."""
        with self._lock or nullcontext():
            if op == "adopt":
                return self._adopt(spec, interned)
            return self._request(spec, interned)

    def _do_merge(self, target: CachedImage, mask: int) -> Tuple[int, int]:
        """Rewrite ``target`` as ``target ∪ request``; returns
        ``(bytes_added, bytes_written)``."""
        ins = self._ins
        t0 = perf_counter() if ins is not None else 0.0
        new_mask = target.mask | mask
        added = self._universe.indices_of_mask(new_mask ^ target.mask)
        added_bytes = self._universe.bytes_of_indices(added)
        new_size = target.size + added_bytes

        self._cached_bytes += added_bytes
        self._account_add(added)
        target.mask = new_mask
        target.package_count += int(added.size)
        target.size = new_size
        target.last_used = self._clock
        target.last_request = self.stats.requests
        target.merge_count += 1
        self._engine.on_update(target)
        if ins is not None:
            ins.merge_rewrite_s.observe(perf_counter() - t0)

        self.stats.merges += 1
        # Paper mechanism ("full"): the merged image is rewritten in its
        # entirety (§VI: "Each time a merge occurs, the resulting image
        # must be written out in its entirety").  The "delta" mode models
        # a copy-on-write image format that only writes the added content.
        written = new_size if self.merge_write_mode == "full" else added_bytes
        self.stats.bytes_written += written
        self.stats.used_bytes += new_size
        return added_bytes, written
