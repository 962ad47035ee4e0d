"""Rolling-window derived telemetry (SLO series) over the landlord loop.

PR 3's :class:`~repro.obs.metrics.MetricsRegistry` records *lifetime*
counters; operators watch *windows* — "what is the hit rate over the
last 500 requests", "are evictions storming right now".  This module
derives exactly those series, updated on the cache's hot path behind
the same ``is not None`` guard discipline the instruments use (see
``benchmarks/test_obs_overhead.py`` for the disabled-path bound and the
enabled-path bound this module must fit inside).

A :class:`SloTracker` is attached with
:meth:`~repro.core.cache.LandlordCache.enable_slo` and takes one
:meth:`SloTracker.sample` of the cache's cumulative
:class:`~repro.core.cache.CacheStats` per request.  The window is a
ring of the last ``window`` samples; the one that falls off becomes the
baseline, and every windowed series is the newest sample minus the
baseline — integer arithmetic, so exact, and the stats stay the one
ledger.  Over the window it derives:

- the windowed **hit/merge/insert mix** and hit rate;
- the windowed **merge-rewrite byte-rate** (bytes written per request —
  the paper's Actual Writes, localised in time);
- windowed **container efficiency** (requested/used bytes) and the
  instantaneous **cache efficiency** and **occupancy** gauges;
- the windowed **eviction rate** (capacity evictions per request — the
  "eviction storm" signal);
- **p50/p95/p99 request latency** by streaming the same fixed bucket
  scheme the latency histograms use: each sample carries its bucket
  index, counted in when it enters the ring and out when it leaves, so
  a window quantile is a single pass over ~20 bucket counts, never a
  sort over raw samples.

Every series is a plain float readable via :meth:`SloTracker.values`,
which is what the alert engine (:mod:`repro.obs.alerts`), the
``/statusz`` endpoint (:mod:`repro.obs.server`), and the ``top``
dashboard (:mod:`repro.obs.dashboard`) all consume.  Latency series are
wall-clock and therefore non-deterministic; every other series is a
pure function of the decision sequence, so alert rules over them
evaluate bit-identically across runs (property-tested).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

from .metrics import DEFAULT_TIME_BUCKETS

__all__ = [
    "SloTracker",
    "quantile_from_buckets",
    "DEFAULT_WINDOW",
    "SLO_SERIES",
]

DEFAULT_WINDOW = 500

#: Every series name a tracker exposes, in display order.  Alert rules
#: may reference any of these; ``latency_*`` are wall-clock (present
#: only when the cache measured latencies) and everything else is a
#: deterministic function of the decision sequence.
SLO_SERIES: Tuple[str, ...] = (
    "window_requests",
    "hit_rate",
    "merge_rate",
    "insert_rate",
    "eviction_rate",
    "write_bytes_per_request",
    "requested_bytes_per_request",
    "container_efficiency",
    "cache_efficiency",
    "occupancy",
    "images",
    "latency_p50",
    "latency_p95",
    "latency_p99",
)

def quantile_from_buckets(
    uppers: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile from cumulative-free bucket counts.

    ``counts`` has one slot per upper bound plus a final ``+Inf`` slot
    (the layout of :class:`~repro.obs.metrics.Histogram` children and of
    the tracker's windowed latency buckets).  Linear interpolation within
    the containing bucket, matching PromQL's ``histogram_quantile``;
    ``nan`` when the window is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return float("nan")
    rank = q * total
    seen = 0
    for i, bucket_count in enumerate(counts):
        if seen + bucket_count >= rank and bucket_count:
            lower = 0.0 if i == 0 else uppers[i - 1]
            upper = uppers[i] if i < len(uppers) else uppers[-1]
            fraction = (rank - seen) / bucket_count
            return lower + (upper - lower) * min(1.0, fraction)
        seen += bucket_count
    return uppers[-1]  # pragma: no cover - defensive


class SloTracker:
    """Derives rolling-window series from per-request stats samples.

    One :meth:`sample` call per served request keeps every series
    current in O(1); :meth:`values` exposes them as a flat name→float
    mapping (see :data:`SLO_SERIES`).  Wall-clock latency is optional —
    pass ``latency_s=None`` (event replays, deterministic tests) and the
    ``latency_*`` series stay ``nan`` without perturbing anything else.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.capacity: Optional[int] = None
        self.alpha: Optional[float] = None
        self._uppers = tuple(float(b) for b in buckets)
        self._lat_counts = [0] * (len(self._uppers) + 1)
        # Cumulative samples (_sample_of), newest last; the baseline is
        # the sample the ring last dropped (stats at start() before that).
        self._ring: Deque[tuple] = deque()
        self._base: tuple = (0,) * 7 + (-1,)
        # Instantaneous gauges (the cache's state at the newest sample).
        self._cached_bytes = 0
        self._unique_bytes: Optional[int] = 0
        self._images = 0
        self._extras: Dict[str, float] = {}
        self.requests = 0

    @staticmethod
    def _sample_of(stats, bucket: int) -> tuple:
        return (
            stats.hits, stats.merges, stats.inserts,
            stats.evictions_capacity, stats.bytes_written,
            stats.requested_bytes, stats.used_bytes, bucket,
        )

    def configure(self, capacity: int, alpha: float) -> None:
        """Record static cache configuration (shown on dashboards)."""
        self.capacity = capacity
        self.alpha = alpha

    def start(self, stats) -> None:
        """Open an empty window whose baseline is ``stats`` (a
        ``CacheStats``): history before this point is not windowed.
        A fresh tracker starts at all-zero stats."""
        self._ring.clear()
        self._base = self._sample_of(stats, -1)
        self._lat_counts = [0] * len(self._lat_counts)

    def set_extra(self, name: str, value: Optional[float]) -> None:
        """Publish a host gauge as an additional series in :meth:`values`.

        The service daemon uses this to ride its queue depth and
        rejection counters on the same machinery as the built-in series:
        extras appear in :meth:`values` (so alert rules can reference
        them), in :meth:`export_to`'s ``slo_window`` gauges, and on
        ``/statusz``.  Names must not shadow a built-in
        :data:`SLO_SERIES` entry; pass ``None`` to retract a series.
        """
        if name in SLO_SERIES:
            raise ValueError(
                f"{name!r} is a built-in SLO series and cannot be overridden"
            )
        if value is None:
            self._extras.pop(name, None)
        else:
            self._extras[name] = float(value)

    def sample(
        self,
        stats,
        latency_s: Optional[float],
        cached_bytes: int,
        unique_bytes: Optional[int],
        images: int,
    ) -> None:
        """Fold one served request into the window (cache hook).

        ``stats`` is the cumulative ``CacheStats`` *after* the request
        (the window reads its hits, merges, inserts, capacity evictions
        and requested/written/used bytes); the three gauges are the
        cache's state after it.  ``unique_bytes`` may be ``None``
        (event-stream replays cannot reconstruct package overlap) —
        ``cache_efficiency`` then reads ``nan``.
        """
        self.requests += 1
        bucket = (
            -1 if latency_s is None else bisect_left(self._uppers, latency_s)
        )
        if bucket >= 0:
            self._lat_counts[bucket] += 1
        ring = self._ring
        ring.append(self._sample_of(stats, bucket))
        if len(ring) > self.window:
            self._base = expired = ring.popleft()
            if expired[7] >= 0:
                self._lat_counts[expired[7]] -= 1
        self._cached_bytes = cached_bytes
        self._unique_bytes = unique_bytes
        self._images = images

    # -- derived series ----------------------------------------------------

    @property
    def window_requests(self) -> int:
        """How many requests the window currently holds (≤ ``window``)."""
        return len(self._ring)

    def latency_quantile(self, q: float) -> float:
        """Windowed request-latency quantile (``nan`` with no samples)."""
        return quantile_from_buckets(self._uppers, self._lat_counts, q)

    def values(self) -> Dict[str, float]:
        """Every windowed series as a flat name → float mapping.

        Rates are per-request over the current window contents; empty
        windows yield ``nan`` so alert conditions (which treat ``nan``
        as not-breaching) stay quiet until data arrives.
        """
        n = len(self._ring)
        nan = float("nan")
        if n:
            newest, base = self._ring[-1], self._base
            hits, merges, inserts, evictions, written, requested, used = (
                newest[i] - base[i] for i in range(7)
            )
            hit_rate = hits / n
            merge_rate = merges / n
            insert_rate = inserts / n
            eviction_rate = evictions / n
            write_rate = written / n
            requested_rate = requested / n
        else:
            hit_rate = merge_rate = insert_rate = nan
            eviction_rate = write_rate = requested_rate = nan
            requested = used = 0
        container_eff = requested / used if used else nan
        if self._unique_bytes is None:
            cache_eff = nan
        elif self._cached_bytes:
            cache_eff = self._unique_bytes / self._cached_bytes
        else:
            cache_eff = 1.0
        occupancy = (
            self._cached_bytes / self.capacity
            if self.capacity
            else nan
        )
        out = {
            "window_requests": float(n),
            "hit_rate": hit_rate,
            "merge_rate": merge_rate,
            "insert_rate": insert_rate,
            "eviction_rate": eviction_rate,
            "write_bytes_per_request": write_rate,
            "requested_bytes_per_request": requested_rate,
            "container_efficiency": container_eff,
            "cache_efficiency": cache_eff,
            "occupancy": occupancy,
            "images": float(self._images),
            "latency_p50": self.latency_quantile(0.50),
            "latency_p95": self.latency_quantile(0.95),
            "latency_p99": self.latency_quantile(0.99),
        }
        out.update(self._extras)
        return out

    def export_to(self, registry) -> None:
        """Mirror the current window into ``slo_*`` gauges.

        Called by the ``/metrics`` handler on every scrape, so scrapes
        see the freshest window without the hot path paying for gauge
        writes per request.  ``nan`` series (empty window, latency not
        measured) are skipped rather than exported.
        """
        gauges = registry.gauge(
            "slo_window",
            "Rolling-window SLO series (window of "
            f"{self.window} requests).",
            labelnames=("series",),
        )
        for name, value in self.values().items():
            if not math.isnan(value):
                gauges.set(value, series=name)
