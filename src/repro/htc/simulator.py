"""Trace-driven cache simulation — the engine behind Figures 4–8.

A simulation drives an image provider (normally a
:class:`~repro.core.cache.LandlordCache`) over a stream of specification
requests, recording after every request the cumulative operation counts and
byte gauges that the paper's figures plot:

- Figure 5 plots one simulation's time series directly;
- Figures 4 and 6–8 aggregate the end states of many simulations across
  α values and configurations (see :mod:`repro.analysis.sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cache import CacheStats, LandlordCache
from repro.obs.metrics import MetricsRegistry
from repro.htc.workload import (
    DependencyWorkload,
    RandomWorkload,
    UserDriftWorkload,
    WorkloadScheme,
    build_stream,
)
from repro.packages.repository import Repository
from repro.packages.sft import SFT_PACKAGE_COUNT, build_experiment_repository
from repro.util.rng import spawn
from repro.util.units import GB

__all__ = ["SimulationConfig", "SimulationResult", "simulate", "simulate_stream"]

_TIMELINE_FIELDS = (
    "hits",
    "inserts",
    "merges",
    "deletes",
    "cached_bytes",
    "unique_bytes",
    "bytes_written",
    "requested_bytes",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one simulation run.

    Defaults mirror the paper's Figure 5 configuration: α = 0.75, a 1.4 TB
    cache (2× the 700 GB repository), 500 unique specifications each
    repeated five times, dependency-scheme workload over the SFT-like
    repository.
    """

    alpha: float = 0.75
    capacity: int = 1400 * GB
    n_unique: int = 500
    repeats: int = 5
    scheme: str = "deps"  # "deps" | "random" | "drift"
    max_selection: int = 100
    repo_kind: str = "sft"  # "sft" | "random" | "flat"
    n_packages: int = SFT_PACKAGE_COUNT
    repo_total_size: int = 700 * GB
    seed: int = 0
    # Cache-policy knobs (ablations):
    hit_selection: str = "smallest"
    candidate_order: str = "distance"
    eviction: str = "lru"
    merge_write_mode: str = "full"
    record_timeline: bool = True
    # Observability: when True, the run builds a repro.obs.MetricsRegistry,
    # instruments the cache with it, and returns its snapshot in
    # SimulationResult.metrics (picklable, so parallel workers ship it
    # home for deterministic aggregation — see repro.parallel).
    collect_metrics: bool = False
    # When True, also attach a repro.obs.SloTracker and return its final
    # windowed series in SimulationResult.slo_window (the full enabled
    # telemetry path the overhead benchmark bounds).
    collect_slo: bool = False

    def with_(self, **changes: object) -> "SimulationConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass
class SimulationResult:
    """A finished simulation: final stats plus optional per-request series."""

    config: Optional[SimulationConfig]
    stats: CacheStats
    cached_bytes: int
    unique_bytes: int
    n_images: int
    timeline: Dict[str, np.ndarray] = field(default_factory=dict)
    # Metrics-registry snapshot (repro.obs) when the run collected one;
    # merge into a parent registry with MetricsRegistry.merge_snapshot.
    metrics: Optional[dict] = None
    # Final rolling-window SLO series when the run attached a tracker.
    slo_window: Optional[Dict[str, float]] = None

    @property
    def cache_efficiency(self) -> float:
        """Unique data / total data in the final cache state (paper §VI)."""
        if self.cached_bytes == 0:
            return 1.0
        return self.unique_bytes / self.cached_bytes

    @property
    def container_efficiency(self) -> float:
        """Bytes-weighted requested/used ratio over all requests."""
        return self.stats.container_efficiency

    @property
    def requests(self) -> int:
        return self.stats.requests

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary (what sweeps aggregate medians over)."""
        return {
            "hits": self.stats.hits,
            "inserts": self.stats.inserts,
            "merges": self.stats.merges,
            "deletes": self.stats.deletes,
            "evictions_capacity": self.stats.evictions_capacity,
            "evictions_idle": self.stats.evictions_idle,
            "hit_rate": self.stats.hit_rate,
            "cache_efficiency": self.cache_efficiency,
            "container_efficiency": self.container_efficiency,
            "cached_bytes": self.cached_bytes,
            "unique_bytes": self.unique_bytes,
            "bytes_written": self.stats.bytes_written,
            "requested_bytes": self.stats.requested_bytes,
            "write_amplification": self.stats.write_amplification,
            "n_images": self.n_images,
        }


def simulate_stream(
    cache: "LandlordCache",
    stream: Sequence[frozenset],
    config: Optional[SimulationConfig] = None,
    record_timeline: bool = True,
    metrics=None,
    slo=None,
    alerts=None,
) -> SimulationResult:
    """Drive an existing image provider over a request stream.

    Duck-typed: any :class:`~repro.core.policies.ImageProvider` (the
    baseline policies included) works, not just a LandlordCache — it needs
    ``request``/``stats``/``cached_bytes``/``unique_bytes``/``__len__``.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) instruments the
    provider when it supports ``enable_metrics``; the registry snapshot
    rides home in ``SimulationResult.metrics``.

    ``slo`` (a :class:`repro.obs.SloTracker`) attaches rolling-window
    telemetry when the provider supports ``enable_slo``; ``alerts`` (an
    :class:`repro.obs.AlertEngine`) is then evaluated against the window
    after every request — neither ever perturbs decisions.
    """
    if metrics is not None:
        enable = getattr(cache, "enable_metrics", None)
        if enable is not None:
            enable(metrics)
    if slo is not None:
        enable_slo = getattr(cache, "enable_slo", None)
        if enable_slo is not None:
            enable_slo(slo)
    if alerts is not None and slo is None:
        raise ValueError("alerts require an SloTracker (pass slo=)")
    series: Dict[str, List[int]] = {name: [] for name in _TIMELINE_FIELDS}
    for request_index, spec in enumerate(stream):
        cache.request(spec)
        if alerts is not None:
            alerts.evaluate(slo.values(), request_index)
        if record_timeline:
            stats = cache.stats
            series["hits"].append(stats.hits)
            series["inserts"].append(stats.inserts)
            series["merges"].append(stats.merges)
            series["deletes"].append(stats.deletes)
            series["cached_bytes"].append(cache.cached_bytes)
            series["unique_bytes"].append(cache.unique_bytes)
            series["bytes_written"].append(stats.bytes_written)
            series["requested_bytes"].append(stats.requested_bytes)
    timeline = (
        {name: np.asarray(vals, dtype=np.int64) for name, vals in series.items()}
        if record_timeline
        else {}
    )
    return SimulationResult(
        config=config,
        stats=cache.stats.copy(),
        cached_bytes=cache.cached_bytes,
        unique_bytes=cache.unique_bytes,
        n_images=len(cache),
        timeline=timeline,
        metrics=metrics.snapshot() if metrics is not None else None,
        slo_window=slo.values() if slo is not None else None,
    )


def make_workload(
    config: SimulationConfig, repository: Repository
) -> WorkloadScheme:
    """Instantiate the configured workload scheme."""
    if config.scheme == "deps":
        return DependencyWorkload(repository, config.max_selection)
    if config.scheme == "random":
        return RandomWorkload(repository, config.max_selection)
    if config.scheme == "drift":
        return UserDriftWorkload(repository, config.max_selection)
    raise ValueError(f"unknown workload scheme: {config.scheme!r}")


def simulate(
    config: SimulationConfig,
    repository: Optional[Repository] = None,
) -> SimulationResult:
    """Run one full simulation from a config.

    ``repository`` may be passed in to amortise repository construction
    across a sweep's repetitions; it must match the config's repo
    parameters (not checked — sweeps construct both from the same config).
    """
    if repository is None:
        repository = build_experiment_repository(
            config.repo_kind,
            seed=config.seed,
            n_packages=config.n_packages,
            target_total_size=config.repo_total_size,
        )
    workload = make_workload(config, repository)
    rng = spawn(config.seed, "workload", config.scheme, config.n_unique)
    stream = build_stream(
        workload,
        rng,
        n_unique=config.n_unique,
        repeats=config.repeats,
    )
    cache = LandlordCache(
        capacity=config.capacity,
        alpha=config.alpha,
        package_size=repository.size_of,
        hit_selection=config.hit_selection,
        candidate_order=config.candidate_order,
        eviction=config.eviction,
        merge_write_mode=config.merge_write_mode,
        rng=spawn(config.seed, "cache-rng"),
    )
    metrics = MetricsRegistry() if config.collect_metrics else None
    slo = None
    if config.collect_slo:
        from repro.obs.slo import SloTracker

        slo = SloTracker()
    return simulate_stream(
        cache, stream, config=config,
        record_timeline=config.record_timeline, metrics=metrics, slo=slo,
    )
