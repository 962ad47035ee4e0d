"""Parameter sweeps with repetition and median aggregation.

The paper's protocol (§VI): *"for a given choice of cache size, job count,
etc. we repeated the simulation 20 times and reported the median behavior
over the runs.  At each choice of α (in steps of 0.05) we performed a set
of 20 simulated runs."*  The repository is fixed across repetitions (it
models the one real SFT tree); only the request stream varies by seed.

Every ``(α, repetition)`` cell is an independent simulation, so sweeps
fan out over worker processes (:mod:`repro.parallel`) when asked to:
pass ``workers=N`` (or set ``REPRO_WORKERS``) for process-pool execution,
or share one :class:`~repro.parallel.SimulationPool` across several
sweeps via ``pool=``.  Repetition seeds derive from
:func:`repro.parallel.repetition_seeds` in both the serial and parallel
paths, and results are aggregated in cell order — a parallel sweep is
**bit-identical** to a serial one, whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.htc.simulator import SimulationConfig, SimulationResult, simulate
from repro.packages.repository import Repository
from repro.packages.sft import build_experiment_repository
from repro.parallel.pool import resolve_workers
from repro.parallel.seeds import repetition_seeds
from repro.parallel.simulations import (
    RepositorySource,
    RepositorySpec,
    SimulationPool,
    merge_result_metrics,
)

__all__ = ["SweepResult", "run_repetitions", "alpha_sweep", "default_alphas"]


def default_alphas(step: float = 0.05, lo: float = 0.4, hi: float = 1.0) -> np.ndarray:
    """The paper's α grid: ``lo`` to ``hi`` inclusive in ``step`` steps."""
    count = int(round((hi - lo) / step)) + 1
    return np.round(np.linspace(lo, hi, count), 6)


def _repetition_configs(
    config: SimulationConfig, repetitions: int
) -> List[SimulationConfig]:
    """One config per repetition, seeds derived via ``SeedSequence``."""
    seeds = repetition_seeds(config.seed, repetitions)
    return [
        config.with_(seed=seed, record_timeline=False) for seed in seeds
    ]


def _repository_source(
    config: SimulationConfig, repository: Optional[Repository]
) -> RepositorySource:
    """What to install in workers: the object, or a rebuildable spec."""
    if repository is not None:
        return repository
    if config.seed is None:
        # An unseeded repository cannot be rebuilt identically per worker;
        # build it once here and ship the object instead.
        return build_experiment_repository(
            config.repo_kind,
            seed=config.seed,
            n_packages=config.n_packages,
            target_total_size=config.repo_total_size,
        )
    return RepositorySpec.from_config(config)


def run_repetitions(
    config: SimulationConfig,
    repetitions: int = 20,
    repository: Optional[Repository] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    workers: Optional[int] = None,
    pool: Optional[SimulationPool] = None,
    metrics=None,
    telemetry=None,
) -> List[SimulationResult]:
    """Run ``repetitions`` simulations differing only in workload seed.

    ``workers`` fans the repetitions out over processes (default: serial,
    or ``REPRO_WORKERS``); ``pool`` reuses an existing
    :class:`~repro.parallel.SimulationPool` instead (its repository
    source takes precedence over ``repository``).  Results are ordered by
    repetition index and identical for every worker count.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) makes every
    repetition collect per-run metrics, merged into the registry in
    repetition order — deterministic families come out bit-identical
    whatever the worker count.  ``telemetry`` (a
    :class:`~repro.obs.telemetry.TelemetryAggregator`) additionally
    ingests each repetition's snapshot live as its result arrives; it
    implies per-run metric collection and applies only when this call
    builds its own pool (a caller-provided ``pool`` carries its own
    telemetry setting).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    rep_configs = _repetition_configs(config, repetitions)
    if metrics is not None or telemetry is not None:
        rep_configs = [c.with_(collect_metrics=True) for c in rep_configs]
    rep_labels = [f"rep={rep}" for rep in range(repetitions)]

    def bridge(done: int, total: int, _label: str) -> None:
        if progress is not None:
            progress(done, total)

    def finish(results: List[SimulationResult]) -> List[SimulationResult]:
        if metrics is not None:
            merge_result_metrics(results, metrics)
        return results

    if pool is not None:
        return finish(pool.run(rep_configs, labels=rep_labels,
                               progress=bridge))
    n_workers = resolve_workers(workers)
    if n_workers > 1 or telemetry is not None:
        source = _repository_source(config, repository)
        with SimulationPool(
            source, n_workers, telemetry=telemetry
        ) as own_pool:
            return finish(own_pool.run(rep_configs, labels=rep_labels,
                                       progress=bridge))
    if repository is None:
        repository = build_experiment_repository(
            config.repo_kind,
            seed=config.seed,
            n_packages=config.n_packages,
            target_total_size=config.repo_total_size,
        )
    results = []
    for rep, rep_config in enumerate(rep_configs):
        results.append(simulate(rep_config, repository=repository))
        if progress is not None:
            progress(rep + 1, repetitions)
    return finish(results)


@dataclass
class SweepResult:
    """Median-aggregated metrics across an α grid.

    ``series[metric]`` is an array aligned with ``alphas``; ``raw`` holds
    the full per-repetition values for dispersion analysis
    (``raw[metric][i_alpha, i_rep]``).
    """

    alphas: np.ndarray
    series: Dict[str, np.ndarray]
    raw: Dict[str, np.ndarray] = field(default_factory=dict)
    label: str = ""

    def metric(self, name: str) -> np.ndarray:
        """Median series for one metric, aligned with :attr:`alphas`."""
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; have {sorted(self.series)}"
            ) from None

    def percentile(self, name: str, q: float) -> np.ndarray:
        """Per-α percentile of a metric across repetitions (q in [0, 100]).

        Useful for dispersion bands around the median series; requires the
        raw per-repetition values (always kept by :func:`alpha_sweep`).
        """
        if name not in self.raw:
            raise KeyError(
                f"no raw repetition data for metric {name!r}"
            )
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return np.percentile(self.raw[name], q, axis=1)

    def iqr(self, name: str) -> np.ndarray:
        """Inter-quartile range per α (spread of the 20 repetitions)."""
        return self.percentile(name, 75) - self.percentile(name, 25)

    def at_alpha(self, alpha: float) -> Dict[str, float]:
        """All median metrics at the grid point nearest ``alpha``."""
        idx = int(np.argmin(np.abs(self.alphas - alpha)))
        return {name: float(vals[idx]) for name, vals in self.series.items()}

    def to_jsonable(self) -> dict:
        """JSON-serialisable view (label, grid, median series)."""
        return {
            "label": self.label,
            "alphas": self.alphas.tolist(),
            "series": {k: v.tolist() for k, v in self.series.items()},
        }


def _aggregate_cells(
    grid: np.ndarray,
    results: Sequence[SimulationResult],
    repetitions: int,
    label: str,
) -> SweepResult:
    """Fold per-cell results (α-major, repetition-minor) into a sweep."""
    summaries = [r.summary() for r in results]
    metric_names = sorted(summaries[0])
    raw_arrays = {
        name: np.asarray(
            [
                [summaries[i * repetitions + rep][name]
                 for rep in range(repetitions)]
                for i in range(grid.size)
            ],
            dtype=float,
        )
        for name in metric_names
    }
    series = {name: np.median(arr, axis=1) for name, arr in raw_arrays.items()}
    return SweepResult(alphas=grid, series=series, raw=raw_arrays, label=label)


def alpha_sweep(
    base_config: SimulationConfig,
    alphas: Optional[Sequence[float]] = None,
    repetitions: int = 20,
    repository: Optional[Repository] = None,
    label: str = "",
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    pool: Optional[SimulationPool] = None,
    metrics=None,
    telemetry=None,
) -> SweepResult:
    """Sweep α over a grid, ``repetitions`` runs per point, median per metric.

    The repository is built once from the base config and reused for every
    point — matching the paper, where the software tree is an input, not a
    random variable.  With ``workers=N`` (or a shared ``pool=``) the
    ``(α, repetition)`` cells fan out over worker processes, each of which
    builds that repository once; results are keyed by cell index, so the
    returned :class:`SweepResult` is bit-identical to the serial one.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) makes every cell
    collect per-run metrics, merged into the registry in cell order —
    deterministic families are bit-identical for any worker count.
    ``telemetry`` (a :class:`~repro.obs.telemetry.TelemetryAggregator`)
    ingests each cell's snapshot live as its result arrives; it implies
    per-run metric collection and applies only when this call builds
    its own pool.
    """
    grid = np.asarray(alphas if alphas is not None else default_alphas(), dtype=float)
    if grid.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if np.any((grid < 0) | (grid > 1)):
        raise ValueError("alphas must lie in [0, 1]")
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    rep_configs = _repetition_configs(base_config, repetitions)
    if metrics is not None or telemetry is not None:
        rep_configs = [c.with_(collect_metrics=True) for c in rep_configs]
    cell_configs = [
        rep_config.with_(alpha=float(alpha))
        for alpha in grid
        for rep_config in rep_configs
    ]
    cell_labels = [
        f"alpha={alpha:.2f} rep={rep}"
        for alpha in grid
        for rep in range(repetitions)
    ]

    def bridge(done: int, total: int, cell_label: str) -> None:
        if progress is not None:
            progress(f"{cell_label} ({done}/{total})")

    n_workers = pool.workers if pool is not None else resolve_workers(workers)
    if pool is not None or n_workers > 1 or telemetry is not None:
        own_pool = None
        if pool is None:
            source = _repository_source(base_config, repository)
            pool = own_pool = SimulationPool(
                source, n_workers, telemetry=telemetry
            )
        try:
            results = pool.run(cell_configs, labels=cell_labels,
                               progress=bridge)
        finally:
            if own_pool is not None:
                own_pool.close()
        if metrics is not None:
            merge_result_metrics(results, metrics)
        return _aggregate_cells(grid, results, repetitions, label)

    if repository is None:
        repository = build_experiment_repository(
            base_config.repo_kind,
            seed=base_config.seed,
            n_packages=base_config.n_packages,
            target_total_size=base_config.repo_total_size,
        )
    results = []
    for i, alpha in enumerate(grid):
        for config in rep_configs:
            results.append(
                simulate(config.with_(alpha=float(alpha)),
                         repository=repository)
            )
        if progress is not None:
            progress(f"alpha={alpha:.2f} ({i + 1}/{grid.size})")
    if metrics is not None:
        merge_result_metrics(results, metrics)
    return _aggregate_cells(grid, results, repetitions, label)
