"""Parameter sweeps with repetition and median aggregation.

The paper's protocol (§VI): *"for a given choice of cache size, job count,
etc. we repeated the simulation 20 times and reported the median behavior
over the runs.  At each choice of α (in steps of 0.05) we performed a set
of 20 simulated runs."*  The repository is fixed across repetitions (it
models the one real SFT tree); only the request stream varies by seed.

Every sweep runs through one :class:`~repro.parallel.SimulationPool`:
the caller's (``pool=``, shared across several sweeps) or one opened for
the call with ``workers`` processes (explicit > ``REPRO_WORKERS`` > all
CPUs; ``workers=1`` is the pool's in-process loop).  Each
``(α, repetition)`` cell is an independent simulation whose seed derives
from :func:`repro.parallel.repetition_seeds`, and results are aggregated
in cell order — a sweep is **bit-identical** whatever the worker count.
A pool opened for the call builds the repository the config's
:class:`~repro.parallel.RepositorySpec` describes, so a config with
``seed=None`` is refused.  Per-cell metrics are the pool's business: a
pool given a :class:`~repro.obs.telemetry.TelemetryAggregator` makes
its cells collect them and folds them in cell order.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.htc.simulator import SimulationConfig, SimulationResult
from repro.parallel.seeds import repetition_seeds
from repro.parallel.simulations import RepositorySpec, SimulationPool

__all__ = ["SweepResult", "run_repetitions", "alpha_sweep", "default_alphas"]


def default_alphas(step: float = 0.05, lo: float = 0.4, hi: float = 1.0) -> np.ndarray:
    """The paper's α grid: ``lo`` to ``hi`` inclusive in ``step`` steps.

    Raises :class:`ValueError` when ``step`` does not divide ``hi − lo``
    into whole steps, rather than silently choosing another grid.
    """
    steps = (hi - lo) / step
    if not math.isclose(steps, round(steps), abs_tol=1e-6):
        raise ValueError(
            f"alpha step {step:g} does not divide [{lo:g}, {hi:g}] "
            "into whole steps"
        )
    return np.round(np.linspace(lo, hi, int(round(steps)) + 1), 6)


def _repetition_configs(
    config: SimulationConfig, repetitions: int
) -> List[SimulationConfig]:
    """One config per repetition, seeds derived via ``SeedSequence``."""
    seeds = repetition_seeds(config.seed, repetitions)
    return [
        config.with_(seed=seed, record_timeline=False) for seed in seeds
    ]


def _run_cells(
    config: SimulationConfig,
    cells: List[SimulationConfig],
    labels: List[str],
    progress: Callable[[int, int, str], None],
    workers: Optional[int],
    pool: Optional[SimulationPool],
) -> List[SimulationResult]:
    """Run ``cells`` on ``pool``, or on one opened for this call only."""
    if pool is not None:
        opened = nullcontext(pool)  # the caller's pool outlives this call
    else:
        opened = SimulationPool(RepositorySpec.from_config(config), workers)
    with opened as runner:
        return runner.run(cells, labels=labels, progress=progress)


def run_repetitions(
    config: SimulationConfig,
    repetitions: int = 20,
    progress: Optional[Callable[[int, int], None]] = None,
    workers: Optional[int] = None,
    pool: Optional[SimulationPool] = None,
) -> List[SimulationResult]:
    """Run ``repetitions`` simulations differing only in workload seed.

    The repetitions run through one
    :class:`~repro.parallel.SimulationPool`: ``pool`` when given (its
    repository takes precedence over the config's), else one opened for
    this call with ``workers`` processes (explicit > ``REPRO_WORKERS`` >
    all CPUs; 1 runs in-process).  Results are ordered by repetition
    index and identical for every worker count; ``progress(done,
    total)`` fires once per repetition.  Per-run metrics go to the
    aggregator of the pool, when it has one.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")

    def bridge(done: int, total: int, _label: str) -> None:
        if progress is not None:
            progress(done, total)

    return _run_cells(
        config, _repetition_configs(config, repetitions),
        [f"rep={rep}" for rep in range(repetitions)], bridge,
        workers, pool,
    )


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
    label: str = "",
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    pool: Optional[SimulationPool] = None,
) -> SweepResult:
    """Sweep α over a grid, ``repetitions`` runs per point, median per metric.

    The repository is built once from the base config and reused for every
    point — matching the paper, where the software tree is an input, not a
    random variable.  The ``(α, repetition)`` cells run through one
    :class:`~repro.parallel.SimulationPool`: ``pool`` when given, else
    one opened for this call with ``workers`` processes (explicit >
    ``REPRO_WORKERS`` > all CPUs; 1 runs in-process).  Each worker builds
    the repository once; results are keyed by cell index, so the returned
    :class:`SweepResult` is bit-identical for every worker count.
    ``progress(message)`` fires once per cell, naming it.  Per-cell
    metrics go to the aggregator of the pool, when it has one.
    """
    grid = np.asarray(alphas if alphas is not None else default_alphas(), dtype=float)
    if grid.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if np.any((grid < 0) | (grid > 1)):
        raise ValueError("alphas must lie in [0, 1]")
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    rep_configs = _repetition_configs(base_config, repetitions)
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

    results = _run_cells(
        base_config, cell_configs, cell_labels, bridge, workers, pool,
    )
    return _aggregate_cells(grid, results, repetitions, label)
