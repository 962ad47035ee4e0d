"""Figure 6: effects of simulation parameters on system efficiency.

Four panels from two sweeps:

- **6a/6b** container and cache efficiency for cache sizes of 1x/2x/5x/10x
  the repository.  Larger caches hold more near-duplicate images, so both
  efficiencies *fall* with cache size.
- **6c/6d** the same efficiencies for 100/500/1000 unique jobs (x5 repeats
  each).  500 and 1000 should be nearly indistinguishable (steady state by
  500); 100 never fills the cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.report import sweep_plot
from repro.analysis.sweep import SweepResult, alpha_sweep
from repro.experiments.common import Scale, base_config, experiment_main
from repro.parallel import RepositorySpec, SimulationPool
from repro.util.tables import render_table

__all__ = ["run", "report", "main", "CACHE_MULTIPLES", "JOB_COUNTS"]

CACHE_MULTIPLES = (1, 2, 5, 10)
JOB_COUNTS = (100, 500, 1000)


def run(
    scale: Scale, seed: int = 2020, workers: Optional[int] = None
) -> Dict[str, object]:
    """Compute this experiment's data at the given scale."""
    config = base_config(scale, seed=seed)
    alphas = scale.alphas()
    job_counts = (
        JOB_COUNTS
        if scale.name == "paper"
        else tuple(max(20, scale.n_unique * c // 500) for c in JOB_COUNTS)
    )
    # All seven sweeps share one repository, so one worker pool (with the
    # repository built once per worker) serves them all.
    with SimulationPool(RepositorySpec.from_config(config), workers) as pool:
        by_cache: List[SweepResult] = [
            alpha_sweep(
                config.with_(capacity=multiple * scale.repo_total_size),
                alphas=alphas,
                repetitions=scale.repetitions,
                label=f"{multiple}x Repo Size",
                pool=pool,
            )
            for multiple in CACHE_MULTIPLES
        ]
        by_jobs: List[SweepResult] = [
            alpha_sweep(
                config.with_(n_unique=n_unique),
                alphas=alphas,
                repetitions=scale.repetitions,
                label=f"{n_unique} jobs",
                pool=pool,
            )
            for n_unique in job_counts
        ]
    return {
        "by_cache": by_cache,
        "by_jobs": by_jobs,
        "job_counts": job_counts,
    }


def _panel_table(sweeps: List[SweepResult], metric: str) -> str:
    header = ["alpha"] + [s.label for s in sweeps]
    rows = []
    for i, alpha in enumerate(sweeps[0].alphas):
        rows.append(
            [f"{alpha:.2f}"]
            + [f"{100 * s.metric(metric)[i]:.1f}%" for s in sweeps]
        )
    return render_table(rows, header=header)


def report(results: Dict[str, object]) -> str:
    """Render computed results as paper-style text output."""
    by_cache = results["by_cache"]
    by_jobs = results["by_jobs"]
    lines = ["Figure 6 — effects of simulation parameters on efficiency", ""]
    panels = [
        ("6a: container efficiency vs cache size", by_cache,
         "container_efficiency"),
        ("6b: cache efficiency vs cache size", by_cache, "cache_efficiency"),
        ("6c: container efficiency vs unique job count", by_jobs,
         "container_efficiency"),
        ("6d: cache efficiency vs unique job count", by_jobs,
         "cache_efficiency"),
    ]
    for title, sweeps, metric in panels:
        lines.append(title)
        lines.append(_panel_table(sweeps, metric))
        lines.append("")
        lines.append(
            sweep_plot(sweeps, metric, title=title, scale=100.0,
                       ylabel="Percent Efficiency")
        )
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point (argparse wrapper around run/report)."""
    return experiment_main(__doc__.splitlines()[0], run, report, argv)


if __name__ == "__main__":
    raise SystemExit(main())
