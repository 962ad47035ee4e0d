"""Figure 7: impact of dependency structure on duplication.

The control experiment: the dependency-scheme workload is compared against
images of identical *sizes* whose contents are uniformly random (no
dependency correlation).  Expected shape: random images are rarely similar
enough to merge until α is very lax, so their cache/container efficiency
curves stay flat over most of the range — specification-level merging only
pays off when contents follow hierarchical dependency structure.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.report import sweep_plot
from repro.analysis.sweep import alpha_sweep
from repro.experiments.common import Scale, base_config, experiment_main
from repro.parallel import RepositorySpec, SimulationPool
from repro.util.tables import render_table

__all__ = ["run", "report", "main"]


def run(
    scale: Scale, seed: int = 2020, workers: Optional[int] = None
) -> Dict[str, object]:
    """Compute this experiment's data at the given scale."""
    config = base_config(scale, seed=seed)
    alphas = scale.alphas()
    # Both sweeps (deps vs random scheme) share the repository and a pool.
    with SimulationPool(RepositorySpec.from_config(config), workers) as pool:
        deps, random = (
            alpha_sweep(
                config.with_(scheme=scheme),
                alphas=alphas,
                repetitions=scale.repetitions,
                label=label,
                pool=pool,
            )
            for scheme, label in (("deps", "Deps."), ("random", "Random"))
        )
    return {"deps": deps, "random": random}


def report(results: Dict[str, object]) -> str:
    """Render computed results as paper-style text output."""
    deps, random = results["deps"], results["random"]
    lines = ["Figure 7 — impact of dependencies on duplication", ""]
    rows = []
    for i, alpha in enumerate(deps.alphas):
        rows.append(
            [
                f"{alpha:.2f}",
                f"{100 * deps.metric('cache_efficiency')[i]:.1f}%",
                f"{100 * random.metric('cache_efficiency')[i]:.1f}%",
                f"{100 * deps.metric('container_efficiency')[i]:.1f}%",
                f"{100 * random.metric('container_efficiency')[i]:.1f}%",
                int(deps.metric("merges")[i]),
                int(random.metric("merges")[i]),
            ]
        )
    lines.append(
        render_table(
            rows,
            header=["alpha", "cache eff (deps)", "cache eff (rnd)",
                    "cont eff (deps)", "cont eff (rnd)",
                    "merges (deps)", "merges (rnd)"],
        )
    )
    lines.append("")
    lines.append(
        sweep_plot([deps, random], "cache_efficiency",
                   title="cache efficiency vs alpha", scale=100.0,
                   ylabel="Percent")
    )
    lines.append("")
    lines.append(
        sweep_plot([deps, random], "container_efficiency",
                   title="container efficiency vs alpha", scale=100.0,
                   ylabel="Percent")
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point (argparse wrapper around run/report)."""
    return experiment_main(__doc__.splitlines()[0], run, report, argv)


if __name__ == "__main__":
    raise SystemExit(main())
