"""Shared experiment scaffolding: scales, argument parsing, result output.

The paper's simulations run over the full 9,660-package repository with 20
repetitions per point; that is the ``paper`` scale and takes minutes.  The
``quick`` scale shrinks the repository and repetition counts proportionally
so every experiment finishes in seconds while preserving the shapes (cache
capacity stays at 2× the repository, selection sizes scale with the
repository, and so on).
"""

from __future__ import annotations

import argparse
import inspect
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.htc.simulator import SimulationConfig
from repro.parallel import resolve_workers
from repro.util.units import GB

__all__ = [
    "Scale",
    "TINY",
    "QUICK",
    "PAPER",
    "get_scale",
    "base_config",
    "experiment_main",
]


@dataclass(frozen=True)
class Scale:
    """A coherent set of experiment sizes."""

    name: str
    n_packages: int
    repo_total_size: int
    capacity: int            # the default cache (2× repo, Figure 5's 1.4 TB)
    n_unique: int
    repeats: int
    repetitions: int         # simulations per sweep point
    alpha_step: float
    max_selection: int
    fig3_max_selection: int
    fig3_trials: int

    def with_(self, **changes: object) -> "Scale":
        """A modified copy of this scale."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def alphas(self, lo: float = 0.4, hi: float = 1.0) -> np.ndarray:
        """The α grid for this scale (inclusive endpoints)."""
        count = int(round((hi - lo) / self.alpha_step)) + 1
        return np.round(np.linspace(lo, hi, count), 6)


# For unit tests and pytest-benchmark runs: small enough that a full
# experiment is sub-second while the qualitative shapes survive.
TINY = Scale(
    name="tiny",
    n_packages=600,
    repo_total_size=45 * GB,
    capacity=90 * GB,
    n_unique=60,
    repeats=4,
    repetitions=3,
    alpha_step=0.15,
    max_selection=15,
    fig3_max_selection=150,
    fig3_trials=10,
)

QUICK = Scale(
    name="quick",
    n_packages=2000,
    repo_total_size=150 * GB,
    capacity=300 * GB,
    n_unique=150,
    repeats=5,
    repetitions=5,
    alpha_step=0.1,
    max_selection=40,
    fig3_max_selection=400,
    fig3_trials=25,
)

PAPER = Scale(
    name="paper",
    n_packages=9660,
    repo_total_size=700 * GB,
    capacity=1400 * GB,
    n_unique=500,
    repeats=5,
    repetitions=20,
    alpha_step=0.05,
    max_selection=100,
    fig3_max_selection=1000,
    fig3_trials=100,
)


def get_scale(name: Optional[str] = None) -> Scale:
    """Scale by name; honours ``REPRO_FULL=1`` when no name is given."""
    if name is None:
        name = "paper" if os.environ.get("REPRO_FULL") == "1" else "quick"
    if name == "tiny":
        return TINY
    if name == "quick":
        return QUICK
    if name == "paper":
        return PAPER
    raise ValueError(
        f"unknown scale: {name!r} (want 'tiny', 'quick' or 'paper')"
    )


def base_config(scale: Scale, seed: int = 2020, **overrides: object) -> SimulationConfig:
    """The default simulation config for a scale."""
    config = SimulationConfig(
        capacity=scale.capacity,
        n_unique=scale.n_unique,
        repeats=scale.repeats,
        max_selection=scale.max_selection,
        n_packages=scale.n_packages,
        repo_total_size=scale.repo_total_size,
        seed=seed,
    )
    return config.with_(**overrides) if overrides else config


def experiment_main(
    description: str,
    run_fn,
    report_fn,
    argv: Optional[Sequence[str]] = None,
) -> int:
    """Standard CLI wrapper used by every experiment module.

    Sweep-shaped experiments (those whose ``run`` accepts ``workers``)
    receive the resolved ``--workers`` count — by default every CPU, so
    ``python -m repro fig4`` fans out; ``--workers 1`` forces serial and
    ``REPRO_WORKERS`` overrides the default.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        choices=["tiny", "quick", "paper"],
        default=None,
        help="experiment scale (default: quick, or paper if REPRO_FULL=1)",
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for simulation fan-out (default: all CPUs; "
        "REPRO_WORKERS overrides; 1 = serial)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also save results as JSON"
    )
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)
    extra = {}
    if "workers" in inspect.signature(run_fn).parameters:
        try:
            extra["workers"] = resolve_workers(args.workers)
        except ValueError as exc:
            parser.error(str(exc))
    results = run_fn(scale, seed=args.seed, **extra)
    print(report_fn(results))
    if args.json:
        from repro.analysis.report import save_results_json

        save_results_json(args.json, results)
        print(f"\nresults saved to {args.json}")
    return 0
