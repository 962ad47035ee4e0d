"""Ablations of LANDLORD's design choices (DESIGN.md §5).

Four studies, each holding the Figure 5 configuration fixed and varying
one mechanism:

- **candidate order** — Algorithm 1 notes the merge-candidate selection
  "can be sorted by d_j"; compare sorted-by-distance vs insertion order vs
  random choice.
- **eviction policy** — LRU vs FIFO vs largest-first.
- **hit selection** — when several cached images satisfy a request, use
  the smallest vs most-recently-used vs first-found.
- **merge write mode** — the paper's full-image rewrite vs a hypothetical
  copy-on-write delta format, separating Figure 4c's policy cost (how often
  merges happen) from its mechanism cost (what one merge writes).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.analysis.sweep import run_repetitions
from repro.experiments.common import Scale, base_config, experiment_main
from repro.parallel import RepositorySpec, SimulationPool
from repro.util.tables import render_table
from repro.util.units import format_bytes

__all__ = ["run", "report", "main"]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _study(config, repetitions: int, pool: SimulationPool) -> Dict[str, float]:
    start = time.perf_counter()
    results = run_repetitions(config, repetitions, pool=pool)
    elapsed = time.perf_counter() - start
    summaries = [r.summary() for r in results]
    out = {
        key: _median([s[key] for s in summaries])
        for key in ("hits", "merges", "inserts", "deletes",
                    "cache_efficiency", "container_efficiency",
                    "bytes_written")
    }
    out["candidates_examined"] = _median(
        [r.stats.candidates_examined for r in results]
    )
    out["seconds"] = elapsed / repetitions
    return out


def run(
    scale: Scale, seed: int = 2020, workers: Optional[int] = None
) -> Dict[str, object]:
    """Compute this experiment's data at the given scale."""
    config = base_config(scale, seed=seed, alpha=0.75)
    reps = max(3, scale.repetitions // 2)
    variants = {
        "candidate_order": ("distance", "insertion", "random"),
        "eviction": ("lru", "fifo", "size"),
        "hit_selection": ("smallest", "mru", "first"),
        "merge_write_mode": ("full", "delta"),
    }
    # Eleven variants all simulate against the same repository; share
    # one worker pool across every study.
    with SimulationPool(RepositorySpec.from_config(config), workers) as pool:
        studies: Dict[str, Dict[str, Dict[str, float]]] = {
            knob: {
                value: _study(config.with_(**{knob: value}), reps, pool)
                for value in values
            }
            for knob, values in variants.items()
        }
    return {"alpha": config.alpha, "studies": studies}


def _study_table(variants: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for name, metrics in variants.items():
        rows.append(
            [
                name,
                int(metrics["hits"]),
                int(metrics["merges"]),
                int(metrics["inserts"]),
                f"{100 * metrics['cache_efficiency']:.1f}%",
                f"{100 * metrics['container_efficiency']:.1f}%",
                format_bytes(metrics["bytes_written"]),
                int(metrics["candidates_examined"]),
                f"{metrics['seconds'] * 1e3:.0f}ms",
            ]
        )
    return render_table(
        rows,
        header=["variant", "hits", "merges", "inserts", "cache eff",
                "cont eff", "written", "jaccard evals", "time/run"],
    )


def report(results: Dict[str, object]) -> str:
    """Render computed results as paper-style text output."""
    lines = [f"Ablations at alpha={results['alpha']}", ""]
    for study, variants in results["studies"].items():
        lines.append(f"== {study} ==")
        lines.append(_study_table(variants))
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point (argparse wrapper around run/report)."""
    return experiment_main(__doc__.splitlines()[0], run, report, argv)


if __name__ == "__main__":
    raise SystemExit(main())
