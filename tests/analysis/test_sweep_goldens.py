"""Quick-scale figure sweeps reproduce their stored goldens exactly.

``goldens/`` holds ``SweepResult.to_jsonable()`` for the quick-scale
Figure 4, Figure 6 (the four cache-size sweeps), Figure 7 (both sweeps)
and Figure 8 runs, recorded serially
(see ``goldens/README.md`` for the commit and command).  Each is
recomputed here and compared with ``compare_sweeps(...).within(0.0)``:
every median of every metric must be bit-for-bit the stored one.

The sweeps run at ``REPRO_WORKERS`` when it is set (CI's forced 2-worker
step) and serially otherwise; Figure 8 is also always run on 2 workers,
so the pool's fan-out is held to the serial goldens in every run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.compare import compare_sweeps
from repro.analysis.sweep import SweepResult
from repro.experiments import (
    fig4_cache_behavior,
    fig6_sensitivity,
    fig7_dependencies,
    fig8_limits,
)
from repro.experiments.common import QUICK

GOLDENS = Path(__file__).parent / "goldens"
WORKERS = int(os.environ.get("REPRO_WORKERS", "1"))


def load_golden(name: str) -> SweepResult:
    """Read a stored ``to_jsonable()`` sweep back into a SweepResult."""
    data = json.loads((GOLDENS / f"{name}_quick.json").read_text())
    return SweepResult(
        alphas=np.asarray(data["alphas"], dtype=float),
        series={k: np.asarray(v, dtype=float)
                for k, v in data["series"].items()},
        label=data["label"],
    )


def assert_matches_golden(name: str, fresh: SweepResult) -> None:
    stored = load_golden(name)
    assert fresh.label == stored.label
    assert sorted(fresh.series) == sorted(stored.series)
    np.testing.assert_array_equal(fresh.alphas, stored.alphas)
    comparison = compare_sweeps(stored, fresh, "golden", "fresh")
    drifted = [
        metric for metric, delta in comparison.deltas.items()
        if delta.max_relative > 0.0
    ]
    assert comparison.within(0.0), f"{name} drifted in {drifted}"


def test_fig4():
    sweep = fig4_cache_behavior.run(QUICK, workers=WORKERS)["sweep"]
    assert_matches_golden("fig4", sweep)


def test_fig6_by_cache_size():
    """The 5x and 10x cells grow past the vectorized engine's small-cache
    threshold and evict there, so these goldens pin its eviction choices
    on a mirrored cache, not only below the threshold."""
    by_cache = fig6_sensitivity.run(QUICK, workers=WORKERS)["by_cache"]
    for multiple, sweep in zip(fig6_sensitivity.CACHE_MULTIPLES, by_cache):
        assert_matches_golden(f"fig6_cache{multiple}x", sweep)


def test_fig7_both_sweeps():
    results = fig7_dependencies.run(QUICK, workers=WORKERS)
    assert_matches_golden("fig7_deps", results["deps"])
    assert_matches_golden("fig7_random", results["random"])


@pytest.mark.parametrize("workers", sorted({WORKERS, 2}))
def test_fig8(workers):
    sweep = fig8_limits.run(QUICK, workers=workers)["sweep"]
    assert_matches_golden("fig8", sweep)
