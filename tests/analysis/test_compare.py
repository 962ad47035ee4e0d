"""Tests for repro.analysis.compare."""

import numpy as np
import pytest

from repro.analysis.compare import compare_sweeps
from repro.analysis.sweep import SweepResult


def sweep(alphas, **series):
    return SweepResult(
        alphas=np.asarray(alphas, dtype=float),
        series={k: np.asarray(v, dtype=float) for k, v in series.items()},
    )


class TestCompareSweeps:
    def test_identical_sweeps_zero_delta(self):
        a = sweep([0.4, 0.8], hits=[10, 20], merges=[0, 5])
        comparison = compare_sweeps(a, a)
        assert comparison.within(0.0)
        assert np.all(comparison.delta("hits").absolute == 0)

    def test_deltas_signed_b_minus_a(self):
        a = sweep([0.4, 0.8], hits=[10, 20])
        b = sweep([0.4, 0.8], hits=[15, 10])
        d = compare_sweeps(a, b).delta("hits")
        assert list(d.absolute) == [5, -10]
        assert d.relative[0] == pytest.approx(0.5)
        assert d.max_relative == pytest.approx(0.5)

    def test_grid_alignment_uses_intersection(self):
        a = sweep([0.4, 0.6, 0.8], hits=[1, 2, 3])
        b = sweep([0.6, 0.8, 1.0], hits=[2, 4, 9])
        comparison = compare_sweeps(a, b)
        d = comparison.delta("hits")
        assert list(d.alphas) == [0.6, 0.8]
        assert list(d.absolute) == [0, 1]

    def test_disjoint_grids_rejected(self):
        a = sweep([0.4], hits=[1])
        b = sweep([0.9], hits=[1])
        with pytest.raises(ValueError, match="no alpha grid"):
            compare_sweeps(a, b)

    def test_only_shared_metrics_compared(self):
        a = sweep([0.5], hits=[1], merges=[2])
        b = sweep([0.5], hits=[1], deletes=[3])
        comparison = compare_sweeps(a, b)
        assert sorted(comparison.deltas) == ["hits"]
        with pytest.raises(KeyError):
            comparison.delta("merges")

    def test_zero_vs_zero_relative_is_zero(self):
        a = sweep([0.5], merges=[0])
        b = sweep([0.5], merges=[0])
        assert compare_sweeps(a, b).delta("merges").max_relative == 0.0

    def test_within_tolerance_gate(self):
        a = sweep([0.5], hits=[100])
        b = sweep([0.5], hits=[104])
        comparison = compare_sweeps(a, b)
        assert comparison.within(0.05)
        assert not comparison.within(0.03)

    def test_table_renders(self):
        a = sweep([0.4, 0.8], hits=[10, 20])
        b = sweep([0.4, 0.8], hits=[12, 18])
        out = compare_sweeps(a, b, "lru", "tuned").table(["hits"])
        assert "lru" in out and "tuned" in out
        assert "+20.0%" in out and "-10.0%" in out

    def test_as_regression_gate_on_real_sweeps(self):
        """Two identical configurations must compare within zero tolerance."""
        from repro.analysis.sweep import alpha_sweep
        from repro.htc.simulator import SimulationConfig
        from repro.util.units import GB

        config = SimulationConfig(
            capacity=90 * GB, n_unique=20, repeats=3, max_selection=6,
            n_packages=600, repo_total_size=45 * GB, seed=9,
        )
        a = alpha_sweep(config, alphas=[0.5, 0.8], repetitions=2)
        b = alpha_sweep(config, alphas=[0.5, 0.8], repetitions=2)
        assert compare_sweeps(a, b).within(0.0)
