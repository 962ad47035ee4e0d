"""Tests for repro.analysis.sweep."""

import numpy as np
import pytest

from repro.analysis.sweep import (
    SweepResult,
    alpha_sweep,
    default_alphas,
    run_repetitions,
)
from repro.htc.simulator import SimulationConfig
from repro.util.units import GB


def tiny_config(**kw):
    base = dict(
        capacity=20 * GB, n_unique=15, repeats=3, max_selection=6,
        n_packages=300, repo_total_size=10 * GB, seed=4,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestDefaultAlphas:
    def test_paper_grid(self):
        grid = default_alphas()
        assert grid[0] == 0.4 and grid[-1] == 1.0
        assert len(grid) == 13
        assert np.allclose(np.diff(grid), 0.05)

    def test_custom_range(self):
        grid = default_alphas(step=0.1, lo=0.0, hi=0.5)
        assert list(grid) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    @pytest.mark.parametrize("step, lo, hi", [
        (0.25, 0.4, 1.0),  # rounding would run [0.4, 0.7, 1.0]
        (0.3, 0.4, 0.5),   # rounding would run [0.4] alone
    ])
    def test_step_that_does_not_divide_the_range_is_refused(
        self, step, lo, hi
    ):
        with pytest.raises(ValueError, match=f"alpha step {step:g}"):
            default_alphas(step=step, lo=lo, hi=hi)

    def test_rounding_in_the_step_is_forgiven(self):
        # (1.0 - 0.4) / 0.05 is 11.999999999999998 in floating point
        assert len(default_alphas(step=0.05, lo=0.4, hi=1.0)) == 13
        assert list(default_alphas(step=0.1, lo=0.7, hi=0.7)) == [0.7]


class TestRunRepetitions:
    def test_count_and_distinct_seeds(self, small_sft):
        results = run_repetitions(tiny_config(), 3, repository=small_sft)
        assert len(results) == 3
        summaries = [tuple(sorted(r.summary().items())) for r in results]
        assert len(set(summaries)) > 1  # different workload seeds

    def test_timeline_disabled_in_reps(self, small_sft):
        results = run_repetitions(tiny_config(), 2, repository=small_sft)
        assert all(r.timeline == {} for r in results)

    def test_invalid_repetitions(self, small_sft):
        with pytest.raises(ValueError):
            run_repetitions(tiny_config(), 0, repository=small_sft)

    def test_progress_callback(self, small_sft):
        seen = []
        run_repetitions(
            tiny_config(), 2, repository=small_sft,
            progress=lambda i, n: seen.append((i, n)),
        )
        assert seen == [(1, 2), (2, 2)]


class TestAlphaSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return alpha_sweep(
            tiny_config(), alphas=[0.4, 0.75, 1.0], repetitions=3,
            label="test",
        )

    def test_series_aligned_with_grid(self, sweep):
        assert sweep.alphas.tolist() == [0.4, 0.75, 1.0]
        for series in sweep.series.values():
            assert len(series) == 3

    def test_raw_shape(self, sweep):
        assert sweep.raw["hits"].shape == (3, 3)

    def test_median_is_median_of_raw(self, sweep):
        assert np.allclose(
            sweep.series["hits"], np.median(sweep.raw["hits"], axis=1)
        )

    def test_metric_lookup(self, sweep):
        assert sweep.metric("merges") is sweep.series["merges"]
        with pytest.raises(KeyError, match="unknown metric"):
            sweep.metric("vibes")

    def test_at_alpha_nearest(self, sweep):
        point = sweep.at_alpha(0.76)
        assert point["merges"] == float(sweep.metric("merges")[1])

    def test_to_jsonable(self, sweep):
        payload = sweep.to_jsonable()
        assert payload["label"] == "test"
        assert len(payload["alphas"]) == 3

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            alpha_sweep(tiny_config(), alphas=[], repetitions=1)
        with pytest.raises(ValueError):
            alpha_sweep(tiny_config(), alphas=[1.5], repetitions=1)

    def test_serial_sweep_reports_and_traces_every_cell(self):
        from repro.parallel.simulations import worker_span_recorder

        recorder = worker_span_recorder()
        before = {id(span) for span in recorder.spans()}
        messages = []
        alpha_sweep(tiny_config(), alphas=[0.6, 0.8], repetitions=2,
                    workers=1, progress=messages.append)
        assert messages == [
            "alpha=0.60 rep=0 (1/4)", "alpha=0.60 rep=1 (2/4)",
            "alpha=0.80 rep=0 (3/4)", "alpha=0.80 rep=1 (4/4)",
        ]
        cells = [
            span for span in recorder.spans()
            if id(span) not in before and span.name == "sweep_cell"
        ]
        assert [dict(s.attrs)["alpha"] for s in cells] == [
            "0.6", "0.6", "0.8", "0.8"
        ]
        assert len({s.trace_id for s in cells}) == 4

    def test_merges_increase_with_alpha(self, sweep):
        merges = sweep.metric("merges")
        assert merges[1] > merges[0]
