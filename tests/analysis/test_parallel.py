"""Tests for repro.parallel and the parallel paths of repro.analysis.sweep.

The load-bearing property is *bit-identical determinism*: a sweep fanned
out over any number of worker processes must equal the serial sweep
exactly — same seeds, same cell order, same arrays.  The failure paths
matter almost as much: a crash in a worker must name the failing
``(alpha, repetition)`` cell, and bad worker counts must be rejected
rather than silently clamped.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.sweep import alpha_sweep, run_repetitions
from repro.htc.simulator import SimulationConfig
from repro.parallel import (
    ParallelExecutionError,
    RepositorySpec,
    SimulationPool,
    parallel_map,
    repetition_seeds,
    resolve_workers,
)
from repro.util.units import GB


def tiny_config(**kw):
    base = dict(
        capacity=20 * GB, n_unique=15, repeats=3, max_selection=6,
        n_packages=300, repo_total_size=10 * GB, seed=4,
    )
    base.update(kw)
    return SimulationConfig(**base)


def _square(x):
    """Module-level so it pickles by reference into workers."""
    return x * x


def _boom(x):
    """Module-level failing task for worker-exception tests."""
    if x == 3:
        raise RuntimeError("kaboom on three")
    return x


def _boom_slowest_first(x):
    """Every task fails, and task 0 is the last to: the chunk that
    finishes first never holds the lowest failing index."""
    if x == 0:
        time.sleep(0.03)
    raise RuntimeError(f"kaboom on {x}")


class TestRepetitionSeeds:
    def test_distinct_and_deterministic(self):
        seeds = repetition_seeds(2020, 20)
        assert len(seeds) == 20
        assert len(set(seeds)) == 20
        assert seeds == repetition_seeds(2020, 20)

    def test_none_differs_from_zero(self):
        # seed=None must not alias seed=0 (the old scheme's collision).
        assert repetition_seeds(None, 10) != repetition_seeds(0, 10)

    def test_disjoint_across_bases(self):
        # Nearby base seeds must not share repetition seeds (the old
        # ``base * 10_000 + rep`` scheme collided across bases).
        a = set(repetition_seeds(1, 50))
        b = set(repetition_seeds(2, 50))
        assert not a & b

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            repetition_seeds(1, 0)


class TestResolveWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            resolve_workers(bad)

    def test_default_none_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_library_default_is_all_cpus(self, monkeypatch):
        # The one rule, for library calls and the CLI alike:
        # explicit > REPRO_WORKERS > every CPU; no caller picks its own
        # default.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)
        with pytest.raises(TypeError, match="default"):
            resolve_workers(None, default=1)


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) == [
            x * x for x in items
        ]

    def test_serial_matches_parallel(self):
        items = list(range(10))
        assert parallel_map(_square, items, workers=1) == parallel_map(
            _square, items, workers=3
        )

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_worker_exception_names_task(self):
        labels = [f"item-{i}" for i in range(6)]
        with pytest.raises(ParallelExecutionError) as err:
            parallel_map(_boom, list(range(6)), workers=2, labels=labels,
                         chunk_size=1)
        assert err.value.label == "item-3"
        assert err.value.index == 3
        assert "kaboom on three" in str(err.value)

    def test_every_task_failing_names_the_lowest_index(self):
        # What _serial_map reports, whichever chunk the pool hands back
        # first (20 pools: the order the chunks finish in is not fixed).
        for _ in range(20):
            with pytest.raises(ParallelExecutionError) as err:
                parallel_map(_boom_slowest_first, list(range(6)), workers=2,
                             chunk_size=1)
            assert err.value.index == 0
            assert "kaboom on 0" in str(err.value)

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parallel_map(_square, [1, 2], workers=1, labels=["only-one"])

    def test_progress_fires_per_task(self):
        seen = []
        parallel_map(
            _square, [1, 2, 3], workers=1,
            progress=lambda done, total, label: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestDeterminism:
    """Parallel execution must be bit-identical to serial, per the paper's
    fixed-seed protocol (§VI: 20 repetitions per point, medians)."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        kwargs = dict(alphas=[0.4, 0.75, 1.0], repetitions=3, label="det")
        serial = alpha_sweep(tiny_config(), workers=1, **kwargs)
        parallel = alpha_sweep(tiny_config(), workers=4, **kwargs)
        return serial, parallel

    def test_alphas_and_metrics_match(self, sweeps):
        serial, parallel = sweeps
        assert np.array_equal(serial.alphas, parallel.alphas)
        assert serial.series.keys() == parallel.series.keys()

    def test_series_bit_identical(self, sweeps):
        serial, parallel = sweeps
        for name in serial.series:
            assert np.array_equal(serial.series[name],
                                  parallel.series[name]), name

    def test_raw_bit_identical(self, sweeps):
        serial, parallel = sweeps
        for name in serial.raw:
            assert np.array_equal(serial.raw[name],
                                  parallel.raw[name]), name

    def test_run_repetitions_matches(self, small_sft):
        config = tiny_config()
        serial = run_repetitions(config, 4, repository=small_sft, workers=1)
        parallel = run_repetitions(config, 4, repository=small_sft,
                                   workers=2)
        assert [r.summary() for r in serial] == [
            r.summary() for r in parallel
        ]

    def test_env_var_path_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        via_env = alpha_sweep(tiny_config(), alphas=[0.5, 0.9],
                              repetitions=2)
        monkeypatch.delenv("REPRO_WORKERS")
        serial = alpha_sweep(tiny_config(), alphas=[0.5, 0.9],
                             repetitions=2, workers=1)
        for name in serial.raw:
            assert np.array_equal(serial.raw[name], via_env.raw[name])


class TestFailurePaths:
    def test_workers_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            alpha_sweep(tiny_config(), alphas=[0.5], repetitions=1,
                        workers=0)

    def test_worker_crash_names_cell(self):
        # scheme is only validated when the workload is built inside the
        # simulation, so a bogus scheme detonates in the worker.
        with pytest.raises(ParallelExecutionError, match="alpha=0.40"):
            alpha_sweep(
                tiny_config(scheme="bogus"), alphas=[0.4, 0.6],
                repetitions=2, workers=2,
            )

    def test_crash_report_includes_rep(self):
        with pytest.raises(ParallelExecutionError, match="rep="):
            run_repetitions(tiny_config(scheme="bogus"), 2, workers=2)

    def test_unseeded_spec_rejected(self):
        spec = RepositorySpec("sft", None, 300, 10 * GB)
        with pytest.raises(ValueError, match="seed=None"):
            SimulationPool(spec, workers=2)

    def test_unseeded_sweep_still_works(self):
        # seed=None ships the built repository instead of a spec; the two
        # runs share nothing, so only shapes are comparable.
        sweep = alpha_sweep(tiny_config(seed=None), alphas=[0.5],
                            repetitions=2, workers=2)
        assert sweep.raw["hits"].shape == (1, 2)


class TestSimulationPool:
    def test_reuse_across_batches(self):
        config = tiny_config()
        spec = RepositorySpec.from_config(config)
        batch_a = [config.with_(alpha=0.5, seed=s)
                   for s in repetition_seeds(config.seed, 2)]
        batch_b = [config.with_(alpha=0.9, seed=s)
                   for s in repetition_seeds(config.seed, 2)]
        with SimulationPool(spec, workers=2) as pool:
            got_a = pool.run(batch_a)
            got_b = pool.run(batch_b)
        repo = spec.build()
        want_a = [r.summary() for r in run_repetitions(
            config.with_(alpha=0.5), 2, repository=repo)]
        want_b = [r.summary() for r in run_repetitions(
            config.with_(alpha=0.9), 2, repository=repo)]
        assert [r.summary() for r in got_a] == want_a
        assert [r.summary() for r in got_b] == want_b

    def test_serial_pool_fallback(self):
        config = tiny_config()
        with SimulationPool(RepositorySpec.from_config(config), 1) as pool:
            assert not pool.parallel
            results = pool.run([config])
        assert len(results) == 1

    def test_close_idempotent(self):
        pool = SimulationPool(
            RepositorySpec.from_config(tiny_config()), workers=2
        )
        pool.close()
        pool.close()

    def test_serial_run_records_sweep_cell_spans(self):
        config = tiny_config()
        with SimulationPool(RepositorySpec.from_config(config), 1) as pool:
            before = len(pool.spans)
            results = pool.run([config, config.with_(alpha=0.9)])
        assert len(results) == 2
        fresh = pool.spans.spans()[before:]
        cells = [s for s in fresh if s.name == "sweep_cell"]
        assert len(cells) == 2
        # one trace per cell, alpha attached for slow-cell triage
        assert len({s.trace_id for s in cells}) == 2
        assert [dict(s.attrs)["alpha"] for s in cells] == ["0.75", "0.9"]
        assert all(s.duration >= 0.0 for s in cells)

    def test_tracing_leaves_results_bit_identical(self):
        # The span wrapper must not perturb the simulation itself.
        config = tiny_config()
        repo = RepositorySpec.from_config(config).build()
        from repro.htc.simulator import simulate

        bare = simulate(config, repository=repo)
        with SimulationPool(RepositorySpec.from_config(config), 1) as pool:
            (traced,) = pool.run([config])
        assert traced.summary() == bare.summary()

    def test_shared_pool_matches_own_pool(self):
        config = tiny_config()
        spec = RepositorySpec.from_config(config)
        with SimulationPool(spec, workers=2) as pool:
            shared = alpha_sweep(config, alphas=[0.5, 0.8], repetitions=2,
                                 pool=pool)
        own = alpha_sweep(config, alphas=[0.5, 0.8], repetitions=2,
                          workers=2)
        for name in own.raw:
            assert np.array_equal(own.raw[name], shared.raw[name])
