"""Cross-process metric aggregation must be bit-identical to serial.

Companion to ``tests/analysis/test_parallel.py``: the same determinism
bar, applied to the metrics registries that sweeps populate via
``merge_result_metrics``.  Wall-clock ``*_seconds`` families are
excluded by ``deterministic_snapshot`` (they genuinely differ between
machines and runs); everything else must match exactly.
"""

import json
import os

import numpy as np

from repro.analysis.sweep import alpha_sweep, run_repetitions
from repro.htc.simulator import SimulationConfig
from repro.obs import MetricsRegistry, TelemetryAggregator
from repro.parallel import merge_result_metrics
from repro.util.units import GB


def tiny_config(**kw):
    base = dict(
        capacity=20 * GB, n_unique=15, repeats=3, max_selection=6,
        n_packages=300, repo_total_size=10 * GB, seed=4,
        record_timeline=False,
    )
    base.update(kw)
    return SimulationConfig(**base)


def canonical(registry: MetricsRegistry) -> str:
    return json.dumps(registry.deterministic_snapshot(), sort_keys=True)


class TestRunRepetitionsMetrics:
    def test_parallel_matches_serial_bit_identically(self):
        serial = MetricsRegistry()
        run_repetitions(tiny_config(), repetitions=3, workers=1,
                        metrics=serial)
        fanned = MetricsRegistry()
        run_repetitions(tiny_config(), repetitions=3, workers=2,
                        metrics=fanned)
        assert canonical(serial) == canonical(fanned)
        assert serial.get("landlord_requests_total") is not None

    def test_no_metrics_requested_costs_nothing(self):
        results = run_repetitions(tiny_config(), repetitions=2, workers=1)
        assert all(r.metrics is None for r in results)


class TestAlphaSweepMetrics:
    def test_parallel_sweep_metrics_match_serial(self):
        alphas = [0.6, 0.8]
        serial = MetricsRegistry()
        s_sweep = alpha_sweep(tiny_config(), alphas=alphas, repetitions=2,
                              workers=1, metrics=serial)
        fanned = MetricsRegistry()
        p_sweep = alpha_sweep(tiny_config(), alphas=alphas, repetitions=2,
                              workers=2, metrics=fanned)
        assert canonical(serial) == canonical(fanned)
        for name, values in s_sweep.series.items():
            np.testing.assert_array_equal(values, p_sweep.series[name])

    def test_sweep_accumulates_all_cells(self):
        registry = MetricsRegistry()
        alpha_sweep(tiny_config(), alphas=[0.6, 0.8], repetitions=2,
                    workers=1, metrics=registry)
        total_requests = sum(
            child.value
            for _, child in registry.get("landlord_requests_total").series()
        )
        # 2 alphas x 2 repetitions x (15 unique x 3 repeats) requests
        assert total_requests == 2 * 2 * 15 * 3


class TestMergeResultMetrics:
    def test_skips_results_without_snapshots(self):
        results = run_repetitions(tiny_config(), repetitions=2, workers=1)
        registry = MetricsRegistry()
        assert merge_result_metrics(results, registry) == 0
        assert len(registry) == 0

    def test_counts_merged_snapshots(self):
        registry = MetricsRegistry()
        results = run_repetitions(tiny_config(), repetitions=2, workers=1,
                                  metrics=registry)
        fresh = MetricsRegistry()
        assert merge_result_metrics(results, fresh) == 2
        assert canonical(fresh) == canonical(registry)


class TestLiveTelemetryStream:
    """The live fleet view must not bend the determinism bar: an
    aggregator fed from the pool's completion loop, in whatever order
    cells finish, matches the serial registry bit-for-bit."""

    def test_streamed_aggregate_matches_serial(self):
        serial = MetricsRegistry()
        run_repetitions(tiny_config(), repetitions=3, workers=1,
                        metrics=serial)
        aggregator = TelemetryAggregator()
        run_repetitions(tiny_config(), repetitions=3, workers=2,
                        telemetry=aggregator)
        assert aggregator.status()["cells"]["folded"] == 3
        assert canonical(aggregator.aggregate()) == canonical(serial)

    def test_sweep_streaming_matches_merged_registry(self):
        alphas = np.asarray([0.6, 0.8])
        merged = MetricsRegistry()
        aggregator = TelemetryAggregator()
        alpha_sweep(tiny_config(), alphas=alphas, repetitions=2,
                    workers=2, metrics=merged, telemetry=aggregator)
        assert aggregator.status()["cells"]["folded"] == 4
        assert canonical(aggregator.aggregate()) == canonical(merged)

    def test_serial_path_streams_as_main_worker(self):
        serial = MetricsRegistry()
        run_repetitions(tiny_config(), repetitions=2, workers=1,
                        metrics=serial)
        aggregator = TelemetryAggregator()
        run_repetitions(tiny_config(), repetitions=2, workers=1,
                        telemetry=aggregator)
        status = aggregator.status()
        assert list(status["workers"]) == ["main"]
        assert status["workers"]["main"]["cells"] == 2
        assert canonical(aggregator.aggregate()) == canonical(serial)

    def test_worker_rows_are_the_pool_processes(self):
        aggregator = TelemetryAggregator()
        run_repetitions(tiny_config(), repetitions=6, workers=2,
                        telemetry=aggregator)
        status = aggregator.status()
        workers = status["workers"]
        assert 1 <= len(workers) <= 2
        for name in workers:
            prefix, _, pid = name.partition("-")
            assert prefix == "pid" and pid.isdigit()
            assert int(pid) != os.getpid()
        cells = sum(entry["cells"] for entry in workers.values())
        assert cells == status["cells"]["folded"] == 6

    def test_pool_reuse_keeps_indices_unique(self):
        from repro.parallel import SimulationPool
        from repro.packages.sft import build_experiment_repository

        config = tiny_config(collect_metrics=True)
        repository = build_experiment_repository(
            config.repo_kind, seed=config.seed,
            n_packages=config.n_packages,
            target_total_size=config.repo_total_size,
        )
        aggregator = TelemetryAggregator()
        with SimulationPool(repository, workers=2,
                            telemetry=aggregator) as pool:
            run_repetitions(config, repetitions=2, pool=pool)
            run_repetitions(config, repetitions=2, pool=pool)
        status = aggregator.status()
        assert status["cells"]["folded"] == 4
        assert status["cells"]["duplicates"] == 0
