"""Cross-process metric aggregation must be bit-identical to serial.

Companion to ``tests/analysis/test_parallel.py``: the same determinism
bar, applied to the metrics a sweep's cells collect when its
``SimulationPool`` carries a ``TelemetryAggregator``.  Wall-clock
``*_seconds`` families are excluded by ``deterministic_snapshot`` (they
genuinely differ between machines and runs); everything else must match
exactly.
"""

import json
import os

import numpy as np

from repro.analysis.sweep import alpha_sweep, run_repetitions
from repro.htc.simulator import SimulationConfig
from repro.obs import MetricsRegistry, TelemetryAggregator
from repro.parallel import RepositorySpec, SimulationPool
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


def observed_pool(workers, aggregator=None):
    """A pool over tiny_config()'s repository feeding ``aggregator``."""
    return SimulationPool(
        RepositorySpec.from_config(tiny_config()), workers,
        telemetry=aggregator,
    )


def repetitions_metrics(repetitions, workers):
    """The aggregate of ``repetitions`` runs on a ``workers`` pool."""
    aggregator = TelemetryAggregator()
    with observed_pool(workers, aggregator) as pool:
        run_repetitions(tiny_config(), repetitions, pool=pool)
    return aggregator


def sweep_metrics(alphas, workers):
    """A 2-repetition sweep on a ``workers`` pool, and its aggregate."""
    aggregator = TelemetryAggregator()
    with observed_pool(workers, aggregator) as pool:
        sweep = alpha_sweep(tiny_config(), alphas=alphas, repetitions=2,
                            pool=pool)
    return sweep, aggregator


class TestRunRepetitionsMetrics:
    def test_parallel_matches_serial_bit_identically(self):
        serial = repetitions_metrics(3, workers=1).aggregate()
        fanned = repetitions_metrics(3, workers=2).aggregate()
        assert canonical(serial) == canonical(fanned)
        assert serial.get("landlord_requests_total") is not None

    def test_no_metrics_requested_costs_nothing(self):
        results = run_repetitions(tiny_config(), repetitions=2, workers=1)
        assert all(r.metrics is None for r in results)


class TestAlphaSweepMetrics:
    def test_parallel_sweep_metrics_match_serial(self):
        alphas = [0.6, 0.8]
        s_sweep, serial = sweep_metrics(alphas, workers=1)
        p_sweep, fanned = sweep_metrics(alphas, workers=2)
        assert canonical(serial.aggregate()) == canonical(fanned.aggregate())
        for name, values in s_sweep.series.items():
            np.testing.assert_array_equal(values, p_sweep.series[name])

    def test_sweep_accumulates_all_cells(self):
        _, aggregator = sweep_metrics([0.6, 0.8], workers=1)
        total_requests = sum(
            child.value
            for _, child in aggregator.aggregate()
            .get("landlord_requests_total").series()
        )
        # 2 alphas x 2 repetitions x (15 unique x 3 repeats) requests
        assert total_requests == 2 * 2 * 15 * 3


class TestLiveTelemetryStream:
    """The live fleet view must not bend the determinism bar: an
    aggregator fed from the pool's completion loop, in whatever order
    cells finish, matches the serial registry bit-for-bit."""

    def test_streamed_aggregate_matches_serial(self):
        serial = repetitions_metrics(3, workers=1)
        aggregator = repetitions_metrics(3, workers=2)
        assert aggregator.status()["cells"]["folded"] == 3
        assert canonical(aggregator.aggregate()) == canonical(
            serial.aggregate()
        )

    def test_sweep_streaming_matches_merged_registry(self):
        # The streamed fold equals folding the returned results' own
        # snapshots in cell order.
        aggregator = TelemetryAggregator()
        with observed_pool(2, aggregator) as pool:
            results = run_repetitions(tiny_config(), 4, pool=pool)
        merged = MetricsRegistry()
        for result in results:
            merged.merge_snapshot(result.metrics)
        assert aggregator.status()["cells"]["folded"] == 4
        assert canonical(aggregator.aggregate()) == canonical(merged)

    def test_serial_path_streams_as_main_worker(self):
        aggregator = repetitions_metrics(2, workers=1)
        status = aggregator.status()
        assert list(status["workers"]) == ["main"]
        assert status["workers"]["main"]["cells"] == 2
        fanned = repetitions_metrics(2, workers=2)
        assert canonical(aggregator.aggregate()) == canonical(
            fanned.aggregate()
        )

    def test_worker_rows_are_the_pool_processes(self):
        aggregator = repetitions_metrics(6, workers=2)
        status = aggregator.status()
        workers = status["workers"]
        assert 1 <= len(workers) <= 2
        for name in workers:
            prefix, _, pid = name.partition("-")
            assert prefix == "pid" and pid.isdigit()
            assert int(pid) != os.getpid()
        cells = sum(entry["cells"] for entry in workers.values())
        assert cells == status["cells"]["folded"] == 6

    def test_worker_rows_split_requests_by_outcome(self):
        # Every worker row reads hits, merges and inserts off the
        # cache's landlord_requests_total{action=...} children, so the
        # three add up to the row's requests, and the rows to the fleet.
        _, aggregator = sweep_metrics([0.5, 0.9], workers=2)
        workers = aggregator.status()["workers"]
        assert workers
        for name, row in workers.items():
            assert row["hits"] + row["merges"] + row["inserts"] == (
                row["requests"]
            ), name
            assert row["requests"] > 0
        assert sum(row["requests"] for row in workers.values()) == (
            2 * 2 * 15 * 3
        )

    def test_pool_reuse_keeps_indices_unique(self):
        aggregator = TelemetryAggregator()
        with observed_pool(2, aggregator) as pool:
            run_repetitions(tiny_config(), repetitions=2, pool=pool)
            run_repetitions(tiny_config(), repetitions=2, pool=pool)
        status = aggregator.status()
        assert status["cells"]["folded"] == 4
        assert status["cells"]["duplicates"] == 0
