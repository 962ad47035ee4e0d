"""Tests for repro.obs.telemetry — per-worker views, one aggregate.

The determinism bar from the sweep layer applies here too: folding
worker cells strictly in submission-index order must reproduce the
serial registry bit-for-bit, whatever the arrival order, batching, or
worker assignment.  Property tests below drive that with integer-valued
observations (exactly representable, so float sums cannot blur the
comparison the way reordered IEEE folds would).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.obs.promcheck import (
    validate_openmetrics_text,
    validate_prometheus_text,
)
from repro.obs.telemetry import TelemetryAggregator


def cell_snapshot(n=1, v=2.0):
    """One task's registry snapshot: counters, a gauge, a histogram."""
    reg = MetricsRegistry()
    reg.counter("landlord_requests_total", "Requests.", ("action",)).inc(
        n, action="hit"
    )
    reg.counter("landlord_hits_total", "Hits.").inc(n)
    reg.gauge("landlord_images").set(10 * n)
    reg.histogram("landlord_merge_distance", buckets=(1.0, 4.0)).observe(v)
    return reg.snapshot()


def canonical(reg: MetricsRegistry) -> str:
    return json.dumps(reg.snapshot(), sort_keys=True)


def serial_fold(snaps) -> MetricsRegistry:
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge_snapshot(snap)
    return reg


class TestAggregatorCells:
    def test_out_of_order_cells_fold_in_index_order(self):
        snaps = [cell_snapshot(n, float(n)) for n in range(4)]
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(3, snaps[3]), (1, snaps[1])])
        # only index 0..  nothing contiguous yet
        assert agg.status()["cells"]["folded"] == 0
        assert agg.status()["cells"]["pending"] == 2
        agg.ingest_cells("w2", [(0, snaps[0])])
        assert agg.status()["cells"]["folded"] == 2  # 0 then 1
        agg.ingest_cells("w2", [(2, snaps[2])])
        assert agg.status()["cells"]["folded"] == 4
        assert canonical(agg.aggregate()) == canonical(serial_fold(snaps))

    def test_duplicate_indices_dropped_and_counted(self):
        snap = cell_snapshot()
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, snap)])
        agg.ingest_cells("w1", [(0, snap)])  # the same cell again
        agg.ingest_cells("w1", [(1, snap), (1, snap)])
        status = agg.status()
        assert status["cells"]["folded"] == 2
        assert status["cells"]["duplicates"] == 2
        assert agg.aggregate().get("landlord_hits_total").value() == 2

    def test_worker_views_track_their_own_cells(self):
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, cell_snapshot(1))])
        agg.ingest_cells("w2", [(1, cell_snapshot(5))])
        views = dict(agg.worker_registries())
        assert views["w1"].get("landlord_hits_total").value() == 1
        assert views["w2"].get("landlord_hits_total").value() == 5

    def test_status_counters_and_progress(self):
        agg = TelemetryAggregator(expected_cells=3)
        assert agg.status()["workers"] == {}
        agg.ingest_cells("w1", [(0, cell_snapshot(2))])
        status = agg.status()
        w1 = status["workers"]["w1"]
        assert w1["cells"] == 1
        assert w1["hits"] == 2
        assert w1["requests"] == 2
        assert status["cells"] == {
            "folded": 1, "pending": 0, "duplicates": 0, "expected": 3,
        }
        assert status["complete"] is False
        agg.mark_complete()
        assert agg.status()["complete"] is True


class TestFleetRender:
    def test_no_workers_renders_like_bare_registry(self):
        # A scrape before the first cell returns is an empty exposition.
        agg = TelemetryAggregator(expected_cells=4)
        bare = MetricsRegistry()
        assert agg.to_prometheus() == bare.to_prometheus() == ""
        assert agg.to_openmetrics() == bare.to_openmetrics() == "# EOF\n"

    def test_worker_series_under_one_type_block(self):
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, cell_snapshot(1))])
        agg.ingest_cells("w2", [(1, cell_snapshot(2))])
        text = agg.to_prometheus()
        assert text.count("# TYPE landlord_hits_total counter") == 1
        assert "landlord_hits_total 3" in text  # aggregate first
        assert 'landlord_hits_total{worker="w1"} 1' in text
        assert 'landlord_hits_total{worker="w2"} 2' in text
        assert 'landlord_requests_total{worker="w1",action="hit"} 1' in text

    def test_both_formats_validate(self):
        agg = TelemetryAggregator()
        agg.ingest_cells("w1", [(0, cell_snapshot(1))])
        agg.ingest_cells("w2", [(1, cell_snapshot(2))])
        validate_prometheus_text(agg.to_prometheus())
        validate_openmetrics_text(agg.to_openmetrics())

    def test_openmetrics_ends_with_eof(self):
        agg = TelemetryAggregator()
        assert agg.to_openmetrics().rstrip("\n").endswith("# EOF")
        agg.ingest_cells("w1", [(0, cell_snapshot())])
        assert agg.to_openmetrics().rstrip("\n").endswith("# EOF")


# -- property tests ---------------------------------------------------------

# Integer observations keep histogram sums exactly representable, so
# fold-order comparisons below are bit-exact by construction and any
# mismatch is a real aggregation bug, not float noise.
cells_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 6)),
    min_size=1, max_size=12,
).map(
    lambda raw: [cell_snapshot(n, float(v)) for n, v in raw]
)


class TestMergeProperties:
    @settings(max_examples=25, deadline=None)
    @given(cells=cells_strategy, split=st.integers(1, 11))
    def test_merge_is_associative(self, cells, split):
        split = min(split, len(cells))
        left = serial_fold(cells[:split])
        left.merge_snapshot(serial_fold(cells[split:]).snapshot())
        assert canonical(left) == canonical(serial_fold(cells))

    @settings(max_examples=25, deadline=None)
    @given(cells=cells_strategy, workers=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_fold_bit_identical_across_worker_counts_and_orders(
        self, cells, workers, seed
    ):
        import random

        rng = random.Random(seed)
        batches = [
            (f"w{i % workers}", i, snap) for i, snap in enumerate(cells)
        ]
        rng.shuffle(batches)  # arbitrary arrival interleaving
        agg = TelemetryAggregator()
        for worker, index, snap in batches:
            agg.ingest_cells(worker, [(index, snap)])
        assert agg.status()["cells"]["folded"] == len(cells)
        assert canonical(agg.aggregate()) == canonical(serial_fold(cells))

    @settings(max_examples=25, deadline=None)
    @given(cells=cells_strategy)
    def test_worker_labelled_ingest_commutes(self, cells):
        # Per-worker series are disjoint under the worker label, so the
        # fleet exposition is independent of ingest order.
        forward = TelemetryAggregator()
        backward = TelemetryAggregator()
        for i, snap in enumerate(cells):
            forward.ingest_cells(f"w{i}", [(i, snap)])
        for i, snap in reversed(list(enumerate(cells))):
            backward.ingest_cells(f"w{i}", [(i, snap)])
        assert forward.to_prometheus() == backward.to_prometheus()
        assert forward.to_openmetrics() == backward.to_openmetrics()
