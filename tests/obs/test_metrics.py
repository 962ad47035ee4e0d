"""Tests for repro.obs.metrics — registry, export, deterministic merge."""

import json
import math

import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    DISTANCE_BUCKETS,
    MetricsRegistry,
    load_registry,
    save_registry,
)

# The strict exposition-format validator lives in the package
# (repro.obs.promcheck) so that the CI scrape smoke step and these unit
# tests run the exact same checker; re-exported here because
# tests/obs/test_cli_obs.py also imports it from this module.
from repro.obs.promcheck import (
    validate_openmetrics_text,
    validate_prometheus_text,
)


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests.")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_prebinding(self):
        c = MetricsRegistry().counter("ops_total", labelnames=("op",))
        hit = c.labels(op="hit")
        hit.inc()
        hit.inc()
        c.inc(op="miss")
        assert c.value(op="hit") == 2
        assert c.value(op="miss") == 1
        assert c.value(op="never") == 0

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("ops_total", labelnames=("op",))
        with pytest.raises(ValueError):
            c.inc(kind="hit")


class TestGauge:
    def test_set_and_inc(self):
        g = MetricsRegistry().gauge("bytes")
        g.set(100)
        g.labels().inc(-30)
        assert g.value() == 70


class TestBind:
    """A series bound to a reader is read whenever the registry is."""

    def test_counter_continues_from_its_value(self):
        ledger = {"n": 7}
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labelnames=("op",))
        c.inc(3, op="hit")
        c.bind(lambda: ledger["n"], op="hit")
        assert c.value(op="hit") == 3  # the 7 before binding is not counted
        ledger["n"] += 2
        assert c.value(op="hit") == 5
        assert reg.snapshot()["families"]["ops_total"]["series"] == [
            {"labels": ["hit"], "value": 5}
        ]
        assert 'ops_total{op="hit"} 5' in reg.to_prometheus()
        assert 'ops_total{op="hit"} 5' in reg.to_openmetrics()

    def test_gauge_reads_its_source(self):
        size = [40]
        reg = MetricsRegistry()
        g = reg.gauge("bytes")
        g.set(100)
        g.bind(lambda: size[0])
        assert g.value() == 40
        size[0] = 10
        assert g.value() == 10

    def test_rebase_keeps_the_value_across_a_jump(self):
        ledger = [0]
        child = MetricsRegistry().counter("x_total").bind(lambda: ledger[0])
        ledger[0] = 90
        child.rebase(0)
        assert child.value == 0
        ledger[0] += 1
        assert child.value == 1

    def test_bound_series_is_read_only(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labelnames=("op",))
        g = reg.gauge("bytes")
        c.bind(lambda: 1, op="hit")
        g.bind(lambda: 1)
        with pytest.raises(ValueError, match="ops_total.*read"):
            c.inc(op="hit")
        with pytest.raises(ValueError, match="bytes.*read"):
            g.set(5)
        snap = MetricsRegistry()
        snap.counter("ops_total", labelnames=("op",)).inc(2, op="hit")
        with pytest.raises(ValueError, match="read"):
            reg.merge_snapshot(snap.snapshot())


class TestHistogram:
    def test_bucket_placement(self):
        h = MetricsRegistry().histogram("d", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 99.0):
            h.observe(v)
        child = h.labels()
        # upper bounds are inclusive: 1.0 lands in the first bucket.
        assert child.counts == [2, 1, 1, 1]
        assert child.count == 5
        assert child.sum == pytest.approx(105.0)

    def test_quantile_and_mean(self):
        h = MetricsRegistry().histogram("d", buckets=(1.0, 2.0, 4.0))
        child = h.labels()
        assert math.isnan(child.quantile(0.5))
        assert math.isnan(child.mean)
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        assert 0.0 < child.quantile(0.25) <= 1.0
        assert 2.0 < child.quantile(0.9) <= 4.0
        assert child.mean == pytest.approx(8.5 / 4)
        with pytest.raises(ValueError):
            child.quantile(1.5)

    def test_buckets_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("a", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("b", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("c", buckets=(1.0, 1.0))

    def test_default_bucket_constants(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
        assert DISTANCE_BUCKETS[-1] == 1.0
        assert len(DISTANCE_BUCKETS) == 20


class TestValidation:
    def test_bad_metric_name(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("9starts-with-digit")

    def test_reserved_and_bad_label_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x", labelnames=("le",))
        with pytest.raises(ValueError):
            reg.counter("y", labelnames=("bad-dash",))
        with pytest.raises(ValueError):
            reg.counter("z", labelnames=("a", "a"))


class TestRegistry:
    def test_registration_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", "Hits.")
        b = reg.counter("hits_total")
        assert a is b
        assert len(reg) == 1
        assert "hits_total" in reg
        assert reg.get("hits_total") is a
        assert reg.get("absent") is None

    def test_conflicting_reregistration_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")
        reg.counter("l", labelnames=("op",))
        with pytest.raises(ValueError):
            reg.counter("l", labelnames=("kind",))
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_order_independent(self):
        def build(order):
            reg = MetricsRegistry()
            c = reg.counter("ops_total", labelnames=("op",))
            for op in order:
                c.inc(op=op)
            return reg

        a = build(["hit", "miss", "hit"])
        b = build(["miss", "hit", "hit"])
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )

    def test_deterministic_snapshot_drops_wall_clock(self):
        reg = MetricsRegistry()
        reg.counter("requests_total").inc()
        reg.histogram("request_seconds").observe(0.01)
        snap = reg.deterministic_snapshot()
        assert "requests_total" in snap["families"]
        assert "request_seconds" not in snap["families"]
        # the full snapshot still carries it
        assert "request_seconds" in reg.snapshot()["families"]


class TestPrometheusExport:
    def build(self):
        reg = MetricsRegistry()
        ops = reg.counter("cache_ops_total", "Operations.", ("op",))
        ops.inc(3, op="hit")
        ops.inc(op="miss")
        reg.gauge("cached_bytes", "Bytes resident.").set(12345)
        h = reg.histogram("req_seconds", "Latency.", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        return reg

    def test_text_format_valid(self):
        validate_prometheus_text(self.build().to_prometheus())

    def test_escaping_and_values(self):
        reg = MetricsRegistry()
        reg.counter("c", labelnames=("p",)).inc(p='we"ird\nval\\ue')
        text = reg.to_prometheus()
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        validate_prometheus_text(text)

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestMergeAndRoundTrip:
    def build(self, n):
        reg = MetricsRegistry()
        reg.counter("ops_total", "Ops.", ("op",)).inc(n, op="hit")
        reg.gauge("cached_bytes").set(100 * n)
        h = reg.histogram("dist", buckets=(0.5, 1.0))
        for _ in range(n):
            h.observe(0.4)
        return reg

    def test_merge_semantics(self):
        parent = self.build(2)
        parent.merge_snapshot(self.build(3).snapshot())
        assert parent.get("ops_total").value(op="hit") == 5
        # gauges take the incoming (newer) value, not the sum
        assert parent.get("cached_bytes").value() == 300
        child = parent.get("dist").labels()
        assert child.count == 5
        assert child.counts == [5, 0, 0]

    def test_merge_creates_absent_families(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(self.build(4).snapshot())
        assert parent.get("ops_total").value(op="hit") == 4

    def test_merge_bucket_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("dist", buckets=(0.5, 1.0)).observe(0.1)
        snap = self.build(1).snapshot()
        snap["families"]["dist"]["buckets"] = [0.5, 1.0, 2.0]
        snap["families"]["dist"]["series"][0]["counts"] = [1, 0, 0, 0]
        with pytest.raises(ValueError):
            parent.merge_snapshot(snap)

    def test_merge_unknown_type_rejected(self):
        snap = {"v": 1, "families": {"x": {"type": "summary", "series": []}}}
        with pytest.raises(ValueError):
            MetricsRegistry().merge_snapshot(snap)

    def test_from_snapshot_round_trip(self):
        reg = self.build(7)
        snap = reg.snapshot()
        clone = MetricsRegistry.from_snapshot(snap)
        assert json.dumps(clone.snapshot(), sort_keys=True) == json.dumps(
            snap, sort_keys=True
        )

    def test_merge_order_deterministic(self):
        # Counter/histogram merging commutes; folding worker snapshots
        # in submission order is what the sweep layer relies on.
        snaps = [self.build(n).snapshot() for n in (1, 2, 3)]
        a = MetricsRegistry()
        for snap in snaps:
            a.merge_snapshot(snap)
        b = MetricsRegistry()
        for snap in snaps:
            b.merge_snapshot(snap)
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )


class TestSaveLoad:
    def test_json_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits_total").inc(9)
        reg.histogram("d", buckets=(1.0,)).observe(0.5)
        path = save_registry(reg, tmp_path / "m.json")
        loaded = load_registry(path)
        assert json.dumps(loaded.snapshot(), sort_keys=True) == json.dumps(
            reg.snapshot(), sort_keys=True
        )

    def test_prom_extension_writes_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits_total", "Hits.").inc()
        path = save_registry(reg, tmp_path / "metrics.prom")
        text = path.read_text()
        assert "# TYPE hits_total counter" in text
        validate_prometheus_text(text)

    def test_load_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_registry(tmp_path / "absent.json")
        reg = load_registry(tmp_path / "absent.json", missing_ok=True)
        assert len(reg) == 0

    def test_load_corrupt_raises_value_error(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_registry(bad)

class TestOpenMetrics:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "Ops.", ("op",)).inc(2, op="hit")
        reg.gauge("cached_bytes").set(100)
        h = reg.histogram("req_seconds", buckets=(0.01, 0.1))
        h.observe(0.004, exemplar=(("request", "7"),))
        h.observe(0.5)
        return reg

    def test_counter_type_drops_total_samples_keep_it(self):
        text = self.build().to_openmetrics()
        assert "# TYPE ops counter" in text
        assert 'ops_total{op="hit"} 2' in text
        assert "# TYPE ops_total" not in text

    def test_terminates_with_eof(self):
        assert self.build().to_openmetrics().endswith("# EOF\n")
        assert MetricsRegistry().to_openmetrics() == "# EOF\n"

    def test_exemplar_rendered_on_its_bucket_only(self):
        text = self.build().to_openmetrics()
        assert (
            'req_seconds_bucket{le="0.01"} 1 # {request="7"} 0.004' in text
        )
        assert 'le="+Inf"} 2 #' not in text

    def test_exemplars_absent_from_classic_format(self):
        text = self.build().to_prometheus()
        assert "# {" not in text
        validate_prometheus_text(text)

    def test_validates_under_strict_checker(self):
        validate_openmetrics_text(self.build().to_openmetrics())

    def test_newest_exemplar_wins_per_bucket(self):
        h = MetricsRegistry().histogram("s", buckets=(1.0,))
        h.observe(0.5, exemplar=(("request", "1"),))
        h.observe(0.6, exemplar=(("request", "2"),))
        child = h.labels()
        assert child.exemplars[0] == ((("request", "2"),), 0.6)

    def test_oversize_exemplar_dropped_at_render(self):
        reg = MetricsRegistry()
        reg.histogram("s", buckets=(1.0,)).observe(
            0.5, exemplar=(("request", "x" * 200),)
        )
        text = reg.to_openmetrics()
        assert "# {" not in text
        validate_openmetrics_text(text)

    def test_exemplars_survive_snapshot_round_trip(self):
        reg = self.build()
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.to_openmetrics() == reg.to_openmetrics()

    def test_exemplar_merge_incoming_wins(self):
        a = MetricsRegistry()
        a.histogram("s", buckets=(1.0,)).observe(
            0.5, exemplar=(("request", "old"),)
        )
        b = MetricsRegistry()
        b.histogram("s", buckets=(1.0,)).observe(
            0.4, exemplar=(("request", "new"),)
        )
        a.merge_snapshot(b.snapshot())
        assert 'request="new"' in a.to_openmetrics()
        assert 'request="old"' not in a.to_openmetrics()


class TestExemplarTimestamps:
    """The optional wall-clock timestamp on exemplar cells."""

    def build(self):
        reg = MetricsRegistry()
        h = reg.histogram("req_seconds", buckets=(0.01, 0.1))
        h.observe(
            0.004,
            exemplar=(("trace_id", "abc123"),),
            exemplar_ts=1700000042.5,
        )
        return reg

    def test_timestamp_rendered_after_exemplar_value(self):
        text = self.build().to_openmetrics()
        assert (
            'req_seconds_bucket{le="0.01"} 1 '
            '# {trace_id="abc123"} 0.004 1700000042.5' in text
        )
        validate_openmetrics_text(text)

    def test_timestamp_absent_from_classic_format(self):
        text = self.build().to_prometheus()
        assert "1700000042.5" not in text
        validate_prometheus_text(text)

    def test_bare_exemplar_cell_stays_a_pair(self):
        # The ts-less cell shape is part of the public child API — a
        # 2-tuple, not a 3-tuple with None (the arity IS the signal).
        h = MetricsRegistry().histogram("s", buckets=(1.0,))
        h.observe(0.5, exemplar=(("request", "1"),))
        assert h.labels().exemplars[0] == ((("request", "1"),), 0.5)

    def test_timestamped_cell_is_a_triple(self):
        h = MetricsRegistry().histogram("s", buckets=(1.0,))
        h.observe(0.5, exemplar=(("request", "1"),), exemplar_ts=7.0)
        assert h.labels().exemplars[0] == ((("request", "1"),), 0.5, 7.0)

    def test_timestamps_survive_snapshot_round_trip(self):
        reg = self.build()
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.to_openmetrics() == reg.to_openmetrics()

    def test_timestamps_survive_merge(self):
        a = MetricsRegistry()
        a.histogram("req_seconds", buckets=(0.01, 0.1))
        a.merge_snapshot(self.build().snapshot())
        assert "0.004 1700000042.5" in a.to_openmetrics()

    def test_timestamp_kept_out_of_deterministic_snapshot(self):
        # *_seconds families (the only ones carrying wall-clock
        # exemplar timestamps) are excluded from deterministic merging.
        reg = self.build()
        assert "req_seconds" not in reg.deterministic_snapshot()


class TestMergeGuards:
    def test_type_conflict_names_both_kinds(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        snap = {
            "v": 1,
            "families": {"x_total": {
                "type": "gauge", "labelnames": [],
                "series": [{"labels": [], "value": 1}],
            }},
        }
        with pytest.raises(ValueError, match=(
            r"cannot merge snapshot family 'x_total'.*"
            r"registered as counter, cannot re-register as gauge"
        )):
            reg.merge_snapshot(snap)

    def test_bucket_bounds_mismatch_names_both_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("d", buckets=(0.5, 1.0)).observe(0.1)
        other = MetricsRegistry()
        other.histogram("d", buckets=(0.5, 2.0)).observe(0.1)
        with pytest.raises(ValueError, match=(
            r"cannot merge snapshot family 'd'.*bucket bounds"
        )):
            reg.merge_snapshot(other.snapshot())

    def test_label_mismatch_names_both_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",)).inc(a="1")
        other = MetricsRegistry()
        other.counter("x_total", labelnames=("b",)).inc(b="1")
        with pytest.raises(ValueError, match=(
            r"cannot merge snapshot family 'x_total'.*labels"
        )):
            reg.merge_snapshot(other.snapshot())

    def test_counts_length_mismatch_is_specific(self):
        reg = MetricsRegistry()
        reg.histogram("d", buckets=(0.5, 1.0)).observe(0.1)
        snap = reg.snapshot()
        snap["families"]["d"]["series"][0]["counts"] = [1, 0]
        with pytest.raises(ValueError, match="counts"):
            MetricsRegistry.from_snapshot(reg.snapshot()).merge_snapshot(
                snap
            )
