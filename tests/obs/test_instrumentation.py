"""Tests for the metric instrumentation of cache, journal, and simulator.

The contract under test: when a :class:`MetricsRegistry` is attached,
the ``landlord_*`` counters and gauges track :class:`CacheStats` and the
live cache state exactly — metrics are a view of the cache, never a
second bookkeeping system that can drift.
"""

import itertools

import numpy as np

from repro.core.cache import LandlordCache
from repro.core.journal import Journal
from repro.obs import MetricsRegistry

SIZE = {f"p{i}": 10 * (i % 7 + 1) for i in range(40)}


def run_instrumented(n_requests=200, capacity=2000, alpha=0.6, seed=3):
    registry = MetricsRegistry()
    c = LandlordCache(capacity, alpha, SIZE.__getitem__, metrics=registry)
    rng = np.random.default_rng(seed)
    pids = sorted(SIZE)
    for i in range(n_requests):
        k = int(rng.integers(1, 6))
        c.request(frozenset(rng.choice(pids, size=k, replace=False)))
        if i % 50 == 49:
            c.evict_idle(max_idle_requests=10)
    return c, registry


class TestCacheMetrics:
    def test_counters_track_stats_exactly(self):
        c, reg = run_instrumented()
        stats = c.stats
        requests = reg.get("landlord_requests_total")
        assert requests.value(action="hit") == stats.hits
        assert requests.value(action="merge") == stats.merges
        assert requests.value(action="insert") == stats.inserts
        evictions = reg.get("landlord_evictions_total")
        assert evictions.value(reason="capacity") == stats.evictions_capacity
        assert evictions.value(reason="idle") == stats.evictions_idle
        assert stats.evictions_capacity > 0 and stats.evictions_idle > 0
        assert reg.get("landlord_requested_bytes_total").value() == (
            stats.requested_bytes
        )
        assert reg.get("landlord_bytes_written_total").value() == (
            stats.bytes_written
        )
        assert reg.get("landlord_candidates_examined_total").value() == (
            stats.candidates_examined
        )

    def test_gauges_track_live_state(self):
        c, reg = run_instrumented()
        assert reg.get("landlord_cached_bytes").value() == c.cached_bytes
        assert reg.get("landlord_unique_bytes").value() == c.unique_bytes
        assert reg.get("landlord_images").value() == len(c)

    def test_merge_distance_histogram_counts_merges(self):
        c, reg = run_instrumented()
        child = reg.get("landlord_merge_distance").labels()
        assert child.count == c.stats.merges > 0
        # every recorded distance respects the merge threshold
        assert child.counts[-1] == 0  # nothing beyond the last bucket (1.0)

    def test_hot_path_timers_record(self):
        c, reg = run_instrumented(n_requests=50)
        family = reg.get("landlord_request_seconds")
        assert family.labelnames == ("engine",)
        assert family.labels(engine="vectorized").count == 50
        assert reg.get("landlord_subset_scan_seconds").labels().count > 0

    def test_enable_metrics_after_history_syncs_gauges(self):
        c = LandlordCache(2000, 0.6, SIZE.__getitem__)
        c.request(frozenset({"p0", "p1"}))
        reg = MetricsRegistry()
        c.enable_metrics(reg)
        # gauges reflect current state immediately (the CLI attaches
        # after journal replay); counters start at zero, not history.
        assert reg.get("landlord_cached_bytes").value() == c.cached_bytes
        assert reg.get("landlord_requests_total").value(action="insert") == 0

    def test_counters_equal_stats_after_split(self):
        # split() writes each part out; the written-bytes counter and the
        # image gauge read the same ledger as stats, so they cannot lag.
        reg = MetricsRegistry()
        c = LandlordCache(2000, 0.6, SIZE.__getitem__, metrics=reg)
        image = c.request(frozenset({"p0", "p1", "p2"})).image
        c.split(image.id, [{"p0"}, {"p1", "p2"}])
        assert reg.get("landlord_bytes_written_total").value() == (
            c.stats.bytes_written
        )
        assert reg.get("landlord_images").value() == len(c) == 2

    def test_restore_is_not_counted(self):
        # Counters advance from enable_metrics on: a cache built with
        # metrics= and then restored from a snapshot reads 0.
        source = LandlordCache(2000, 0.6, SIZE.__getitem__)
        for spec in ({"p0", "p1"}, {"p0", "p1"}, {"p0", "p2"}, {"p9"}):
            source.request(frozenset(spec))
        reg = MetricsRegistry()
        c = LandlordCache(2000, 0.6, SIZE.__getitem__, metrics=reg)
        c.restore(source.snapshot())
        assert c.stats.requests == 4
        for family in ("landlord_requested_bytes_total",
                       "landlord_bytes_written_total",
                       "landlord_candidates_examined_total"):
            assert reg.get(family).value() == 0
        requests = reg.get("landlord_requests_total")
        for action in ("hit", "merge", "insert"):
            assert requests.value(action=action) == 0
        assert reg.get("landlord_images").value() == len(c)
        c.request(frozenset({"p0", "p1"}))
        assert requests.value(action="hit") == 1

    def test_conflicts_counter(self):
        from repro.packages.conflicts import SlotConflicts

        reg = MetricsRegistry()
        c = LandlordCache(10_000, 0.9, lambda p: 10,
                          conflict_policy=SlotConflicts(), metrics=reg)
        c.request(frozenset({"root/6.20", "gcc/8.0"}))
        c.request(frozenset({"root/6.18", "gcc/8.0"}))
        assert reg.get("landlord_conflicts_skipped_total").value() == (
            c.stats.conflicts_skipped
        )
        assert c.stats.conflicts_skipped >= 1


class _SloSpy:
    """Records what the cache hands to ``SloTracker.sample``: the
    action (read off the stats it samples) and the latency."""

    def __init__(self):
        self.calls = []
        self._seen = (0, 0, 0)

    def configure(self, capacity, alpha):
        pass

    def start(self, stats):
        self._seen = (stats.hits, stats.merges, stats.inserts)

    def sample(self, stats, latency_s, cached_bytes, unique_bytes, images):
        seen = (stats.hits, stats.merges, stats.inserts)
        moved = [now - then for now, then in zip(seen, self._seen)]
        self._seen = seen
        self.calls.append((("hit", "merge", "insert")[moved.index(1)],
                           latency_s))


class TestOneObserverSeam:
    """Every request reaches the observers once, with one clock read."""

    def test_slo_and_histogram_see_the_same_elapsed(self, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(
            "repro.core.cache.perf_counter", lambda: float(next(ticks))
        )
        reg = MetricsRegistry()
        spy = _SloSpy()
        c = LandlordCache(2000, 0.6, SIZE.__getitem__, metrics=reg, slo=spy)
        timer = reg.get("landlord_request_seconds").labels(
            engine="vectorized"
        )
        for spec in ({"p0", "p1"}, {"p0", "p1"}, {"p0", "p1", "p2"}):
            before = timer.sum
            c.request(frozenset(spec))
            # integer ticks: the histogram sum is exact, no rounding slack
            assert timer.sum - before == spy.calls[-1][1]
        assert [action for action, _ in spy.calls] == [
            "insert", "hit", "merge"
        ]

    def test_one_latency_observation_per_request_in_both_modes(self):
        reg = MetricsRegistry()
        spy = _SloSpy()
        c = LandlordCache(300, 0.6, SIZE.__getitem__, metrics=reg, slo=spy)
        rng = np.random.default_rng(11)
        pids = sorted(SIZE)
        specs = [
            frozenset(rng.choice(pids, size=int(rng.integers(1, 6)),
                                 replace=False))
            for _ in range(120)
        ]
        for spec in specs[:50]:
            c.request(spec)
        c.submit_batch(specs[50:], batch_size=16)
        timer = reg.get("landlord_request_seconds").labels(
            engine="vectorized"
        )
        assert timer.count == 120
        assert len(spy.calls) == c.stats.requests == 120
        stats = c.stats
        assert stats.hits and stats.merges and stats.inserts and stats.deletes


class TestJournalMetrics:
    def test_append_and_fsync_metrics(self, tmp_path):
        reg = MetricsRegistry()
        journal = Journal(tmp_path / "j.journal", metrics=reg)
        journal.append("request", packages=["p0"])
        journal.append("request", packages=["p1"])
        assert reg.get("journal_appends_total").value() == 2
        assert reg.get("journal_fsync_seconds").labels().count == 2
        assert reg.get("journal_append_seconds").labels().count == 2

    def test_compaction_metrics(self, tmp_path):
        reg = MetricsRegistry()
        journal = Journal(tmp_path / "j.journal", metrics=reg)
        for i in range(5):
            journal.append("request", packages=[f"p{i}"])
        dropped = journal.compact(upto_seq=3)
        assert dropped == 3
        assert reg.get("journal_compactions_total").value() == 1
        assert reg.get("journal_entries_dropped_total").value() == 3
        assert reg.get("journal_compact_seconds").labels().count == 1

    def test_uninstrumented_journal_still_works(self, tmp_path):
        journal = Journal(tmp_path / "j.journal")
        journal.append("request", packages=["p0"])
        assert journal.last_seq == 1


class TestStateMetrics:
    """A checkpoint's own series, beside the journal's."""

    def store(self, tmp_path, reg, **kw):
        from repro.core.journal import JournaledState

        return JournaledState(tmp_path / "state.json", metrics=reg, **kw)

    def test_every_save_is_timed_and_sized(self, tmp_path):
        from repro.obs import validate_prometheus_text

        reg = MetricsRegistry()
        store = self.store(tmp_path, reg, snapshot_every=2)
        c = LandlordCache(500, 0.8, SIZE.__getitem__)
        store.initialise(c, {})
        assert reg.get("state_save_seconds").labels().count == 1
        assert reg.get("state_images").value() == 0
        store.apply(c, {}, "request", packages=["p0", "p1"])  # no checkpoint
        assert reg.get("state_save_seconds").labels().count == 1
        store.apply(c, {}, "request", packages=["p5"])        # seq 2: one
        assert reg.get("state_save_seconds").labels().count == 2
        assert reg.get("state_images").value() == len(c) == 2
        assert reg.get("state_bytes").value() == (
            store.state_path.stat().st_size
        )
        # the journal's family rides the same registry, and it all scrapes
        assert reg.get("journal_appends_total").value() == 2
        validate_prometheus_text(reg.to_prometheus())

    def test_enabled_after_load_like_the_cli_does(self, tmp_path):
        store = self.store(tmp_path, None)
        c = LandlordCache(500, 0.8, SIZE.__getitem__)
        store.initialise(c, {})
        reg = MetricsRegistry()
        store.enable_metrics(reg)
        store.apply(c, {}, "request", packages=["p0"])  # seq 1: checkpoint
        assert reg.get("state_save_seconds").labels().count == 1
        assert reg.get("state_images").value() == 1
        assert reg.get("journal_appends_total").value() == 1


class TestSimulatorMetrics:
    def test_collect_metrics_returns_snapshot(self):
        from repro.htc.simulator import SimulationConfig, simulate
        from repro.util.units import GB

        config = SimulationConfig(
            capacity=20 * GB, n_unique=15, repeats=2, max_selection=6,
            n_packages=300, repo_total_size=10 * GB, seed=4,
            record_timeline=False, collect_metrics=True,
        )
        result = simulate(config)
        assert result.metrics is not None
        reg = MetricsRegistry.from_snapshot(result.metrics)
        assert sum(
            child.value
            for _, child in reg.get("landlord_requests_total").series()
        ) == result.requests
        assert reg.get("landlord_requests_total").value(
            action="insert"
        ) == result.stats.inserts

    def test_default_run_collects_nothing(self):
        from repro.htc.simulator import SimulationConfig, simulate
        from repro.util.units import GB

        config = SimulationConfig(
            capacity=20 * GB, n_unique=10, repeats=2, max_selection=6,
            n_packages=300, repo_total_size=10 * GB, seed=4,
            record_timeline=False,
        )
        assert simulate(config).metrics is None

class TestRequestSecondsExemplars:
    """The OpenMetrics click-through: slow-bucket exemplars on
    ``landlord_request_seconds`` carry the request index, which resolves
    to a full decision narrative via ``repro-landlord explain``."""

    def run_traced(self, n_requests=30):
        from repro.obs import DecisionTracer

        registry = MetricsRegistry()
        tracer = DecisionTracer(limit=n_requests)
        c = LandlordCache(2000, 0.6, SIZE.__getitem__, metrics=registry)
        c.enable_tracing(tracer)
        rng = np.random.default_rng(5)
        pids = sorted(SIZE)
        for _ in range(n_requests):
            c.request(frozenset(rng.choice(pids, size=3, replace=False)))
        return registry, tracer, n_requests

    def exemplar_indices(self, registry):
        hist = registry.get("landlord_request_seconds")
        indices = set()
        for _, child in hist.series():
            for cell in child.exemplars or ():
                if cell is not None:
                    indices.add(int(dict(cell[0])["request"]))
        return indices

    def test_exemplars_carry_resolvable_request_indices(self):
        registry, tracer, n = self.run_traced()
        indices = self.exemplar_indices(registry)
        assert indices, "no request_seconds exemplars captured"
        for index in indices:
            assert 0 <= index < n
            explanation = tracer.explain(index)
            assert f"request #{index}" in explanation

    def test_exemplars_render_in_openmetrics_only(self):
        from repro.obs.promcheck import (
            validate_openmetrics_text,
            validate_prometheus_text,
        )

        registry, _, _ = self.run_traced()
        om = registry.to_openmetrics()
        assert 'request_seconds_bucket' in om and ' # {request="' in om
        validate_openmetrics_text(om)
        classic = registry.to_prometheus()
        assert " # {" not in classic
        validate_prometheus_text(classic)

    def test_no_metrics_means_no_exemplar_machinery(self):
        c = LandlordCache(2000, 0.6, SIZE.__getitem__)
        c.request(frozenset(["p1", "p2"]))
        assert c.stats.requests == 1
