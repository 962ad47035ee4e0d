"""Tests for repro.htc.simulator."""

import numpy as np
import pytest

from repro.core.cache import LandlordCache
from repro.htc.simulator import (
    SimulationConfig,
    make_workload,
    simulate,
    simulate_stream,
)
from repro.util.units import GB


def tiny_config(**kw):
    base = dict(
        alpha=0.75,
        capacity=20 * GB,
        n_unique=25,
        repeats=3,
        max_selection=8,
        n_packages=300,
        repo_total_size=10 * GB,
        seed=5,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestSimulate:
    def test_request_count(self):
        result = simulate(tiny_config())
        assert result.requests == 75

    def test_deterministic(self):
        a = simulate(tiny_config()).summary()
        b = simulate(tiny_config()).summary()
        assert a == b

    def test_seed_changes_results(self):
        a = simulate(tiny_config()).summary()
        b = simulate(tiny_config(seed=6)).summary()
        assert a != b

    def test_timeline_lengths(self):
        result = simulate(tiny_config())
        for series in result.timeline.values():
            assert len(series) == 75

    def test_timeline_monotone_cumulative_counters(self):
        result = simulate(tiny_config())
        for name in ("hits", "inserts", "merges", "deletes",
                     "bytes_written", "requested_bytes"):
            series = result.timeline[name]
            assert np.all(np.diff(series) >= 0), name

    def test_no_timeline_when_disabled(self):
        result = simulate(tiny_config(record_timeline=False))
        assert result.timeline == {}

    def test_summary_keys_stable(self):
        summary = simulate(tiny_config()).summary()
        assert {"hits", "merges", "inserts", "deletes", "cache_efficiency",
                "container_efficiency", "bytes_written",
                "write_amplification"} <= set(summary)

    def test_efficiencies_in_range(self):
        result = simulate(tiny_config())
        assert 0 <= result.cache_efficiency <= 1
        assert 0 <= result.container_efficiency <= 1

    def test_random_scheme(self):
        result = simulate(tiny_config(scheme="random"))
        assert result.requests == 75

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            simulate(tiny_config(scheme="astrology"))

    def test_config_with_(self):
        cfg = tiny_config()
        assert cfg.with_(alpha=0.5).alpha == 0.5
        assert cfg.alpha == 0.75  # original untouched

    @pytest.mark.parametrize("knob", ["engine", "batch_size"])
    def test_config_has_no_performance_knobs(self, knob):
        # results never depended on them, so a run is not configured by them
        with pytest.raises(TypeError, match=knob):
            tiny_config(**{knob: 0})

    def test_prebuilt_repository_reused(self, small_sft):
        cfg = tiny_config(n_packages=len(small_sft))
        result = simulate(cfg, repository=small_sft)
        assert result.requests == 75


class TestSimulateStream:
    def test_drives_existing_cache(self, tiny_repo):
        cache = LandlordCache(1000, 0.8, tiny_repo.size_of)
        stream = [frozenset({"base/1.0"}), frozenset({"libA/1.0", "base/1.0"})]
        result = simulate_stream(cache, stream)
        assert result.stats.requests == 2
        assert len(result.timeline["hits"]) == 2

    def test_cache_state_visible_after(self, tiny_repo):
        cache = LandlordCache(1000, 0.8, tiny_repo.size_of)
        simulate_stream(cache, [frozenset({"base/1.0"})])
        assert len(cache) == 1

    def test_batched_dispatch_matches_sequential(self, tiny_repo):
        # The simulator's one loop and the daemon's submit_batch reach
        # the same state from the same stream.
        stream = [
            frozenset({"base/1.0"}),
            frozenset({"libA/1.0", "base/1.0"}),
            frozenset({"libB/1.0"}),
            frozenset({"base/1.0"}),
        ] * 4
        driven = LandlordCache(1000, 0.8, tiny_repo.size_of)
        result = simulate_stream(driven, stream, record_timeline=False)
        batched = LandlordCache(1000, 0.8, tiny_repo.size_of)
        batched.submit_batch(stream, batch_size=2)
        assert result.stats == batched.stats
        assert driven.snapshot() == batched.snapshot()


class TestMakeWorkload:
    def test_scheme_dispatch(self, small_sft):
        from repro.htc.workload import DependencyWorkload, RandomWorkload

        assert isinstance(
            make_workload(tiny_config(scheme="deps"), small_sft),
            DependencyWorkload,
        )
        assert isinstance(
            make_workload(tiny_config(scheme="random"), small_sft),
            RandomWorkload,
        )
