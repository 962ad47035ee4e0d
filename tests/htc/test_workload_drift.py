"""Tests for UserDriftWorkload (temporally correlated specs)."""

import hashlib

import numpy as np
import pytest

from repro.core.similarity import jaccard_distance
from repro.htc.workload import DependencyWorkload, UserDriftWorkload, build_stream


class TestUserDriftWorkload:
    def test_successive_samples_are_close(self, small_sft, rng):
        workload = UserDriftWorkload(small_sft, max_selection=10, drift=0.2)
        previous = workload.sample(rng)
        distances = []
        for _ in range(8):
            current = workload.sample(rng)
            distances.append(jaccard_distance(previous, current))
            previous = current
        assert np.median(distances) < 0.6

    def test_closer_than_independent_draws(self, small_sft):
        drift = UserDriftWorkload(small_sft, max_selection=10, drift=0.2)
        indep = DependencyWorkload(small_sft, max_selection=10)
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        drift_specs = [drift.sample(rng_a) for _ in range(10)]
        indep_specs = [indep.sample(rng_b) for _ in range(10)]

        def consecutive(specs):
            return np.median(
                [jaccard_distance(a, b) for a, b in zip(specs, specs[1:])]
            )

        assert consecutive(drift_specs) < consecutive(indep_specs)

    def test_session_restart_breaks_correlation(self, small_sft, rng):
        workload = UserDriftWorkload(
            small_sft, max_selection=10, drift=0.1, session_length=3
        )
        specs = [workload.sample(rng) for _ in range(6)]
        within = jaccard_distance(specs[1], specs[2])
        across = jaccard_distance(specs[2], specs[3])  # session boundary
        # statistically the boundary jump dominates; allow rare ties
        assert across >= within or across > 0.5

    def test_samples_are_closed(self, small_sft, rng):
        workload = UserDriftWorkload(small_sft, max_selection=8)
        for _ in range(5):
            spec = workload.sample(rng)
            assert small_sft.closure(spec) == spec

    def test_parameter_validation(self, small_sft):
        with pytest.raises(ValueError):
            UserDriftWorkload(small_sft, drift=1.5)
        with pytest.raises(ValueError):
            UserDriftWorkload(small_sft, session_length=0)

    def test_drift_workload_merges_more_than_independent(self, small_sft):
        from repro.core.cache import LandlordCache
        from repro.util.units import GB

        def run(scheme_cls):
            workload = scheme_cls(small_sft, max_selection=8)
            rng = np.random.default_rng(5)
            cache = LandlordCache(30 * GB, 0.6, small_sft.size_of)
            for _ in range(60):
                cache.request(workload.sample(rng))
            return cache.stats.hits + cache.stats.merges

        assert run(UserDriftWorkload) > run(DependencyWorkload)

    def test_seeded_stream_is_pinned(self, small_sft):
        """The draws are a function of the seed alone: this stream's
        digest was taken before the drop set was built once per call."""
        workload = UserDriftWorkload(
            small_sft, max_selection=30, drift=0.3, session_length=7
        )
        stream = build_stream(
            workload, np.random.default_rng(2020), n_unique=40, repeats=2
        )
        text = "\n".join(",".join(sorted(spec)) for spec in stream)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b4f197291cb4253d76134da90f9f928cc4170b0e124f264ec20f90dc62fef59d"
        )
