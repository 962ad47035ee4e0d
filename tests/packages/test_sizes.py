"""Tests for repro.packages.sizes."""

import math

import numpy as np
import pytest

from repro.packages.sizes import (
    MIN_PACKAGE_SIZE,
    lognormal_sizes,
    mu_for_mean,
    rescale_to_total,
)


class TestMuForMean:
    def test_expectation_identity(self):
        mean, sigma = 5e7, 1.2
        mu = mu_for_mean(mean, sigma)
        assert math.isclose(math.exp(mu + sigma**2 / 2), mean, rel_tol=1e-9)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            mu_for_mean(0, 1.0)


class TestLognormalSizes:
    def test_mean_roughly_calibrated(self, rng):
        sizes = lognormal_sizes(rng, 200_000, mean_bytes=50e6, sigma=1.2)
        assert 0.9 * 50e6 < sizes.mean() < 1.1 * 50e6

    def test_minimum_clip(self, rng):
        sizes = lognormal_sizes(rng, 10_000, mean_bytes=5000, sigma=2.0)
        assert sizes.min() >= MIN_PACKAGE_SIZE

    def test_maximum_clip(self, rng):
        sizes = lognormal_sizes(rng, 10_000, mean_bytes=1e9, sigma=2.0,
                                max_bytes=10**10)
        assert sizes.max() <= 10**10

    def test_zero_n(self, rng):
        assert lognormal_sizes(rng, 0, 1e6).size == 0

    def test_negative_n_rejected(self, rng):
        with pytest.raises(ValueError):
            lognormal_sizes(rng, -1, 1e6)

    def test_dtype_int64(self, rng):
        assert lognormal_sizes(rng, 5, 1e6).dtype == np.int64

    def test_heavy_tail_present(self, rng):
        sizes = lognormal_sizes(rng, 100_000, mean_bytes=50e6, sigma=1.6)
        assert sizes.max() > 20 * np.median(sizes)


class TestRescaleToTotal:
    def test_total_is_exact_and_drift_goes_to_the_largest(self):
        sizes = np.array([10, 30, 20], dtype=np.int64)
        rescaled = rescale_to_total(sizes, 100)
        assert rescaled.tolist() == [17, 50, 33]  # rounds to 100 by itself
        # 1.83, 5.5, 3.67 round to 2, 6, 4 — one over, taken off the 6.
        assert rescale_to_total(sizes, 11).tolist() == [2, 5, 4]
        assert rescaled.dtype == np.int64 and sizes.tolist() == [10, 30, 20]

    def test_halves_round_to_even_like_builtin_round(self):
        sizes = np.array([1, 3, 5, 7, 16], dtype=np.int64)  # x 0.5
        rescaled = rescale_to_total(sizes, 16).tolist()
        assert rescaled[:4] == [max(1, round(x * 0.5)) for x in (1, 3, 5, 7)]
        assert rescaled == [1, 2, 2, 4, 7]  # the largest gives up the drift

    def test_nothing_shrinks_below_one_byte(self):
        sizes = np.array([1, 1, 10**9], dtype=np.int64)
        rescaled = rescale_to_total(sizes, 1000)
        assert rescaled.tolist() == [1, 1, 998]

    def test_all_zero_and_empty_are_returned_as_they_are(self):
        for sizes in (np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64)):
            assert rescale_to_total(sizes, 50).tolist() == sizes.tolist()
