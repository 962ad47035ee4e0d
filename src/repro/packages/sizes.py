"""Package size distributions.

Real software repositories have heavy-tailed package sizes: many small
scripts and configuration packages, a few multi-gigabyte toolchains and
datasets.  A lognormal matches this well and is easy to calibrate to a target
mean, which is how the synthetic SFT repository is pinned to the paper's
aggregate sizes (repo totals in the hundreds of GB, minimal images of a few
GB).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["lognormal_sizes", "mu_for_mean", "rescale_to_total"]

MIN_PACKAGE_SIZE = 4096  # a package is at least one filesystem block


def mu_for_mean(mean: float, sigma: float) -> float:
    """Return the lognormal ``mu`` giving expectation ``mean`` at ``sigma``.

    E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    return math.log(mean) - sigma * sigma / 2.0


def lognormal_sizes(
    rng: np.random.Generator,
    n: int,
    mean_bytes: float,
    sigma: float = 1.6,
    min_bytes: int = MIN_PACKAGE_SIZE,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """Draw ``n`` package sizes (int64 bytes) with the given expectation.

    Sizes are clipped below at ``min_bytes`` (one filesystem block) and,
    optionally, above at ``max_bytes`` to keep single packages from dwarfing
    the repository.  Clipping slightly perturbs the realised mean; callers
    that need an exact total should rescale (see
    :func:`repro.packages.sft.build_sft_repository`).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    mu = mu_for_mean(mean_bytes, sigma)
    draws = rng.lognormal(mean=mu, sigma=sigma, size=n)
    if max_bytes is not None:
        draws = np.minimum(draws, float(max_bytes))
    draws = np.maximum(draws, float(min_bytes))
    return draws.astype(np.int64)


def rescale_to_total(sizes: np.ndarray, target_total: int) -> np.ndarray:
    """Proportionally rescale int64 ``sizes`` to sum to ``target_total``.

    Every size stays at least one byte; the integer-rounding drift goes
    into the largest package so the total is exact — experiments compare
    cache sizes against repository multiples.
    """
    current = int(sizes.sum())
    if current == 0:
        return sizes
    rescaled = np.rint(sizes * (target_total / current)).astype(np.int64)
    np.maximum(rescaled, 1, out=rescaled)
    rescaled[rescaled.argmax()] += target_total - int(rescaled.sum())
    return rescaled
