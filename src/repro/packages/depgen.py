"""Synthetic dependency-DAG generators.

The paper's central observation is that merging only pays off when container
contents have *hierarchical* dependency structure — a compact core of
near-universal transitive dependencies under a long tail of leaf packages
(§VI, Figures 3 and 7).  These generators produce exactly such structures
(plus the unstructured controls) so the experiments can vary structure while
holding everything else constant:

- :func:`layered_dag` — packages arranged in layers; higher layers depend on
  lower ones, with popularity-skewed (Zipf) choice so a few lower packages
  become common transitive dependencies.  This models SFT/RPM/Conda stacks.
- :func:`random_dag` — each package depends on a uniform random subset of
  earlier packages; no popularity skew, no layering.
- :func:`flat` — no dependencies at all; the degenerate control in which a
  spec's closure is the spec itself.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.packages.package import Package, make_package_id
from repro.packages.sizes import lognormal_sizes, rescale_to_total

__all__ = ["layered_dag", "random_dag", "flat", "LayerSpec"]

Namer = Callable[[int, int], str]  # (layer, index_within_layer) -> package id


def _default_namer(layer: int, index: int) -> str:
    return make_package_id(f"L{layer}-pkg{index:05d}", "1.0")


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    """Cumulative Zipf probabilities over ranks 1..n with exponent ``s``.

    ``cdf.searchsorted(u, side="right")`` is, step for step, what
    ``rng.choice(n, p=weights)`` does with the one double ``u`` it draws
    — the same index — minus validating, normalising and accumulating
    the weights again for every pick.
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    cdf = (weights / weights.sum()).cumsum()
    if n:
        cdf /= cdf[-1]
    return cdf


class LayerSpec:
    """Parameters for one layer of :func:`layered_dag`.

    Attributes:
        count: number of packages in the layer.
        dep_range: inclusive (min, max) number of direct dependencies drawn
            by each package in this layer (ignored for layer 0).
        core_fraction: fraction of dependency picks routed to layer 0
            (the "core") rather than the immediately lower layer.  Layer 1
            draws everything from layer 0 regardless.
        zipf_s: popularity skew of dependency choice within the target
            layer; 0 means uniform.
        mean_size: expected package size in bytes for this layer.
    """

    def __init__(
        self,
        count: int,
        dep_range: Tuple[int, int] = (1, 4),
        core_fraction: float = 0.3,
        zipf_s: float = 1.1,
        mean_size: float = 50e6,
    ):
        if count < 0:
            raise ValueError("layer count must be non-negative")
        lo, hi = dep_range
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid dep_range: {dep_range!r}")
        if not 0.0 <= core_fraction <= 1.0:
            raise ValueError(f"invalid core_fraction: {core_fraction!r}")
        self.count = count
        self.dep_range = (lo, hi)
        self.core_fraction = core_fraction
        self.zipf_s = zipf_s
        self.mean_size = mean_size


def layered_dag(
    rng: np.random.Generator,
    layers: Sequence[LayerSpec],
    namer: Optional[Namer] = None,
    size_sigma: float = 1.6,
    total_size: Optional[int] = None,
) -> List[Package]:
    """Generate a hierarchical dependency DAG.

    Packages in layer ``L`` depend on packages in layer ``L-1`` and (with
    probability ``core_fraction``) on layer 0.  Choices within a layer are
    Zipf-skewed by rank so low-rank packages become widely shared transitive
    dependencies — the structure responsible for the closure amplification
    seen in Figure 3.

    Dependencies always point from higher to lower layers, so the result is
    acyclic by construction.  With ``total_size`` the drawn sizes are
    rescaled to sum to exactly that many bytes (see
    :func:`~repro.packages.sizes.rescale_to_total`).
    """
    if namer is None:
        namer = _default_namer
    if not layers or layers[0].count == 0:
        raise ValueError("layered_dag needs a non-empty base layer")

    layer_ids: List[List[str]] = []
    layer_sizes: List[np.ndarray] = []
    all_deps: List[Tuple[str, ...]] = []

    for layer_idx, spec in enumerate(layers):
        layer_sizes.append(
            lognormal_sizes(rng, spec.count, spec.mean_size, size_sigma)
        )
        ids = [namer(layer_idx, i) for i in range(spec.count)]
        layer_ids.append(ids)
        if layer_idx == 0:
            all_deps.extend([()] * spec.count)
            continue

        core = layer_ids[0]
        lower = layer_ids[layer_idx - 1]
        lo, hi = spec.dep_range
        counts = rng.integers(lo, hi + 1, size=spec.count)
        n_picks = int(counts.sum())
        # The stream is the one a pick-by-pick loop consumes: above layer 1
        # each pick takes one double to choose core vs lower and one to
        # choose within it; layer 1 only has the core to draw from.
        core_cdf = _zipf_cdf(len(core), spec.zipf_s)
        if layer_idx == 1:
            pool = core
            picks = core_cdf.searchsorted(rng.random(n_picks), side="right")
        else:
            draws = rng.random(2 * n_picks)
            use_core, within = draws[0::2] < spec.core_fraction, draws[1::2]
            if not lower and not use_core.all():
                raise ValueError(
                    f"layer {layer_idx} draws from the empty layer below it"
                )
            lower_cdf = _zipf_cdf(len(lower), spec.zipf_s)
            pool = core + lower
            picks = np.where(
                use_core,
                core_cdf.searchsorted(within, side="right"),
                len(core) + lower_cdf.searchsorted(within, side="right"),
            )
        picked = [pool[j] for j in picks.tolist()]
        start = 0
        for pid, k in zip(ids, counts.tolist()):
            deps = set(picked[start:start + k])
            start += k
            deps.discard(pid)
            all_deps.append(tuple(sorted(deps)))

    sizes = np.concatenate(layer_sizes)
    if total_size is not None:
        sizes = rescale_to_total(sizes, total_size)
    return [
        Package(id=pid, size=size, deps=deps)
        for pid, size, deps in zip(
            chain.from_iterable(layer_ids), sizes.tolist(), all_deps
        )
    ]


def random_dag(
    rng: np.random.Generator,
    n: int,
    mean_deps: float = 2.0,
    mean_size: float = 50e6,
    size_sigma: float = 1.6,
    namer: Optional[Callable[[int], str]] = None,
    total_size: Optional[int] = None,
) -> List[Package]:
    """Generate an unstructured DAG: package ``i`` depends on a Poisson
    number of uniformly chosen earlier packages.

    Acyclic because edges only point to lower indices.  Used as the
    "arbitrary collections of data" control in Figure 7.  ``total_size``
    is as for :func:`layered_dag`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if namer is None:
        namer = lambda i: make_package_id(f"rnd-pkg{i:05d}", "1.0")  # noqa: E731
    sizes = lognormal_sizes(rng, n, mean_size, size_sigma)
    if total_size is not None:
        sizes = rescale_to_total(sizes, total_size)
    packages: List[Package] = []
    for i in range(n):
        if i == 0:
            deps: Tuple[str, ...] = ()
        else:
            k = min(int(rng.poisson(mean_deps)), i)
            if k > 0:
                picks = rng.choice(i, size=k, replace=False)
                deps = tuple(sorted(namer(int(j)) for j in picks))
            else:
                deps = ()
        packages.append(Package(id=namer(i), size=int(sizes[i]), deps=deps))
    return packages


def flat(
    rng: np.random.Generator,
    n: int,
    mean_size: float = 50e6,
    size_sigma: float = 1.6,
    namer: Optional[Callable[[int], str]] = None,
    total_size: Optional[int] = None,
) -> List[Package]:
    """Generate ``n`` packages with no dependencies at all.

    ``total_size`` is as for :func:`layered_dag`.
    """
    if namer is None:
        namer = lambda i: make_package_id(f"flat-pkg{i:05d}", "1.0")  # noqa: E731
    sizes = lognormal_sizes(rng, n, mean_size, size_sigma)
    if total_size is not None:
        sizes = rescale_to_total(sizes, total_size)
    return [
        Package(id=namer(i), size=int(sizes[i])) for i in range(n)
    ]
