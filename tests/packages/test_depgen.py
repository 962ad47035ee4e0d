"""Tests for repro.packages.depgen: structure of generated DAGs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.packages.depgen import (
    LayerSpec,
    _default_namer,
    flat,
    layered_dag,
    random_dag,
)
from repro.packages.package import Package
from repro.packages.repository import Repository
from repro.packages.sizes import lognormal_sizes


def _layers():
    return [
        LayerSpec(count=10, mean_size=1e6),
        LayerSpec(count=30, dep_range=(1, 3), mean_size=1e6),
        LayerSpec(count=60, dep_range=(2, 4), core_fraction=0.5, mean_size=1e6),
    ]


class TestLayerSpec:
    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            LayerSpec(count=-1)

    def test_rejects_bad_dep_range(self):
        with pytest.raises(ValueError):
            LayerSpec(count=1, dep_range=(3, 1))

    def test_rejects_bad_core_fraction(self):
        with pytest.raises(ValueError):
            LayerSpec(count=1, core_fraction=1.5)


class TestLayeredDag:
    def test_package_count(self, rng):
        packages = layered_dag(rng, _layers())
        assert len(packages) == 100

    def test_is_valid_acyclic_repository(self, rng):
        Repository(layered_dag(rng, _layers()))  # validates deps + acyclicity

    def test_layer_zero_has_no_deps(self, rng):
        packages = layered_dag(rng, _layers())
        layer0 = [p for p in packages if p.id.startswith("L0-")]
        assert layer0 and all(not p.deps for p in layer0)

    def test_deps_point_to_lower_layers_only(self, rng):
        packages = layered_dag(rng, _layers())
        for p in packages:
            layer = int(p.id[1])
            for dep in p.deps:
                assert int(dep[1]) < layer

    def test_popularity_skew_creates_hubs(self):
        rng = np.random.default_rng(0)
        packages = layered_dag(
            rng,
            [LayerSpec(count=50, mean_size=1e6),
             LayerSpec(count=500, dep_range=(2, 4), zipf_s=1.2, mean_size=1e6)],
        )
        repo = Repository(packages)
        counts = sorted(
            (len(v) for v in repo.dependents_index().values()), reverse=True
        )
        # Zipf choice concentrates dependents on a few core packages.
        assert counts[0] > 10 * max(1, counts[len(counts) // 2])

    def test_requires_nonempty_base(self, rng):
        with pytest.raises(ValueError):
            layered_dag(rng, [])

    def test_custom_namer(self, rng):
        packages = layered_dag(
            rng,
            [LayerSpec(count=2, mean_size=1e6)],
            namer=lambda layer, i: f"custom-{layer}-{i}/9.9",
        )
        assert packages[0].id == "custom-0-0/9.9"

    def test_deterministic_under_same_rng_seed(self):
        a = layered_dag(np.random.default_rng(5), _layers())
        b = layered_dag(np.random.default_rng(5), _layers())
        assert [(p.id, p.size, p.deps) for p in a] == [
            (p.id, p.size, p.deps) for p in b
        ]


def reference_layered_dag(rng, layers, namer=_default_namer, size_sigma=1.6,
                         total_size=None):
    """The formula ``layered_dag`` must equal, draw for draw: one
    ``rng.choice(n, p=w)`` per pick, every package built as it is drawn,
    and the whole list rebuilt to rescale it.  Slow on purpose — numpy
    re-validates and re-sums ``w`` for every single index."""

    def zipf_weights(n, s):
        weights = np.arange(1, n + 1, dtype=np.float64) ** -s
        return weights / weights.sum()

    layer_ids = []
    packages = []
    for layer_idx, spec in enumerate(layers):
        sizes = lognormal_sizes(rng, spec.count, spec.mean_size, size_sigma)
        ids = [namer(layer_idx, i) for i in range(spec.count)]
        if layer_idx == 0:
            for pid, size in zip(ids, sizes):
                packages.append(Package(id=pid, size=int(size)))
            layer_ids.append(ids)
            continue
        lower = layer_ids[layer_idx - 1]
        core = layer_ids[0]
        lower_w = zipf_weights(len(lower), spec.zipf_s)
        core_w = zipf_weights(len(core), spec.zipf_s)
        lo, hi = spec.dep_range
        counts = rng.integers(lo, hi + 1, size=spec.count)
        for pid, size, k in zip(ids, sizes, counts):
            deps = set()
            for _ in range(int(k)):
                if layer_idx == 1 or rng.random() < spec.core_fraction:
                    deps.add(core[int(rng.choice(len(core), p=core_w))])
                else:
                    deps.add(lower[int(rng.choice(len(lower), p=lower_w))])
            deps.discard(pid)
            packages.append(
                Package(id=pid, size=int(size), deps=tuple(sorted(deps)))
            )
        layer_ids.append(ids)
    if total_size is None:
        return packages
    return reference_rescale(packages, total_size)


def reference_rescale(packages, target_total):
    """Package-by-package rescale to an exact total, in Python integers."""
    current = sum(p.size for p in packages)
    if current == 0:
        return packages
    factor = target_total / current
    rescaled = [
        Package(id=p.id, size=max(1, int(round(p.size * factor))), deps=p.deps)
        for p in packages
    ]
    drift = target_total - sum(p.size for p in rescaled)
    if drift:
        biggest = max(range(len(rescaled)), key=lambda i: rescaled[i].size)
        p = rescaled[biggest]
        rescaled[biggest] = Package(id=p.id, size=p.size + drift, deps=p.deps)
    return rescaled


class NoWeightedChoice:
    """A generator whose ``choice`` refuses ``p=``: the weighted draw has
    to come from the per-layer CDF, not from numpy re-deriving it."""

    def __init__(self, rng):
        self._rng = rng

    def choice(self, *args, p=None, **kwargs):
        assert p is None, "layered_dag called rng.choice(..., p=...)"
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def records(packages):
    return [(p.id, p.size, type(p.size), p.deps, p.slot) for p in packages]


@st.composite
def layer_specs(draw):
    lo = draw(st.integers(0, 3))
    return LayerSpec(
        count=draw(st.integers(1, 40)),
        dep_range=(lo, lo + draw(st.integers(0, 4))),
        core_fraction=draw(
            st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)
        ),
        zipf_s=draw(st.sampled_from([0.0, 1.1, 2.0])),
        mean_size=draw(st.sampled_from([5e3, 1e6, 4e8])),
    )


class TestLayeredDagIdentity:
    """The repository is an input to every figure: the fast generator must
    produce the reference's packages *and* leave the generator where the
    reference leaves it, or everything drawn afterwards is reseeded."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layers=st.lists(layer_specs(), min_size=1, max_size=4),
        total_size=st.none() | st.integers(10**5, 10**13),
    )
    def test_equals_the_reference_draw_for_draw(self, seed, layers, total_size):
        ref_rng = np.random.default_rng(seed)
        expected = reference_layered_dag(ref_rng, layers, total_size=total_size)
        rng = np.random.default_rng(seed)
        got = layered_dag(NoWeightedChoice(rng), layers, total_size=total_size)
        assert records(got) == records(expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_the_reference_does_call_weighted_choice(self):
        # The tripwire is live: it is the reference, not the proxy, that
        # decides whether p= is ever passed.
        with pytest.raises(AssertionError, match="p="):
            reference_layered_dag(
                NoWeightedChoice(np.random.default_rng(0)), _layers()
            )

    def test_empty_layer_may_sit_below_one_that_never_draws_from_it(self):
        layers = [
            LayerSpec(count=5, mean_size=1e6),
            LayerSpec(count=0, mean_size=1e6),
            LayerSpec(count=8, dep_range=(1, 3), core_fraction=1.0,
                      mean_size=1e6),
        ]
        ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        assert records(layered_dag(rng, layers)) == records(
            reference_layered_dag(ref_rng, layers)
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        layers[2].core_fraction = 0.5
        with pytest.raises(ValueError, match="empty"):
            layered_dag(np.random.default_rng(3), layers)


class TestRandomDag:
    def test_count_and_validity(self, rng):
        repo = Repository(random_dag(rng, 80, mean_deps=2.5))
        assert len(repo) == 80

    def test_zero_packages(self, rng):
        assert random_dag(rng, 0) == []

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            random_dag(rng, -1)

    def test_edges_point_backwards(self, rng):
        packages = random_dag(rng, 50)
        index = {p.id: i for i, p in enumerate(packages)}
        for p in packages:
            for dep in p.deps:
                assert index[dep] < index[p.id]


class TestFlat:
    def test_no_dependencies(self, rng):
        packages = flat(rng, 20)
        assert all(not p.deps for p in packages)

    def test_sizes_positive(self, rng):
        assert all(p.size > 0 for p in flat(rng, 20))
