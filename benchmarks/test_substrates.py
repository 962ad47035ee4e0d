"""Benchmarks for the substrate layers: adaptation and catalogs —
the pieces every experiment composes."""

from repro.core.adaptive import AlphaController
from repro.core.cache import LandlordCache
from repro.cvmfs.nested import NestedCatalogTree
from repro.htc.workload import DependencyWorkload, build_stream
from repro.util.rng import spawn


def test_adaptive_controller_overhead(benchmark, bench_repo, scale):
    """The controller's per-request bookkeeping must be negligible."""
    workload = DependencyWorkload(bench_repo, scale.max_selection)
    stream = build_stream(workload, spawn(4, "adapt-bench"),
                          n_unique=scale.n_unique, repeats=scale.repeats)

    def run():
        cache = LandlordCache(scale.capacity, 0.5, bench_repo.size_of)
        controller = AlphaController(cache, interval=50)
        for spec in stream:
            controller.request(spec)
        return controller

    controller = benchmark.pedantic(run, rounds=3, iterations=1)
    assert controller.cache.stats.requests == len(stream)


def test_nested_catalog_cold_walk(benchmark, bench_repo):
    spec = bench_repo.ids[: min(200, len(bench_repo))]

    def run():
        tree = NestedCatalogTree(bench_repo)
        return tree.metadata_cost_of(spec)

    cost = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cost > 0
