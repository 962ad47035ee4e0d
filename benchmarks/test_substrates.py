"""Benchmarks for the substrate layers every experiment composes:
the adaptive-α controller."""

from repro.core.adaptive import AlphaController
from repro.core.cache import LandlordCache
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
