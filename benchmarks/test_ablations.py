"""Benchmark: the design-choice ablation studies (DESIGN.md §5)."""

from repro.experiments import ablations


def test_ablation_studies(benchmark, scale):
    bench_scale = scale.with_(repetitions=min(scale.repetitions, 3))
    results = benchmark.pedantic(
        ablations.run, args=(bench_scale,), kwargs={"seed": 2020},
        rounds=1, iterations=1,
    )
    studies = results["studies"]
    assert set(studies) == {
        "candidate_order", "eviction", "hit_selection", "merge_write_mode",
    }
    # Mechanism ablation: delta writes strictly undercut full rewrites.
    assert (
        studies["merge_write_mode"]["delta"]["bytes_written"]
        < studies["merge_write_mode"]["full"]["bytes_written"]
    )
