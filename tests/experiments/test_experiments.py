"""Smoke + shape tests for every figure experiment at tiny scale.

Each test runs the experiment's ``run`` and asserts the qualitative shape
the paper reports — these are the statements EXPERIMENTS.md makes, executed.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import TINY
from repro.experiments import (
    ablations,
    fig1_layering,
    fig2_benchmarks,
    fig3_image_size,
    fig4_cache_behavior,
    fig5_single_run,
    fig6_sensitivity,
    fig7_dependencies,
    fig8_limits,
)

SEED = 2020


@pytest.fixture(scope="module")
def fig4_results():
    return fig4_cache_behavior.run(TINY, seed=SEED)


class TestFig1:
    def test_schematic_matches_paper_story(self):
        results = fig1_layering.run(TINY, seed=SEED)
        schematic = results["schematic"]
        assert not schematic["layering"]["equivalence_detected"]
        assert schematic["composition"]["equivalence_detected"]
        assert schematic["composition"]["actions"][2] == "hit"

    def test_layering_stores_at_least_composition_unique(self):
        gen = fig1_layering.run(TINY, seed=SEED)["generalised"]
        assert gen["layering_stored_bytes"] >= gen["composition_unique_bytes"]

    def test_report_renders(self):
        out = fig1_layering.report(fig1_layering.run(TINY, seed=SEED))
        assert "Figure 1" in out

    def test_independent_of_the_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED, so a result that
        # depends on it differs between two processes
        code = (
            "import json; from repro.experiments import TINY, fig1_layering; "
            f"print(json.dumps(fig1_layering.run(TINY, seed={SEED}), "
            "sort_keys=True, default=str))"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed}, check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]


class TestFig2:
    @pytest.fixture(scope="class")
    def results(self):
        return fig2_benchmarks.run(TINY, seed=SEED)

    def test_all_seven_apps(self, results):
        assert len(results["apps"]) == 7

    def test_model_images_near_paper(self, results):
        for row in results["apps"]:
            assert abs(row["model_image"] - row["paper_image"]) \
                < 0.5 * row["paper_image"], row["name"]

    def test_model_repos_match_paper(self, results):
        for row in results["apps"]:
            assert row["model_repo"] == row["full_repo"]

    def test_shared_landlord_reuses_images(self, results):
        actions = {s["action"] for s in results["shared_landlord"]}
        assert actions & {"merge", "hit"}  # at least some amortisation

    def test_report_renders(self, results):
        assert "Figure 2" in fig2_benchmarks.report(results)


class TestFig3:
    @pytest.fixture(scope="class")
    def results(self):
        return fig3_image_size.run(TINY, seed=SEED)

    def test_spec_size_grows_linearly(self, results):
        spec = results["spec_bytes"]
        assert np.all(np.diff(spec) > 0)

    def test_closure_amplifies_small_selections(self, results):
        amp = results["amplification"]
        assert amp[0] > 1.5

    def test_amplification_fades_with_size(self, results):
        amp = results["amplification"]
        assert amp[-1] < amp[0]

    def test_image_bounded_by_repo(self, results):
        assert results["image_bytes"][-1] <= results["repo_bytes"]
        assert results["image_count"][-1] <= results["repo_packages"]

    def test_image_always_at_least_spec(self, results):
        assert np.all(results["image_bytes"] >= results["spec_bytes"])

    def test_report_renders(self, results):
        assert "Figure 3" in fig3_image_size.report(results)


class TestFig4:
    def test_low_alpha_is_lru_like(self, fig4_results):
        sweep = fig4_results["sweep"]
        assert sweep.metric("merges")[0] == 0
        # inserts and deletes move in lockstep once the cache is full
        assert sweep.metric("inserts")[0] > 0

    def test_merges_rise_then_collapse_at_one(self, fig4_results):
        sweep = fig4_results["sweep"]
        merges = sweep.metric("merges")
        peak = merges.max()
        assert peak > 0
        assert merges[-1] < peak  # α=1 single image: merge count falls

    def test_hits_rise_with_alpha(self, fig4_results):
        hits = fig4_results["sweep"].metric("hits")
        assert hits[-1] > hits[0]

    def test_unique_rises_total_falls(self, fig4_results):
        sweep = fig4_results["sweep"]
        unique = sweep.metric("unique_bytes")
        total = sweep.metric("cached_bytes")
        assert unique[-1] > unique[0]
        assert total[-1] < total[0]
        assert unique[-1] == pytest.approx(total[-1], rel=0.01)

    def test_actual_writes_exceed_requested_at_high_alpha(self, fig4_results):
        sweep = fig4_results["sweep"]
        wamp = sweep.metric("write_amplification")
        mid = len(wamp) // 2
        assert wamp[:mid].min() < 1.05  # low α: no merge overhead
        assert wamp.max() > 1.05        # high α: rewrites dominate

    def test_report_renders(self, fig4_results):
        assert "Figure 4" in fig4_cache_behavior.report(fig4_results)


class TestFig5:
    @pytest.fixture(scope="class")
    def results(self):
        return fig5_single_run.run(TINY, seed=SEED)

    def test_merges_dominate_at_075(self, results):
        final = results["final"]
        assert final["merges"] > final["hits"] * 0.5

    def test_cache_saturates_at_capacity(self, results):
        cached = results["timeline"]["cached_bytes"]
        assert cached.max() <= TINY.capacity * 1.5
        # once deletes begin, occupancy hovers near the limit
        deletes = results["timeline"]["deletes"]
        if deletes[-1] > 0:
            first_delete = int(np.argmax(deletes > 0))
            assert cached[first_delete:].min() > 0.5 * TINY.capacity

    def test_hits_keep_rising(self, results):
        hits = results["timeline"]["hits"]
        assert hits[-1] > hits[len(hits) // 2] >= hits[0]

    def test_writes_track_merges(self, results):
        written = results["timeline"]["bytes_written"]
        assert np.all(np.diff(written) >= 0)
        assert written[-1] > 0

    def test_report_renders(self, results):
        assert "Figure 5" in fig5_single_run.report(results)


class TestFig6:
    @pytest.fixture(scope="class")
    def results(self):
        scale = TINY.with_(repetitions=2)
        return fig6_sensitivity.run(scale, seed=SEED)

    def test_bigger_cache_lower_cache_efficiency(self, results):
        sweeps = results["by_cache"]
        mid = len(sweeps[0].alphas) // 2
        small_cache = sweeps[0].metric("cache_efficiency")[mid]
        big_cache = sweeps[-1].metric("cache_efficiency")[mid]
        assert big_cache <= small_cache + 0.05

    def test_bigger_cache_lower_container_efficiency(self, results):
        sweeps = results["by_cache"]
        mid = len(sweeps[0].alphas) - 2
        assert (
            sweeps[-1].metric("container_efficiency")[mid]
            <= sweeps[0].metric("container_efficiency")[mid] + 0.05
        )

    def test_steady_state_insensitive_to_job_count(self, results):
        # the two largest job counts behave alike (paper: 500 vs 1000)
        big, bigger = results["by_jobs"][-2:]
        eff_a = big.metric("cache_efficiency")
        eff_b = bigger.metric("cache_efficiency")
        assert np.max(np.abs(eff_a - eff_b)) < 0.25

    def test_report_renders(self, results):
        assert "Figure 6" in fig6_sensitivity.report(results)


class TestFig7:
    @pytest.fixture(scope="class")
    def results(self):
        return fig7_dependencies.run(TINY, seed=SEED)

    def test_random_workload_barely_merges_below_one(self, results):
        random_merges = results["random"].metric("merges")[:-1]
        deps_merges = results["deps"].metric("merges")[:-1]
        assert random_merges.sum() < 0.2 * max(deps_merges.sum(), 1)

    def test_deps_cache_efficiency_improves_with_alpha(self, results):
        eff = results["deps"].metric("cache_efficiency")
        assert eff[-2] >= eff[0]

    def test_report_renders(self, results):
        assert "Figure 7" in fig7_dependencies.report(results)


class TestFig8:
    @pytest.fixture(scope="class")
    def results(self):
        return fig8_limits.run(TINY, seed=SEED)

    def test_zone_exists_and_is_moderate(self, results):
        zone = results["zone"]
        assert zone["valid"]
        assert 0.4 <= zone["lower"] <= zone["upper"] <= 1.0

    def test_zone_excludes_extremes(self, results):
        sweep = results["sweep"]
        zone = results["zone"]
        # the lowest α is below the cache-efficiency floor
        assert sweep.metric("cache_efficiency")[0] < 0.3 or zone["lower"] > 0.4

    def test_report_renders(self, results):
        out = fig8_limits.report(results)
        assert "Operational zone" in out or "No operational zone" in out


class TestAblations:
    @pytest.fixture(scope="class")
    def results(self):
        return ablations.run(TINY.with_(repetitions=2), seed=SEED)

    def test_all_studies_present(self, results):
        assert set(results["studies"]) == {
            "candidate_order", "eviction", "hit_selection", "merge_write_mode",
        }

    def test_delta_mode_writes_less(self, results):
        study = results["studies"]["merge_write_mode"]
        assert study["delta"]["bytes_written"] < study["full"]["bytes_written"]

    def test_report_renders(self, results):
        assert "candidate_order" in ablations.report(results)
