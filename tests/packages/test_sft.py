"""Tests for repro.packages.sft: calibration of the synthetic repository."""

import hashlib

import numpy as np
import pytest

from repro.experiments.common import PAPER, QUICK, TINY
from repro.packages.package import split_package_id
from repro.packages.sft import (
    SFT_PACKAGE_COUNT,
    build_experiment_repository,
    build_sft_repository,
)
from repro.util.rng import spawn
from repro.util.units import GB


class TestBuildSft:
    def test_scaled_package_count(self, small_sft):
        assert len(small_sft) == 600

    def test_exact_total_size(self, small_sft):
        assert small_sft.total_size == 45 * GB

    def test_deterministic_in_seed(self):
        a = build_sft_repository(seed=5, n_packages=200, target_total_size=GB)
        b = build_sft_repository(seed=5, n_packages=200, target_total_size=GB)
        assert a.ids == b.ids
        assert all(a[i].size == b[i].size for i in a.ids)

    def test_different_seed_differs(self):
        a = build_sft_repository(seed=5, n_packages=200, target_total_size=GB)
        b = build_sft_repository(seed=6, n_packages=200, target_total_size=GB)
        assert any(a[i].deps != b[i].deps for i in a.ids)

    def test_default_matches_paper_count(self):
        # Don't build the full repo here (slow-ish); just the constant.
        assert SFT_PACKAGE_COUNT == 9660

    def test_rejects_tiny_counts(self):
        with pytest.raises(ValueError):
            build_sft_repository(n_packages=5)

    def test_layer_naming_convention(self, small_sft):
        names = small_sft.ids
        assert any(n.startswith("core-") for n in names)
        assert any(n.startswith("fw-") for n in names)
        assert any(n.startswith("app-") for n in names)

    def test_apps_have_variants(self, small_sft):
        app_ids = [i for i in small_sft.ids if i.startswith("app-")]
        assert any(len(i.split("/")) == 3 for i in app_ids)


class TestClosureAmplification:
    """The Figure 3 calibration: closures amplify small selections ~5x."""

    def test_amplification_shape(self, small_sft):
        rng = spawn(1, "amp-test")
        ids = small_sft.ids

        def median_amp(k, trials=15):
            amps = []
            for _ in range(trials):
                sel = [ids[int(i)] for i in
                       rng.choice(len(ids), size=k, replace=False)]
                amps.append(len(small_sft.closure(sel)) / k)
            return float(np.median(amps))

        small, large = median_amp(6), median_amp(60)
        assert small > 2.0  # strong amplification for small selections
        assert large < small  # fading amplification (shared core)
        assert large > 1.05  # but closures still add something


class TestExperimentRepository:
    def test_kinds(self):
        for kind in ("sft", "random", "flat"):
            repo = build_experiment_repository(
                kind, seed=1, n_packages=100, target_total_size=GB
            )
            assert len(repo) == 100
            assert repo.total_size == GB

    def test_flat_has_no_deps(self):
        repo = build_experiment_repository(
            "flat", seed=1, n_packages=50, target_total_size=GB
        )
        assert all(not repo[i].deps for i in repo.ids)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_experiment_repository("weird")


# sha256 over repr((id, size, deps)) of every package in id order, computed
# at the commit before layered_dag drew from hoisted CDFs and before sizes
# were rescaled as an array.  The repository is the input to every figure
# and every ledger digest; a generator that is merely *statistically* the
# same would move all of them.
PINNED = {
    ("sft", "tiny"):
        "7ec18566298bcd014cf3b3d4e7de30990f685ba3234dc113a5888a487515bf5a",
    ("sft", "quick"):
        "4d3ddde44bb7658366cc22f9f933565c5ce554d2d34a22301b9efb1dcca5eef9",
    ("sft", "paper"):
        "4099e213eeb0ed5ad2452d901c45fdb95f89bb076cf24831cdf0edc2f25ed594",
    ("random", "tiny"):
        "eab027104f70532377049870f7583ce18963f6827328760959581982a3f2fc0f",
    ("random", "quick"):
        "8b99eba56ea878b0cfc2d928f9516e6523a2d5d7e2464d32bd360d26d805958f",
    ("flat", "tiny"):
        "9c34b46f3a8c15fa0d1427ba13ee58f8044833b62c4aeae3203be6733cce8473",
    ("flat", "quick"):
        "84d191d07315b55a957a98358b5632614b4d9d3c5afa5c3d328e3bb45e8a535d",
}
SCALES = {"tiny": TINY, "quick": QUICK, "paper": PAPER}


class TestPinnedRepositories:
    @pytest.mark.parametrize("kind, scale", sorted(PINNED))
    def test_every_package_is_the_parents(self, kind, scale):
        sizes = SCALES[scale]
        repo = build_experiment_repository(
            kind, seed=2020, n_packages=sizes.n_packages,
            target_total_size=sizes.repo_total_size,
        )
        digest = hashlib.sha256()
        for pid in repo.ids:
            package = repo[pid]
            assert type(package.size) is int  # JSON state files carry it
            assert package.slot == split_package_id(pid)[0]
            digest.update(
                repr((package.id, package.size, package.deps)).encode()
            )
        assert digest.hexdigest() == PINNED[kind, scale]
        assert repo.total_size == sizes.repo_total_size
