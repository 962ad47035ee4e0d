"""The public API surface: everything README documents must import."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_readme_quickstart_symbols(self):
        from repro import (
            ImageSpec,
            Landlord,
            LandlordCache,
            PreparedContainer,
            Repository,
            SimulationConfig,
            build_sft_repository,
            jaccard_distance,
            jaccard_similarity,
            simulate,
        )

        assert callable(simulate)
        assert callable(build_sft_repository)

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.packages",
            "repro.cvmfs",
            "repro.containers",
            "repro.htc",
            "repro.specs",
            "repro.analysis",
            "repro.experiments",
            "repro.util",
            "repro.cli",
        ],
    )
    def test_subpackages_import_and_export(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_readme_quickstart_executes(self):
        from repro import Landlord, build_sft_repository
        from repro.util.units import GB

        repo = build_sft_repository(
            seed=42, n_packages=300, target_total_size=20 * GB
        )
        landlord = Landlord(repo, capacity=10 * GB, alpha=0.8)
        prepared = landlord.prepare([repo.ids[0]])
        assert prepared.action.value in ("insert", "merge", "hit")
        assert prepared.image.size >= 0
