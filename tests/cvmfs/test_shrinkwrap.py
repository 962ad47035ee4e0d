"""Tests for repro.cvmfs.shrinkwrap."""

import pytest

from repro.core.spec import ImageSpec
from repro.cvmfs.shrinkwrap import Shrinkwrap


class TestResolve:
    def test_resolves_closure(self, tiny_repo):
        sw = Shrinkwrap(tiny_repo)
        assert sw.resolve(["appX/1.0"]) == tiny_repo.closure(["appX/1.0"])

    def test_accepts_image_spec(self, tiny_repo):
        sw = Shrinkwrap(tiny_repo)
        assert "base/1.0" in sw.resolve(ImageSpec(["libA/1.0"]))


class TestBuildWithoutCatalog:
    def test_image_bytes_equal_closure_bytes(self, tiny_repo):
        sw = Shrinkwrap(tiny_repo)
        report = sw.build(["appX/1.0"])
        assert report.image_bytes == tiny_repo.bytes_of(report.packages) == 100

    def test_no_closure_mode(self, tiny_repo):
        sw = Shrinkwrap(tiny_repo)
        report = sw.build(["appX/1.0"], resolve_closure=False)
        assert report.packages == {"appX/1.0"}
        assert report.image_bytes == 40

    def test_prep_time_model(self, tiny_repo):
        sw = Shrinkwrap(tiny_repo, download_bw=10, write_bw=20,
                        setup_seconds=1.0)
        report = sw.build(["appX/1.0"])  # 100 bytes
        assert report.prep_seconds == pytest.approx(1.0 + 10.0 + 5.0)

    def test_invalid_bandwidth_rejected(self, tiny_repo):
        with pytest.raises(ValueError):
            Shrinkwrap(tiny_repo, download_bw=0)
