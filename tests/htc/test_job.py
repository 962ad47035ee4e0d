"""Tests for repro.htc.job."""

import pytest

from repro.core.spec import ImageSpec
from repro.htc.job import Job


def job(runtime=100.0):
    return Job("j1", ImageSpec(["a/1"]), runtime_seconds=runtime, user="u")


class TestJob:
    def test_packages_view(self):
        assert job().packages == {"a/1"}

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            job(runtime=-1)

    def test_frozen(self):
        j = job()
        with pytest.raises(Exception):
            j.user = "other"

