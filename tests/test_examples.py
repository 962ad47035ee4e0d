"""Smoke tests: every shipped example must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamplesExist:
    def test_at_least_three_examples(self):
        assert len(ALL_EXAMPLES) >= 3
        assert "quickstart.py" in ALL_EXAMPLES


class TestExamplesRun:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "repository:" in out
        assert "hit" in out  # the resubmission hit

    def test_spec_inference(self):
        out = run_example("spec_inference.py")
        assert "python imports" in out
        assert "prepared container" in out

    def test_hep_pipeline(self):
        out = run_example("hep_pipeline.py")
        assert "build-per-job" in out
        assert "LANDLORD" in out

    def test_alpha_tuning(self):
        out = run_example("alpha_tuning.py")
        assert "operational zone" in out or "no alpha" in out

    def test_multi_tenant(self):
        out = run_example("multi_tenant.py")
        assert "shared" in out and "isolated" in out and "public-core" in out

    def test_federated_sites(self):
        out = run_example("federated_sites.py")
        assert "isolated" in out and "federated" in out and "registry" in out
