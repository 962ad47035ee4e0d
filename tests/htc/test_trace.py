"""Tests for repro.htc.trace."""

import json

import pytest

from repro.core.spec import ImageSpec
from repro.htc.job import Job
from repro.htc.trace import iter_trace, save_trace


def jobs():
    return [
        Job("j0", ImageSpec(["a/1", "b/1"]), runtime_seconds=10.0, user="u0"),
        Job("j1", ImageSpec(["c/1"]), runtime_seconds=0.0, user=""),
    ]


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = save_trace(path, jobs())
        assert count == 2
        loaded = list(iter_trace(path))
        assert [j.job_id for j in loaded] == ["j0", "j1"]
        assert loaded[0].packages == {"a/1", "b/1"}
        assert loaded[0].runtime_seconds == 10.0
        assert loaded[0].user == "u0"

    def test_packages_serialised_sorted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(path, jobs())
        record = json.loads(path.read_text().splitlines()[0])
        assert record["packages"] == sorted(record["packages"])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(path, jobs())
        path.write_text(path.read_text() + "\n\n")
        assert len(list(iter_trace(path))) == 2


class TestValidation:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"job": "j0", "packages": ["a/1"]}\n{broken\n')
        with pytest.raises(ValueError, match=":2:"):
            list(iter_trace(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"job": "j0"}\n')
        with pytest.raises(ValueError, match="missing required field"):
            list(iter_trace(path))

    def test_packages_must_be_list(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"job": "j0", "packages": "a/1"}\n')
        with pytest.raises(ValueError, match="must be a list"):
            list(iter_trace(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            list(iter_trace(tmp_path / "ghost.jsonl"))


class TestReplaySemantics:
    def test_replay_preserves_cache_behaviour(self, tmp_path, small_sft):
        """A saved stream replayed through an identical cache produces
        identical statistics — the point of trace-driven simulation."""
        from repro.core.cache import LandlordCache
        from repro.htc.workload import DependencyWorkload, jobs_from_specs
        from repro.util.rng import spawn

        workload = DependencyWorkload(small_sft, 6)
        specs = workload.sample_specs(spawn(1, "t"), 10) * 2
        path = tmp_path / "t.jsonl"
        save_trace(path, jobs_from_specs(specs))

        def run(stream):
            cache = LandlordCache(10**12, 0.8, small_sft.size_of)
            for s in stream:
                cache.request(s)
            return cache.stats

        direct = run(specs)
        replayed = run([j.packages for j in iter_trace(path)])
        assert direct == replayed
