"""Tests for the repro-landlord CLI."""

import json

import pytest

from repro.cli import main


class TestDispatch:
    def test_help(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "replay" in out

    def test_unknown_command(self, capsys):
        assert main(["figQ"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_figure_command_runs(self, capsys):
        assert main(["fig3", "--scale", "tiny"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.json"
        assert main(["fig3", "--scale", "tiny", "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert "image_bytes" in payload

    def test_seed_flag(self, capsys):
        assert main(["fig1", "--scale", "tiny", "--seed", "7"]) == 0


class TestTraceReplay:
    def test_trace_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        assert main(["trace", str(trace), "--scale", "tiny"]) == 0
        assert trace.exists()
        assert main([
            "replay", str(trace), "--scale", "tiny", "--alpha", "0.8",
            "--capacity", "50GB",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache efficiency" in out

    def test_replay_default_capacity(self, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        main(["trace", str(trace), "--scale", "tiny"])
        assert main(["replay", str(trace), "--scale", "tiny"]) == 0

    def test_replay_batch_size_is_an_integer(self, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        main(["trace", str(trace), "--scale", "tiny"])
        capsys.readouterr()
        outputs = []
        for size in ("0", "8"):
            assert main(["replay", str(trace), "--scale", "tiny",
                         "--batch-size", size]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(trace), "--scale", "tiny",
                  "--batch-size", "auto"])
        assert exit_info.value.code == 2
        assert "--batch-size must be an integer" in capsys.readouterr().err
