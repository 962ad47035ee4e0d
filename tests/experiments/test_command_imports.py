"""A command imports what it runs: ``submit``/``serve``/``recover`` start
without the thirteen experiment modules, and every figure still resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.experiments import EXPERIMENTS

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_importing_the_cli_imports_no_experiment_module():
    # A fresh interpreter: this session has long since imported them all.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('repro.experiments.') "
         "and m != 'repro.experiments.common'))"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_the_parallel_package_leaves_out_shared_memory():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.parallel; "
         "print('multiprocessing.shared_memory' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_membership_and_listing_do_not_import(monkeypatch):
    def forbidden(name):
        raise AssertionError(f"imported {name}")

    monkeypatch.setattr(cli.importlib, "import_module", forbidden)
    assert "fig6" in cli._FIGURES and "figQ" not in cli._FIGURES
    assert tuple(cli._FIGURES) == EXPERIMENTS
    assert len(cli._FIGURES) == len(EXPERIMENTS)


COMMANDS = ("all", "sweep", "bench", "trace", "replay", "submit", "serve",
            "cache-status", "recover", "explain", "metrics", "top",
            "calibrate")


@pytest.mark.parametrize("command", EXPERIMENTS + COMMANDS)
def test_every_figure_command_answers_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    if command in COMMANDS:
        assert "usage:" in out
        return
    assert "--scale" in out
    module = cli._FIGURES[command]
    assert module.__name__.startswith("repro.experiments.")
    assert sys.modules[module.__name__] is module
