"""The CLI surface is pinned: every non-figure command keeps every flag
with its default, choices and ``nargs``.

Each command's parser is captured at ``parse_args`` (so the table is read
from the parser the command really builds, wherever it is declared) and
compared with the table below.  A renamed flag, a moved default or a new
choice fails here; changing the table is then a deliberate surface change.
Keys are option strings, or the ``dest`` of a positional argument.
"""

import argparse

import pytest

from repro.cli import main

SURFACE = {
    "all": {
        "--json": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--workers": (None, None, None),
    },
    "bench": {
        "--output": ("BENCH_sweep.json", None, None),
        "--scale": ("quick", ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--workers": (None, None, None),
    },
    "cache-status": {
        "--journal": (None, None, None),
        "--metrics-out": (None, None, None),
        "--repo": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--state": (".landlord-state.json", None, None),
    },
    "calibrate": {
        "--repo": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
    },
    "explain": {
        "--state": (".landlord-state.json", None, None),
        "--trace-file": (None, None, None),
        "index": (None, None, None),
    },
    "metrics": {
        "--format": ("table", ("table", "prom", "openmetrics", "json"), None),
        "file": (None, None, None),
    },
    "recover": {
        "--journal": (None, None, None),
        "--repo": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--state": (".landlord-state.json", None, None),
    },
    "replay": {
        "--alert-log": (None, None, None),
        "--alert-rules": (None, None, None),
        "--alpha": (0.75, None, None),
        "--capacity": (None, None, None),
        "--events-out": (None, None, None),
        "--metrics-out": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--window": (500, None, None),
        "trace": (None, None, None),
    },
    "serve": {
        "--alert-log": (None, None, None),
        "--alert-rules": (None, None, None),
        "--alpha": (0.8, None, None),
        "--capacity": (None, None, None),
        "--journal": (None, None, None),
        "--max-batch": (256, None, None),
        "--max-queue": (1024, None, None),
        "--metrics-out": (None, None, None),
        "--port": (0, None, None),
        "--port-file": (None, None, None),
        "--repo": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--snapshot-every": (64, None, None),
        "--socket": (None, None, None),
        "--span-limit": (4096, None, None),
        "--state": (".landlord-state.json", None, None),
        "--trace": (False, None, 0),
        "--trace-file": (None, None, None),
        "--window": (500, None, None),
    },
    "submit": {
        "--alpha": (0.8, None, None),
        "--capacity": (None, None, None),
        "--journal": (None, None, None),
        "--metrics-out": (None, None, None),
        "--no-closure": (False, None, 0),
        "--remote": (None, None, None),
        "--remote-retries": (5, None, None),
        "--repo": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--snapshot-every": (1, None, None),
        "--state": (".landlord-state.json", None, None),
        "--trace": (False, None, 0),
        "--trace-file": (None, None, None),
        "specfile": (None, None, None),
    },
    "sweep": {
        "--alpha": (None, None, 3),
        "--json": (None, None, None),
        "--metrics-out": (None, None, None),
        "--port-file": (None, None, None),
        "--repetitions": (None, None, None),
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--seed": (2020, None, None),
        "--serve": (None, None, None),
        "--workers": (None, None, None),
    },
    "top": {
        "--alert-rules": (None, None, None),
        "--alpha": (None, None, None),
        "--capacity": (None, None, None),
        "--every": (100, None, None),
        "--from-events": (None, None, None),
        "--headless": (False, None, 0),
        "--interval": (2.0, None, None),
        "--iterations": (0, None, None),
        "--url": (None, None, None),
        "--width": (76, None, None),
        "--window": (500, None, None),
    },
    "trace": {
        "--scale": (None, ("tiny", "quick", "paper"), None),
        "--scheme": ("deps", ("deps", "random", "drift"), None),
        "--seed": (2020, None, None),
        "output": (None, None, None),
    },
    "trace --url": {
        "--follow": (False, None, 0),
        "--interval": (1.0, None, None),
        "--last": (10, None, None),
        "--slowest": (None, None, None),
        "--url": (None, None, None),
        "--width": (32, None, None),
        "trace_id": (None, None, "?"),
    },
}

ARGV = {"trace --url": ["trace", "--url", "http://127.0.0.1:1"]}


class _Parsed(Exception):
    """Raised in place of parsing, carrying the parser."""


def surface(parser: argparse.ArgumentParser) -> dict:
    return {
        " ".join(action.option_strings) or action.dest: (
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.nargs,
        )
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_command_surface_is_unchanged(command, monkeypatch, capsys):
    def capture(self, args=None, namespace=None):
        raise _Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as parsed:
        main(ARGV.get(command, [command]))
    assert surface(parsed.value.args[0]) == SURFACE[command]
