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

    def test_url_equals_form_selects_waterfall_mode(self, capsys):
        # `--url=URL` is the viewer too, not the generator missing its
        # output argument; nothing listens on port 1.
        assert main(["trace", "--url=http://127.0.0.1:1", "--last", "1"]) == 2
        err = capsys.readouterr().err
        assert "unreachable" in err and "output" not in err


def run_cli(argv):
    """``main(argv)``'s exit status, whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


FRESH = ["--scale", "tiny", "--state", "{d}/fresh.json"]
MADE = ["--scale", "tiny", "--state", "{d}/made.json"]  # a real state
ABSENT_REPO = ["--repo", "{d}/absent-repo.jsonl"]

BAD_INPUT = {
    "submit-missing-spec": (["submit", "{d}/absent.json", *FRESH],
                            "{d}/absent.json"),
    "submit-spec-not-json": (["submit", "{d}/bad.json", *FRESH],
                             "{d}/bad.json"),
    "submit-json-without-packages": (["submit", "{d}/nopkgs.json", *FRESH],
                                     "{d}/nopkgs.json"),
    "replay-missing-trace": (["replay", "{d}/absent.jsonl", "--scale",
                              "tiny"], "{d}/absent.jsonl"),
    "replay-capacity": (["replay", "{d}/absent.jsonl", "--scale", "tiny",
                         "--capacity", "lots"], "--capacity"),
    "submit-capacity": (["submit", "{d}/job.txt", *FRESH, "--capacity",
                         "lots"], "--capacity"),
    "serve-capacity": (["serve", *FRESH, "--capacity", "lots"],
                       "--capacity"),
    "top-capacity": (["top", "--from-events", "{d}/absent.jsonl",
                      "--capacity", "lots"], "--capacity"),
    "submit-repo": (["submit", "{d}/job.txt", *FRESH, *ABSENT_REPO],
                    "{d}/absent-repo.jsonl"),
    "serve-repo": (["serve", *FRESH, *ABSENT_REPO],
                   "{d}/absent-repo.jsonl"),
    "cache-status-repo": (["cache-status", *FRESH, *ABSENT_REPO],
                          "{d}/absent-repo.jsonl"),
    "recover-repo": (["recover", *FRESH, *ABSENT_REPO],
                     "{d}/absent-repo.jsonl"),
    "calibrate-repo": (["calibrate", *ABSENT_REPO],
                       "{d}/absent-repo.jsonl"),
    "cache-status-corrupt-metrics": (["cache-status", *MADE, "--metrics-out",
                                      "{d}/corrupt.json"],
                                     "{d}/corrupt.json"),
    "sweep-negative-repetitions": (["sweep", "--scale", "tiny", "--workers",
                                    "1", "--repetitions", "-1"],
                                   "--repetitions"),
    "sweep-zero-repetitions": (["sweep", "--scale", "tiny", "--workers", "1",
                                "--alpha", "0.5", "0.5", "0.1",
                                "--repetitions", "0"], "--repetitions"),
    # a STEP that does not divide HI - LO is refused, not rounded to a grid
    "sweep-alpha-step-0.25": (["sweep", "--scale", "tiny", "--workers", "1",
                               "--alpha", "0.4", "1.0", "0.25"],
                              "alpha step 0.25"),
    "sweep-alpha-step-0.3": (["sweep", "--scale", "tiny", "--workers", "1",
                              "--alpha", "0.4", "0.5", "0.3"],
                             "alpha step 0.3"),
}


def _flip_journal_crc(state):
    """The first entry's CRC off by one: corrupt mid-file."""
    journal = state.with_name(state.name + ".journal")
    lines = journal.read_bytes().split(b"\n")
    head, rest = lines[0].split(b",", 1)
    digits = head[len(b'{"crc":'):]
    lines[0] = b'{"crc":' + str(int(digits) ^ 1).encode() + b"," + rest
    journal.write_bytes(b"\n".join(lines))
    return journal


def _non_utf8_state(state):
    """One byte in the middle of the state file replaced by 0xFF."""
    raw = bytearray(state.read_bytes())
    raw[len(raw) // 2] = 0xFF
    state.write_bytes(bytes(raw))
    return state


DAMAGE = {
    "journal-mid-file-crc": _flip_journal_crc,
    "state-0xff": _non_utf8_state,
}


class TestBadInput:
    """Bad input is an exit status of 2 and an error naming the file or
    flag — never a traceback (an exception escaping ``main``)."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_exits_2_naming_the_culprit(self, case, tmp_path, capsys):
        argv, culprit = BAD_INPUT[case]
        (tmp_path / "job.txt").write_text("app-0000/1.0/x86_64-el7\n")
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "nopkgs.json").write_text('{"pkgs": []}')
        (tmp_path / "corrupt.json").write_text("{torn")
        argv = [arg.format(d=tmp_path) for arg in argv]
        if str(tmp_path / "made.json") in argv:
            assert run_cli(["submit", str(tmp_path / "job.txt"),
                            *[a.format(d=tmp_path) for a in MADE]]) == 0
        capsys.readouterr()
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert culprit.format(d=tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["recover"], ["cache-status"], ["submit", "{d}/job.txt"], ["serve"],
    ])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_state_exits_2(self, command, damage, tmp_path, capsys):
        # Three journalled requests behind the snapshot, then one byte
        # of the journal or the state file damaged.
        state = tmp_path / "made.json"
        (tmp_path / "job.txt").write_text("app-0000/1.0/x86_64-el7\n")
        for _ in range(3):
            assert run_cli(["submit", str(tmp_path / "job.txt"),
                            *[a.format(d=tmp_path) for a in MADE],
                            "--snapshot-every", "100"]) == 0
        culprit = DAMAGE[damage](state)
        capsys.readouterr()
        argv = [a.format(d=tmp_path) for a in [*command, *MADE]]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert str(culprit) in err and err.count("\n") == 1
        assert "Traceback" not in err


class TestNoJournalIsGone:
    """There is one durability mode: ``--no-journal`` is refused by name
    and cannot load a snapshot without its journal tail and then rewrite
    it behind the journal's back."""

    @pytest.mark.parametrize("command", [
        ["submit", "{d}/job.txt"], ["serve"], ["cache-status"], ["recover"],
    ])
    def test_refused_and_the_site_untouched(self, command, tmp_path, capsys):
        from repro.core.journal import Journal
        from repro.core.persistence import load_table

        state = tmp_path / "made.json"
        journal = state.with_name(state.name + ".journal")
        made = [a.format(d=tmp_path) for a in MADE]
        (tmp_path / "job.txt").write_text("app-0000/1.0/x86_64-el7\n")
        for _ in range(3):
            assert run_cli(["submit", str(tmp_path / "job.txt"), *made,
                            "--snapshot-every", "2"]) == 0
        # a snapshot at seq 2 and the acked request 3 on the journal only
        assert load_table(state)[0] == 2
        assert [e.seq for e in Journal(journal).entries()] == [3]
        before = state.read_bytes(), journal.read_bytes()
        capsys.readouterr()
        argv = [a.format(d=tmp_path) for a in command]
        assert run_cli([*argv, *made, "--no-journal"]) == 2
        assert "--no-journal" in capsys.readouterr().err
        assert (state.read_bytes(), journal.read_bytes()) == before


class TestEngineIsGone:
    """The decision engine is not a user choice: the engines are
    bit-identical, so ``--engine`` is refused by name and touches no
    site."""

    @pytest.mark.parametrize("command", [
        ["submit", "{d}/job.txt", *MADE], ["serve", *MADE],
        ["replay", "{d}/trace.jsonl", "--scale", "tiny"],
        ["sweep", "--scale", "tiny"],
    ])
    def test_refused_and_the_site_untouched(self, command, tmp_path, capsys):
        state = tmp_path / "made.json"
        journal = state.with_name(state.name + ".journal")
        made = [a.format(d=tmp_path) for a in MADE]
        (tmp_path / "job.txt").write_text("app-0000/1.0/x86_64-el7\n")
        for _ in range(3):
            assert run_cli(["submit", str(tmp_path / "job.txt"), *made,
                            "--snapshot-every", "2"]) == 0
        before = state.read_bytes(), journal.read_bytes()
        capsys.readouterr()
        argv = [a.format(d=tmp_path) for a in command]
        assert run_cli([*argv, "--engine", "naive"]) == 2
        assert "--engine" in capsys.readouterr().err
        assert (state.read_bytes(), journal.read_bytes()) == before


class TestWrapperServeIsGone:
    """``submit`` is one request and exit: it serves nothing (``serve``
    is a site's one live surface), and its SLO window would hold that
    one request, so the live and alert flags are refused by name and
    touch no site."""

    @pytest.mark.parametrize("flag", [
        ["--serve", "0"], ["--port-file", "{d}/port.txt"],
        ["--alert-rules", "{d}/rules.json"],
        ["--alert-log", "{d}/alerts.jsonl"], ["--window", "5"],
    ], ids=lambda flag: flag[0])
    def test_refused_and_the_site_untouched(self, flag, tmp_path, capsys):
        state = tmp_path / "made.json"
        journal = state.with_name(state.name + ".journal")
        made = [a.format(d=tmp_path) for a in MADE]
        (tmp_path / "job.txt").write_text("app-0000/1.0/x86_64-el7\n")
        (tmp_path / "rules.json").write_text("[]")
        for _ in range(3):
            assert run_cli(["submit", str(tmp_path / "job.txt"), *made,
                            "--snapshot-every", "2"]) == 0
        before = state.read_bytes(), journal.read_bytes()
        capsys.readouterr()
        argv = [a.format(d=tmp_path) for a in flag]
        assert run_cli(["submit", str(tmp_path / "job.txt"), *made,
                        *argv]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv)}" in err
        assert (state.read_bytes(), journal.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "job.txt", "made.json", "made.json.journal", "made.json.lock",
            "rules.json",
        ]


class TestBatchSizeIsGone:
    """``replay`` drives a trace one request at a time, the loop every
    per-request observer sees; batching gave the same decisions at the
    same speed, so ``--batch-size`` is refused by name."""

    def test_refused_by_name(self, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        assert main(["trace", str(trace), "--scale", "tiny"]) == 0
        capsys.readouterr()
        assert run_cli(["replay", str(trace), "--scale", "tiny",
                        "--batch-size", "8"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --batch-size 8" in err
        assert "Traceback" not in err
