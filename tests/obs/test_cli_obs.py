"""Tests for the CLI observability surface: submit --trace, explain,
metrics, cache-status --metrics-out, replay --events-out, sweep
--metrics-out."""

import json

import pytest

from repro.cli import main
from repro.experiments.common import get_scale
from repro.obs import load_registry
from repro.packages.sft import build_experiment_repository

from .test_metrics import validate_prometheus_text


@pytest.fixture(scope="module")
def tiny_apps():
    scale = get_scale("tiny")
    repo = build_experiment_repository(
        "sft", seed=2020, n_packages=scale.n_packages,
        target_total_size=scale.repo_total_size,
    )
    return [i for i in repo.ids if i.startswith("app-")]


def submit(spec_path, state, *extra):
    return main([
        "submit", str(spec_path), "--state", str(state), "--scale", "tiny",
        *extra,
    ])


class TestSubmitTraceExplain:
    def test_traced_submit_then_explain(self, tmp_path, capsys, tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        spec.write_text("\n".join(tiny_apps[:3]))
        assert submit(spec, state, "--trace") == 0
        out = capsys.readouterr().out
        assert "traced request #0" in out

        spec.write_text("\n".join(tiny_apps[1:5]))
        assert submit(spec, state, "--trace") == 0
        capsys.readouterr()

        assert main(["explain", "1", "--state", str(state)]) == 0
        explained = capsys.readouterr().out
        assert "request #1" in explained
        # the acceptance bar: candidate list with distances and the
        # reason for the chosen operation.
        assert "distance" in explained
        assert "MERGE" in explained or "INSERT" in explained

    def test_explain_missing_index(self, tmp_path, capsys, tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        spec.write_text("\n".join(tiny_apps[:3]))
        assert submit(spec, state, "--trace") == 0
        capsys.readouterr()
        assert main(["explain", "7", "--state", str(state)]) == 1
        err = capsys.readouterr().err
        assert "request #7 is not in" in err
        assert "traced indices: 0..0" in err

    def test_explain_without_trace_file(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(["explain", "0", "--state", str(state)]) == 2
        err = capsys.readouterr()
        assert "--trace" in err.err + err.out

    def traced_sidecar(self, tmp_path, tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        for apps in (tiny_apps[:3], tiny_apps[1:5]):
            spec.write_text("\n".join(apps))
            assert submit(spec, state, "--trace") == 0
        return state, tmp_path / "state.json.trace.jsonl"

    def test_explain_heals_a_torn_sidecar_tail(self, tmp_path, capsys,
                                               tiny_apps):
        # a `submit --trace` killed mid-append leaves half a line
        state, sidecar = self.traced_sidecar(tmp_path, tiny_apps)
        lines = sidecar.read_text().splitlines(keepends=True)
        sidecar.write_text("".join(lines) + lines[0][: len(lines[0]) // 2])
        capsys.readouterr()
        assert main(["explain", "1", "--state", str(state)]) == 0
        assert "request #1" in capsys.readouterr().out

    def test_explain_corrupt_sidecar_line_exits_2(self, tmp_path, capsys,
                                                 tiny_apps):
        state, sidecar = self.traced_sidecar(tmp_path, tiny_apps)
        lines = sidecar.read_text().splitlines(keepends=True)
        lines[0] = lines[0][: len(lines[0]) // 2] + "\n"
        sidecar.write_text("".join(lines))
        capsys.readouterr()
        assert main(["explain", "1", "--state", str(state)]) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and "corrupt" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_explain_refuses_old_format_sidecar(self, tmp_path, capsys):
        # one record per request, no "kind" key: the format sidecars had
        # before decisions were recorded as cache events
        sidecar = tmp_path / "old.trace.jsonl"
        sidecar.write_text(json.dumps({
            "request_index": 0, "n_packages": 1, "requested_bytes": 10,
            "alpha": 0.8, "images_scanned": 0, "action": "insert",
            "image_id": "img-000000", "image_bytes": 10, "distance": None,
            "bytes_added": 10, "candidates": [], "evictions": [],
        }) + "\n")
        assert main(["explain", "0", "--trace-file", str(sidecar)]) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and "old-format decision sidecar" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_untraced_submit_writes_no_sidecar(self, tmp_path, capsys,
                                               tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        spec.write_text("\n".join(tiny_apps[:3]))
        assert submit(spec, state) == 0
        assert not (tmp_path / "state.json.trace.jsonl").exists()


class TestSubmitMetrics:
    def test_metrics_accumulate_across_invocations(self, tmp_path, capsys,
                                                   tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        metrics = tmp_path / "m.json"
        spec.write_text("\n".join(tiny_apps[:3]))
        assert submit(spec, state, "--metrics-out", str(metrics)) == 0
        assert submit(spec, state, "--metrics-out", str(metrics)) == 0
        capsys.readouterr()
        reg = load_registry(metrics)
        requests = reg.get("landlord_requests_total")
        total = sum(child.value for _, child in requests.series())
        # two CLI invocations, one request each; counters accumulated
        # across processes via load -> merge -> save.
        assert total == 2
        assert reg.get("journal_appends_total").value() == 2

    def test_cache_status_reports_metrics(self, tmp_path, capsys, tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        metrics = tmp_path / "m.json"
        spec.write_text("\n".join(tiny_apps[:3]))
        assert submit(spec, state, "--metrics-out", str(metrics)) == 0
        capsys.readouterr()
        assert main(["cache-status", "--state", str(state), "--scale",
                     "tiny", "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "journal fsync" in out
        assert "journal appends" in out

    def test_cache_status_without_metrics_file(self, tmp_path, capsys,
                                               tiny_apps):
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        spec.write_text("\n".join(tiny_apps[:3]))
        assert submit(spec, state) == 0
        capsys.readouterr()
        assert main(["cache-status", "--state", str(state), "--scale",
                     "tiny", "--metrics-out", str(tmp_path / "nope.json")
                     ]) == 0
        assert "no metrics file" in capsys.readouterr().out

    def test_cache_status_reports_merge_scan_counters(self, tmp_path, capsys,
                                                      tiny_apps):
        # Two journalled-but-unsnapshotted requests: loading the state
        # replays them, so the second one's merge scan runs in this
        # process and the engine's prefilter counters are non-zero.
        spec = tmp_path / "job.txt"
        state = tmp_path / "state.json"
        for apps in (tiny_apps[:3], tiny_apps[5:8]):
            spec.write_text("\n".join(apps))
            assert submit(spec, state, "--snapshot-every", "100") == 0
        capsys.readouterr()
        assert main(["cache-status", "--state", str(state), "--scale",
                     "tiny"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("prefilter:"))
        assert "0 windowed and 1 full merge scan(s), 1 row(s) scanned" in line


class TestMetricsCommand:
    def make_metrics(self, tmp_path, tiny_apps):
        spec = tmp_path / "job.txt"
        spec.write_text("\n".join(tiny_apps[:3]))
        metrics = tmp_path / "m.json"
        assert submit(spec, tmp_path / "state.json",
                      "--metrics-out", str(metrics)) == 0
        return metrics

    def test_table_format(self, tmp_path, capsys, tiny_apps):
        metrics = self.make_metrics(tmp_path, tiny_apps)
        capsys.readouterr()
        assert main(["metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "landlord_requests_total" in out
        assert "journal_fsync_seconds" in out

    def test_prom_format_is_valid_exposition(self, tmp_path, capsys,
                                             tiny_apps):
        metrics = self.make_metrics(tmp_path, tiny_apps)
        capsys.readouterr()
        assert main(["metrics", str(metrics), "--format", "prom"]) == 0
        validate_prometheus_text(capsys.readouterr().out)

    def test_json_format_round_trips(self, tmp_path, capsys, tiny_apps):
        metrics = self.make_metrics(tmp_path, tiny_apps)
        capsys.readouterr()
        assert main(["metrics", str(metrics), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "landlord_requests_total" in payload["families"]

    def test_openmetrics_format_is_valid_exposition(self, tmp_path, capsys,
                                                    tiny_apps):
        from repro.obs import validate_openmetrics_text

        metrics = self.make_metrics(tmp_path, tiny_apps)
        capsys.readouterr()
        assert main(["metrics", str(metrics),
                     "--format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        validate_openmetrics_text(out)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "absent.json")]) == 2


class TestReplayObservability:
    def test_events_and_metrics_out(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "m.json"
        assert main(["trace", str(stream), "--scale", "tiny"]) == 0
        assert main([
            "replay", str(stream), "--scale", "tiny",
            "--events-out", str(events), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "events written" in out
        assert events.exists()
        reg = load_registry(metrics)
        requests = reg.get("landlord_requests_total")
        n = sum(child.value for _, child in requests.series())
        assert n > 0
        # the event stream and the metrics agree on the decision counts
        from repro.obs import read_event_stream, stats_from_events

        stats = stats_from_events(read_event_stream(events))
        assert stats.requests == n


class TestReplayAlerts:
    def make_stream(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        assert main(["trace", str(stream), "--scale", "tiny"]) == 0
        return stream

    def test_fired_rule_gates_exit_code(self, tmp_path, capsys):
        stream = self.make_stream(tmp_path)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "always", "expr": "window_requests > 0"},
        ]))
        log = tmp_path / "transitions.jsonl"
        rc = main([
            "replay", str(stream), "--scale", "tiny",
            "--alert-rules", str(rules), "--alert-log", str(log),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "alert always [firing]" in captured.out
        assert "ALERT:" in captured.err
        from repro.obs import read_transitions

        transitions = read_transitions(log)
        assert transitions[0].rule == "always"
        assert transitions[0].state == "firing"

    def test_quiet_rules_exit_zero(self, tmp_path, capsys):
        stream = self.make_stream(tmp_path)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(["eviction_rate > 99"]))
        rc = main([
            "replay", str(stream), "--scale", "tiny",
            "--alert-rules", str(rules),
        ])
        assert rc == 0
        assert "[inactive]" in capsys.readouterr().out

    def test_unreadable_rules_exit_2(self, tmp_path, capsys):
        stream = self.make_stream(tmp_path)
        rc = main([
            "replay", str(stream), "--scale", "tiny",
            "--alert-rules", str(tmp_path / "absent.json"),
        ])
        assert rc == 2
        assert "cannot read alert rules" in capsys.readouterr().err


class TestSweepMetrics:
    def test_sweep_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "sweep.json"
        assert main([
            "sweep", "--scale", "tiny", "--repetitions", "2",
            "--alpha", "0.6", "0.8", "0.2",
            "--metrics-out", str(metrics),
        ]) == 0
        assert "metrics saved" in capsys.readouterr().out
        reg = load_registry(metrics)
        requests = reg.get("landlord_requests_total")
        # 2 alphas x 2 repetitions x (60 unique x 4 repeats) at tiny scale
        assert sum(child.value for _, child in requests.series()) == (
            2 * 2 * 60 * 4
        )
