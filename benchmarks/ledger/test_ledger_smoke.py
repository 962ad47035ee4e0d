"""Smoke test of the performance ledger (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Runs every workload at 1/50 size plus one traced run, and tests the
correctness checkers themselves on a corrupted ack set and a truncated
journal.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.require_source_tree()

from workload import recover_job  # noqa: E402

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_ledger(*args: str) -> "tuple[int, list[str], dict]":
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0.5",
         "--scale", "0.02", "--setups", "1", *args],
        stdout=subprocess.PIPE, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def assert_metrics(result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    code, lines, result = run_ledger("--workload", workload, "--trace", "0")
    assert code == 0
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("failed_share 0 " in line for line in lines)
    assert not harness.WORK_ROOT.exists() or not any(
        p.name.startswith("run-") for p in harness.WORK_ROOT.iterdir())


def test_traced_run_emits_every_layer_metric_and_reconciles(tmp_path):
    code, lines, result = run_ledger(
        "--workload", "durable_recover", "--trace", "1",
        "--out", str(tmp_path))
    assert code == 0
    assert_metrics(result, SPEC["per_layer"])
    reconcile = [line for line in lines
                 if line.startswith("reconcile durable_recover:")]
    assert len(reconcile) == 1 and "unattributed" in reconcile[0]
    spans = [json.loads(line) for line in
             (tmp_path / "trace-durable_recover.jsonl").read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent", "ref"} == set(spans[0])
    assert {"lap", "core.journal.apply_batch", "core.journal.append",
            "recover", "core.journal.replay"} <= {s["name"] for s in spans}
    assert (tmp_path / "durable_recover-registry.json").exists()


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 20) < 3420


def test_a_corrupted_ack_set_fails_its_check():
    checks = harness.Checks()
    assert harness.check_ack_set(checks, [0, 1, 2, 3], 4)
    assert not harness.check_ack_set(checks, [0, 1, 3, 3], 4)   # lost + doubled
    assert not harness.check_ack_set(checks, [0, 1, 2], 4)      # lost
    assert checks.failed == 2


def test_a_truncated_journal_fails_the_recovery_check(tmp_path):
    from repro.core.cache import LandlordCache
    from repro.core.journal import JournaledState
    from repro.htc.workload import DependencyWorkload, build_stream
    from repro.packages.sft import build_experiment_repository
    from repro.util.rng import spawn
    from repro.util.units import GB

    repo = build_experiment_repository(
        "sft", seed=2020, n_packages=600, target_total_size=45 * GB)
    specs = build_stream(DependencyWorkload(repo, 15), spawn(1, "smoke"),
                         n_unique=24, repeats=1)
    state = tmp_path / "state.json"
    store = JournaledState(state, snapshot_every=10 ** 9)
    cache = LandlordCache(90 * GB, 0.8, repo.size_of)
    store.initialise(cache, {})
    store.apply_batch(cache, {}, [("request", {"packages": sorted(spec)})
                                  for spec in specs])
    store.journal.close()
    live = harness.digest(cache.snapshot())
    (tmp_path / "intact").mkdir()
    intact = harness.copy_state(tmp_path, tmp_path / "intact")

    checks = harness.Checks()
    result = recover_job(repo.size_of, str(intact / "state.json"), False)
    assert harness.check_recovery(checks, "smoke", result, live, len(specs))

    journal = store.journal.path
    journal.write_bytes(journal.read_bytes()[: journal.stat().st_size // 2])
    result = recover_job(repo.size_of, str(state), False)
    assert not harness.check_recovery(checks, "smoke", result, live, len(specs))
    assert checks.failed == 2   # wrong state and wrong replayed count
