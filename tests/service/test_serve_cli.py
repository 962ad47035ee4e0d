"""`repro-landlord serve` end to end: concurrent clients over a real
subprocess daemon, `submit --remote`, SIGTERM drain, SIGKILL recovery."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.cache import LandlordCache
from repro.core.journal import Journal, JournaledState
from repro.obs import validate_prometheus_text
from repro.service import LandlordClient

REPO_ROOT = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run(*argv, timeout=120):
    """``python -m repro *argv`` from the repository root, captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=str(REPO_ROOT), env=_env(),
        capture_output=True, text=True, timeout=timeout,
    )


def _tiny_repo():
    from repro.experiments.common import get_scale
    from repro.packages.sft import build_experiment_repository

    scale = get_scale("tiny")
    return build_experiment_repository(
        "sft", seed=2020, n_packages=scale.n_packages,
        target_total_size=scale.repo_total_size,
    )


def start_daemon(tmp_path, *extra_args):
    """Launch `serve --scale tiny` and wait for its port file."""
    port_file = tmp_path / "port.txt"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--scale", "tiny",
         "--state", str(tmp_path / "state.json"),
         "--port-file", str(port_file), *extra_args],
        cwd=str(REPO_ROOT),
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return process, int(port_file.read_text().strip())
        if process.poll() is not None:
            pytest.fail(
                f"daemon died during startup: {process.communicate()[1]}"
            )
        time.sleep(0.1)
    process.kill()
    pytest.fail("daemon port file never appeared")


class TestServeDaemonCli:
    def test_concurrent_clients_sigterm_and_recover(self, tmp_path):
        repo = _tiny_repo()
        ids = list(repo.ids)
        process, port = start_daemon(tmp_path, "--trace")
        replies = []
        replies_lock = threading.Lock()

        def run_client(k):
            client = LandlordClient(f"http://127.0.0.1:{port}")
            for i in range(3):
                spec = sorted(
                    repo.closure({ids[(k * 5 + i * 2) % len(ids)]})
                )
                reply = client.submit(spec, retries=3)
                with replies_lock:
                    replies.append((reply["request_index"], spec, reply))
            client.close()

        try:
            threads = [
                threading.Thread(target=run_client, args=(k,))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(r[0] for r in replies) == list(range(12))

            # one more through the submit --remote CLI path
            spec_file = tmp_path / "job.json"
            spec_file.write_text(json.dumps({"packages": [ids[0]]}))
            submit = subprocess.run(
                [sys.executable, "-m", "repro", "submit", str(spec_file),
                 "--scale", "tiny", "--remote",
                 f"http://127.0.0.1:{port}"],
                cwd=str(REPO_ROOT), env=_env(),
                capture_output=True, text=True, timeout=60,
            )
            assert submit.returncode == 0, submit.stderr
            assert "request #12" in submit.stdout
            assert "trace " in submit.stdout  # waterfall pointer line

            # resolve the printed trace id to a per-stage waterfall
            # through the trace CLI's daemon mode
            trace_id = submit.stdout.split("trace ")[1].split(" ")[0]
            waterfall = subprocess.run(
                [sys.executable, "-m", "repro", "trace", trace_id,
                 "--url", f"http://127.0.0.1:{port}", "--last", "20"],
                cwd=str(REPO_ROOT), env=_env(),
                capture_output=True, text=True, timeout=60,
            )
            assert waterfall.returncode == 0, waterfall.stderr
            assert f"trace {trace_id}" in waterfall.stdout
            assert "request #12" in waterfall.stdout
            for stage in ("admission", "queue", "fsync", "apply", "ack"):
                assert stage in waterfall.stdout

            client = LandlordClient(f"http://127.0.0.1:{port}")
            body = client.metrics()
            validate_prometheus_text(body)
            assert "service_submissions_total" in body
            status = client.status()
            assert status["lifetime"]["requests"] == 13
            # a fixed commit-window cap, no governor beside it
            assert status["service"]["max_batch"] == 256
            assert "batch_governor" not in status["service"]
            assert "service_batch_size" not in body
            # the engine block carries the kernel counters and nothing
            # of the deleted prediction window
            assert set(status["engine"]) == {
                "name", "prefilter", "compaction"
            }

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "daemon stopped" in stdout
            assert not (tmp_path / "port.txt").exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

        # the graceful shutdown left a covering snapshot: recover is a
        # no-op replay and the state matches a serial re-application
        recover = subprocess.run(
            [sys.executable, "-m", "repro", "recover", "--scale", "tiny",
             "--state", str(tmp_path / "state.json")],
            cwd=str(REPO_ROOT), env=_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert recover.returncode == 0, recover.stderr
        assert "replayed 0 journalled operation(s)" in recover.stdout
        assert "13 requests" in recover.stdout

        recovered, _, _ = JournaledState(tmp_path / "state.json").load(
            repo.size_of
        )
        serial = LandlordCache(
            recovered.capacity, recovered.alpha, repo.size_of
        )
        for _, spec, _ in sorted(replies):
            serial.request(frozenset(spec))
        serial.request(frozenset(repo.closure({ids[0]})))
        assert serial.snapshot() == recovered.snapshot()

        # --trace flowed to the sidecar: explain works for a
        # daemon-processed request
        explain = subprocess.run(
            [sys.executable, "-m", "repro", "explain", "5",
             "--state", str(tmp_path / "state.json")],
            cwd=str(REPO_ROOT), env=_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert explain.returncode == 0, explain.stderr
        assert "request #5" in explain.stdout

    def test_sigkill_mid_stream_recovers_bit_identically(self, tmp_path):
        repo = _tiny_repo()
        ids = list(repo.ids)
        process, port = start_daemon(
            tmp_path, "--snapshot-every", "1000"
        )
        specs = [
            sorted(repo.closure({ids[(3 * i) % len(ids)]}))
            for i in range(5)
        ]
        try:
            client = LandlordClient(f"http://127.0.0.1:{port}")
            for spec in specs:
                client.submit(spec)
        finally:
            process.kill()  # SIGKILL: no drain, no final snapshot
            process.communicate()

        recovered, _, replayed = JournaledState(
            tmp_path / "state.json"
        ).load(repo.size_of)
        assert len(replayed) == 5  # every ack was journalled first
        serial = LandlordCache(
            recovered.capacity, recovered.alpha, repo.size_of
        )
        for spec in specs:
            serial.request(frozenset(spec))
        assert serial.snapshot() == recovered.snapshot()

    def test_remote_against_dead_daemon_fails_cleanly(self, tmp_path):
        spec_file = tmp_path / "job.json"
        spec_file.write_text(
            json.dumps({"packages": ["app-0000/1.0/x86_64-el7"]})
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "submit", str(spec_file),
             "--scale", "tiny", "--remote", "http://127.0.0.1:1"],
            cwd=str(REPO_ROOT), env=_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "unreachable" in result.stderr


class TestAdaptiveServeCli:
    def _parse_error(self, *argv):
        result = _run(*argv, timeout=60)
        assert result.returncode == 2, result.stderr
        return result.stderr

    def test_bad_flags_rejected_at_parse_time(self, tmp_path):
        err = self._parse_error("serve", "--scale", "tiny", "--max-batch",
                                "fast", "--state", str(tmp_path / "s.json"))
        assert "argument --max-batch: invalid int value: 'fast'" in err
        err = self._parse_error("serve", "--scale", "tiny", "--max-batch",
                                "0", "--state", str(tmp_path / "s.json"))
        assert "--max-batch must be >= 1" in err


class TestMaxBatchAutoIsGone:
    """The commit window cap is an int: ``--max-batch auto`` and
    ``--ack-budget`` are refused by name before the site is touched, and
    the daemon takes no ``"auto"``."""

    @pytest.mark.parametrize("flags", [
        ["--max-batch", "auto"], ["--ack-budget", "0.25"],
    ])
    def test_serve_refuses_the_flag(self, flags, tmp_path):
        result = _run(
            "serve", "--scale", "tiny",
            "--state", str(tmp_path / "state.json"),
            "--port-file", str(tmp_path / "port.txt"), *flags, timeout=30,
        )
        assert result.returncode == 2
        assert flags[0] in result.stderr
        assert list(tmp_path.iterdir()) == []  # no state, no lock, no port

    def test_daemon_refuses_auto(self, tmp_path):
        from repro.service import LandlordDaemon

        store = JournaledState(tmp_path / "state.json")
        cache = LandlordCache(500, 0.8, lambda _: 1)
        with pytest.raises(ValueError, match="max_batch"):
            LandlordDaemon(store, cache, {}, max_batch="auto")


class TestOneWriterPerSite:
    """A site has one writer.  A local ``submit`` or a ``recover`` next to
    a live daemon would compact the journal from under the daemon's
    append handle, and every later ack would land in an unlinked file;
    instead each exits 2 and writes nothing.  With no daemon, the writer
    a ``submit`` finds is another one-request wrapper, so it waits its
    turn."""

    def _site(self, tmp_path):
        spec_file = tmp_path / "job.json"
        spec_file.write_text(
            json.dumps({"packages": ["app-0000/1.0/x86_64-el7"]})
        )
        state = tmp_path / "state.json"
        return spec_file, state, ["--scale", "tiny", "--state", str(state)]

    def test_second_writer_refused_while_serve_is_live(self, tmp_path):
        spec_file, state, site = self._site(tmp_path)
        journal = state.with_name("state.json.journal")
        process, port = start_daemon(tmp_path)
        try:
            with LandlordClient(f"http://127.0.0.1:{port}") as client:
                client.submit(["app-0000/1.0/x86_64-el7"])
            before = state.read_bytes(), journal.read_bytes()
            for argv, hint in (
                (["submit", str(spec_file)], "--remote"),
                (["recover"], "retry once that writer exits"),
            ):
                refused = _run(*argv, *site)
                assert refused.returncode == 2, refused.stdout
                assert refused.stderr.count("\n") == 1, refused.stderr
                assert f"site {state} is in use" in refused.stderr
                assert hint in refused.stderr
            assert (state.read_bytes(), journal.read_bytes()) == before
            status = _run("cache-status", *site)  # a reader needs no lock
            assert status.returncode == 0, status.stderr
            assert "lifetime: 1 requests" in status.stdout
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
        assert process.returncode == 0
        after = _run("submit", str(spec_file), *site)
        assert after.returncode == 0, after.stderr

    def test_acked_requests_survive_a_refused_writer(self, tmp_path):
        # serve's snapshot_every=64 keeps these acks on the journal only;
        # submit's checkpoint every request would compact it
        spec_file, state, site = self._site(tmp_path)
        repo = _tiny_repo()
        ids = list(repo.ids)
        specs = [sorted(repo.closure({ids[3 * i % len(ids)]}))
                 for i in range(5)]
        process, port = start_daemon(tmp_path)
        try:
            with LandlordClient(f"http://127.0.0.1:{port}") as client:
                acked = [client.submit(spec) for spec in specs[:3]]
                assert _run("submit", str(spec_file), *site).returncode == 2
                acked += [client.submit(spec) for spec in specs[3:]]
        finally:
            process.kill()  # SIGKILL: the kernel drops the lock
            process.communicate()
        assert [reply["request_index"] for reply in acked] == list(range(5))
        recover = _run("recover", *site)
        assert recover.returncode == 0, recover.stderr
        assert "state covers 5 requests" in recover.stdout
        recovered, _, _ = JournaledState(state).load(repo.size_of)
        serial = LandlordCache(
            recovered.capacity, recovered.alpha, repo.size_of
        )
        for spec in specs:
            serial.request(frozenset(spec))
        assert serial.snapshot() == recovered.snapshot()

    def test_concurrent_wrappers_wait_their_turn(self, tmp_path):
        repo = _tiny_repo()
        apps = sorted(i for i in repo.ids if i.startswith("app-"))[:16]
        state = tmp_path / "state.json"
        site = ["--scale", "tiny", "--state", str(state)]
        jobs = []
        for k, app in enumerate(apps):
            spec_file = tmp_path / f"job{k}.json"
            spec_file.write_text(json.dumps({"packages": [app]}))
            jobs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "submit", str(spec_file),
                 *site, "--snapshot-every", "100"],
                cwd=str(REPO_ROOT), env=_env(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        for job in jobs:
            _, stderr = job.communicate(timeout=300)
            assert job.returncode == 0, stderr
        journal = Journal(state.with_name("state.json.journal"))
        assert [entry.seq for entry in journal.entries()] == list(
            range(1, 17)
        )
        recover = _run("recover", *site)
        assert recover.returncode == 0, recover.stderr
        assert "state covers 16 requests" in recover.stdout
        cache, _, _ = JournaledState(state).load(repo.size_of)
        stats = cache.stats
        assert stats.requests == 16
        assert stats.hits + stats.merges + stats.inserts == 16
        assert stats.deletes == 0
        images = [image.packages for image in cache.images]
        for app in apps:
            closed = repo.closure({app})
            assert any(closed <= image for image in images), app

    def test_a_waiting_submit_gives_up_once_serve_holds_the_site(
        self, tmp_path
    ):
        # the marker a serve writes once it holds the lock: a wrapper
        # already waiting exits 2 instead of queueing behind the daemon
        from repro import cli

        state = str(tmp_path / "state.json")
        lock_file = tmp_path / "state.json.lock"
        refused = []

        def wrapper():
            try:
                with cli._site_lock(state, "use --remote", wait=True):
                    refused.append(None)
            except cli._InputError as exc:
                refused.append(str(exc))

        with cli._site_lock(state, "retry"):
            waiter = threading.Thread(target=wrapper)
            waiter.start()
            time.sleep(0.1)
            assert waiter.is_alive()
            lock_file.write_text("serve 12345\n")
            waiter.join(timeout=10)
            assert not waiter.is_alive()
        assert refused[0].endswith("use --remote")
        assert f"site {state} is in use" in refused[0]

    def test_serve_names_itself_while_it_holds_the_site(self, tmp_path):
        lock_file = tmp_path / "state.json.lock"
        lock_file.write_text("stale\n")  # the next holder empties it
        process, _ = start_daemon(tmp_path)
        try:
            assert lock_file.read_text() == f"serve {process.pid}\n"
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
        assert process.returncode == 0
        assert lock_file.read_bytes() == b""
