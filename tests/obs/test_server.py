"""Tests for repro.obs.server — endpoints, lifecycle, and the CLI's
serving loop end to end (`serve` in a subprocess + SIGTERM)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.cache import LandlordCache
from repro.obs import (
    AlertEngine,
    DecisionTracer,
    MetricsRegistry,
    ObsServer,
    SloTracker,
    build_status,
    validate_prometheus_text,
)

SIZE = {f"p{i}": 10 * (i % 5 + 1) for i in range(20)}


def get(url):
    """GET a URL; returns (status, content_type, body_text)."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), (
            error.read().decode("utf-8")
        )


def make_cache(n_requests=30):
    cache = LandlordCache(500, 0.5, SIZE.__getitem__)
    for i in range(n_requests):
        cache.request(frozenset({f"p{i % 8}", f"p{(i + 3) % 8}"}))
    return cache


@pytest.fixture()
def served():
    """A fully-wired server over a live cache; yields (server, url)."""
    cache = make_cache()
    registry = MetricsRegistry()
    registry.counter("landlord_requests_total", "Requests.").inc(
        cache.stats.requests
    )
    slo = SloTracker(window=20)
    cache.enable_slo(slo)
    cache.request(frozenset({"p0", "p1"}))  # one request through the slo
    alerts = AlertEngine()
    server = ObsServer(
        registry,
        status_fn=lambda: build_status(cache, slo=slo, alerts=alerts),
        on_scrape=lambda: slo.export_to(registry),
    )
    port = server.start()
    try:
        yield server, f"http://127.0.0.1:{port}"
    finally:
        server.stop()


class TestEndpoints:
    def test_metrics_is_valid_exposition(self, served):
        server, url = served
        status, content_type, body = get(url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        validate_prometheus_text(body)
        assert "landlord_requests_total" in body
        # the on_scrape hook mirrored the window into slo gauges
        assert 'slo_window{series="hit_rate"}' in body

    def test_healthz(self, served):
        server, url = served
        get(url + "/metrics")
        status, content_type, body = get(url + "/healthz")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["scrapes"] == 1
        assert payload["uptime_seconds"] >= 0

    def test_statusz_shape(self, served):
        server, url = served
        status, content_type, body = get(url + "/statusz")
        assert status == 200
        payload = json.loads(body)
        assert payload["capacity_bytes"] == 500
        assert payload["alpha"] == 0.5
        assert payload["lifetime"]["requests"] == 31
        assert payload["window"]["size"] == 20
        assert "hit_rate" in payload["window"]["series"]
        assert [a["name"] for a in payload["alerts"]] == [
            "low-cache-efficiency", "eviction-storm",
        ]
        assert payload["alerts_firing"] == []

    def test_traces_404_without_tracer(self, served):
        server, url = served
        status, _, body = get(url + "/traces/3")
        assert status == 404
        assert "tracing not enabled" in body

    def test_unknown_path_lists_endpoints(self, served):
        server, url = served
        status, _, body = get(url + "/nope")
        assert status == 404
        assert "/metrics" in body and "/statusz" in body


class TestTracesEndpoint:
    def test_traces_render_explanations(self):
        tracer = DecisionTracer(limit=50)
        cache = LandlordCache(500, 0.5, SIZE.__getitem__, tracer=tracer)
        cache.request(frozenset({"p0", "p1"}))
        cache.request(frozenset({"p0", "p1", "p2"}))
        with ObsServer(tracer=tracer) as server:
            url = f"http://127.0.0.1:{server.port}"
            status, _, body = get(url + "/traces/1")
            assert status == 200
            assert "request #1" in body
            assert "request #0" not in body  # only the last 1
            status, _, body = get(url + "/traces")
            assert status == 200  # default count
            assert "request #0" in body

    def test_bad_trace_count_is_400(self):
        with ObsServer(tracer=DecisionTracer()) as server:
            url = f"http://127.0.0.1:{server.port}"
            assert get(url + "/traces/zap")[0] == 400
            assert get(url + "/traces/0")[0] == 400

    def test_empty_tracer_says_so(self):
        with ObsServer(tracer=DecisionTracer()) as server:
            status, _, body = get(
                f"http://127.0.0.1:{server.port}/traces/5"
            )
            assert status == 200
            assert "no traces recorded" in body

    def test_json_format_serves_decisions_and_spans(self):
        from repro.obs import FrozenClock, SpanRecorder

        tracer = DecisionTracer(limit=50)
        cache = LandlordCache(500, 0.5, SIZE.__getitem__, tracer=tracer)
        cache.request(frozenset({"p0", "p1"}))
        spans = SpanRecorder(limit=8, clock=FrozenClock())
        trace_id = spans.observe("apply", 0.0, 0.1, "ab" * 16).trace_id
        with ObsServer(tracer=tracer, spans=spans) as server:
            url = f"http://127.0.0.1:{server.port}"
            status, content_type, body = get(url + "/traces/5?format=json")
            assert status == 200
            assert content_type.startswith("application/json")
            payload = json.loads(body)
            (decision,) = payload["decisions"]  # an event-stream record
            assert decision["request_index"] == 0
            assert decision["kind"] == "insert"
            assert decision["candidates"] == []
            (trace,) = payload["traces"]
            assert trace["trace_id"] == trace_id
            assert trace["spans"][0]["name"] == "apply"

    def test_json_format_without_any_tracing_is_404(self, served=None):
        with ObsServer() as server:
            status, _, body = get(
                f"http://127.0.0.1:{server.port}/traces/5?format=json"
            )
            assert status == 404
            assert "tracing not enabled" in body

    def test_json_format_spans_only(self):
        from repro.obs import FrozenClock, SpanRecorder

        spans = SpanRecorder(limit=8, clock=FrozenClock())
        spans.observe("queue", 0.0, 0.2, "cd" * 16)
        with ObsServer(spans=spans) as server:
            status, _, body = get(
                f"http://127.0.0.1:{server.port}/traces/5?format=json"
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["decisions"] == []
            assert payload["traces"][0]["trace_id"] == "cd" * 16

    def test_unknown_traces_format_is_400(self):
        with ObsServer(tracer=DecisionTracer()) as server:
            status, _, body = get(
                f"http://127.0.0.1:{server.port}/traces/5?format=xml"
            )
            assert status == 400
            assert "use text or json" in body


class TestLifecycle:
    def test_ephemeral_port_and_url(self):
        server = ObsServer()
        assert server.port is None and server.url is None
        port = server.start()
        try:
            assert port > 0
            assert server.url == f"http://127.0.0.1:{port}"
            assert server.running
        finally:
            server.stop()
        assert not server.running
        assert server.port is None

    def test_double_start_rejected(self):
        with ObsServer() as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_stop_is_idempotent(self):
        server = ObsServer()
        server.start()
        server.stop()
        server.stop()  # no-op, no error

    def test_stop_returns_promptly(self):
        # stop() waits for serve_forever's next poll; at the stdlib's
        # default interval that alone was ~0.5 s per server.
        server = ObsServer()
        server.start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.2

    def test_empty_server_serves_empty_metrics(self):
        with ObsServer() as server:
            status, _, body = get(
                f"http://127.0.0.1:{server.port}/metrics"
            )
            assert status == 200
            assert body == ""
            status, _, body = get(
                f"http://127.0.0.1:{server.port}/statusz"
            )
            assert json.loads(body) == {}

    def test_lock_serialises_scrapes(self):
        # A held lock delays the scrape; releasing it unblocks.
        lock = threading.Lock()
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        with ObsServer(registry, lock=lock) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with lock:
                thread = threading.Thread(target=get, args=(url,))
                thread.start()
                thread.join(timeout=0.2)
                assert thread.is_alive()  # blocked on the lock
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert get(url)[0] == 200


class TestServeCli:
    """`serve` plus one `submit --remote` end to end: ephemeral port,
    port file, live endpoints, clean SIGTERM shutdown with exit code 0."""

    def test_serve_until_sigterm(self, tmp_path):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(
            {"packages": ["app-0000/1.0/x86_64-el7"]}
        ))
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        root = str(Path(__file__).resolve().parents[2])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--scale", "tiny", "--state", str(tmp_path / "state.json"),
             "--port-file", str(port_file)],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                assert process.poll() is None, process.communicate()[1]
                time.sleep(0.1)
            else:
                pytest.fail("port file never appeared")
            port = int(port_file.read_text().strip())
            url = f"http://127.0.0.1:{port}"
            submit = subprocess.run(
                [sys.executable, "-m", "repro", "submit", str(spec),
                 "--scale", "tiny", "--remote", url],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=60,
            )
            assert submit.returncode == 0, submit.stderr
            assert json.loads(get(url + "/healthz")[2])["status"] == "ok"
            payload = json.loads(get(url + "/statusz")[2])
            assert payload["lifetime"]["requests"] == 1
            status, _, body = get(url + "/metrics")
            assert status == 200
            validate_prometheus_text(body)
            assert "landlord_requests_total" in body
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=15)
            assert process.returncode == 0, stderr
            assert "landlord daemon on http://127.0.0.1" in stdout
            assert "daemon stopped" in stdout
            # regression: the port file must not outlive the server —
            # a stale one makes the next ephemeral-port run unpollable
            assert not port_file.exists()
            assert not port_file.with_name(
                port_file.name + ".tmp"
            ).exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


SERVING_THREADS = {"repro-obs-server", "repro-service-server"}


def serving_argv(caller, tmp_path, port_file):
    """Argv for one of the two commands behind the one serving loop."""
    if caller == "serve":
        return ["serve", "--scale", "tiny",
                "--state", str(tmp_path / "state.json"),
                "--port-file", str(port_file)]
    return ["sweep", "--scale", "tiny", "--workers", "1",
            "--repetitions", "1", "--alpha", "0.5", "0.5", "0.1",
            "--serve", "0", "--port-file", str(port_file)]


def serving_threads():
    return {t for t in threading.enumerate() if t.name in SERVING_THREADS}


def handlers():
    return {sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)}


class TestServeHardening:
    """Regression tests for the three serve-path bugs — non-atomic port
    file publication, setup failures leaking the server thread, and
    scrapes racing cache mutation without a lock — run through each
    command that serves until SIGTERM (in process, via ``main``)."""

    CALLERS = ["serve", "sweep --serve"]

    def test_port_file_written_atomically(self, tmp_path, monkeypatch):
        # The final name must only ever appear via rename: pollers that
        # race the write must read a complete port number or nothing.
        from repro import cli

        writes = []
        real_write_text = Path.write_text

        def recording(self, *args, **kwargs):
            writes.append(self.name)
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", recording)
        cli._write_port_file(str(tmp_path / "port.txt"), 4321)
        assert (tmp_path / "port.txt").read_text() == "4321\n"
        assert writes == ["port.txt.tmp"]
        assert not (tmp_path / "port.txt.tmp").exists()

    def test_port_file_replaces_stale_value(self, tmp_path):
        from repro import cli

        target = tmp_path / "port.txt"
        target.write_text("99999\n")
        cli._write_port_file(str(target), 1234)
        assert target.read_text() == "1234\n"

    @pytest.mark.parametrize("caller", CALLERS)
    def test_setup_failure_tears_down_server_thread(self, caller, tmp_path,
                                                     capsys):
        # Pre-fix, the port file was written between server.start() and
        # the try block: a bad --port-file path raised with the server
        # thread still alive, hanging the (non-daemonised) caller.
        from repro.cli import main

        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a *file* where a directory is needed
        port_file = blocker / "port.txt"
        before, installed = serving_threads(), handlers()
        assert main(serving_argv(caller, tmp_path, port_file)) == 2
        err = capsys.readouterr().err
        assert str(port_file) in err and "Traceback" not in err
        assert serving_threads() - before == set()
        assert not port_file.exists()
        assert handlers() == installed

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_while_serving_keeps_its_own_sigterm(self):
        # The handlers are installed before the server starts, so a
        # sweep worker forked while serving inherits them: its own
        # SIGTERM must still end it, not set the parent's stop event.
        from repro import cli

        class Server:
            def start(self):
                return 0

            def stop(self):
                pass

        installed = handlers()
        statuses = []

        def on_listening(_port):
            pid = os.fork()
            if pid == 0:  # the child: a swallowed signal exits 0 later
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)
                os._exit(0)
            statuses.append(os.waitpid(pid, 0)[1])
            os.kill(os.getpid(), signal.SIGTERM)  # the parent's: stop
            return "listening"

        cli._serve_until_signal(Server(), None, on_listening)
        assert handlers() == installed
        assert os.WIFSIGNALED(statuses[0])
        assert os.WTERMSIG(statuses[0]) == signal.SIGTERM

    @pytest.mark.parametrize("caller", CALLERS)
    def test_serve_loop_passes_shared_lock(self, caller, tmp_path,
                                           monkeypatch, capsys):
        # Pre-fix, no lock reached ObsServer (or the cache): a scrape
        # could render a half-applied request.  Runs the loop for real:
        # SIGTERM arrives once the command has installed its handler.
        from repro.cli import main
        from repro.obs import TelemetryAggregator

        server_locks, state_locks = [], []
        real_server_init = ObsServer.__init__
        real_enable_lock = LandlordCache.enable_lock
        real_aggregator_init = TelemetryAggregator.__init__

        def server_init(self, *args, **kwargs):
            server_locks.append(kwargs.get("lock"))
            real_server_init(self, *args, **kwargs)

        def enable_lock(self, lock):
            state_locks.append(lock)
            real_enable_lock(self, lock)

        def aggregator_init(self, *args, **kwargs):
            real_aggregator_init(self, *args, **kwargs)
            state_locks.append(self.lock)

        monkeypatch.setattr(ObsServer, "__init__", server_init)
        monkeypatch.setattr(LandlordCache, "enable_lock", enable_lock)
        monkeypatch.setattr(TelemetryAggregator, "__init__",
                            aggregator_init)

        installed = handlers()
        done = threading.Event()

        def sigterm_once_handled():
            while not done.wait(0.01):
                if signal.getsignal(signal.SIGTERM) is not (
                    installed[signal.SIGTERM]
                ):
                    os.kill(os.getpid(), signal.SIGTERM)
                    return

        watcher = threading.Thread(target=sigterm_once_handled, daemon=True)
        watcher.start()
        port_file = tmp_path / "port.txt"
        try:
            assert main(serving_argv(caller, tmp_path, port_file)) == 0
        finally:
            done.set()
            watcher.join()
        assert "Traceback" not in capsys.readouterr().err
        assert handlers() == installed
        assert not port_file.exists()
        assert len(server_locks) == 1 and server_locks[0] is not None
        assert any(lock is server_locks[0] for lock in state_locks)

class TestFormatNegotiation:
    def test_openmetrics_query_switches_format(self, served):
        from repro.obs import validate_openmetrics_text

        _, url = served
        status, content_type, body = get(url + "/metrics?format=openmetrics")
        assert status == 200
        assert content_type.startswith("application/openmetrics-text")
        assert body.endswith("# EOF\n")
        validate_openmetrics_text(body)

    def test_prometheus_is_the_default_and_explicit(self, served):
        _, url = served
        _, default_ct, default_body = get(url + "/metrics")
        assert default_ct.startswith("text/plain")
        status, _, explicit = get(url + "/metrics?format=prometheus")
        assert status == 200
        assert explicit == default_body

    def test_unknown_format_is_400(self, served):
        _, url = served
        status, _, body = get(url + "/metrics?format=yaml")
        assert status == 400
        assert "format" in body

    def test_registryless_server_serves_bare_eof(self):
        server = ObsServer(registry=None)
        port = server.start()
        try:
            url = f"http://127.0.0.1:{port}/metrics"
            assert get(url)[2] == ""
            assert get(url + "?format=openmetrics")[2] == "# EOF\n"
        finally:
            server.stop()


class TestSweepServeCli:
    """`sweep --serve` end to end: a real multi-worker sweep whose cells
    feed the in-process aggregator as they return, scraped over HTTP
    mid-run and after completion, shut down by SIGTERM with exit code
    0."""

    def test_fleet_scrape_until_sigterm(self, tmp_path):
        from repro.obs import validate_openmetrics_text

        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--scale", "tiny",
             "--workers", "2", "--repetitions", "2",
             "--alpha", "0.5", "0.6", "0.1",
             "--serve", "0", "--port-file", str(port_file)],
            cwd=str(Path(__file__).resolve().parents[2]),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                assert process.poll() is None, process.communicate()[1]
                time.sleep(0.1)
            else:
                pytest.fail("port file never appeared")
            url = f"http://127.0.0.1:{int(port_file.read_text())}"
            # mid-run (or just-after) scrapes are always well-formed
            validate_prometheus_text(get(url + "/metrics")[2])
            while time.monotonic() < deadline:
                payload = json.loads(get(url + "/statusz")[2])
                if payload["telemetry"]["complete"]:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("sweep never reported complete")
            assert payload["sweep"]["done"] == payload["sweep"]["total"]
            cells = payload["telemetry"]["cells"]
            assert cells["folded"] == cells["expected"] == 4
            body = get(url + "/metrics")[2]
            validate_prometheus_text(body)
            om = get(url + "/metrics?format=openmetrics")[2]
            validate_openmetrics_text(om)
            # aggregated total == sum over the per-worker series
            lines = body.splitlines()
            total = next(
                float(l.rsplit(" ", 1)[1]) for l in lines
                if l.startswith('landlord_requests_total{action="hit"}')
            )
            per_worker = sum(
                float(l.rsplit(" ", 1)[1]) for l in lines
                if l.startswith("landlord_requests_total{worker=")
                and 'action="hit"' in l
            )
            assert total == per_worker > 0
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=15)
            assert process.returncode == 0, stderr
            assert "telemetry on http://127.0.0.1" in stdout
            assert "sweep done; telemetry still on" in stdout
            assert not port_file.exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


    def test_sigterm_as_the_port_file_appears_still_drains(self, tmp_path):
        # The port is published before the sweep runs its cells; the
        # signal handlers used to be installed only after the sweep, so
        # a SIGTERM in that window killed the process (-15) and left the
        # port file behind.
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--scale", "tiny",
             "--workers", "1", "--repetitions", "8",
             "--alpha", "0.5", "0.9", "0.1",
             "--serve", "0", "--port-file", str(port_file)],
            cwd=str(Path(__file__).resolve().parents[2]),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert process.poll() is None, process.communicate()[1]
                assert time.monotonic() < deadline, "port file never appeared"
                time.sleep(0.005)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
            assert process.returncode == 0, stderr
            assert "sweep done" in stdout
            assert not port_file.exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestKeepAliveLatency:
    """Replies leave in one segment: a keep-alive client never waits out
    the peer's delayed-ACK timer (~40 ms per request with the stdlib's
    headers-then-body two-send idiom)."""

    @pytest.mark.parametrize(
        "path, body_floor",
        # 20 KB: a real /metrics scrape, and past any stdio-sized buffer
        # that would merely postpone the second send.
        [("/healthz", 0), ("/statusz", 20_000)],
    )
    def test_keep_alive_gets_do_not_stall(self, path, body_floor):
        import http.client
        import statistics

        server = ObsServer(status_fn=lambda: {"pad": "x" * body_floor})
        with server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=5
            )
            rtts = []
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                rtts.append(time.perf_counter() - started)
                assert response.status == 200
                assert len(body) > body_floor
            conn.close()
        assert statistics.median(rtts) < 0.020
