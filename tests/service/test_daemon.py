"""Tests for the LANDLORD daemon: concurrent determinism, durability
(ack-after-journal, crash replay), admission control, and the embedded
observability surface."""

import errno
import os
import sys
import threading
import time
from contextlib import closing

import pytest

from repro.core.cache import LandlordCache
from repro.core.journal import Journal, JournaledState, recover_state
from repro.obs import (
    AlertEngine,
    DecisionTracer,
    MetricsRegistry,
    SloTracker,
    by_request,
    explain,
    read_event_stream,
    validate_prometheus_text,
)
from repro.service import LandlordClient, LandlordDaemon, SubmitRejected
from repro.service.daemon import _PendingSubmit
from repro.testing.faults import CrashPoint, SimulatedCrash
from repro.packages.repository import PackageIndex
from tests.core.test_cache import interning_retains
from tests.core.test_journal_v2 import journalled_names

SIZE = {f"p{i}": 10 * (i % 5 + 1) for i in range(30)}
SIZE_OF = PackageIndex.of(SIZE)
KNOWN = frozenset(SIZE)


def make_daemon(tmp_path, *, snapshot_every=10, **kw):
    """A daemon over a fresh journalled store in ``tmp_path``."""
    store = JournaledState(
        tmp_path / "state.json", snapshot_every=snapshot_every
    )
    cache = LandlordCache(500, 0.8, SIZE_OF)
    store.initialise(cache, {"repository": "test"})
    kw.setdefault("known_package", lambda p: p in KNOWN)
    return LandlordDaemon(store, cache, {"repository": "test"}, **kw)


def client_specs(k, n=8):
    """Client ``k``'s disjoint-ish request stream (deterministic)."""
    return [
        sorted({f"p{(k * 7 + i) % 30}", f"p{(k * 3 + 2 * i) % 30}"})
        for i in range(n)
    ]


def serial_replay(specs):
    """A bare cache that applied ``specs`` one by one, in order."""
    cache = LandlordCache(500, 0.8, SIZE_OF)
    for spec in specs:
        cache.request(frozenset(spec))
    return cache


def wait_until(predicate, what, timeout=10):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.002)


def join_all(threads, timeout=30):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), f"{thread.name} hung"


def submit_stalled(daemon, specs):
    """Submit each spec from its own thread while the cache lock is held.

    ``specs[0]`` leads a window of its own and blocks on the lock; the
    rest queue behind it and commit together as the next window.
    Returns each thread's ``(status, payload)`` — or the
    :class:`SimulatedCrash` it died of — in spec order.
    """
    outcomes = [None] * len(specs)

    def run(i):
        try:
            outcomes[i] = daemon.submit(specs[i])
        except SimulatedCrash as crash:
            outcomes[i] = crash

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(specs))
    ]
    accepted = daemon.accepted
    with daemon.lock:
        threads[0].start()
        wait_until(lambda: daemon.accepted == accepted + 1, "no leader")
        for thread in threads[1:]:
            thread.start()
        wait_until(
            lambda: daemon.queue_depth == len(specs) - 1, "nothing queued"
        )
    join_all(threads)
    return outcomes


class TestConcurrentDeterminism:
    def test_concurrent_clients_match_serial_replay(self, tmp_path):
        daemon = make_daemon(tmp_path, max_batch=4)
        replies = []
        replies_lock = threading.Lock()
        barrier = threading.Barrier(4)

        def run_client(k):
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            barrier.wait()
            for spec in client_specs(k):
                reply = client.submit(spec)
                with replies_lock:
                    replies.append((reply["request_index"], spec, reply))
            client.close()

        with daemon:
            threads = [
                threading.Thread(target=run_client, args=(k,))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            live_snapshot = daemon.cache.snapshot()

        assert len(replies) == 32
        # request indices are the arrival order: dense, unique, 0-based
        indices = sorted(r[0] for r in replies)
        assert indices == list(range(32))

        # replaying the same specs serially in arrival order through a
        # fresh cache reproduces the exact final state and decisions
        serial = LandlordCache(500, 0.8, SIZE_OF)
        for index, spec, reply in sorted(replies):
            decision = serial.request(frozenset(spec))
            assert decision.action.value == reply["action"]
            assert decision.image.id == reply["image"]
            assert sorted(decision.evicted) == sorted(reply["evicted"])
        assert serial.snapshot() == live_snapshot

        # and the durable store converged to the same state
        reloaded, _, _ = JournaledState(tmp_path / "state.json").load(
            SIZE_OF
        )
        assert reloaded.snapshot() == live_snapshot

    def test_batching_happens_under_load(self, tmp_path):
        # Many clients stalled behind a held lock arrive as one window.
        daemon = make_daemon(tmp_path, max_batch=64)
        with daemon:
            with daemon.lock:  # stall the first leader mid-commit
                threads = [
                    threading.Thread(
                        target=daemon.submit, args=([f"p{i}", "p0"],)
                    )
                    for i in range(10)
                ]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 10
                while daemon.accepted < 10:
                    assert time.monotonic() < deadline, "admission stalled"
                    time.sleep(0.005)
            for t in threads:
                t.join()
            assert daemon.accepted == 10
            # strictly fewer batches than requests proves coalescing
            assert daemon.batches < 10


class TestDurability:
    def test_ack_implies_journalled(self, tmp_path):
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            for spec in client_specs(0, n=5):
                client.submit(spec)
            # every acknowledged request is already on disk
            journal = Journal(tmp_path / "state.json.journal")
            assert journal.last_seq == 5

    def test_crash_recovers_bit_identically(self, tmp_path):
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            for spec in client_specs(1, n=6):
                client.submit(spec)
        # context exit = graceful stop; now simulate the crash variant
        daemon2_dir = tmp_path / "crash"
        daemon2_dir.mkdir()
        daemon2 = make_daemon(daemon2_dir, snapshot_every=10_000)
        daemon2.start()
        client = LandlordClient(f"http://127.0.0.1:{daemon2.port}")
        for spec in client_specs(1, n=6):
            client.submit(spec)
        live = daemon2.cache.snapshot()
        daemon2.kill()  # no drain, no final snapshot — a SIGKILL image
        cache, _, replayed = JournaledState(
            daemon2_dir / "state.json"
        ).load(SIZE_OF)
        assert len(replayed) == 6  # nothing was covered by a snapshot
        assert cache.snapshot() == live

    def test_recovery_at_every_journalled_point(self, tmp_path):
        # A crash after any ack must replay to exactly the serial prefix.
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        specs = client_specs(2, n=8)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            for spec in specs:
                client.submit(spec)
            journal_lines = (
                (tmp_path / "state.json.journal")
                .read_text()
                .splitlines(keepends=True)
            )
            state_bytes = (tmp_path / "state.json").read_bytes()
        assert len(journal_lines) == 8
        for k in range(len(journal_lines) + 1):
            point = tmp_path / f"point{k}"
            point.mkdir()
            (point / "state.json").write_bytes(state_bytes)
            (point / "state.json.journal").write_text(
                "".join(journal_lines[:k])
            )
            recovered, _, replayed = JournaledState(
                point / "state.json"
            ).load(SIZE_OF)
            assert len(replayed) == k
            serial = LandlordCache(500, 0.8, SIZE_OF)
            for spec in specs[:k]:
                serial.request(frozenset(spec))
            assert recovered.snapshot() == serial.snapshot()

    def test_graceful_stop_compacts_journal(self, tmp_path):
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            client.submit(["p0", "p1"])
        # stop() wrote a covering snapshot and compacted the journal
        assert Journal(tmp_path / "state.json.journal").entries() == []
        cache, _, replayed = JournaledState(tmp_path / "state.json").load(
            SIZE_OF
        )
        assert replayed == []
        assert cache.stats.requests == 1


class TestAdmissionControl:
    def test_queue_full_rejects_429(self, tmp_path):
        daemon = make_daemon(tmp_path, max_queue=2)
        with daemon._cond:  # white-box: pre-fill the admission queue
            daemon._queue.extend(
                _PendingSubmit(("p0",)) for _ in range(2)
            )
        status, payload = daemon.submit(["p0"])
        assert status == 429
        assert payload["retry"] is True
        assert daemon.rejected == 1
        with daemon._cond:
            daemon._queue.clear()

    def test_draining_rejects_503(self, tmp_path):
        daemon = make_daemon(tmp_path)
        with daemon:
            pass  # started, drained, stopped
        status, payload = daemon.submit(["p0"])
        assert status == 503
        assert payload["retry"] is False

    def test_unknown_packages_rejected_before_journalling(self, tmp_path):
        daemon = make_daemon(tmp_path)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            with pytest.raises(Exception) as excinfo:
                client.submit(["p0", "zork"])
            assert excinfo.value.status == 400
        # the poison spec never reached the journal
        assert Journal(tmp_path / "state.json.journal").last_seq == 0

    def test_empty_spec_rejected(self, tmp_path):
        daemon = make_daemon(tmp_path)
        assert daemon.submit([])[0] == 400

    def test_http_protocol_errors(self, tmp_path):
        import urllib.error
        import urllib.request

        daemon = make_daemon(tmp_path)
        with daemon:
            url = f"http://127.0.0.1:{daemon.port}"

            def post(path, data, headers=None):
                request = urllib.request.Request(
                    url + path, data=data, method="POST",
                    headers=headers or {},
                )
                try:
                    with urllib.request.urlopen(request, timeout=5) as r:
                        return r.status, r.read()
                except urllib.error.HTTPError as error:
                    return error.code, error.read()

            assert post("/nope", b"{}")[0] == 404
            assert post("/submit", b"not json")[0] == 400
            assert post("/submit", b'{"packages": "p0"}')[0] == 400
            assert post("/submit", b'{"packages": [1, 2]}')[0] == 400

    @pytest.mark.parametrize("length, code", [
        ("-1", 411), ("abc", 411), ("5", 400),
    ])
    def test_bad_content_length_answers_at_once(self, tmp_path, length, code):
        # A raw socket, so the header goes out as written and the
        # connection stays open: a handler that waits for more body
        # bytes (rfile.read(-1) reads to EOF) never answers.
        import socket

        daemon = make_daemon(tmp_path)
        with daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=2
            ) as sock:
                sock.sendall(
                    b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n\r\n"
                    b"12345"
                )
                try:
                    head = sock.recv(64)
                except socket.timeout:
                    pytest.fail(f"no reply to Content-Length: {length}")
        assert head.startswith(f"HTTP/1.1 {code} ".encode()), head


class TestObservabilitySurface:
    def test_metrics_statusz_healthz(self, tmp_path):
        registry = MetricsRegistry()
        slo = SloTracker(window=16)
        alerts = AlertEngine(registry=registry)
        daemon = make_daemon(
            tmp_path, registry=registry, slo=slo, alerts=alerts
        )
        daemon.cache.enable_metrics(registry)
        daemon.cache.enable_slo(slo)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            for spec in client_specs(3, n=4):
                client.submit(spec)
            body = client.metrics()
            validate_prometheus_text(body)
            assert (
                'service_submissions_total{outcome="accepted"} 4' in body
            )
            assert "service_batches_total" in body
            assert 'slo_window{series="queue_depth"}' in body
            assert "landlord_requests_total" in body

            status = client.status()
            assert status["service"]["accepted"] == 4
            assert status["service"]["draining"] is False
            assert status["service"]["max_queue"] == 1024
            assert status["lifetime"]["requests"] == 4
            assert "queue_depth" in status["window"]["series"]

            health = client.health()
            assert health["status"] == "ok"

    def test_checkpoint_series_on_metrics(self, tmp_path):
        registry = MetricsRegistry()
        daemon = make_daemon(tmp_path, snapshot_every=2, registry=registry)
        daemon.store.enable_metrics(registry)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            for spec in client_specs(3, n=4):
                client.submit(spec)
            body = client.metrics()
        validate_prometheus_text(body)
        assert "state_save_seconds_count 2" in body
        assert f"state_images {len(daemon.cache)}" in body
        size = (tmp_path / "state.json").stat().st_size
        assert f"state_bytes {size}" in body

    def test_root_404_lists_submit_endpoint(self, tmp_path):
        import urllib.error
        import urllib.request

        daemon = make_daemon(tmp_path)
        with daemon:
            try:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{daemon.port}/", timeout=5
                )
                pytest.fail("GET / should 404")
            except urllib.error.HTTPError as error:
                assert error.code == 404
                assert b"/submit" in error.read()

    def test_no_telemetry_ingest_route(self, tmp_path):
        # /metrics is this daemon's own registry, unlabelled; there is
        # no route for other processes to push theirs into it.
        import urllib.error
        import urllib.request

        registry = MetricsRegistry()
        daemon = make_daemon(tmp_path, registry=registry)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            client.submit(client_specs(1, n=1)[0])
            request = urllib.request.Request(
                f"http://127.0.0.1:{daemon.port}/telemetry",
                data=b'{"worker": "w", "mode": "cells", "cells": []}',
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 404
            body = client.metrics()
            status = client.status()
        assert 'service_submissions_total{outcome="accepted"} 1' in body
        assert 'worker="' not in body
        assert "telemetry" not in status

    def test_traces_flow_to_sidecar_for_explain(self, tmp_path):
        tracer = DecisionTracer(limit=64)
        trace_path = tmp_path / "trace.jsonl"
        daemon = make_daemon(
            tmp_path, tracer=tracer, trace_path=str(trace_path)
        )
        daemon.cache.enable_tracing(tracer)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            for spec in client_specs(4, n=3):
                client.submit(spec)
        records = {
            record[0].request_index: record
            for record in by_request(read_event_stream(trace_path))
        }
        assert sorted(records) == [0, 1, 2]
        assert "request #0" in explain(records[0])

    def test_trace_path_required_with_tracer(self, tmp_path):
        with pytest.raises(ValueError, match="trace_path"):
            make_daemon(tmp_path, tracer=DecisionTracer())


class TestDistributedTracing:
    def test_submit_records_all_five_pipeline_stages(self, tmp_path):
        from repro.obs import SERVICE_STAGES, SpanRecorder

        daemon = make_daemon(tmp_path)
        client_spans = SpanRecorder(limit=64)
        with daemon:
            client = LandlordClient(
                f"http://127.0.0.1:{daemon.port}", spans=client_spans
            )
            reply = client.submit(["p1", "p2"])
            client.close()
        assert reply["trace_id"]
        trace = daemon.spans.trace(reply["trace_id"])
        assert trace is not None
        names = sorted(s["name"] for s in trace["spans"])
        assert names == sorted(SERVICE_STAGES)
        assert trace["request_index"] == reply["request_index"]
        # the client's root span shares the trace id, and the daemon's
        # stage spans all point at it as their parent
        (root,) = client_spans.spans()
        assert root.trace_id == reply["trace_id"]
        assert all(
            s["parent_id"] == root.span_id for s in trace["spans"]
        )

    def test_stage_durations_sum_within_client_e2e(self, tmp_path):
        from repro.obs import SpanRecorder

        daemon = make_daemon(tmp_path)
        client_spans = SpanRecorder(limit=64)
        with daemon:
            client = LandlordClient(
                f"http://127.0.0.1:{daemon.port}", spans=client_spans
            )
            reply = client.submit(["p3", "p4"])
            client.close()
        trace = daemon.spans.trace(reply["trace_id"])
        stage_sum = sum(s["duration"] for s in trace["spans"])
        (root,) = client_spans.spans()
        # The stages tile the server-side interval inside the client's
        # round trip; generous slack absorbs clock granularity (the
        # acceptance tolerance from the issue).
        assert stage_sum <= root.duration * 1.25 + 0.01

    def test_malformed_traceparent_starts_fresh_trace(self, tmp_path):
        daemon = make_daemon(tmp_path)
        with daemon:
            status, payload = daemon.submit(
                ["p1"], traceparent="not-a-context"
            )
        assert status == 200
        assert len(payload["trace_id"]) == 32

    def test_valid_traceparent_is_continued(self, tmp_path):
        from repro.obs import format_traceparent

        daemon = make_daemon(tmp_path)
        trace_id = "ab" * 16
        with daemon:
            status, payload = daemon.submit(
                ["p1"], traceparent=format_traceparent(trace_id, "cd" * 8)
            )
        assert status == 200
        assert payload["trace_id"] == trace_id
        trace = daemon.spans.trace(trace_id)
        assert all(s["parent_id"] == "cd" * 8 for s in trace["spans"])

    def test_span_ring_stays_bounded_under_concurrent_clients(
        self, tmp_path
    ):
        limit = 25  # five 5-stage traces
        daemon = make_daemon(tmp_path, span_limit=limit, max_batch=4)
        barrier = threading.Barrier(4)

        def run_client(k):
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            barrier.wait()
            for spec in client_specs(k, n=6):
                client.submit(spec)
            client.close()

        with daemon:
            threads = [
                threading.Thread(target=run_client, args=(k,))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(daemon.spans) <= limit
            # the survivors are complete recent spans, not torn halves
            assert daemon.spans.traces(last=1)

    def test_stop_flushes_in_flight_spans_before_final_snapshot(
        self, tmp_path
    ):
        # Submissions queued behind a held lock are still applied (and
        # their spans recorded) by the drain that stop() performs.
        daemon = make_daemon(tmp_path, max_batch=64)
        daemon.start()
        with daemon.lock:  # stall the leader so submissions queue up
            threads = [
                threading.Thread(target=daemon.submit, args=([f"p{i}"],))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while daemon.accepted < 6:
                assert time.monotonic() < deadline, "admission stalled"
                time.sleep(0.005)
        daemon.stop()
        for t in threads:
            t.join()
        stage_stats = daemon.spans.stage_stats()
        assert stage_stats["apply"]["count"] == 6
        assert stage_stats["ack"]["count"] == 6
        # and the covering snapshot reflects every drained request
        reloaded, _, replayed = JournaledState(
            tmp_path / "state.json"
        ).load(SIZE_OF)
        assert replayed == []
        assert reloaded.stats.requests == 6

    def test_traced_daemon_matches_untraced_serial_replay(self, tmp_path):
        # Tracing must never perturb decisions: drive the daemon with
        # explicit trace context on every submission, then replay the
        # same specs through a bare cache with no obs attached.
        from repro.obs import format_traceparent, new_span_id, new_trace_id

        daemon = make_daemon(tmp_path, max_batch=8)
        specs = client_specs(1, n=10)
        replies = []
        with daemon:
            for spec in specs:
                header = format_traceparent(new_trace_id(), new_span_id())
                status, payload = daemon.submit(spec, traceparent=header)
                assert status == 200
                replies.append(payload)
            live_snapshot = daemon.cache.snapshot()
        untraced = LandlordCache(500, 0.8, SIZE_OF)
        for spec, reply in zip(specs, replies):
            decision = untraced.request(frozenset(spec))
            assert decision.action.value == reply["action"]
            assert decision.image.id == reply["image"]
        assert untraced.snapshot() == live_snapshot

    def test_exemplars_carry_trace_ids_into_the_scrape(self, tmp_path):
        from repro.obs import validate_openmetrics_text

        registry = MetricsRegistry()
        daemon = make_daemon(tmp_path, registry=registry)
        daemon.cache.enable_metrics(registry)
        with daemon:
            status, payload = daemon.submit(["p5", "p6"])
        assert status == 200
        text = registry.to_openmetrics()
        validate_openmetrics_text(text)
        # both the request-latency and stage histograms resolve the
        # slow bucket to this submission's trace
        assert f'trace_id="{payload["trace_id"]}"' in text
        assert "service_stage_seconds_bucket" in text

    def test_explain_cross_links_decisions_to_traces(self, tmp_path):
        # The decision event is stamped with its trace id when it is
        # built, from the map the daemon hands the cache for exemplars:
        # no linking step after the fact.
        assert not hasattr(DecisionTracer, "link_trace")
        tracer = DecisionTracer(limit=64)
        trace_path = tmp_path / "trace.jsonl"
        daemon = make_daemon(
            tmp_path, tracer=tracer, trace_path=str(trace_path)
        )
        daemon.cache.enable_tracing(tracer)
        with daemon:
            status, payload = daemon.submit(["p7", "p8"])
        assert status == 200
        narrative = tracer.explain(payload["request_index"])
        assert payload["trace_id"] in narrative
        assert "repro-landlord trace" in narrative
        # the sidecar carries the trace id on the decision event
        (decision,) = [
            e for e in read_event_stream(trace_path)
            if e.request_index == payload["request_index"]
            and e.kind.value != "delete"
        ]
        assert decision.trace_id == payload["trace_id"]

    def test_statusz_carries_stage_quantiles(self, tmp_path):
        daemon = make_daemon(tmp_path)
        with daemon:
            daemon.submit(["p9"])
            status = daemon._status()
        stages = status["stages"]
        for stage in ("admission", "queue", "fsync", "apply", "ack"):
            assert stages[stage]["count"] >= 1
            assert stages[stage]["p95"] >= 0.0

    def test_client_traces_endpoint_round_trip(self, tmp_path):
        daemon = make_daemon(tmp_path)
        with daemon:
            client = LandlordClient(f"http://127.0.0.1:{daemon.port}")
            reply = client.submit(["p10", "p11"])
            payload = client.traces(5)
            client.close()
        trace_ids = [t["trace_id"] for t in payload["traces"]]
        assert reply["trace_id"] in trace_ids


class TestUnixSocket:
    def test_submit_over_unix_socket(self, tmp_path):
        sock = tmp_path / "landlord.sock"
        daemon = make_daemon(tmp_path, socket_path=str(sock))
        with daemon:
            assert sock.exists()
            client = LandlordClient(f"unix:{sock}")
            reply = client.submit(["p0", "p1"])
            assert reply["action"] == "insert"
            assert client.health()["status"] == "ok"
        assert not sock.exists()  # removed on shutdown

    def test_stale_socket_is_replaced(self, tmp_path):
        sock = tmp_path / "landlord.sock"
        daemon = make_daemon(tmp_path, socket_path=str(sock))
        with daemon:
            pass
        # leave a stale socket file behind, as a crashed daemon would
        sock.touch()
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        daemon2 = make_daemon(fresh_dir, socket_path=str(sock))
        with daemon2:
            assert LandlordClient(f"unix:{sock}").submit(["p2"])[
                "action"
            ] == "insert"


class TestLifecycle:
    def test_double_start_rejected(self, tmp_path):
        daemon = make_daemon(tmp_path)
        with daemon:
            with pytest.raises(RuntimeError, match="already started"):
                daemon.start()

    def test_stop_is_idempotent(self, tmp_path):
        daemon = make_daemon(tmp_path)
        daemon.start()
        daemon.stop()
        daemon.stop()

    def test_bad_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_queue"):
            make_daemon(tmp_path, max_queue=0)
        with pytest.raises(ValueError, match="max_batch"):
            make_daemon(tmp_path, max_batch=0)

    def test_port_and_url_resolve_after_start(self, tmp_path):
        daemon = make_daemon(tmp_path)
        assert daemon.port is None and daemon.url is None
        with daemon:
            assert daemon.port > 0
            assert daemon.url == f"http://127.0.0.1:{daemon.port}"


class TestAdaptiveMaxBatch:
    """``max_batch`` is a fixed cap on the window the leader pops; the
    window sizes itself from what queued, and nothing moves the cap."""

    def test_bad_arguments_rejected(self, tmp_path):
        for bad in ("fast", "auto", "256", 0, True, 2.0):
            with pytest.raises(ValueError, match="max_batch"):
                make_daemon(tmp_path, max_batch=bad)

    def test_fixed_max_batch_has_no_governor(self, tmp_path):
        registry = MetricsRegistry()
        daemon = make_daemon(tmp_path, max_batch=2, registry=registry)
        specs = [[f"p{i}"] for i in range(5)]
        with closing(daemon.store.journal):
            results = submit_stalled(daemon, specs)
        assert [status for status, _ in results] == [200] * 5
        # one window of its own, then the queued four popped two by two
        assert daemon.batches == 3
        assert daemon.max_batch == 2
        service = daemon._status()["service"]
        assert service["max_batch"] == 2
        assert "batch_governor" not in service
        text = registry.to_prometheus()
        assert "service_batches_total 3" in text
        assert "service_batch_size" not in text


class TestServePathCost:
    """A submission costs what its layers cost: no timer on the wire,
    nothing of the spec retained once it is answered."""

    def test_keep_alive_submits_do_not_stall(self, tmp_path):
        # In the idiom of "hit is faster than miss": the timing is the
        # assertion.  Two sends per reply cost every keep-alive request
        # the client's ~40 ms delayed-ACK timer; one send costs the
        # pipeline (queue + fsync + apply), a few ms.
        import statistics

        specs = [[f"p{i}", f"p{(i * 7 + 3) % 30}"] for i in range(20)]
        with make_daemon(tmp_path, snapshot_every=1000) as daemon:
            rtts = []
            with LandlordClient(f"http://127.0.0.1:{daemon.port}") as client:
                for spec in specs:
                    started = time.perf_counter()
                    client.submit(spec)
                    rtts.append(time.perf_counter() - started)
        assert statistics.median(rtts) < 0.020

    def test_submitted_specs_are_not_retained(self, tmp_path, monkeypatch):
        # 200 unique specs off the wire, duplicates and all: interning
        # keeps no reference to any of them.
        kept = interning_retains(monkeypatch)
        ids = sorted(SIZE)
        specs = [
            [ids[i % 30], ids[(i // 30 + i + 1) % 30], ids[i % 30],
             ids[(i * 11 + 5) % 30]]
            for i in range(200)
        ]
        assert len({frozenset(spec) for spec in specs}) > 100
        with make_daemon(tmp_path, snapshot_every=64) as daemon:
            with LandlordClient(f"http://127.0.0.1:{daemon.port}") as client:
                replies = [client.submit(spec) for spec in specs]
            live_snapshot = daemon.cache.snapshot()
        assert len(kept) == 200 and not any(kept)
        assert [r["request_index"] for r in replies] == list(range(200))
        serial = LandlordCache(500, 0.8, SIZE_OF)
        for spec, reply in zip(specs, replies):
            decision = serial.request(frozenset(spec))
            assert decision.action.value == reply["action"]
            assert decision.requested_bytes == reply["requested_bytes"]
        assert serial.snapshot() == live_snapshot


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs: interleavings a lost update needs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestLeaderFollower:
    """Group commit without a batcher thread: one committer at a time,
    FIFO windows, and a handler that finds no commit in flight commits
    its own window."""

    THREADS = 16

    def run_clients(self, daemon, n):
        """Start THREADS threads, each submitting ``n`` specs through
        ``daemon.submit`` (stopping at its first 503); returns the
        threads and the shared ``(status, spec, payload)`` list."""
        replies = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.THREADS)

        def client(k):
            barrier.wait(timeout=10)
            for spec in client_specs(k, n):
                status, payload = daemon.submit(spec)
                with lock:
                    replies.append((status, spec, payload))
                if status == 503:
                    return

        threads = [
            threading.Thread(target=client, args=(k,))
            for k in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        return threads, replies

    @staticmethod
    def check_serial(replies, live_snapshot):
        """The acked replies hold dense indices and match, decision by
        decision, a serial replay in index order."""
        acked = sorted(
            (payload["request_index"], spec, payload)
            for status, spec, payload in replies if status == 200
        )
        assert [index for index, _, _ in acked] == list(range(len(acked)))
        serial = LandlordCache(500, 0.8, SIZE_OF)
        for _, spec, reply in acked:
            decision = serial.request(frozenset(spec))
            assert decision.action.value == reply["action"]
            assert decision.image.id == reply["image"]
            assert sorted(decision.evicted) == sorted(reply["evicted"])
        assert serial.snapshot() == live_snapshot
        return acked

    def test_started_daemon_runs_no_batcher_thread(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            assert daemon.submit(["p0"])[0] == 200
            names = {thread.name for thread in threading.enumerate()}
        assert "repro-service-batcher" not in names

    def test_uncontended_submit_commits_on_the_calling_thread(
        self, tmp_path
    ):
        daemon = make_daemon(tmp_path)
        committers = []
        apply_batch = daemon.store.apply_batch

        def spy(*args, **kwargs):
            committers.append(threading.current_thread())
            return apply_batch(*args, **kwargs)

        daemon.store.apply_batch = spy
        with daemon:
            assert daemon.submit(["p0"])[0] == 200
        assert committers == [threading.current_thread()]

    def test_stress_matches_serial_replay(self, tmp_path, fast_switching):
        daemon = make_daemon(tmp_path, max_batch=3)
        with daemon:
            threads, replies = self.run_clients(daemon, n=6)
            join_all(threads)
            live_snapshot = daemon.cache.snapshot()
            assert daemon.batches >= self.THREADS * 6 // 3
        assert {status for status, _, _ in replies} == {200}
        acked = self.check_serial(replies, live_snapshot)
        assert len(acked) == self.THREADS * 6
        reloaded, _, _ = JournaledState(tmp_path / "state.json").load(
            SIZE_OF
        )
        assert reloaded.snapshot() == live_snapshot

    def test_stop_under_load_answers_every_accepted(
        self, tmp_path, fast_switching
    ):
        daemon = make_daemon(tmp_path, max_batch=3)
        daemon.start()
        threads, replies = self.run_clients(daemon, n=30)
        wait_until(lambda: daemon.accepted >= 48, "no load")
        daemon.stop()
        join_all(threads)
        statuses = [status for status, _, _ in replies]
        assert set(statuses) <= {200, 503}
        assert statuses.count(200) == daemon.accepted
        live_snapshot = daemon.cache.snapshot()
        self.check_serial(replies, live_snapshot)
        reloaded, _, replayed = JournaledState(
            tmp_path / "state.json"
        ).load(SIZE_OF)
        assert replayed == []  # the drain ended in a covering snapshot
        assert reloaded.snapshot() == live_snapshot

    def test_kill_while_a_leader_holds_the_lock(
        self, tmp_path, fast_switching
    ):
        daemon = make_daemon(tmp_path, max_batch=3)
        entered, release = threading.Event(), threading.Event()
        apply_batch = daemon.store.apply_batch

        def gated(*args, **kwargs):  # runs under daemon.lock
            entered.set()
            release.wait(timeout=10)
            return apply_batch(*args, **kwargs)

        daemon.store.apply_batch = gated
        daemon.start()
        outcomes = {}

        def client(k):
            outcomes[k] = daemon.submit(client_specs(k, 1)[0])

        leader = threading.Thread(target=client, args=(0,))
        leader.start()
        assert entered.wait(timeout=10)
        followers = [
            threading.Thread(target=client, args=(k,))
            for k in range(1, self.THREADS)
        ]
        for thread in followers:
            thread.start()
        wait_until(
            lambda: daemon.queue_depth == self.THREADS - 1, "nothing queued"
        )
        killer = threading.Thread(target=daemon.kill)
        killer.start()
        join_all(followers)  # answered while the leader still commits
        assert killer.is_alive()  # kill() waits for the window in flight
        release.set()
        join_all([leader, killer])
        daemon.store.journal.close()
        assert outcomes[0][0] == 200
        for k in range(1, self.THREADS):
            assert outcomes[k] == (500, {"error": "daemon killed"})
        recovered, _, _ = recover_state(
            tmp_path / "state.json", package_size=SIZE_OF
        )
        assert (
            recovered.snapshot()
            == serial_replay([client_specs(0, 1)[0]]).snapshot()
        )

    def test_sorted_spec_is_journalled_as_sent(self, tmp_path):
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        with daemon:
            daemon.submit(["p1", "p10", "p2"])  # strictly increasing
            daemon.submit(["p3", "p1", "p3"])   # canonicalised
            journalled = journalled_names(tmp_path / "state.json")
        assert journalled == [["p1", "p10", "p2"], ["p1", "p3"]]


#: Where a checkpoint can die or fail: the snapshot save, then the
#: journal compaction that follows it.
CHECKPOINT_SITES = (
    "state:write", "state:torn", "state:renamed",
    "compact:write", "compact:torn",
)


class TestAckBeforeCheckpoint:
    """A window's clients are answered once their entries are fsynced
    and applied — before the checkpoint — so a checkpoint that fails or
    dies never costs an acknowledged decision."""

    def test_failed_checkpoint_still_acks_and_is_retried(
        self, tmp_path, monkeypatch
    ):
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        daemon = make_daemon(tmp_path, snapshot_every=2)
        with daemon:
            monkeypatch.setattr(daemon.store, "flush", full_disk)
            assert daemon.submit(["p0"])[0] == 200
            status, payload = daemon.submit(["p1"])  # crosses a boundary
            # Durable and applied: a 500 here invites a retry that the
            # cache would apply a second time.
            assert (status, payload.get("request_index")) == (200, 1)
            assert Journal(tmp_path / "state.json.journal").last_seq == 2
            assert daemon.cache.stats.requests == 2
            monkeypatch.undo()
            for spec in (["p2"], ["p3"]):
                assert daemon.submit(spec)[0] == 200
            # the next boundary's checkpoint covers all four
            cache, _, replayed = JournaledState(
                tmp_path / "state.json"
            ).load(SIZE_OF)
        assert replayed == []
        assert cache.stats.requests == 4

    @pytest.mark.parametrize("site", CHECKPOINT_SITES)
    def test_acked_survive_a_crash_in_the_checkpoint(self, tmp_path, site):
        specs = client_specs(5, n=6)
        daemon = make_daemon(tmp_path, snapshot_every=5)
        daemon.start()
        try:
            acked = {
                daemon.submit(spec)[1]["request_index"]: spec
                for spec in specs[:2]
            }
            torn = 0.5 if site.endswith(":torn") else None
            with CrashPoint(site, torn=torn) as point:
                # journal seqs 3 | 4 5 6: the second window crosses 5
                outcomes = submit_stalled(daemon, specs[2:])
            assert point.fired
        finally:
            daemon.kill()
            daemon.store.journal.close()
        crashed = []
        for spec, outcome in zip(specs[2:], outcomes):
            if isinstance(outcome, SimulatedCrash):
                crashed.append(spec)
            else:
                status, payload = outcome
                assert status == 200
                acked[payload["request_index"]] = spec
        # The window's leader died with the process before replying; its
        # entry is durable all the same, at the one index nobody holds.
        assert len(crashed) == 1 and len(acked) == 5
        durable = [acked.get(index, crashed[0]) for index in range(6)]
        recovered, _, _ = recover_state(
            tmp_path / "state.json", package_size=SIZE_OF
        )
        assert recovered.stats.requests == 6
        assert recovered.snapshot() == serial_replay(durable).snapshot()

    @pytest.mark.parametrize("site", CHECKPOINT_SITES + ("compact:renamed",))
    def test_checkpoint_io_error_keeps_serving(self, tmp_path, site):
        specs = client_specs(6, n=8)
        daemon = make_daemon(tmp_path, snapshot_every=5)
        daemon.start()
        try:
            replies = [daemon.submit(spec) for spec in specs[:2]]
            fault = OSError(errno.EIO, os.strerror(errno.EIO))
            with CrashPoint(site, error=fault) as point:
                replies += submit_stalled(daemon, specs[2:6])
            assert point.fired
            # seqs 7 and 8 cross no boundary: they must reach the live
            # journal, not a handle the failed compaction left behind
            replies += [daemon.submit(spec) for spec in specs[6:]]
        finally:
            daemon.kill()
            daemon.store.journal.close()
        assert [status for status, _ in replies] == [200] * 8
        order = sorted(
            (payload["request_index"], spec)
            for (_, payload), spec in zip(replies, specs)
        )
        assert [index for index, _ in order] == list(range(8))
        recovered, _, _ = recover_state(
            tmp_path / "state.json", package_size=SIZE_OF
        )
        assert (
            recovered.snapshot()
            == serial_replay([spec for _, spec in order]).snapshot()
        )

    def test_failed_housekeeping_still_answers_the_leader(
        self, tmp_path, monkeypatch
    ):
        # The trace drain runs after the window is answered; the leader
        # replies after it, and must not lose its 200 when it fails.
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        tracer = DecisionTracer(limit=64)
        daemon = make_daemon(
            tmp_path, tracer=tracer, trace_path=str(tmp_path / "t.jsonl")
        )
        daemon.cache.enable_tracing(tracer)
        specs = client_specs(10, n=5)
        with daemon:
            monkeypatch.setattr(
                "repro.service.daemon.write_event_stream", full_disk
            )
            outcomes = [daemon.submit(specs[0])]
            outcomes += submit_stalled(daemon, specs[1:4])
            assert daemon.batches == 3
            monkeypatch.undo()
            outcomes.append(daemon.submit(specs[4]))
        assert [status for status, _ in outcomes] == [200] * 5
        indices = sorted(payload["request_index"] for _, payload in outcomes)
        assert indices == list(range(5))
        cache, _, replayed = JournaledState(tmp_path / "state.json").load(
            SIZE_OF
        )
        assert replayed == [] and cache.stats.requests == 5


class TestJournalFaults:
    @pytest.mark.parametrize("site", ["journal:append", "journal:torn"])
    def test_a_failed_window_leaves_no_names_declared(self, tmp_path, site):
        # The failed window brings names the journal has not seen yet;
        # the next window reuses them, so it must declare them itself.
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        daemon.start()
        fault = OSError(errno.EIO, os.strerror(errno.EIO))
        try:
            first = daemon.submit(["p0", "p1"])
            with CrashPoint(site, error=fault) as point:
                failed = daemon.submit(["p20", "p21"])
            assert point.fired
            reused = daemon.submit(["p20", "p21", "p22"])
        finally:
            daemon.kill()
            daemon.store.journal.close()
        assert first[0] == reused[0] == 200
        assert failed[0] == 500 and failed[1]["error"].startswith("OSError")
        acked = [["p0", "p1"], ["p20", "p21", "p22"]]
        assert journalled_names(tmp_path / "state.json") == acked
        recovered, _, replayed = recover_state(
            tmp_path / "state.json", package_size=SIZE_OF
        )
        assert replayed == 2
        assert recovered.snapshot() == serial_replay(acked).snapshot()

    @pytest.mark.parametrize("torn, code", [
        (None, errno.EIO),     # fsync failed, the lines stay in the file
        (0.5, errno.ENOSPC),   # short write
    ])
    def test_failed_append_acks_no_one_in_its_window(
        self, tmp_path, torn, code
    ):
        specs = client_specs(7, n=7)
        daemon = make_daemon(tmp_path, snapshot_every=10_000)
        daemon.start()
        try:
            replies = [daemon.submit(spec) for spec in specs[:2]]
            fault = OSError(code, os.strerror(code))
            # hit 1 is the stalled leader's own window, hit 2 the queued one
            with CrashPoint(
                "journal:torn", hits=2, torn=torn, error=fault
            ) as point:
                window = submit_stalled(daemon, specs[2:6])
            assert point.fired
            replies += [window[0], daemon.submit(specs[6])]
        finally:
            daemon.kill()
            daemon.store.journal.close()
        for status, payload in window[1:]:
            assert status == 500 and payload["error"].startswith("OSError")
        assert [status for status, _ in replies] == [200] * 4
        assert [p["request_index"] for _, p in replies] == [0, 1, 2, 3]
        acked = [specs[0], specs[1], specs[2], specs[6]]
        assert journalled_names(tmp_path / "state.json") == acked
        recovered, _, replayed = recover_state(
            tmp_path / "state.json", package_size=SIZE_OF
        )
        assert replayed == 4
        assert recovered.snapshot() == serial_replay(acked).snapshot()
