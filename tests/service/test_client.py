"""Tests for the thin daemon client: endpoint parsing, error taxonomy,
and the bounded backpressure retry loop."""

import pytest

from repro.service import LandlordClient, ServiceError, SubmitRejected


class TestEndpointParsing:
    def test_tcp_endpoint(self):
        client = LandlordClient("http://127.0.0.1:8080")
        assert client._host == "127.0.0.1"
        assert client._port == 8080
        assert client._socket_path is None

    def test_unix_endpoint(self):
        client = LandlordClient("unix:/run/landlord.sock")
        assert client._socket_path == "/run/landlord.sock"

    @pytest.mark.parametrize("bad", [
        "127.0.0.1:8080",          # missing scheme
        "https://127.0.0.1:8080",  # unsupported scheme
        "http://127.0.0.1",        # missing port
        "http://:8080",            # missing host
        "http://host:notaport",
    ])
    def test_bad_endpoints_rejected(self, bad):
        with pytest.raises(ValueError):
            LandlordClient(bad)


class TestErrors:
    def test_unreachable_daemon_raises_service_error(self):
        client = LandlordClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="unreachable"):
            client.submit(["p0"])

    def test_rejection_taxonomy(self):
        full = SubmitRejected(429, {"error": "queue full"})
        assert full.retryable
        assert full.status == 429
        draining = SubmitRejected(503, {"error": "draining"})
        assert not draining.retryable
        assert "draining" in str(draining)

    def test_service_error_carries_status(self):
        error = ServiceError("boom", status=418)
        assert error.status == 418


class TestRetryLoop:
    def _client_with_replies(self, monkeypatch, replies):
        """A client whose wire layer plays back a scripted reply list."""
        client = LandlordClient("http://127.0.0.1:9")
        calls = []

        def scripted(method, path, body=None, headers=None):
            calls.append((method, path, body))
            return replies.pop(0)

        monkeypatch.setattr(client, "_request_json", scripted)
        client._calls = calls
        return client

    def test_retry_absorbs_429_then_succeeds(self, monkeypatch):
        client = self._client_with_replies(monkeypatch, [
            (429, {"error": "queue full"}),
            (429, {"error": "queue full"}),
            (200, {"action": "hit", "request_index": 7}),
        ])
        reply = client.submit(["p0"], retries=2, backoff=0.001)
        assert reply["request_index"] == 7
        assert len(client._calls) == 3

    def test_retries_exhausted_raises(self, monkeypatch):
        client = self._client_with_replies(monkeypatch, [
            (429, {"error": "queue full"}),
            (429, {"error": "queue full"}),
        ])
        with pytest.raises(SubmitRejected) as excinfo:
            client.submit(["p0"], retries=1, backoff=0.001)
        assert excinfo.value.status == 429

    def test_503_never_retried(self, monkeypatch):
        client = self._client_with_replies(monkeypatch, [
            (503, {"error": "draining"}),
        ])
        with pytest.raises(SubmitRejected) as excinfo:
            client.submit(["p0"], retries=5, backoff=0.001)
        assert excinfo.value.status == 503
        assert len(client._calls) == 1

    def test_400_raises_service_error(self, monkeypatch):
        client = self._client_with_replies(monkeypatch, [
            (400, {"error": "unknown packages", "unknown": ["zap"]}),
        ])
        with pytest.raises(ServiceError, match="unknown packages"):
            client.submit(["zap"], retries=5)


class TestContextManager:
    def test_context_manager_closes(self):
        with LandlordClient("http://127.0.0.1:8080") as client:
            assert client._conn is None  # lazy: nothing dialled yet
        assert client._conn is None


class TestTraceContextPropagation:
    def _client_capturing_headers(self, monkeypatch, replies):
        client = LandlordClient("http://127.0.0.1:9")
        sent = []

        def scripted(method, path, body=None, headers=None):
            sent.append(headers or {})
            return replies.pop(0)

        monkeypatch.setattr(client, "_request_json", scripted)
        client._sent = sent
        return client

    def test_submit_sends_valid_traceparent(self, monkeypatch):
        from repro.obs import parse_traceparent

        client = self._client_capturing_headers(monkeypatch, [
            (200, {"request_index": 0, "trace_id": "x"}),
        ])
        client.submit(["p0"])
        header = client._sent[0]["traceparent"]
        assert parse_traceparent(header) is not None

    def test_trace_context_constant_across_retries(self, monkeypatch):
        client = self._client_capturing_headers(monkeypatch, [
            (429, {"error": "queue full"}),
            (200, {"request_index": 0}),
        ])
        client.submit(["p0"], retries=1, backoff=0.001)
        assert client._sent[0]["traceparent"] == client._sent[1]["traceparent"]

    def test_root_span_recorded_under_the_sent_trace(self, monkeypatch):
        from repro.obs import SpanRecorder, parse_traceparent

        spans = SpanRecorder(limit=8)
        client = LandlordClient("http://127.0.0.1:9", spans=spans)
        sent = []

        def scripted(method, path, body=None, headers=None):
            sent.append(headers)
            return 200, {"request_index": 5}

        monkeypatch.setattr(client, "_request_json", scripted)
        client.submit(["p0"])
        (span,) = spans.spans()
        trace_id, span_id = parse_traceparent(sent[0]["traceparent"])
        assert span.name == "client_submit"
        assert span.trace_id == trace_id
        assert span.span_id == span_id
        assert span.request_index == 5

    def test_no_span_recorded_without_recorder(self, monkeypatch):
        client = self._client_capturing_headers(monkeypatch, [
            (200, {"request_index": 0}),
        ])
        client.submit(["p0"])  # just must not blow up
        assert client.spans is None
