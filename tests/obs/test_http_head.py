"""The request-head parser every embedded endpoint shares
(:class:`repro.obs.server.ReplyHandler`), driven over raw sockets
through both servers that use it: the observability server and the
service daemon."""

import email.utils
import json
import re
import socket
import time
from contextlib import closing, contextmanager

import pytest

from repro.core.cache import LandlordCache
from repro.core.journal import JournaledState
from repro.obs import MetricsRegistry, ObsServer
from repro.obs.server import Headers
from repro.service import LandlordDaemon

SIZE = {f"p{i}": 10 for i in range(8)}
TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
PARENT = "00f067aa0ba902b7"


@contextmanager
def running_daemon(tmp_path):
    store = JournaledState(tmp_path / "state.json")
    cache = LandlordCache(500, 0.8, SIZE.__getitem__)
    store.initialise(cache)
    daemon = LandlordDaemon(store, cache, None, known_package=SIZE.__contains__)
    try:
        yield daemon.start()
    finally:
        daemon.stop()
        store.journal.close()


@pytest.fixture(params=["obs", "daemon"])
def port(request, tmp_path):
    """The port of a running server of each kind."""
    if request.param == "daemon":
        with running_daemon(tmp_path) as bound:
            yield bound
        return
    server = ObsServer(MetricsRegistry())
    try:
        yield server.start()
    finally:
        server.stop()


@pytest.fixture()
def daemon_port(tmp_path):
    with running_daemon(tmp_path) as bound:
        yield bound


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock, sock.makefile("rb")


def read_reply(reader):
    """``(status, headers, body)`` of one reply off ``reader``.

    A request line with no readable version is answered as HTTP/0.9 —
    the error page alone, no status line (the stdlib's reply) — so its
    status is the page's error code.
    """
    first = reader.readline()
    if not first.startswith(b"HTTP/"):
        page = first + reader.read()
        return int(re.search(rb"Error code: (\d+)", page).group(1)), {}, page
    status = int(first.split()[1])
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def exchange(port, data, closes=True):
    """Send ``data`` on a fresh connection; the reply's status, headers
    and body.  With ``closes``, the server must then close."""
    sock, reader = connect(port)
    with closing(sock), closing(reader):
        sock.sendall(data)
        reply = read_reply(reader)
        if closes:
            assert reader.read(1) == b"", "the connection stayed open"
        return reply


def submit_head(body, *fields):
    return (
        b"POST /submit HTTP/1.1\r\nHost: x\r\n"
        + b"".join(field.encode("latin-1") + b"\r\n" for field in fields)
        + b"\r\n" + body
    )


BODY = json.dumps({"packages": ["p1", "p2"]}).encode()


class TestLimits:
    def test_request_line_over_65536_bytes_is_414(self, port):
        line = b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n"
        assert exchange(port, line)[0] == 414

    def test_header_line_over_65536_bytes_is_431(self, port):
        head = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"v" * 65536 + b"\r\n\r\n"
        assert exchange(port, head)[0] == 431

    @pytest.mark.parametrize("fields, status", [(99, 200), (100, 431)])
    def test_more_than_99_header_fields_is_431(self, port, fields, status):
        # The stdlib's count: 100 lines including the blank one.
        head = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-F%d: v\r\n" % i for i in range(fields)
        ) + b"\r\n"
        assert exchange(port, head, closes=status != 200)[0] == status


class TestRequestLine:
    @pytest.mark.parametrize("line", [
        b"GET\r\n",
        b"GET / HTTP/1.1 extra\r\n",
        b"GET / HTTX/1.1\r\n",
        b"GET / HTTP/1\r\n",
        b"GET / HTTP/1.x\r\n",
        b"POST /submit\r\n",  # HTTP/0.9 knows only GET
    ])
    def test_malformed_request_line_is_400(self, port, line):
        assert exchange(port, line + b"\r\n")[0] == 400

    def test_http_2_is_505(self, port):
        assert exchange(port, b"GET / HTTP/2.0\r\n\r\n")[0] == 505


class TestHeaderLines:
    @pytest.mark.parametrize("line", [
        b"X-Folded: a\r\n  b\r\n",   # obsolete line folding
        b"\tX-Tab: a\r\n",
        b"no colon here\r\n",
        b"X-Space : a\r\n",
        b": no name\r\n",
    ])
    def test_malformed_field_is_400(self, port, line):
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n"
        assert exchange(port, head)[0] == 400

    def test_headers_are_read_case_insensitively(self):
        headers = Headers({"content-length": "3", "traceparent": "t"})
        assert headers.get("Content-Length") == "3"
        assert headers.get("TRACEPARENT") == "t"
        assert headers.get("Expect", "") == "" and headers.get("X") is None


class TestReply:
    def test_the_date_header_is_now_in_the_stdlib_format(self, port):
        head = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        before = int(time.time())
        _, headers, _ = exchange(port, head)
        # Formatted once a second: the header names a whole second.
        stamp = email.utils.parsedate_to_datetime(headers["date"])
        assert headers["date"].endswith(" GMT")
        assert before <= stamp.timestamp() <= time.time()


class TestConnection:
    def test_keep_alive_is_the_http_1_1_default(self, port):
        sock, reader = connect(port)
        with closing(sock), closing(reader):
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status, headers, body = read_reply(reader)
                assert status == 200 and json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nCONNECTION: Close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ])
    def test_connection_close_and_http_1_0_close(self, port, head):
        assert exchange(port, head)[0] == 200

    def test_http_1_0_keep_alive_stays_open(self, port):
        head = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        sock, reader = connect(port)
        with closing(sock), closing(reader):
            for _ in range(2):
                sock.sendall(head)
                assert read_reply(reader)[0] == 200


class TestSubmitHead:
    """What only the daemon reads: the body length and trace context."""

    def test_mixed_case_content_length_and_traceparent_are_read(
        self, daemon_port
    ):
        head = submit_head(
            BODY,
            f"cOnTeNt-LeNgTh: {len(BODY)}",
            f"TraceParent: 00-{TRACE}-{PARENT}-01",
        )
        status, _, body = exchange(daemon_port, head, closes=False)
        assert status == 200
        assert json.loads(body)["trace_id"] == TRACE

    def test_expect_100_continue_is_answered_before_the_body(
        self, daemon_port
    ):
        sock, reader = connect(daemon_port)
        with closing(sock), closing(reader):
            sock.sendall(submit_head(
                b"", f"Content-Length: {len(BODY)}", "Expect: 100-Continue"
            ))
            # The body is not sent yet: the daemon must answer first.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(BODY)
            status, _, body = read_reply(reader)
        assert status == 200 and json.loads(body)["action"] == "insert"

    def test_a_repeated_equal_content_length_is_read(self, daemon_port):
        head = submit_head(
            BODY, f"Content-Length: {len(BODY)}",
            f"content-length: {len(BODY)}",
        )
        assert exchange(daemon_port, head, closes=False)[0] == 200

    def test_a_conflicting_content_length_pair_is_400(self, daemon_port):
        head = submit_head(
            BODY, f"Content-Length: {len(BODY)}",
            f"Content-Length: {len(BODY) - 1}",
        )
        assert exchange(daemon_port, head)[0] == 400

    def test_any_other_repeated_field_keeps_its_first_value(
        self, daemon_port
    ):
        head = submit_head(
            BODY, f"Content-Length: {len(BODY)}",
            f"traceparent: 00-{TRACE}-{PARENT}-01",
            f"traceparent: 00-{'1' * 32}-{PARENT}-01",
        )
        status, _, body = exchange(daemon_port, head, closes=False)
        assert status == 200 and json.loads(body)["trace_id"] == TRACE
