import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from hypervad.core import TransportError
from hypervad.prompt_opt import StubScorer
from hypervad.remote import LoopbackScorerServer, RemoteScorer

# serve_forever's shutdown check; each server's shutdown waits up to this long
POLL_INTERVAL_S = 0.05


class _CannedServer:
    """Minimal server returning a fixed JSON body and status for every POST,
    counting requests and recording each one's client address and path.
    ``content_length`` overrides the declared body length. It answers
    HTTP/1.0 and closes after each reply; with ``keep_alive`` it answers
    HTTP/1.1 and keeps the connection, and with ``drop_idle`` as well it
    closes the connection after each reply all the same, without saying so,
    like a server timing out an idle client."""

    def __init__(self, body: bytes, status: int = 200, content_length=None,
                 keep_alive=False, drop_idle=False):
        self.requests = 0
        self.clients = []
        self.paths = []
        canned = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def do_POST(self):
                canned.requests += 1
                canned.clients.append(self.client_address)
                canned.paths.append(self.path)
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(content_length or len(body)))
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = self.close_connection or drop_idle

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )

    @property
    def endpoint(self):
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False


def _read_reply(reply):
    """Status, headers and body of one HTTP reply read from a binary file."""
    status = int(reply.readline().split()[1])
    headers = http.client.parse_headers(reply)
    return status, headers, reply.read(int(headers["Content-Length"]))


def _raw_post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


class TestLoopbackConformance:
    def test_scores_match_local_stub(self, rng):
        stub = StubScorer(6, 4, seed=42)
        with LoopbackScorerServer(stub) as server, RemoteScorer(server.endpoint) as remote:
            for _ in range(20):
                q, s = rng.normal(size=6), rng.normal(size=4)
                assert abs(remote.score(q, s, text="t") - stub.score(q, s)) < 1e-9

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"x"'])
    def test_non_object_body_is_400(self, body):
        stub = StubScorer(2, 2, seed=0)
        with LoopbackScorerServer(stub) as server:
            request = urllib.request.Request(
                f"{server.endpoint}/score", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            excinfo.value.close()
            assert excinfo.value.code == 400

    def test_negative_content_length_is_400(self):
        # rfile.read(-1) would wait for the client to close, so no reply
        # would ever come
        with LoopbackScorerServer(StubScorer(2, 2, seed=0)) as server:
            host, port = server.endpoint.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.sendall(b"POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n")
                with sock.makefile("rb") as reply:
                    status_line = reply.readline()
        assert status_line.split()[1] == b"400"

    def test_two_requests_on_one_connection(self):
        stub = StubScorer(2, 2, seed=0)
        body = json.dumps({"prompt": [0.1, 0.2], "summary_embedding": [0.3, 0.4]}).encode()
        with LoopbackScorerServer(stub) as server:
            host, port = server.endpoint.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                with sock.makefile("rb") as reply:
                    for _ in range(2):
                        sock.sendall(_raw_post("/score", body))
                        status, _, payload = _read_reply(reply)
                        assert status == 200
                        assert json.loads(payload)["score"] == stub.score([0.1, 0.2], [0.3, 0.4])

    @pytest.mark.parametrize("path, body, status", [
        ("/score", b"[1, 2]", 400),
        ("/other", b'{"prompt": [0.1], "summary_embedding": [0.2]}', 404),
    ])
    def test_error_reply_closes_connection(self, path, body, status):
        # the server reads no body after a 404, so keeping the connection
        # would parse the body as the next request
        with LoopbackScorerServer(StubScorer(1, 1, seed=0)) as server:
            host, port = server.endpoint.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                with sock.makefile("rb") as reply:
                    sock.sendall(_raw_post(path, body))
                    got, headers, _ = _read_reply(reply)
                    assert got == status
                    assert headers["Connection"] == "close"
                    assert reply.read() == b""  # closed by the server

    def test_fd_gradient_matches_analytic(self, rng):
        stub = StubScorer(5, 3, seed=7)
        with (
            LoopbackScorerServer(stub) as server,
            RemoteScorer(server.endpoint, fd_step=1e-6) as remote,
        ):
            for _ in range(3):
                q, s = rng.normal(size=5), rng.normal(size=3)
                assert np.max(np.abs(remote.grad_q(q, s) - stub.grad_q(q, s))) < 1e-4


class TestRemoteErrors:
    def test_constant_server_zero_gradient(self, rng):
        with (
            _CannedServer(json.dumps({"score": 0.7}).encode()) as server,
            RemoteScorer(server.endpoint, fd_step=1e-6) as remote,
        ):
            q = rng.normal(size=4)
            assert remote.score(q, rng.normal(size=3)) == 0.7
            grad = remote.grad_q(q, rng.normal(size=3))
            assert np.array_equal(grad, np.zeros(4))

    def test_unreachable_endpoint_names_url(self):
        with RemoteScorer("http://127.0.0.1:9", timeout=0.2, retries=0) as remote:
            with pytest.raises(TransportError, match="127.0.0.1:9"):
                remote.score(np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("kwargs, message", [
        ({"retries": -1}, "retries"),
        ({"retries": 1.5}, "retries"),
        ({"retries": True}, "retries"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": -1}, "timeout"),
        ({"timeout": float("nan")}, "timeout"),
        ({"fd_step": 0}, "fd_step"),
    ])
    def test_bad_arguments_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RemoteScorer("http://127.0.0.1:9", **kwargs)

    @pytest.mark.parametrize("endpoint", ["ftp://127.0.0.1:9", "http://", "127.0.0.1:9"])
    def test_endpoint_must_be_http_url(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            RemoteScorer(endpoint)

    def test_https_endpoint_speaks_tls(self):
        # the plain-HTTP server cannot answer a TLS handshake
        with _CannedServer(json.dumps({"score": 0.5}).encode()) as server:
            endpoint = server.endpoint.replace("http://", "https://")
            with RemoteScorer(endpoint, retries=0) as remote:
                with pytest.raises(TransportError, match="failed after 1 attempts: .*SSL"):
                    remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 0

    def test_path_prefix_kept(self):
        with _CannedServer(json.dumps({"score": 0.5}).encode()) as server:
            with RemoteScorer(f"{server.endpoint}/v1/scorer/") as remote:
                remote.score(np.zeros(2), np.zeros(2))
        assert server.paths == ["/v1/scorer/score"]

    def test_requests_share_one_connection(self):
        with (
            _CannedServer(json.dumps({"score": 0.5}).encode(), keep_alive=True) as server,
            RemoteScorer(server.endpoint) as remote,
        ):
            for _ in range(5):
                remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 5 and len(set(server.clients)) == 1

    def test_server_closing_idle_connection_is_not_a_failure(self):
        # retries=0: the re-send of a request whose reused connection the
        # server had closed is outside the retry budget
        body = json.dumps({"score": 0.5}).encode()
        with (
            _CannedServer(body, keep_alive=True, drop_idle=True) as server,
            RemoteScorer(server.endpoint, retries=0) as remote,
        ):
            assert remote.score(np.zeros(2), np.zeros(2)) == 0.5
            assert remote.score(np.zeros(2), np.zeros(2)) == 0.5
        assert server.requests == 2 and len(set(server.clients)) == 2

    def test_http10_server_closing_each_connection(self):
        with (
            _CannedServer(json.dumps({"score": 0.25}).encode()) as server,
            RemoteScorer(server.endpoint, retries=0) as remote,
        ):
            for _ in range(50):
                assert remote.score(np.zeros(2), np.zeros(2)) == 0.25
        assert server.requests == 50

    @pytest.mark.parametrize("body, status, message", [
        (b"boom", 503, "status 503"),
        (b"not json at all", 200, "malformed"),
    ])
    def test_failed_exchange_closes_connection(self, body, status, message):
        # a keep-alive server: only the client's close starts a new connection
        with (
            _CannedServer(body, status=status, keep_alive=True) as server,
            RemoteScorer(server.endpoint) as remote,
        ):
            for _ in range(2):
                with pytest.raises(TransportError, match=message):
                    remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 2 and len(set(server.clients)) == 2

    def test_non_2xx_is_transport_error(self):
        with (
            _CannedServer(b"boom", status=503) as server,
            RemoteScorer(server.endpoint, retries=0) as remote,
        ):
            with pytest.raises(TransportError, match="503"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_malformed_json_surfaced(self):
        with _CannedServer(b"not json at all") as server, RemoteScorer(server.endpoint) as remote:
            with pytest.raises(TransportError, match="malformed"):
                remote.score(np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("body", [b"5", b"null", b'"no score"', b"[0.5]"])
    def test_non_object_reply_is_transport_error(self, body):
        with _CannedServer(body) as server, RemoteScorer(server.endpoint) as remote:
            with pytest.raises(TransportError, match="not a JSON object"):
                remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 1

    def test_non_utf8_reply_is_transport_error(self):
        with _CannedServer(b'{"score": "\xff"}') as server, RemoteScorer(server.endpoint) as remote:
            with pytest.raises(TransportError, match="malformed"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_truncated_reply_retried_then_transport_error(self):
        body = json.dumps({"score": 0.5}).encode()
        with (
            _CannedServer(body, content_length=len(body) + 10) as server,
            RemoteScorer(server.endpoint, retries=2) as remote,
        ):
            with pytest.raises(TransportError, match="failed after 3 attempts"):
                remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 3

    def test_missing_score_field(self):
        with (
            _CannedServer(json.dumps({"value": 0.5}).encode()) as server,
            RemoteScorer(server.endpoint) as remote,
        ):
            with pytest.raises(TransportError, match="missing 'score'"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_out_of_range_score_never_clamped(self):
        with (
            _CannedServer(json.dumps({"score": 1.7}).encode()) as server,
            RemoteScorer(server.endpoint) as remote,
        ):
            with pytest.raises(TransportError, match="outside"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_non_numeric_score_rejected(self):
        with (
            _CannedServer(json.dumps({"score": "high"}).encode()) as server,
            RemoteScorer(server.endpoint) as remote,
        ):
            with pytest.raises(TransportError, match="non-numeric"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_wire_format_fields(self, rng):
        # the request body must carry prompt, summary_text, summary_embedding
        seen = {}

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                seen.update(json.loads(self.rfile.read(length)))
                seen["path"] = self.path
                body = json.dumps({"score": 0.5}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with RemoteScorer(f"http://{host}:{port}") as remote:
                remote.score(np.array([1.0, 2.0]), np.array([3.0]), text="hello")
        finally:
            server.shutdown()
            server.server_close()
        assert seen["path"] == "/score"
        assert seen["prompt"] == [1.0, 2.0]
        assert seen["summary_text"] == "hello"
        assert seen["summary_embedding"] == [3.0]
