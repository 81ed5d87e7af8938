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


class _CannedServer:
    """Minimal server returning a fixed JSON body and status for every POST,
    counting requests. ``content_length`` overrides the declared body length."""

    def __init__(self, body: bytes, status: int = 200, content_length=None):
        self.requests = 0
        canned = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                canned.requests += 1
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(content_length or len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

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


class TestLoopbackConformance:
    def test_scores_match_local_stub(self, rng):
        stub = StubScorer(6, 4, seed=42)
        with LoopbackScorerServer(stub) as server:
            remote = RemoteScorer(server.endpoint)
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

    def test_fd_gradient_matches_analytic(self, rng):
        stub = StubScorer(5, 3, seed=7)
        with LoopbackScorerServer(stub) as server:
            remote = RemoteScorer(server.endpoint, fd_step=1e-6)
            for _ in range(3):
                q, s = rng.normal(size=5), rng.normal(size=3)
                assert np.max(np.abs(remote.grad_q(q, s) - stub.grad_q(q, s))) < 1e-4


class TestRemoteErrors:
    def test_constant_server_zero_gradient(self, rng):
        with _CannedServer(json.dumps({"score": 0.7}).encode()) as server:
            remote = RemoteScorer(server.endpoint, fd_step=1e-6)
            q = rng.normal(size=4)
            assert remote.score(q, rng.normal(size=3)) == 0.7
            grad = remote.grad_q(q, rng.normal(size=3))
            assert np.array_equal(grad, np.zeros(4))

    def test_unreachable_endpoint_names_url(self):
        remote = RemoteScorer("http://127.0.0.1:9", timeout=0.2, retries=0)
        with pytest.raises(TransportError, match="127.0.0.1:9"):
            remote.score(np.zeros(2), np.zeros(2))

    def test_non_2xx_is_transport_error(self):
        with _CannedServer(b"boom", status=503) as server:
            remote = RemoteScorer(server.endpoint, retries=0)
            with pytest.raises(TransportError, match="503"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_malformed_json_surfaced(self):
        with _CannedServer(b"not json at all") as server:
            remote = RemoteScorer(server.endpoint)
            with pytest.raises(TransportError, match="malformed"):
                remote.score(np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("body", [b"5", b"null", b'"no score"', b"[0.5]"])
    def test_non_object_reply_is_transport_error(self, body):
        with _CannedServer(body) as server:
            remote = RemoteScorer(server.endpoint)
            with pytest.raises(TransportError, match="not a JSON object"):
                remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 1

    def test_non_utf8_reply_is_transport_error(self):
        with _CannedServer(b'{"score": "\xff"}') as server:
            remote = RemoteScorer(server.endpoint)
            with pytest.raises(TransportError, match="malformed"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_truncated_reply_retried_then_transport_error(self):
        body = json.dumps({"score": 0.5}).encode()
        with _CannedServer(body, content_length=len(body) + 10) as server:
            remote = RemoteScorer(server.endpoint, retries=2)
            with pytest.raises(TransportError, match="failed after 3 attempts"):
                remote.score(np.zeros(2), np.zeros(2))
        assert server.requests == 3

    def test_missing_score_field(self):
        with _CannedServer(json.dumps({"value": 0.5}).encode()) as server:
            remote = RemoteScorer(server.endpoint)
            with pytest.raises(TransportError, match="missing 'score'"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_out_of_range_score_never_clamped(self):
        with _CannedServer(json.dumps({"score": 1.7}).encode()) as server:
            remote = RemoteScorer(server.endpoint)
            with pytest.raises(TransportError, match="outside"):
                remote.score(np.zeros(2), np.zeros(2))

    def test_non_numeric_score_rejected(self):
        with _CannedServer(json.dumps({"score": "high"}).encode()) as server:
            remote = RemoteScorer(server.endpoint)
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
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            remote = RemoteScorer(f"http://{host}:{port}")
            remote.score(np.array([1.0, 2.0]), np.array([3.0]), text="hello")
        finally:
            server.shutdown()
            server.server_close()
        assert seen["path"] == "/score"
        assert seen["prompt"] == [1.0, 2.0]
        assert seen["summary_text"] == "hello"
        assert seen["summary_embedding"] == [3.0]
