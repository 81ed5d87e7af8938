"""HTTP scorer adapter and a loopback reference server.

Wire protocol: POST <endpoint>/score with UTF-8 JSON body
{"prompt": [float, ...], "summary_text": str, "summary_embedding": [float, ...]}
and response {"score": float}. Non-2xx status, transport failures, malformed
bodies (not UTF-8, not JSON, not a JSON object), and out-of-range scores are
all surfaced as TransportError; nothing is clamped silently. A refused,
dropped or truncated exchange is retried ``retries`` times first. Gradients
come from central finite differences, costing 2 * prompt_dim extra calls per
gradient.

The client sends every request over one HTTP/1.1 keep-alive connection,
opened on first use and closed by ``close()``; a server that closes after
each reply costs one connection per request instead.
"""

from __future__ import annotations

import http.client
import json
import threading
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np

from .core import TransportError
from .prompt_opt import ScorerInfo, StubScorer

# How often serve_forever checks for shutdown; shutdown() waits up to this long.
_POLL_INTERVAL_S = 0.05


class RemoteScorer:
    """Scorer backend that defers to an HTTP service. Use it as a context
    manager, or call ``close()``, to release its connection."""

    def __init__(self, endpoint: str, timeout: float = 10.0, fd_step: float = 1e-6, retries: int = 2):
        if fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
            raise ValueError(f"retries must be a non-negative integer, got {retries!r}")
        self.endpoint = endpoint.rstrip("/")
        self.url = f"{self.endpoint}/score"
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host, got {endpoint!r}")
        connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        # port None is the scheme's default
        self._connect = partial(connection_class, parts.hostname, parts.port, timeout=timeout)
        self._selector = parts.path + (f"?{parts.query}" if parts.query else "")
        self._connection = None
        self.timeout = timeout
        self.fd_step = fd_step
        self.retries = retries
        self.info = ScorerInfo(name="remote", deterministic=False, gradient_mode="finite-difference")

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _exchange(self, body: bytes) -> dict:
        """Send one request and return its reply object. Any failure closes
        the connection, so that the next exchange starts on a new one."""
        # http.client drops the socket of a connection the server closed, so
        # one that still holds a socket has carried an earlier exchange
        reused = self._connection is not None and self._connection.sock is not None
        if self._connection is None:
            self._connection = self._connect()
        try:
            try:
                self._connection.request(
                    "POST", self._selector, body, {"Content-Type": "application/json"}
                )
                response = self._connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):  # also RemoteDisconnected
                if not reused:
                    raise
                # The server closed the idle connection before any reply
                # byte: send once more on a new one, outside the retry
                # budget, as xmlrpc.client does.
                self.close()
                return self._exchange(body)
            if not 200 <= response.status < 300:
                response.close()
                raise TransportError(f"scorer endpoint {self.url} returned status {response.status}")
            raw = response.read()
            try:
                reply = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise TransportError(f"scorer endpoint {self.url} returned malformed JSON: {exc}") from exc
            if not isinstance(reply, dict):
                raise TransportError(f"scorer endpoint {self.url} returned {raw[:80]!r}, not a JSON object")
            return reply
        except BaseException:
            self.close()
            raise

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        last_error = None
        for _ in range(self.retries + 1):
            try:
                return self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc  # refused, dropped or truncated: try again
        raise TransportError(
            f"scorer endpoint {self.url} failed after {self.retries + 1} attempts: {last_error}"
        ) from last_error

    def score(self, q: np.ndarray, emb: np.ndarray, text: str = "", fused=None) -> float:
        payload = {
            "prompt": [float(x) for x in np.asarray(q, dtype=np.float64)],
            "summary_text": text,
            "summary_embedding": [float(x) for x in np.asarray(emb, dtype=np.float64)],
        }
        reply = self._post(payload)
        if "score" not in reply:
            raise TransportError(f"scorer endpoint {self.endpoint} reply missing 'score' field")
        value = reply["score"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TransportError(f"scorer endpoint {self.endpoint} returned non-numeric score {value!r}")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise TransportError(f"scorer endpoint {self.endpoint} returned score {value} outside [0, 1]")
        return value

    def grad_q(self, q: np.ndarray, emb: np.ndarray, text: str = "", fused=None) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        grad = np.zeros_like(q)
        h = self.fd_step
        for i in range(q.size):
            probe = np.zeros_like(q)
            probe[i] = h
            up = self.score(q + probe, emb, text=text, fused=fused)
            down = self.score(q - probe, emb, text=text, fused=fused)
            grad[i] = (up - down) / (2.0 * h)
        return grad


class _StubHandler(BaseHTTPRequestHandler):
    scorer: StubScorer = None  # set by the server factory
    # Keep-alive; send_error replies carry "Connection: close". Nagle off,
    # because the reply goes out in two writes (headers, then body), and a
    # client's delayed ACK of the first would hold the second back.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args):  # silence per-request stderr noise
        pass

    def do_POST(self):
        if self.path != "/score":
            self.send_error(404, "unknown path")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:  # rfile.read(-1) would wait for the client to close
                raise ValueError(f"negative Content-Length {length}")
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            q = np.asarray(payload["prompt"], dtype=np.float64)
            emb = np.asarray(payload["summary_embedding"], dtype=np.float64)
            text = payload.get("summary_text", "")
            score = self.scorer.score(q, emb, text=text)
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: body not an object
            self.send_error(400, f"bad request: {exc}")
            return
        body = json.dumps({"score": score}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class LoopbackScorerServer:
    """Threaded HTTP server speaking the wire protocol with stub-scorer math.

    Used for conformance testing the remote path and as a demo service; a
    real deployment would put an actual language model behind the same
    endpoint.
    """

    def __init__(self, scorer: StubScorer, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundStubHandler", (_StubHandler,), {"scorer": scorer})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False
