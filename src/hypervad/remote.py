"""HTTP scorer adapter and a loopback reference server.

Wire protocol: POST <endpoint>/score with UTF-8 JSON body
{"prompt": [float, ...], "summary_text": str, "summary_embedding": [float, ...]}
and response {"score": float}. Non-2xx status, transport failures, malformed
bodies (not UTF-8, not JSON, not a JSON object), and out-of-range scores are
all surfaced as TransportError; nothing is clamped silently. A refused,
dropped, idle-closed or truncated exchange is retried ``RETRIES`` times
first, each on a new connection, and waits at most ``TIMEOUT_S`` per step.
Gradients are central differences with the fixed step ``FD_STEP`` (1e-6),
costing 2 * prompt_dim requests per summary in every ``grad_sum``. The
loopback server answers 400 to a prompt or embedding entry that is not a
JSON number, or not finite as float64, and to a summary_text that is not a
string.

The client sends every request over one HTTP/1.1 keep-alive connection,
opened on first use and closed by ``close()``; a server that closes after
each reply costs one connection per request instead.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np

from .core import TransportError, finite_real
from .prompt_opt import StubScorer

# How often serve_forever checks for shutdown; shutdown() waits up to this long.
_POLL_INTERVAL_S = 0.05
# How long the loopback server keeps an idle connection (and its thread); far
# above a client's gap between the requests of a run.
_IDLE_TIMEOUT_S = 30.0
# Step of the central differences that stand in for a remote gradient.
FD_STEP = 1e-6
# Longest wait of one connect, send or receive.
TIMEOUT_S = 10.0
# How often a failed exchange is sent again, each time on a new connection.
RETRIES = 2
# Characters no endpoint may hold: "?" and "#" start a query or fragment,
# where "/score" would land; urlsplit drops a tab or newline and strips a
# leading space, and http.client refuses other whitespace and controls.
_REJECTED_CHARACTERS = re.compile(r"[?#\s\x00-\x1f\x7f]")


def split_endpoint(endpoint: str):
    """(scheme, host, port, selector) of a scorer endpoint; requests go to
    ``<path>/score``, and port None is the scheme's default. Raises
    ValueError unless the endpoint is a str with the scheme http(s), a host
    and a valid port (1 to 65535, if given); for a query or fragment (even
    a bare "?" or "#"), where "/score" would otherwise land; and for what
    http.client cannot send as given: whitespace or an ASCII control
    character anywhere, or a non-ASCII character in the path
    (percent-encode it). User info
    (``user:password@``) is rejected first, by a message that does not echo
    the endpoint, and so not the password."""
    authority = str(endpoint).split("//", 1)[-1].split("/", 1)[0]  # with or without a scheme
    if "@" in authority:
        raise ValueError("the endpoint must not carry user info (user:password@ before the host)")
    valid = isinstance(endpoint, str) and not _REJECTED_CHARACTERS.search(endpoint)
    if valid:
        try:
            parts = urlsplit(endpoint)
            port = parts.port  # raises for a port that is not a number or is above 65535
            valid = (parts.scheme in ("http", "https") and bool(parts.hostname) and port != 0
                     and parts.path.isascii())
        except ValueError:  # also an unclosed "[" in an IPv6 host
            valid = False
    if not valid:
        raise ValueError("need an http:// or https:// endpoint with a host, a valid port, no query or "
                         "fragment, no whitespace or control character and an ASCII path, "
                         f"got {endpoint!r}")
    return parts.scheme, parts.hostname, port, parts.path.rstrip("/") + "/score"


class RemoteScorer:
    """Scorer backend that defers to the HTTP service at ``endpoint``, with
    the module's TIMEOUT_S and RETRIES. Use it as a context manager, or call
    ``close()``, to release its connection."""

    def __init__(self, endpoint: str):
        scheme, host, port, self._selector = split_endpoint(endpoint)
        # the one name of the server in every TransportError
        self.url = f"{endpoint.rstrip('/')}/score"
        connection_class = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        self._connect = partial(connection_class, host, port)
        self._connection = None

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
        if self._connection is None:
            self._connection = self._connect(timeout=TIMEOUT_S)
        try:
            self._connection.request("POST", self._selector, body, {"Content-Type": "application/json"})
            response = self._connection.getresponse()
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
        attempts = RETRIES + 1
        for _ in range(attempts):
            try:
                return self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc  # refused, dropped, truncated or idle-closed: try again
        raise TransportError(
            f"scorer endpoint {self.url} failed after {attempts} attempts: {last_error}"
        ) from last_error

    def score(self, q: np.ndarray, emb: np.ndarray, text: str = "") -> float:
        payload = {
            "prompt": [float(x) for x in np.asarray(q, dtype=np.float64)],
            "summary_text": text,
            "summary_embedding": [float(x) for x in np.asarray(emb, dtype=np.float64)],
        }
        reply = self._post(payload)
        if "score" not in reply:
            raise TransportError(f"scorer endpoint {self.url} reply missing 'score' field")
        value = reply["score"]
        if not finite_real(value):  # also NaN and Infinity, which JSON has no number for
            raise TransportError(f"scorer endpoint {self.url} returned non-numeric score {value!r}")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise TransportError(f"scorer endpoint {self.url} returned score {value} outside [0, 1]")
        return value

    def grad_q(self, q: np.ndarray, emb: np.ndarray, text: str = "") -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        grad = np.zeros_like(q)
        for i in range(q.size):
            probe = np.zeros_like(q)
            probe[i] = FD_STEP
            up = self.score(q + probe, emb, text=text)
            down = self.score(q - probe, emb, text=text)
            grad[i] = (up - down) / (2.0 * FD_STEP)
        return grad

    def grad_sum(self, q: np.ndarray, embs: np.ndarray, texts, coeff: np.ndarray,
                 scores: np.ndarray) -> np.ndarray:
        """sum_t coeff[t] * grad_q(q, embs[t], texts[t]), one central
        difference per summary; the wire has no batch call, so ``scores``
        go unused."""
        grad = np.zeros_like(q, dtype=np.float64)
        for t in range(embs.shape[0]):
            grad += coeff[t] * self.grad_q(q, embs[t], text=texts[t])
        return grad


def _finite_vector(payload: dict, key: str) -> np.ndarray:
    """A request's ``key`` entry as float64. ValueError unless it is a list
    of :func:`finite_real` numbers (NaN, Infinity, 1e400, true and an
    integer beyond float64 are not)."""
    values = payload[key]
    if not isinstance(values, list) or not all(finite_real(x) for x in values):
        raise ValueError(f"{key} must be a list of finite numbers")
    return np.asarray(values, dtype=np.float64)


class _StubHandler(BaseHTTPRequestHandler):
    scorer: StubScorer = None  # set by the server factory
    # Keep-alive; send_error replies carry "Connection: close". Nagle off,
    # because the reply goes out in two writes (headers, then body), and a
    # client's delayed ACK of the first would hold the second back.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # An idle connection times out, which ends the connection and its thread.
    timeout = _IDLE_TIMEOUT_S

    def log_message(self, *args):  # silence per-request stderr noise
        pass

    def handle(self):
        try:
            super().handle()
        except ConnectionError:  # the client reset the connection: nothing to answer
            self.close_connection = True

    def do_POST(self):
        if self.path != "/score":
            self.send_error(404, "unknown path")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:  # rfile.read(-1) would wait for the client to close
                raise ValueError(f"negative Content-Length {length}")
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            q = _finite_vector(payload, "prompt")
            emb = _finite_vector(payload, "summary_embedding")
            text = payload.get("summary_text", "")
            if not isinstance(text, str):
                raise ValueError("summary_text must be a string")
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
