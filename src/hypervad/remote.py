"""HTTP scorer adapter and a loopback reference server.

Wire protocol: POST <endpoint>/score with UTF-8 JSON body
{"prompt": [float, ...], "summary_text": str, "summary_embedding": [float, ...]}
and response {"score": float}. Non-2xx status, transport failures, malformed
bodies (not UTF-8, not JSON, not a JSON object), and out-of-range scores are
all surfaced as TransportError; nothing is clamped silently. A refused,
dropped or truncated exchange is retried ``retries`` times first. Gradients
come from central finite differences, costing 2 * prompt_dim extra calls per
gradient.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .core import TransportError
from .prompt_opt import ScorerInfo, StubScorer


class RemoteScorer:
    """Scorer backend that defers to an HTTP service."""

    def __init__(self, endpoint: str, timeout: float = 10.0, fd_step: float = 1e-6, retries: int = 2):
        if fd_step <= 0:
            raise ValueError("fd_step must be positive")
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.fd_step = fd_step
        self.retries = retries
        self.info = ScorerInfo(name="remote", deterministic=False, gradient_mode="finite-difference")

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        url = f"{self.endpoint}/score"
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}, method="POST"
        )
        last_error = None
        for _ in range(self.retries + 1):
            try:
                # urlopen raises HTTPError for every final non-2xx status
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    raw = response.read()
                try:
                    reply = json.loads(raw.decode("utf-8"))
                except ValueError as exc:  # not UTF-8, or not JSON
                    raise TransportError(f"scorer endpoint {url} returned malformed JSON: {exc}") from exc
                if not isinstance(reply, dict):
                    raise TransportError(f"scorer endpoint {url} returned {raw[:80]!r}, not a JSON object")
                return reply
            except urllib.error.HTTPError as exc:
                raise TransportError(f"scorer endpoint {url} returned status {exc.code}") from exc
            except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
                last_error = exc  # refused, dropped or truncated: try again
        raise TransportError(
            f"scorer endpoint {url} failed after {self.retries + 1} attempts: {last_error}"
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

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
