"""HTTP scorer adapter and a loopback reference server.

Wire protocol: POST <endpoint>/score with UTF-8 JSON body
{"prompt": [float, ...], "summary_text": str, "summary_embedding": [float, ...]}
and response {"score": float}. Non-2xx status, transport failures, malformed
bodies (empty, not UTF-8, not JSON, not a JSON object), out-of-range scores
and a reply body over ``MAX_BODY_BYTES`` are all surfaced as TransportError;
nothing is clamped silently. A refused, dropped, idle-closed or truncated
exchange, or a reply head that does not parse, is retried ``RETRIES`` times
first, each on a new connection, and waits at most ``TIMEOUT_S`` per step.
Gradients are central differences with the fixed step ``FD_STEP`` (1e-6),
costing 2 * prompt_dim requests per summary in every ``grad_sum``. The
loopback server answers 400 to a prompt or embedding entry that is not a
JSON number, or not finite as float64, and to a summary_text that is not a
string; it answers 413 to a body over ``MAX_BODY_BYTES``.

The client sends every request over one HTTP/1.1 keep-alive connection,
opened on first use and closed by ``close()``; a server that closes after
each reply costs one connection per request instead. Within a batch call
(``score_batch``, ``grad_sum``) it writes the call's next requests before
it reads the reply it waits for, up to ``PIPELINE_BYTES`` (64 KiB) of
requests in flight, and reads the replies in order (HTTP/1.1 pipelining,
RFC 9112 section 9.3.2). It tops the window up only once at most half of
it is in flight, so requests leave in bursts. A server must answer
pipelined requests in the order they came. The client pipelines only on a
connection that has already returned a keep-alive HTTP/1.1 reply, so the
first request on every connection goes alone, and a server that speaks
HTTP/1.0 or answers ``Connection: close`` never sees a request sent ahead. A failure or a close drops what is in
flight, and each request left unanswered is sent again in its turn, since
``/score`` is a pure function. The bytes on the wire are those of the same
requests sent one after another; each body is what ``json.dumps`` writes
for the payload, and a batch call encodes each of its prompts and
summaries once. The client splits a reply's head by hand and reads only
its Content-Length, Connection and Transfer-Encoding, so a reply body may
be framed by Content-Length, by chunked transfer coding, or by the server
closing the connection. The loopback server splits request heads by hand
as well. It holds the replies it writes until its next read would wait
for the client, ``_HELD_BYTES`` are held or the connection closes, and
then sends them in one write, so the replies to requests that arrived
together leave together and no read waits while a reply is held. It
accepts a list of finite floats without a check per entry, formats its
Date header once per second, and formats a 200 reply's head in one step;
every reply keeps the bytes http.server would write.
"""

from __future__ import annotations

import collections
import contextlib
import email.utils
import functools
import http.client
import io
import json
import math
import re
import select
import socket
import ssl
import threading
import time
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
# Largest request or reply body either end accepts; a larger one is refused
# before it is read, and so never allocated.
MAX_BODY_BYTES = 1 << 20
# Most bytes of requests the client has written and not yet had answered,
# within one batch call; below the default TCP receive buffer (128 KiB), so
# a write cannot block while the server is blocked writing replies.
PIPELINE_BYTES = 1 << 16
# Most bytes of replies the loopback server holds before it writes them; a
# reply is shorter than its request, so one write answers a full window.
_HELD_BYTES = 1 << 16
# Longest line, and most header lines, either end reads.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# "HTTP/1.x NNN reason": the minor version and the status.
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d+) ([1-9]\d\d)(?:[ \t][^\r\n]*)?\r?\n")
# Characters no endpoint may hold: "?" and "#" start a query or fragment,
# where "/score" would land; urlsplit drops a tab or newline and strips a
# leading space, and no other whitespace or control can go in a request line.
_REJECTED_CHARACTERS = re.compile(r"[?#\s\x00-\x1f\x7f]")


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("header line")
    return line


def _read_headers(reader) -> dict:
    """Header lines up to the blank line that ends them, as a dict by
    lower-cased name. Raises http.client's LineTooLong past ``_MAX_LINE``
    bytes a line and HTTPException past ``_MAX_HEADERS`` lines."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("iso-8859-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def split_endpoint(endpoint: str):
    """(scheme, host, port, selector) of a scorer endpoint; requests go to
    ``<path>/score``, and port None is the scheme's default. Raises
    ValueError unless the endpoint is a str with the scheme http(s), a host
    and a valid port (1 to 65535, if given); for a query or fragment (even
    a bare "?" or "#"), where "/score" would otherwise land; and for what
    the client cannot send as given: whitespace or an ASCII control
    character anywhere, a non-ASCII character in the path (percent-encode
    it), or a non-ASCII host that IDNA cannot encode. User info
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
            if valid and not parts.hostname.isascii():
                parts.hostname.encode("idna")  # what the Host header will carry
        except ValueError:  # also an unclosed "[" in an IPv6 host, and a host IDNA cannot encode
            valid = False
    if not valid:
        raise ValueError("need an http:// or https:// endpoint with a host, a valid port, no query or "
                         "fragment, no whitespace or control character and an ASCII path, "
                         f"got {endpoint!r}")
    return parts.scheme, parts.hostname, port, parts.path.rstrip("/") + "/score"


class RemoteScorer:
    """Scorer backend that defers to the HTTP service at ``endpoint``, with
    the module's TIMEOUT_S, RETRIES and PIPELINE_BYTES. Use it as a context
    manager, or call ``close()``, to release its connection."""

    def __init__(self, endpoint: str):
        scheme, host, port, selector = split_endpoint(endpoint)
        # the one name of the server in every TransportError
        self.url = f"{endpoint.rstrip('/')}/score"
        default_port = 443 if scheme == "https" else 80
        self._address = (host, port or default_port)
        self._tls_host = host if scheme == "https" else None
        # The head http.client would send, with %d for the Content-Length.
        authority = host if host.isascii() else host.encode("idna").decode("ascii")
        if ":" in host:
            authority = f"[{authority}]"
        if port not in (None, default_port):
            authority = f"{authority}:{port}"
        self._head = (
            f"POST {selector} HTTP/1.1\r\nHost: {authority}\r\nAccept-Encoding: identity\r\n".replace("%", "%%")
            + "Content-Length: %d\r\nContent-Type: application/json\r\n\r\n"
        ).encode("ascii")
        self._socket = None
        self._reader = None
        # whether the connection has returned a keep-alive HTTP/1.1 reply
        self._kept = False
        # the running batch call's requests not yet drawn, or None
        self._batch = None
        # requests drawn from it whose replies are unread, oldest first; the
        # first _sent of them, _sent_bytes in all, are on this connection
        self._queue = collections.deque()
        self._sent = self._sent_bytes = 0

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        if self._socket is not None:
            self._socket.close()
        self._socket = self._reader = None
        self._kept, self._sent, self._sent_bytes = False, 0, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _open(self) -> None:
        self._socket = socket.create_connection(self._address, TIMEOUT_S)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls_host is not None:
            self._socket = ssl.create_default_context().wrap_socket(
                self._socket, server_hostname=self._tls_host
            )
        self._reader = self._socket.makefile("rb")

    def _exchange(self, request: bytes) -> dict:
        """Send one request, unless it went ahead of its turn, and return its
        reply object. Any failure closes the connection, so that the next
        exchange starts on a new one and every request still unanswered is
        sent again."""
        try:
            if self._socket is None:
                self._open()
            self._send(request)
            status, headers, closes = self._read_head()
            if not 200 <= status < 300:
                raise TransportError(f"scorer endpoint {self.url} returned status {status}")
            raw = b"" if status == 204 else self._read_body(headers, closes)
            try:
                reply = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # empty, not UTF-8, not JSON, or nested too deep
                raise TransportError(f"scorer endpoint {self.url} returned malformed JSON: {exc}") from exc
            if not isinstance(reply, dict):
                raise TransportError(f"scorer endpoint {self.url} returned {raw[:80]!r}, not a JSON object")
        except BaseException:
            self.close()
            raise
        if self._queue:
            self._queue.popleft()
            if self._sent:  # none are once the reply has closed the connection
                self._sent -= 1
                self._sent_bytes -= len(request)
        return reply

    def _send(self, request: bytes) -> None:
        """Write ``request`` unless it is on the wire already; then, inside a
        batch call on a connection that has returned a keep-alive HTTP/1.1
        reply, once at most half of ``PIPELINE_BYTES`` is in flight, the
        batch's next requests while their bytes in flight stay within
        ``PIPELINE_BYTES``. A request larger than that goes alone."""
        queue, out = self._queue, []
        if not self._sent:
            out.append(request)
            if queue:
                self._sent, self._sent_bytes = 1, len(request)
        refill = self._kept and self._sent_bytes <= PIPELINE_BYTES // 2
        while queue and refill:
            if self._sent == len(queue):
                ahead = next(self._batch, None)
                if ahead is None:
                    break
                queue.append(ahead)
            ahead = queue[self._sent]
            if self._sent_bytes + len(ahead) > PIPELINE_BYTES:
                break
            out.append(ahead)
            self._sent += 1
            self._sent_bytes += len(ahead)
        if out:
            self._socket.sendall(b"".join(out))

    def _read_head(self) -> tuple[int, dict, bool]:
        """Status, headers and whether the connection ends with the body, of
        the next reply past any interim 1xx reply but 101 Switching
        Protocols, which is final (RFC 9110 section 15.2). http.client's
        exceptions stand for a status line that is not HTTP/1.x NNN, a head
        past its limits, or a connection closed before the reply."""
        status = 100
        while status < 200 and status != 101:
            line = _read_line(self._reader)
            if not line:
                raise http.client.RemoteDisconnected("Remote end closed connection without response")
            match = _STATUS_LINE.fullmatch(line)
            if match is None:
                raise http.client.BadStatusLine(repr(line))
            headers = _read_headers(self._reader)
            status = int(match[2])
        connection = headers.get("connection", "").lower()
        closes = "keep-alive" not in connection if match[1] == b"0" else "close" in connection
        self._kept = not closes and match[1] != b"0"
        return status, headers, closes

    def _read_body(self, headers: dict, closes: bool) -> bytes:
        """The body of a reply, framed by chunked transfer coding, by its
        Content-Length or else by the end of the connection, which is closed
        after a reply that ends it. Raises IncompleteRead for a body cut
        short, and TransportError for one over ``MAX_BODY_BYTES``, having
        read at most one byte past the cap."""
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = self._read_chunked()
        else:
            try:
                length = int(headers["content-length"])
            except (KeyError, ValueError):
                length = -1
            if length < 0:  # the body runs to the end of the connection
                body, closes = self._reader.read(MAX_BODY_BYTES + 1), True
                self._check_size(len(body))
            else:
                self._check_size(length)
                body = self._reader.read(length)
                if len(body) < length:
                    raise http.client.IncompleteRead(body, length - len(body))
        if closes:
            self.close()
        return body

    def _read_chunked(self) -> bytes:
        chunks, size = [], 0
        while True:
            line = _read_line(self._reader)
            try:
                length = int(line.split(b";", 1)[0], 16)
            except ValueError:  # also the empty line of a closed connection
                length = -1
            if length < 0:
                raise http.client.IncompleteRead(b"".join(chunks))
            if length == 0:
                _read_headers(self._reader)  # the trailer, up to its blank line
                return b"".join(chunks)
            size += length
            self._check_size(size)
            chunk = self._reader.read(length + 2)  # with its CRLF
            if len(chunk) < length + 2:
                raise http.client.IncompleteRead(b"".join(chunks) + chunk)
            chunks.append(chunk[:length])

    def _check_size(self, size: int) -> None:
        if size > MAX_BODY_BYTES:
            raise TransportError(
                f"scorer endpoint {self.url} sent a reply body over the {MAX_BODY_BYTES}-byte cap"
            )

    def _post(self, request: bytes) -> dict:
        attempts = RETRIES + 1
        for _ in range(attempts):
            try:
                return self._exchange(request)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc  # refused, dropped, truncated or idle-closed: try again
        raise TransportError(
            f"scorer endpoint {self.url} failed after {attempts} attempts: {last_error}"
        ) from last_error

    def _requests(self, prompts, embs, texts):
        """The request of each of ``prompts`` for each summary, summary by
        summary, its body what ``json.dumps`` writes for {"prompt": q,
        "summary_text": text, "summary_embedding": emb}; each prompt and each
        summary is encoded once."""
        prompts = [b'{"prompt": ' + json.dumps(np.asarray(q, dtype=np.float64).tolist()).encode("utf-8")
                   for q in prompts]
        for t in range(len(embs)):
            summary = b', "summary_text": %b, "summary_embedding": %b}' % (
                json.dumps(texts[t]).encode("utf-8"),
                json.dumps(np.asarray(embs[t], dtype=np.float64).tolist()).encode("utf-8"))
            for prompt in prompts:
                body = prompt + summary
                yield self._head % len(body) + body

    @contextlib.contextmanager
    def _sending_ahead(self, requests):
        """Run a batch call whose ``score`` calls send ``requests``, in order."""
        self._batch = requests
        try:
            yield
        finally:
            if self._sent:  # replies still due would answer the next requests
                self.close()
            self._batch = None
            self._queue.clear()

    def score(self, q: np.ndarray, emb: np.ndarray, text: str = "") -> float:
        """Score of one summary. Inside a batch call the request is the
        batch's oldest one unanswered, which it built from the same row."""
        if self._batch is None:
            request = next(self._requests([q], [emb], [text]))
        else:
            if not self._queue:
                self._queue.append(next(self._batch))
            request = self._queue[0]
        reply = self._post(request)
        if "score" not in reply:
            raise TransportError(f"scorer endpoint {self.url} reply missing 'score' field")
        value = reply["score"]
        if not finite_real(value):  # also NaN and Infinity, which JSON has no number for
            raise TransportError(f"scorer endpoint {self.url} returned non-numeric score {value!r}")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise TransportError(f"scorer endpoint {self.url} returned score {value} outside [0, 1]")
        return value

    def score_batch(self, q: np.ndarray, embs: np.ndarray, texts) -> np.ndarray:
        """``score`` of each summary, the requests sent ahead of their replies."""
        rows = range(embs.shape[0])
        with self._sending_ahead(self._requests([q], embs, texts)):
            return np.array([self.score(q, embs[t], text=texts[t]) for t in rows], dtype=np.float64)

    def grad_q(self, q: np.ndarray, emb: np.ndarray, text: str = "") -> np.ndarray:
        scores = np.array([self.score(probe, emb, text=text) for probe in _probes(q)])
        return (scores[0::2] - scores[1::2]) / (2.0 * FD_STEP)

    def grad_sum(self, q: np.ndarray, embs: np.ndarray, texts, coeff: np.ndarray,
                 scores: np.ndarray) -> np.ndarray:
        """sum_t coeff[t] * grad_q(q, embs[t], texts[t]), one central
        difference per summary, all the step's requests sent ahead of their
        replies; the wire has no batch call, so ``scores`` go unused."""
        grad = np.zeros_like(q, dtype=np.float64)
        with self._sending_ahead(self._requests(_probes(q), embs, texts)):
            for t in range(embs.shape[0]):
                grad += coeff[t] * self.grad_q(q, embs[t], text=texts[t])
        return grad


def _probes(q) -> list:
    """The prompts of q's central differences: q + FD_STEP e_i, then
    q - FD_STEP e_i, for each i."""
    q = np.asarray(q, dtype=np.float64)
    probes = []
    for i in range(q.size):
        step = np.zeros_like(q)
        step[i] = FD_STEP
        probes += [q + step, q - step]
    return probes


def _finite_vector(payload: dict, key: str) -> np.ndarray:
    """A request's ``key`` entry as float64. ValueError unless it is a list
    of :func:`finite_real` numbers (NaN, Infinity, 1e400, true and an
    integer beyond float64 are not). A list of finite floats, what JSON
    numbers with a fraction or an exponent parse to, is accepted without a
    call per entry."""
    values = payload[key]
    if not isinstance(values, list) or not (
        (set(map(type, values)) <= {float} and all(map(math.isfinite, values)))
        or all(map(finite_real, values))
    ):
        raise ValueError(f"{key} must be a list of finite numbers")
    return np.asarray(values, dtype=np.float64)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date value of a whole second, as http.server formats it."""
    return email.utils.formatdate(second, usegmt=True)


class _HeldReplies(socket.SocketIO):
    """A server connection as one raw stream that holds what is written to
    it. The held bytes leave in one write when a read would wait for the
    client, when ``_HELD_BYTES`` are held, or at close, so the replies to
    pipelined requests that arrived together leave together, and no read
    waits while a reply is held. ``flush()`` sends nothing."""

    def __init__(self, sock):
        super().__init__(sock, "rwb")
        self._held = bytearray()

    def readinto(self, buffer):
        if self._held and not select.select([self._sock], [], [], 0)[0]:
            self._send_held()
        return super().readinto(buffer)

    def write(self, data):
        self._held += data
        if len(self._held) >= _HELD_BYTES:
            self._send_held()
        return len(data)

    def _send_held(self):
        held, self._held = self._held, bytearray()
        self._sock.sendall(held)

    def close(self):
        try:
            if self._held:
                self._send_held()
        finally:  # also when the client has reset the connection
            super().close()


class _StubHandler(BaseHTTPRequestHandler):
    scorer: StubScorer = None  # set by the server factory
    # Keep-alive; send_error replies carry "Connection: close". Replies are
    # held (see _HeldReplies) and leave when the handler would otherwise
    # wait to read, so handle_one_request's flush after do_POST sends
    # nothing.
    protocol_version = "HTTP/1.1"
    # An idle connection times out, which ends the connection and its thread.
    timeout = _IDLE_TIMEOUT_S

    def log_message(self, *args):  # silence per-request stderr noise
        pass

    def date_time_string(self, timestamp=None):
        """http.server's Date value, formatted once per whole second."""
        return _http_date(int(time.time() if timestamp is None else timestamp))

    def setup(self):
        """rfile reads, and wfile holds replies, through one _HeldReplies."""
        self.connection = self.request
        self.connection.settimeout(self.timeout)
        # Nagle stays off so that no write waits for the client's delayed
        # ACK of an earlier one (a 100 Continue leaves before its reply).
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.wfile = _HeldReplies(self.connection)
        self.rfile = io.BufferedReader(self.wfile)

    def handle(self):
        try:
            super().handle()
        except ConnectionError:  # the client reset the connection: nothing to answer
            self.close_connection = True

    def finish(self):
        try:
            super().finish()  # closes wfile, which sends the held replies
        except ConnectionError:  # held replies to a client that reset the connection
            pass  # wfile, and so rfile, closed all the same

    def parse_request(self):
        """The request line and header lines, split by hand; ``headers`` is
        a dict by lower-cased name. Answers 400 to a request line other than
        "METHOD PATH HTTP/1.0" or "HTTP/1.1", and 431 to a header line over
        ``_MAX_LINE`` bytes or more than ``_MAX_HEADERS`` of them. The
        connection closes after the reply to an HTTP/1.0 request without
        "Connection: keep-alive" and to a "Connection: close" request. An
        HTTP/1.1 "Expect: 100-continue" goes to handle_expect_100."""
        self.command = None
        self.request_version = self.protocol_version  # not HTTP/0.9: a 400 gets a status line
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(400, f"Bad request line {self.requestline!r}")
            return False
        self.command, self.path, self.request_version = words
        try:
            self.headers = _read_headers(self.rfile)
        except http.client.HTTPException as exc:  # LineTooLong is one too
            self.send_error(431, str(exc))
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive"
        )
        if self.request_version == "HTTP/1.1" and self.headers.get("expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def do_POST(self):
        if self.path != "/score":
            self.send_error(404, "unknown path")
            return
        try:
            length = int(self.headers.get("content-length", "0"))
            if length < 0:  # rfile.read(-1) would wait for the client to close
                raise ValueError(f"negative Content-Length {length}")
            if length > MAX_BODY_BYTES:  # refused before any of it is read
                self.send_error(413, f"body of {length} bytes, over the {MAX_BODY_BYTES}-byte cap")
                return
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            q = _finite_vector(payload, "prompt")
            emb = _finite_vector(payload, "summary_embedding")
            text = payload.get("summary_text", "")
            if not isinstance(text, str):
                raise ValueError("summary_text must be a string")
            score = self.scorer.score(q, emb, text=text)
        # TypeError: body not an object; RecursionError: nested past the decoder's limit
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            self.send_error(400, f"bad request: {exc}")
            return
        body = json.dumps({"score": score}).encode("utf-8")
        # what send_response(200), the two headers and end_headers would
        # buffer, formatted at once; log_request has nothing to log here
        self.wfile.write(
            (f"{self.protocol_version} 200 OK\r\nServer: {self.version_string()}\r\n"
             f"Date: {self.date_time_string()}\r\nContent-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body
        )


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
