#!/usr/bin/env python3
"""Loopback scorer server in a process of its own, with request counters.

Serves hypervad's stub scorer through ``LoopbackScorerServer``, the server
behind scripts/scorer_server.py, so that the client under test does not
share its interpreter lock with the server. Beside it, a fixed echo server
built on the standard library alone answers the benchmark's calibration
requests (see calibrate.py). Prints ``ready <endpoint> <echo endpoint>``
once both listen. Each ``stats`` line on standard input is answered with one JSON
line of cumulative counters; end of input shuts it down.

  python3 perfbench/scorer_proc.py --prompt-dim 32 --emb-dim 16 --seed 0
"""

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypervad import remote  # noqa: E402
from hypervad.prompt_opt import StubScorer  # noqa: E402


class ServerStats:
    """Requests handled, non-2xx replies sent, and seconds spent in do_POST."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.non_2xx = 0
        self.busy_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "non_2xx": self.non_2xx, "busy_s": self.busy_s}


def instrument(handler_cls, stats: ServerStats) -> None:
    """Count on the stub handler class; the server's bound handler subclasses it."""
    do_post = handler_cls.do_POST
    send_response = handler_cls.send_response

    def counted_post(self):
        start = time.perf_counter()
        try:
            do_post(self)
        finally:
            elapsed = time.perf_counter() - start
            with stats.lock:
                stats.requests += 1
                stats.busy_s += elapsed

    def counted_response(self, code, message=None):
        if not 200 <= code < 300:
            with stats.lock:
                stats.non_2xx += 1
        send_response(self, code, message)

    handler_cls.do_POST = counted_post
    handler_cls.send_response = counted_response


class EchoHandler(BaseHTTPRequestHandler):
    """Answers a scorer-shaped request with a fixed score, like the stub
    server but without hypervad's code."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        reply = json.dumps({"score": len(body["prompt"]) / 100.0}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prompt-dim", type=int, required=True)
    parser.add_argument("--emb-dim", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    stats = ServerStats()
    instrument(remote._StubHandler, stats)
    scorer = StubScorer(args.prompt_dim, args.emb_dim, seed=args.seed)
    echo = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    echo_thread = threading.Thread(target=echo.serve_forever, daemon=True)
    echo_thread.start()
    try:
        with remote.LoopbackScorerServer(scorer) as server:
            print("ready", server.endpoint, f"http://127.0.0.1:{echo.server_address[1]}", flush=True)
            for line in sys.stdin:
                if line.strip() == "stats":
                    print(json.dumps(stats.snapshot()), flush=True)
    finally:
        echo.shutdown()
        echo.server_close()
        echo_thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
