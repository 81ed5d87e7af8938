#!/usr/bin/env python3
"""Serve the deterministic stub scorer over the HTTP wire protocol,
for exercising the remote-scorer path end to end:

  python scripts/scorer_server.py --prompt-dim 32 --emb-dim 16 --seed 0 --port 8750
  hypervad run ... --scorer remote --endpoint http://127.0.0.1:8750

The server answers HTTP/1.1 keep-alive, so a run's client sends all its
requests over one connection. Within a batch call the client pipelines:
it writes up to 64 KiB of requests ahead of their replies, which the server
answers in the order they came (RFC 9112 section 9.3.2), as any server
behind this contract must; requests left unanswered when a connection
closes are sent again. The server holds its replies until its next read
would wait for the client, so the replies to requests that arrived
together leave in one write; error replies (400, 404, 413, 431) close the
connection after the replies before them. The "serving ... at URL" line
is flushed at once, so a caller that starts the server with --port 0 can
read the port from a pipe. A real deployment would put an actual
language model behind the same POST /score contract.

Errors exit through ``hypervad.cli.exit_status``: a dimension below 1, a
negative seed or a port outside 0-65535 each print one ``validation error:``
line to stderr, all of them in one go, and exit 1; so does an address the
server cannot bind.
"""

import argparse
import sys
import time

from hypervad.cli import EXIT_OK, exit_status
from hypervad.core import ValidationError
from hypervad.dataio import integer
from hypervad.prompt_opt import StubScorer
from hypervad.remote import LoopbackScorerServer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prompt-dim", type=integer, default=32)
    parser.add_argument("--emb-dim", type=integer, default=16)
    parser.add_argument("--seed", type=integer, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=integer, default=8750)
    args = parser.parse_args()
    issues = [f"--{name.replace('_', '-')} must be at least 1, got {getattr(args, name)}"
              for name in ("prompt_dim", "emb_dim") if getattr(args, name) < 1]
    if args.seed < 0:
        issues.append(f"--seed must be non-negative, got {args.seed}")
    if not 0 <= args.port <= 65535:
        issues.append(f"--port must lie in 0-65535, got {args.port}")
    if issues:
        raise ValidationError(issues)

    scorer = StubScorer(args.prompt_dim, args.emb_dim, seed=args.seed)
    try:
        server = LoopbackScorerServer(scorer, host=args.host, port=args.port)
    except OSError as exc:
        raise ValidationError(f"cannot serve at {args.host}:{args.port}: {exc}") from exc
    with server:
        # flushed: under a pipe or a file this line is how a caller learns
        # the port of --port 0
        print(f"serving stub scorer (seed {args.seed}) at {server.endpoint}/score", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(exit_status(main))
