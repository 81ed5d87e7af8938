"""Calibration kernels: fixed pieces of work that tell how fast this CPU runs
at the moment they are timed.

On a shared host the speed of one virtual CPU swings by a factor of 1.5 to 2
for seconds to minutes at a time, and the process's CPU time swings with its
wall time, so a timing taken in a slow phase reads slow whatever the program
does. The benchmark therefore times a kernel just before and just after
every timed call, in the same process on the same CPU, and scales the call's
wall time by ``reference_s / kernel time``: the result is the call's time at
the speed the kernel ran at on the reference machine (2-vCPU VM, Python
3.11.7, numpy 2.4.6). The kernels depend only on Python, numpy and the
standard library, never on hypervad, so a change to the program cannot move
them.

A kernel must slow down as the timed work does, so each follows a
workload's mix. The Python kernel loops over small numpy vectors (the shape
of the hyperbolic maps and the scorer calls), round-trips small JSON
payloads and does dict and float work in the interpreter. The loopback
kernel sends scorer-shaped requests through ``urllib`` to a standard-library
HTTP server in the scorer's process, which is where a remote workload's time
goes: sockets, context switches and a thread per request.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import urllib.request
from functools import partial

import numpy as np

# Median wall time of one kernel call on the reference machine.
PYTHON_REFERENCE_S = 0.012
LOOPBACK_REFERENCE_S = 0.008
# Kernel calls per sample (about 0.1 s); the sample is their median, so that
# one interrupt does not set it.
CALLS = 8
LOOPBACK_REQUESTS = 10

_VECTORS = np.random.default_rng(20260301).standard_normal((300, 16)) * 0.2
_BODY = json.dumps({"prompt": [0.1] * 4, "summary_text": "segment", "summary_embedding": [0.2] * 16}).encode("utf-8")


def python_kernel() -> float:
    acc = 0.0
    table = {}
    for i, row in enumerate(_VECTORS):
        norm = float(np.linalg.norm(row))
        point = np.tanh(norm) * row / norm
        acc += float(np.arccosh(1.0 + 2.0 * np.dot(point, point)))
        payload = json.loads(json.dumps({"prompt": [float(x) for x in row], "summary_text": "segment"}))
        acc += len(payload["prompt"])
        for j in range(30):
            key = (i * 31 + j) % 101
            table[key] = table.get(key, 0.0) + math.sqrt(j + acc % 7.0)
    return acc + sum(table.values())


def loopback_kernel(endpoint: str) -> None:
    for _ in range(LOOPBACK_REQUESTS):
        request = urllib.request.Request(endpoint, data=_BODY, method="POST",
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            json.loads(response.read())


class Calibration:
    """The kernel for one kind of work: loopback requests to ``echo_endpoint``
    when given, the Python kernel otherwise."""

    def __init__(self, echo_endpoint: str | None = None):
        if echo_endpoint is None:
            self.kernel, self.reference_s = python_kernel, PYTHON_REFERENCE_S
        else:
            self.kernel, self.reference_s = partial(loopback_kernel, echo_endpoint), LOOPBACK_REFERENCE_S

    def sample(self) -> float:
        """Median wall time of one kernel call, over ``CALLS`` calls."""
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scaled(self, seconds: float, kernel_s: float) -> float:
        """``seconds`` taken while the kernel took ``kernel_s``, at reference speed."""
        return seconds * self.reference_s / kernel_s
