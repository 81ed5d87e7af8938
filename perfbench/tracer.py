"""In-memory tracer that wraps hypervad's functions from outside the package.

A wrapper must be installed under the name its caller looks the function up
by. ``pipeline`` imports ``validate_dataset``, ``optimize_prompt``,
``expand_to_frames`` and ``build_report`` by name; ``fusion`` imports
``exp_map_origin`` and ``weighted_geodesic_mean`` by name; and
``StubScorer.grad_q`` calls ``self.score``, so scorer methods are wrapped on
the class. A wrapper installed only on the defining module would count
nothing, which is why the benchmark checks the traced counts against closed
forms.

Coarse calls record a span (id, name, start, end, parent id). Calls as
fine-grained as ``log_map`` (tens of thousands per run) or
``StubScorer.score`` (up to hundreds of thousands per run) only add to a
count and a summed time.
"""

from __future__ import annotations

import logging
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

MIB = 1024.0 * 1024.0

# What each wrapper records besides its span or count.
SPAN = "span"
SPAN_PEAK = "span+peak"  # tracemalloc peak of the call, in bytes
SPAN_READ = "span+read"  # size of the file named by the first argument
SPAN_WRITE = "span+write"
COUNT = "count"
KARCHER = "count+karcher"  # iterations and convergence from KarcherResult
SCORER = "count+scorer"  # outermost scorer calls, and those inside score_all
REQUEST = "count+request"  # one latency sample per HTTP request

# Top-level calls of run_pipeline, grouped by the stage that makes them.
STAGES = {
    "load": ("pipeline.load_dataset",),
    "clean": ("captions.clean_captions", "captions.identity_captions"),
    "fuse": ("fusion.fuse_sequence", "fusion.fuse_sequence_euclidean"),
    "summarize": ("captions.build_summaries", "fusion.window_fused_points"),
    "score": ("prompt_opt.optimize_prompt",),
    "refine": ("refine.fit_visual_stats", "refine.refine_scores"),
    "expand": ("evaluate.expand_to_frames",),
    "evaluate": ("evaluate.build_report",),
    "write": ("dataio.write_scores", "dataio.write_loss_history", "dataio.write_report"),
}
ROOT_SPAN = "pipeline.run_pipeline"


def scorer_patches():
    """Wrappers that count what the scorer receives; cheap enough for a
    warm-up run, where only the count is wanted."""
    from hypervad.prompt_opt import StubScorer
    from hypervad.remote import RemoteScorer

    return [
        (StubScorer, "score", "StubScorer.score", SCORER),
        (StubScorer, "grad_q", "StubScorer.grad_q", SCORER),
        (RemoteScorer, "score", "RemoteScorer.score", SCORER),
        (RemoteScorer, "grad_q", "RemoteScorer.grad_q", SCORER),
    ]


def pipeline_patches():
    """Every layer boundary the traced run records, keyed by caller's name."""
    from hypervad import captions, dataio, evaluate, fusion, hyperbolic, pipeline, prompt_opt, refine
    from hypervad.remote import RemoteScorer

    return scorer_patches() + [
        (pipeline, "load_dataset", "pipeline.load_dataset", SPAN),
        (pipeline, "validate_dataset", "core.validate_dataset", SPAN),
        (dataio, "read_embeddings", "dataio.read_embeddings", SPAN_READ),
        (dataio, "read_captions", "dataio.read_captions", SPAN_READ),
        (dataio, "read_labels", "dataio.read_labels", SPAN_READ),
        (captions, "clean_captions", "captions.clean_captions", SPAN_PEAK),
        (captions, "clean_caption_indices", "captions.clean_caption_indices", SPAN),
        (captions, "identity_captions", "captions.identity_captions", SPAN),
        (captions, "build_summaries", "captions.build_summaries", SPAN),
        (fusion, "fuse_sequence", "fusion.fuse_sequence", SPAN),
        (fusion, "fuse_sequence_euclidean", "fusion.fuse_sequence_euclidean", SPAN),
        (fusion, "window_fused_points", "fusion.window_fused_points", SPAN),
        (fusion, "exp_map_origin", "hyperbolic.exp_map_origin", COUNT),
        (fusion, "weighted_geodesic_mean", "hyperbolic.weighted_geodesic_mean", KARCHER),
        (hyperbolic, "log_map", "hyperbolic.log_map", COUNT),
        (hyperbolic, "exp_map", "hyperbolic.exp_map", COUNT),
        (pipeline, "optimize_prompt", "prompt_opt.optimize_prompt", SPAN),
        (prompt_opt, "score_all", "prompt_opt.score_all", SPAN),
        (RemoteScorer, "_post", "remote.request", REQUEST),
        (refine, "fit_visual_stats", "refine.fit_visual_stats", SPAN),
        (refine, "refine_scores", "refine.refine_scores", SPAN),
        (refine, "neighbor_sets", "refine.neighbor_sets", SPAN_PEAK),
        (refine, "mahalanobis", "refine.mahalanobis", SPAN),
        (pipeline, "expand_to_frames", "evaluate.expand_to_frames", SPAN),
        (pipeline, "build_report", "evaluate.build_report", SPAN),
        (evaluate, "auc_roc", "evaluate.auc_roc", SPAN),
        (evaluate, "average_precision", "evaluate.average_precision", SPAN),
        (dataio, "write_scores", "dataio.write_scores", SPAN_WRITE),
        (dataio, "write_loss_history", "dataio.write_loss_history", SPAN_WRITE),
        (dataio, "write_report", "dataio.write_report", SPAN_WRITE),
    ]


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id)
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.extra = Counter()
        self.request_ms = []
        self._stack = [None]
        self._next_id = 0
        self._open = Counter()
        self._scorer_depth = 0
        self._fallbacks = _WarningCounter()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))
            self.calls[name] += 1
            self.seconds[name] += end - start

    def _wrap(self, fn, name, kind):
        clock = time.perf_counter
        calls = self.calls
        seconds = self.seconds
        extra = self.extra

        if kind == COUNT:
            def counted(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += clock() - start
                    calls[name] += 1
            return counted

        if kind == KARCHER:
            def karcher(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                seconds[name] += clock() - start
                calls[name] += 1
                extra["karcher_iterations"] += result.iterations
                extra["karcher_failures"] += not result.converged
                return result
            return karcher

        if kind == SCORER:
            def scorer_call(*args, **kwargs):
                if self._scorer_depth == 0:
                    extra["scorer_requests"] += 1
                    if self._open["prompt_opt.score_all"]:
                        extra["score_all_calls"] += 1
                self._scorer_depth += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += clock() - start
                    calls[name] += 1
                    self._scorer_depth -= 1
            return scorer_call

        if kind == REQUEST:
            samples = self.request_ms

            def request(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    extra["failed_requests"] += 1
                    raise
                finally:
                    elapsed = clock() - start
                    samples.append(elapsed * 1e3)
                    seconds[name] += elapsed
                    calls[name] += 1
            return request

        def spanned(*args, **kwargs):
            with self.span(name):
                if kind != SPAN_PEAK or tracemalloc.is_tracing():
                    result = fn(*args, **kwargs)
                else:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    extra[name + ".peak_bytes"] = max(extra[name + ".peak_bytes"], peak)
            if kind == SPAN_READ:
                extra["bytes_read"] += os.path.getsize(args[0])
            elif kind == SPAN_WRITE:
                extra["bytes_written"] += os.path.getsize(args[0])
            return result
        return spanned

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self, patches):
        """Wrap every (owner, attribute) in ``patches`` for the enclosed block."""
        saved = []
        refine_log = logging.getLogger("hypervad.refine")
        try:
            for owner, attr, name, kind in patches:
                original = vars(owner)[attr]  # KeyError if the callee moved: fail loudly
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, kind))
            refine_log.addHandler(self._fallbacks)
            yield self
        finally:
            refine_log.removeHandler(self._fallbacks)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def _root(self):
        roots = [s for s in self.spans if s[1] == ROOT_SPAN]
        if len(roots) != 1:
            raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
        return roots[0]

    def self_seconds(self, name) -> float:
        """Summed duration of the named spans minus what their children cover."""
        children = defaultdict(list)
        for span_id, _, start, end, parent in self.spans:
            children[parent].append((start, end))
        total = 0.0
        for span_id, span_name, start, end, _ in self.spans:
            if span_name != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children[span_id]):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total

    def stage_seconds(self) -> dict:
        root_id = self._root()[0]
        stage_of = {name: stage for stage, names in STAGES.items() for name in names}
        out = dict.fromkeys(STAGES, 0.0)
        for _, name, start, end, parent in self.spans:
            if parent == root_id and name in stage_of:
                out[stage_of[name]] += end - start
        return out

    def run_seconds(self) -> float:
        _, _, start, end, _ = self._root()
        return end - start

    def layer_metrics(self, server_busy_s: float) -> dict:
        """Per-layer metrics of the traced run, named ``<module>.<metric>``."""
        run_s = self.run_seconds()
        stages = self.stage_seconds()
        m = {f"pipeline.{stage}_s": secs for stage, secs in stages.items()}
        m["pipeline.other_s"] = run_s - sum(stages.values())

        s, c, x = self.seconds, self.calls, self.extra
        m["hyperbolic.karcher_calls"] = c["hyperbolic.weighted_geodesic_mean"]
        m["hyperbolic.karcher_iterations"] = x["karcher_iterations"]
        m["hyperbolic.karcher_failures"] = x["karcher_failures"]
        m["hyperbolic.weighted_geodesic_mean_s"] = s["hyperbolic.weighted_geodesic_mean"]
        m["hyperbolic.log_map_calls"] = c["hyperbolic.log_map"]
        m["hyperbolic.exp_map_calls"] = c["hyperbolic.exp_map"]
        m["hyperbolic.exp_map_origin_calls"] = c["hyperbolic.exp_map_origin"]

        m["fusion.fuse_sequence_s"] = s["fusion.fuse_sequence"]
        m["fusion.window_fused_points_s"] = s["fusion.window_fused_points"]

        m["prompt_opt.optimize_prompt_s"] = s["prompt_opt.optimize_prompt"]
        m["prompt_opt.score_all_calls"] = x["score_all_calls"]
        m["prompt_opt.score_calls"] = c["StubScorer.score"] + c["RemoteScorer.score"]
        m["prompt_opt.grad_calls"] = c["StubScorer.grad_q"] + c["RemoteScorer.grad_q"]
        m["prompt_opt.score_all_s"] = s["prompt_opt.score_all"]

        samples = self.request_ms
        if len(samples) >= 2:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        else:
            p50 = p99 = samples[0] if samples else 0.0
        m["remote.requests"] = c["remote.request"]
        m["remote.request_p50_ms"] = p50
        m["remote.request_p99_ms"] = p99
        m["remote.server_busy_s"] = server_busy_s
        m["remote.client_overhead_s"] = s["remote.request"] - server_busy_s
        m["remote.failed_requests"] = x["failed_requests"]

        m["refine.neighbor_sets_s"] = s["refine.neighbor_sets"]
        m["refine.neighbor_sets_peak_mb"] = x["refine.neighbor_sets.peak_bytes"] / MIB
        m["refine.mahalanobis_calls"] = c["refine.mahalanobis"]
        m["refine.refine_scores_self_s"] = self.self_seconds("refine.refine_scores")
        m["refine.fallbacks"] = self._fallbacks.count

        m["captions.clean_captions_s"] = s["captions.clean_captions"]
        m["captions.clean_captions_peak_mb"] = x["captions.clean_captions.peak_bytes"] / MIB
        m["captions.build_summaries_s"] = s["captions.build_summaries"]

        m["core.validate_dataset_s"] = s["core.validate_dataset"]
        m["dataio.read_embeddings_s"] = s["dataio.read_embeddings"]
        m["dataio.read_captions_s"] = s["dataio.read_captions"]
        m["dataio.bytes_read"] = x["bytes_read"]
        m["dataio.bytes_written"] = x["bytes_written"]
        m["evaluate.expand_to_frames_s"] = s["evaluate.expand_to_frames"]
        m["evaluate.auc_roc_s"] = s["evaluate.auc_roc"]
        m["evaluate.average_precision_s"] = s["evaluate.average_precision"]

        m["trace.run_s"] = run_s
        m["trace.spans"] = len(self.spans)
        return m
