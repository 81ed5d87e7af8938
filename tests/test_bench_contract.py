"""The benchmark tracer wraps package functions by the names their callers
look them up by, its ablation table runs the variants of
scripts/run_synthetic_experiment.py, and its remote workload serves the stub
scorer through perfbench/scorer_proc.py. A refactor that moves or renames one
of them must fail here, not in a traced benchmark run."""

import contextlib
import importlib
import json
import select
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hypervad.core import PipelineConfig
from hypervad.fusion import fuse_sequence
from hypervad.pipeline import (
    LOSS_FILE, REPORT_FILE, SCORES_FILE, RunManifest, load_dataset, run_pipeline,
)
from hypervad.prompt_opt import StubScorer
from hypervad.remote import RemoteScorer
from hypervad.synth import gen_synthetic

from oracles import window_means_oracle

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracer():
    return _perfbench_module("tracer")


@pytest.fixture(scope="module")
def ablation():
    return _perfbench_module("ablation")


def test_every_traced_attribute_resolves(tracer):
    patches = tracer.pipeline_patches()
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in patches
        if attr not in vars(owner) or not callable(vars(owner)[attr])
    ]
    assert missing == []


def test_every_stage_call_is_traced(tracer):
    traced = {name for _, _, name, _ in tracer.pipeline_patches()}
    for stage, names in tracer.STAGES.items():
        assert set(names) <= traced, stage


def test_traced_run_records_every_layer(tracer, tmp_path):
    # a callee looked up under another name, or a changed call shape (say a
    # path no longer the first argument of read_embeddings), shows up here
    data = gen_synthetic(tmp_path / "data", n_segments=24, dim=6, seed=3, with_audio=True)
    window, opt_iters = 2, 3
    manifest = RunManifest(
        visual_path=data.paths["visual"], text_path=data.paths["text"],
        captions_path=data.paths["captions"], audio_path=data.paths["audio"],
        labels_path=data.paths["labels"], out_dir=tmp_path / "out",
        config=PipelineConfig(seed=3, window=window, opt_iters=opt_iters, prompt_dim=4),
    )
    trace = tracer.Tracer()
    with trace.installed(tracer.pipeline_patches()), trace.span(tracer.ROOT_SPAN):
        run_pipeline(manifest)
    metrics = trace.layer_metrics(server_busy_s=0.0)

    assert [s for s in tracer.STAGES if not metrics[f"pipeline.{s}_s"] > 0] == []
    inputs = ("visual", "text", "audio", "captions", "labels")
    assert metrics["dataio.bytes_read"] == sum(data.paths[k].stat().st_size for k in inputs)
    outputs = (SCORES_FILE, LOSS_FILE, REPORT_FILE)
    assert metrics["dataio.bytes_written"] == sum((tmp_path / "out" / f).stat().st_size for f in outputs)
    assert metrics["hyperbolic.karcher_calls"] > 0
    n_windows = -(-data.n_segments // window)
    assert metrics["prompt_opt.score_all_calls"] == n_windows * (opt_iters + 1)


def test_traced_window_means_count_per_size_group(tracer, tmp_path):
    # window 3 over 26 segments: eight full windows iterate as one stack and
    # the trailing window of two takes the closed form, one call per size
    data = gen_synthetic(tmp_path / "data", n_segments=26, dim=6, seed=4, with_audio=True)
    config = PipelineConfig(seed=4, window=3, opt_iters=1, prompt_dim=4)
    manifest = RunManifest(
        visual_path=data.paths["visual"], text_path=data.paths["text"],
        captions_path=data.paths["captions"], audio_path=data.paths["audio"],
        labels_path=data.paths["labels"], out_dir=tmp_path / "out", config=config,
    )
    trace = tracer.Tracer()
    with trace.installed(tracer.pipeline_patches()), trace.span(tracer.ROOT_SPAN):
        run_pipeline(manifest)
    metrics = trace.layer_metrics(server_busy_s=0.0)

    _, failures, iterations = window_means_oracle(fuse_sequence(load_dataset(manifest)[0], config), config)
    assert metrics["hyperbolic.karcher_calls"] == 2
    assert metrics["hyperbolic.karcher_iterations"] == sum(iterations) > 0
    assert metrics["hyperbolic.karcher_failures"] == len(failures)
    assert json.loads(json.dumps(metrics)) == metrics


@contextlib.contextmanager
def _scorer_process(prompt_dim, emb_dim, seed):
    """perfbench/scorer_proc.py in a process of its own: yields its endpoint
    and a function that reads its cumulative counters."""
    proc = subprocess.Popen(
        [sys.executable, str(PERFBENCH / "scorer_proc.py"), "--prompt-dim", str(prompt_dim),
         "--emb-dim", str(emb_dim), "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )

    def stats():
        proc.stdin.write("stats\n")
        proc.stdin.flush()
        return json.loads(_readline(proc))

    try:
        verb, endpoint, _echo = _readline(proc).split()
        assert verb == "ready"
        yield endpoint, stats
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_traced_remote_run_counts_requests(tracer, tmp_path):
    # the closed forms perfbench/worker.py's check_trace holds a traced
    # remote run to: one _post per request, and every window scored through
    # score_all once per evaluation. The scorer is served from its own
    # process, as the benchmark serves it: the tracer counts every stub call
    # made in this process, a server thread's too.
    data = gen_synthetic(tmp_path / "data", n_segments=15, dim=5, seed=6)
    window, opt_iters, prompt_dim = 2, 2, 3
    config = PipelineConfig(seed=6, window=window, opt_iters=opt_iters, prompt_dim=prompt_dim)
    trace = tracer.Tracer()
    with _scorer_process(prompt_dim, 5, seed=6) as (endpoint, stats):
        manifest = RunManifest(
            visual_path=data.paths["visual"], text_path=data.paths["text"],
            captions_path=data.paths["captions"], labels_path=data.paths["labels"],
            out_dir=tmp_path / "out", config=config, scorer="remote", endpoint=endpoint,
        )
        with trace.installed(tracer.pipeline_patches()), trace.span(tracer.ROOT_SPAN):
            run_pipeline(manifest)
        served = stats()
    metrics = trace.layer_metrics(server_busy_s=0.0)

    n_windows = -(-data.n_segments // window)
    requests = n_windows * (1 + opt_iters * (1 + 2 * prompt_dim))
    assert metrics["remote.requests"] == requests == 120
    assert served["requests"] == requests and served["non_2xx"] == 0
    assert metrics["remote.failed_requests"] == 0
    # one client score per request; the stub scores in the server's process
    assert trace.calls["RemoteScorer.score"] == metrics["prompt_opt.score_calls"] == requests
    assert metrics["prompt_opt.score_all_calls"] == n_windows * (opt_iters + 1)
    assert metrics["prompt_opt.grad_calls"] == n_windows * opt_iters


def test_workload_arguments_pass_validation(tmp_path):
    # what perfbench/worker.py builds for each workload, up to running it:
    # a stricter rule on an argument must fail here first
    workloads = _perfbench_module("workloads")
    for wl in workloads.WORKLOADS.values():
        data = gen_synthetic(
            tmp_path / wl.name, n_segments=wl.n_segments, dim=workloads.DIM,
            anomaly_fraction=workloads.ANOMALY_FRACTION, shift=workloads.SHIFT, seed=0,
            frames_per_segment=workloads.FRAMES_PER_SEGMENT, with_audio=wl.audio,
        )
        RunManifest(
            visual_path=data.paths["visual"], text_path=data.paths["text"],
            captions_path=data.paths["captions"], audio_path=data.paths.get("audio"),
            labels_path=data.paths["labels"], out_dir=tmp_path / "out",
            config=PipelineConfig(seed=0, window=wl.window, opt_iters=wl.opt_iters,
                                  prompt_dim=wl.prompt_dim),
            scorer=wl.scorer,
            endpoint="http://127.0.0.1:9" if wl.scorer == "remote" else None,
        )


def test_ablation_manifests_pass_validation(ablation, tmp_path):
    # the manifests ablation.ablation_table builds, up to running them
    data = gen_synthetic(tmp_path / "data", **ablation.INPUT)
    config = PipelineConfig(seed=ablation.INPUT["seed"], window=ablation.WINDOW)
    for name, overrides in ablation.load_variants(ROOT):
        overrides = dict(overrides)
        drop_audio = overrides.pop("drop_audio", False)
        RunManifest(
            visual_path=data.paths["visual"], text_path=data.paths["text"],
            captions_path=data.paths["captions"],
            audio_path=None if drop_audio else data.paths["audio"],
            labels_path=data.paths["labels"], out_dir=tmp_path / name.replace(" ", "_"),
            config=config, **overrides,
        )


def test_ablation_variants_are_manifest_overrides(ablation):
    allowed = {f.name for f in fields(RunManifest)} | {"drop_audio"}
    variants = ablation.load_variants(ROOT)
    assert variants
    for name, overrides in variants:
        assert set(overrides) <= allowed, name


def test_ablation_findings_rows_exist(ablation):
    # findings() looks its rows up by variant name: a renamed variant raises
    # KeyError here
    rows = [
        {"variant": name, "auc_roc": 0.5, "average_precision": 0.5, "scores_sha256": name}
        for name, _ in ablation.load_variants(ROOT)
    ]
    ablation.findings(rows)


def _readline(proc, timeout=30.0):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    assert ready, f"no line from {proc.args} within {timeout} s"
    return proc.stdout.readline()


def test_scorer_process_serves_and_counts():
    proc = subprocess.Popen(
        [sys.executable, str(PERFBENCH / "scorer_proc.py"), "--prompt-dim", "4", "--emb-dim", "3",
         "--seed", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        verb, endpoint, _echo = _readline(proc).split()
        assert verb == "ready"
        q, emb = np.full(4, 0.1), np.array([0.3, -0.2, 0.5])
        with RemoteScorer(endpoint) as remote:
            got = remote.score(q, emb, "a summary")
        assert abs(got - StubScorer(4, 3, seed=1).score(q, emb, "a summary")) < 1e-9
        proc.stdin.write("stats\n")
        proc.stdin.flush()
        stats = json.loads(_readline(proc))
        assert stats["requests"] == 1
        assert stats["non_2xx"] == 0
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert proc.returncode == 0
