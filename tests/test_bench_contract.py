"""The benchmark tracer wraps package functions by the names their callers
look them up by, its ablation table runs the variants of
scripts/run_synthetic_experiment.py, and its remote workload serves the stub
scorer through perfbench/scorer_proc.py. A refactor that moves or renames one
of them must fail here, not in a traced benchmark run."""

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
from hypervad.pipeline import RunManifest, run_pipeline
from hypervad.prompt_opt import StubScorer
from hypervad.remote import RemoteScorer
from hypervad.synth import gen_synthetic

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
    assert metrics["hyperbolic.karcher_calls"] > 0
    n_windows = -(-data.n_segments // window)
    assert metrics["prompt_opt.score_all_calls"] == n_windows * (opt_iters + 1)


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
