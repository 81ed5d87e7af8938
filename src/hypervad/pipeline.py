"""End-to-end orchestration: ingest files, run the stage chain
(clean, fuse, summarize, optimize, refine, expand, evaluate), and write
scores, loss history, and a JSON report.

Stage toggles mirror the component ablation grid: caption cleaning on/off,
hyperbolic vs euclidean fusion, prompt optimizer on/off, refinement on/off,
audio present or absent (driven by the manifest), stub vs remote scorer.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import captions as cap
from . import dataio, fusion, refine
from .core import (
    Modality,
    PipelineConfig,
    StageError,
    ValidationError,
    kind_issues,
    out_dir_issues,
    validate_dataset,
)
from .evaluate import EvalReport, build_report, expand_to_frames
from .prompt_opt import PromptState, StubScorer, optimize_prompt, resolve_target_mass
from .remote import RemoteScorer, split_endpoint

SCORES_FILE = "scores.csv"
LOSS_FILE = "loss_history.csv"
REPORT_FILE = "report.json"


@dataclass
class RunManifest:
    """Input paths, output directory, resolved config, and stage toggles."""

    visual_path: Path
    text_path: Path
    captions_path: Path
    out_dir: Path
    audio_path: Optional[Path] = None
    labels_path: Optional[Path] = None
    config: PipelineConfig = field(default_factory=PipelineConfig)
    cleaning: bool = True
    fusion_mode: str = "hyperbolic"  # or "euclidean"
    optimizer: bool = True
    refinement: bool = True
    scorer: str = "stub"  # or "remote"
    endpoint: Optional[str] = None

    def __post_init__(self):
        toggles = {"cleaning": self.cleaning, "optimizer": self.optimizer, "refinement": self.refinement}
        issues = kind_issues(toggles, bools=toggles) + out_dir_issues(self.out_dir)
        if issues:
            raise ValidationError(issues)
        if self.fusion_mode not in ("hyperbolic", "euclidean"):
            raise ValidationError(f"fusion_mode must be hyperbolic or euclidean, got {self.fusion_mode!r}")
        if self.scorer not in ("stub", "remote"):
            raise ValidationError(f"scorer must be stub or remote, got {self.scorer!r}")
        if self.scorer == "remote":
            try:
                split_endpoint(self.endpoint)
            except ValueError as exc:
                raise ValidationError(f"remote scorer: {exc}") from exc
        elif self.endpoint is not None:  # the stub would run with the endpoint unused
            raise ValidationError(f"an endpoint needs scorer 'remote', got scorer {self.scorer!r}")

    def toggles(self) -> dict:
        return {
            "cleaning": self.cleaning,
            "fusion": self.fusion_mode,
            "optimizer": self.optimizer,
            "refinement": self.refinement,
            "scorer": self.scorer,
            "audio": self.audio_path is not None,
        }


def require_files(*named_paths) -> None:
    """Raise ValidationError for the first (name, path) pair whose path is
    set but names no file."""
    for name, path in named_paths:
        if path is not None and not Path(path).is_file():
            raise ValidationError(f"{name} file not found: {path}")


def load_dataset(manifest: RunManifest):
    """Fail-fast ingestion: every referenced file must exist and parse, and
    the assembled dataset must validate, before any stage runs."""
    require_files(
        ("visual embeddings", manifest.visual_path),
        ("text embeddings", manifest.text_path),
        ("captions", manifest.captions_path),
        ("audio embeddings", manifest.audio_path),
        ("labels", manifest.labels_path),
    )
    visual = dataio.read_embeddings(manifest.visual_path, Modality.VISUAL)
    text = dataio.read_embeddings(manifest.text_path, Modality.TEXT)
    audio = None
    if manifest.audio_path is not None:
        audio = dataio.read_embeddings(manifest.audio_path, Modality.AUDIO)
    segments = dataio.read_captions(manifest.captions_path)
    dataset = validate_dataset(segments, visual, text, audio)

    labels = None
    if manifest.labels_path is not None:
        labels = dataio.read_labels(manifest.labels_path)
        if labels.size != dataset.n_frames:
            raise ValidationError(
                f"labels cover {labels.size} frames but segments cover {dataset.n_frames}"
            )
    return dataset, labels


@contextmanager
def _open_scorer(manifest: RunManifest, emb_dim: int):
    """The configured scorer; a remote scorer's connection is closed when
    the block ends, whether or not it failed."""
    if manifest.scorer == "remote":
        with RemoteScorer(manifest.endpoint) as scorer:
            yield scorer
    else:
        yield StubScorer(manifest.config.prompt_dim, emb_dim, manifest.config.seed)


@dataclass
class RunResult:
    segment_scores: np.ndarray
    frame_scores: np.ndarray
    eval_report: Optional[EvalReport]
    prompt_state: PromptState
    report: dict
    out_dir: Path


@contextmanager
def _stage(name: str):
    """Run one stage; any failure other than StageError or ValidationError
    is re-raised as StageError(name, ...) chained from the original."""
    try:
        yield
    except (StageError, ValidationError):
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def run_pipeline(manifest: RunManifest) -> RunResult:
    """Execute the configured stages and write outputs to the manifest's
    output directory. Output files appear only after every stage succeeded;
    a stage failure leaves no partial outputs behind."""
    dataset, labels = load_dataset(manifest)
    config = manifest.config
    n = dataset.n_segments

    with _stage("clean"):
        raw_captions = [seg.visual_caption for seg in dataset.segments]
        if manifest.cleaning:
            caption_set = cap.clean_captions(raw_captions, dataset.visual, dataset.text)
        else:
            caption_set = cap.identity_captions(raw_captions)

    with _stage("fuse"):
        fused = None
        if manifest.fusion_mode == "hyperbolic":
            fused = fusion.fuse_sequence(dataset, config)
        else:
            fusion.fuse_sequence_euclidean(dataset, config)  # no scorer reads it yet

    with _stage("summarize"):
        audio_caps = [seg.audio_caption for seg in dataset.segments] if dataset.has_audio else None
        summaries = cap.build_summaries(caption_set, dataset.text, audio_caps, config.window)
        karcher_failures = []  # no scorer reads the window points yet (ROADMAP item 1)
        if fused is not None:
            _, karcher_failures = fusion.window_fused_points(fused, config)

    with _stage("score"), _open_scorer(manifest, dataset.text.shape[1]) as scorer:
        state, window_scores = optimize_prompt(
            np.zeros(config.prompt_dim),
            summaries,
            scorer,
            config if manifest.optimizer else replace(config, opt_iters=0),
        )

    with _stage("refine"):
        # With one neighbour (self) the weighted mean is the score itself.
        k = min(config.neighbors, summaries.n_windows)
        if manifest.refinement and k > 1:
            stats = refine.fit_visual_stats(dataset.visual, config.shrinkage)
            refined = refine.refine_scores(window_scores, summaries.embeddings, stats, k)
        else:
            refined = np.asarray(window_scores, dtype=np.float64)

    with _stage("expand"):
        segment_scores = refined[summaries.segment_to_window]
        frame_scores = expand_to_frames(segment_scores, dataset.segments)

    with _stage("evaluate"):
        eval_report = build_report(frame_scores, labels) if labels is not None else None

    report = {
        "config": config.as_dict(),
        "toggles": manifest.toggles(),
        "active_components": sorted(
            name
            for name, on in [
                ("audio_captions", dataset.has_audio),
                ("caption_cleaning", manifest.cleaning),
                ("hyperbolic_fusion", manifest.fusion_mode == "hyperbolic"),
                ("euclidean_fusion", manifest.fusion_mode == "euclidean"),
                ("prompt_optimizer", manifest.optimizer),
                ("mahalanobis_refinement", manifest.refinement),
            ]
            if on
        ),
        "dataset": {
            "segments": n,
            "frames": dataset.n_frames,
            "windows": summaries.n_windows,
            "has_audio": dataset.has_audio,
            "zero_norm_rows": [list(r) for r in caption_set.zero_norm_rows],
        },
        "optimization": {
            "iterations": state.iteration,
            "initial_loss": state.loss_history[0],
            "final_loss": state.loss_history[-1],
            "monotone_fraction": state.monotone_fraction,
            "target_mass": resolve_target_mass(config.target_mass, summaries.n_windows),
        },
        "fusion": {
            "karcher_failures": karcher_failures,
        },
        "metrics": eval_report.as_dict() if eval_report is not None else None,
    }

    with _stage("write"):
        out_dir = Path(manifest.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Each file goes to a temp name first; the three replace the old
        # outputs only after every write succeeded.
        staged = []
        try:
            for name, writer in (
                (SCORES_FILE, lambda p: dataio.write_scores(p, frame_scores)),
                (LOSS_FILE, lambda p: dataio.write_loss_history(p, state.loss_history)),
                (REPORT_FILE, lambda p: dataio.write_report(p, report)),
            ):
                tmp = out_dir / f".{name}.{os.getpid()}.tmp"
                staged.append((tmp, out_dir / name))
                writer(tmp)
            for tmp, path in staged:
                os.replace(tmp, path)
        finally:
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)

    return RunResult(
        segment_scores=segment_scores,
        frame_scores=frame_scores,
        eval_report=eval_report,
        prompt_state=state,
        report=report,
        out_dir=out_dir,
    )


def eval_only(scores_path, labels_path) -> EvalReport:
    """Score a written scores CSV against a labels CSV."""
    require_files(("scores", scores_path), ("labels", labels_path))
    scores = dataio.read_scores(scores_path)
    labels = dataio.read_labels(labels_path)
    if scores.size != labels.size:
        raise ValidationError(
            f"length mismatch: {scores.size} scores vs {labels.size} labels"
        )
    return build_report(scores, labels)
