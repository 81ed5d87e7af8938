"""End-to-end orchestration: ``preflight`` loads the input files and fits
what refinement needs from them, ``score_video`` runs the stages clean,
fuse, summarize, score, refine, expand and evaluate on the loaded video, and
the write stage writes scores, loss history and a JSON report.

Stage toggles mirror the component ablation grid: caption cleaning on/off,
hyperbolic vs euclidean fusion, prompt optimizer on/off, refinement on/off,
audio present or absent (driven by the manifest), stub vs remote scorer.
``ablate`` scores one loaded video under each row of that grid.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
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

SCORES_FILE = "scores.csv"
LOSS_FILE = "loss_history.csv"
REPORT_FILE = "report.json"


@dataclass
class RunManifest:
    """Input paths, output directory, config and stage toggles; one ValidationError lists every bad field."""

    visual_path: Path
    text_path: Path
    captions_path: Path
    out_dir: Optional[Path] = None  # None: nothing to write, as for validate
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
        issues = kind_issues(toggles, bools=toggles)
        issues += out_dir_issues(self.out_dir) if self.out_dir is not None else []
        paths = {"visual_path": self.visual_path, "text_path": self.text_path,
                 "captions_path": self.captions_path, "audio_path": self.audio_path,
                 "labels_path": self.labels_path}
        issues += [f"{name} must be a path, got {path!r}" for name, path in paths.items()
                   if not isinstance(path, (str, os.PathLike))
                   and not (path is None and name in ("audio_path", "labels_path"))]
        if not isinstance(self.config, PipelineConfig):
            issues.append(f"config must be a PipelineConfig, got {self.config!r}")
        if self.fusion_mode not in ("hyperbolic", "euclidean"):
            issues.append(f"fusion_mode must be hyperbolic or euclidean, got {self.fusion_mode!r}")
        if self.scorer not in ("stub", "remote"):
            issues.append(f"scorer must be stub or remote, got {self.scorer!r}")
        if self.scorer == "remote":
            from .remote import split_endpoint

            try:
                split_endpoint(self.endpoint)
            except ValueError as exc:
                issues.append(f"remote scorer: {exc}")
        elif self.endpoint is not None:  # the stub would run with the endpoint unused
            issues.append(f"an endpoint needs scorer 'remote', got scorer {self.scorer!r}")
        if issues:
            raise ValidationError(issues)


def _read(issues: list, read, path, *args):
    """``read(path, *args)``, or None with the issues of its ValidationError
    added to ``issues``."""
    try:
        return read(path, *args)
    except ValidationError as exc:
        issues += exc.issues
        return None


def load_dataset(manifest: RunManifest):
    """Fail-fast ingestion: every referenced file must exist and parse, and
    the assembled dataset must validate, before any stage runs. One
    ValidationError lists every file that is missing or does not parse
    (visual, text, audio, captions, labels), else the dataset's issues."""
    issues, audio, labels = [], None, None
    visual = _read(issues, dataio.read_embeddings, manifest.visual_path, Modality.VISUAL)
    text = _read(issues, dataio.read_embeddings, manifest.text_path, Modality.TEXT)
    if manifest.audio_path is not None:
        audio = _read(issues, dataio.read_embeddings, manifest.audio_path, Modality.AUDIO)
    segments = _read(issues, dataio.read_captions, manifest.captions_path)
    if manifest.labels_path is not None:
        labels = _read(issues, dataio.read_labels, manifest.labels_path)
    if issues:
        raise ValidationError(issues)

    dataset = validate_dataset(segments, visual, text, audio)
    if labels is not None and labels.size != dataset.n_frames:
        raise ValidationError(
            f"labels cover {labels.size} frames but segments cover {dataset.n_frames}"
        )
    return dataset, labels


def preflight(manifest: RunManifest):
    """Every check of the input files that ``run_pipeline`` makes, before
    its first stage; writes nothing and opens no scorer. Returns (dataset,
    labels, stats): the visual statistics refinement weighs neighbours by,
    or None when it is off or each window's only neighbour is itself."""
    dataset, labels = load_dataset(manifest)
    config, stats = manifest.config, None
    n_windows = len(cap.window_slices(dataset.n_segments, config.window))
    if manifest.refinement and min(config.neighbors, n_windows) > 1:
        try:
            stats = refine.fit_visual_stats(dataset.visual, config.shrinkage)
        except ValueError as exc:
            raise ValidationError(f"visual embeddings {manifest.visual_path}: {exc}") from exc
    return dataset, labels, stats


def _open_scorer(manifest: RunManifest, emb_dim: int):
    """The configured scorer as a context manager; a remote scorer's
    connection is closed when the block ends, whether or not it failed."""
    if manifest.scorer == "remote":
        from .remote import RemoteScorer

        return RemoteScorer(manifest.endpoint)
    return nullcontext(StubScorer(manifest.config.prompt_dim, emb_dim, manifest.config.seed))


@dataclass
class RunResult:
    segment_scores: np.ndarray
    frame_scores: np.ndarray
    eval_report: Optional[EvalReport]
    prompt_state: PromptState
    report: dict


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


def score_video(dataset, labels, stats, manifest: RunManifest, scorer) -> RunResult:
    """Run the stages clean to evaluate on what ``preflight`` returned with
    ``scorer`` (refining only if ``stats`` is not None) and build the report
    from the manifest's config and toggles; writes nothing."""
    config = manifest.config

    with _stage("clean"):
        raw_captions = dataset.segments.visual
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
        audio_caps = dataset.segments.audio if dataset.has_audio else None
        summaries = cap.build_summaries(caption_set, dataset.text, audio_caps, config.window)
        karcher_failures = []  # no scorer reads the window points yet (ROADMAP item 1)
        if fused is not None:
            _, karcher_failures = fusion.window_fused_points(fused, config)

    with _stage("score"):
        state, window_scores = optimize_prompt(
            np.zeros(config.prompt_dim),
            summaries,
            scorer,
            config if manifest.optimizer else replace(config, opt_iters=0),
        )

    with _stage("refine"):
        refined = np.asarray(window_scores, dtype=np.float64)
        if stats is not None:
            k = min(config.neighbors, summaries.n_windows)
            refined = refine.refine_scores(window_scores, summaries.embeddings, stats, k)

    with _stage("expand"):
        segment_scores = refined[summaries.segment_to_window]
        frame_scores = expand_to_frames(segment_scores, dataset.segments)

    with _stage("evaluate"):
        eval_report = build_report(frame_scores, labels) if labels is not None else None

    report = {
        "config": config.as_dict(),
        "toggles": {
            "cleaning": manifest.cleaning,
            "fusion": manifest.fusion_mode,
            "optimizer": manifest.optimizer,
            "refinement": manifest.refinement,
            "scorer": getattr(scorer, "name", type(scorer).__name__),
            "audio": dataset.has_audio,
        },
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
            "segments": dataset.n_segments,
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
    return RunResult(
        segment_scores=segment_scores,
        frame_scores=frame_scores,
        eval_report=eval_report,
        prompt_state=state,
        report=report,
    )


def run_pipeline(manifest: RunManifest) -> RunResult:
    """Preflight the manifest, score its video with the configured scorer
    and write outputs to its output directory, only after every stage has
    succeeded and as one set (``dataio.write_outputs``, the report last)."""
    if manifest.out_dir is None:
        raise ValidationError("run_pipeline needs an out_dir to write to, got None")
    dataset, labels, stats = preflight(manifest)
    with _open_scorer(manifest, dataset.text.shape[1]) as scorer:
        result = score_video(dataset, labels, stats, manifest, scorer)

    with _stage("write"):
        dataio.write_outputs(manifest.out_dir, [
            (SCORES_FILE, dataio.write_scores, result.frame_scores),
            (LOSS_FILE, dataio.write_loss_history, result.prompt_state.loss_history),
            (REPORT_FILE, dataio.write_report, result.report),
        ])
    return result


# The component ablation: each variant's name and the manifest fields it
# sets; "drop_audio" scores the video without its audio rows.
ABLATION_VARIANTS = [
    ("full pipeline", {}),
    ("no caption cleaning", {"cleaning": False}),
    ("euclidean fusion", {"fusion_mode": "euclidean"}),
    ("no prompt optimizer", {"optimizer": False}),
    ("no refinement", {"refinement": False}),
    ("visual only", {"drop_audio": True}),
]


def ablate(manifest: RunManifest) -> list:
    """Score the manifest's video once per ``ABLATION_VARIANTS`` row, each
    as ``run_pipeline`` would with that row's changes, but from one
    ``preflight`` and with one scorer; writes nothing. Returns a (name,
    RunResult) pair per variant."""
    dataset, labels, stats = preflight(manifest)
    results = []
    with _open_scorer(manifest, dataset.text.shape[1]) as scorer:
        for name, overrides in ABLATION_VARIANTS:
            overrides = dict(overrides)
            video = replace(dataset, audio=None) if overrides.pop("drop_audio", False) else dataset
            variant = replace(manifest, **overrides)
            refined = stats if variant.refinement else None
            results.append((name, score_video(video, labels, refined, variant, scorer)))
    return results


def eval_only(scores_path, labels_path) -> EvalReport:
    """Score a written scores CSV against a labels CSV; one ValidationError
    lists the issues of both files, scores first."""
    issues = []
    scores = _read(issues, dataio.read_scores, scores_path)
    labels = _read(issues, dataio.read_labels, labels_path)
    if issues:
        raise ValidationError(issues)
    if scores.size != labels.size:
        raise ValidationError(
            f"length mismatch: {scores.size} scores vs {labels.size} labels"
        )
    return build_report(scores, labels)
