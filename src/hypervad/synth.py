"""Synthetic dataset generator for desk-scale testing.

Normal segments draw isotropic unit-variance visual embeddings; anomalous
segments sit in one contiguous block, shifted by ``shift`` along a unit
direction derived from the seed (the same direction the stub scorer reads
out, so classes are separable when generator and scorer share a seed). Text
embeddings are a noisy mix of the visual ones, which keeps caption cleaning
class-preserving; captions are templated strings encoding the class.

Generation also computes its own upper-bound oracle: frame-level AUC of the
Mahalanobis distance to the true normal distribution (mean 0, identity
covariance, so the distance is just the norm).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Modality, SegmentRecord, ValidationError, kind_issues, out_dir_issues, seeded_unit_vector
from .dataio import write_captions, write_embeddings, write_labels
from .evaluate import auc_roc

# Correlation between text and visual embeddings of a segment. High enough
# that self-alignment cleaning rarely crosses class boundaries at dim 16.
TEXT_VISUAL_MIX = 0.8

NORMAL_CAPTION = "a person walks through the area near segment {i}"
ANOMALY_CAPTION = "a sudden violent disturbance breaks out near segment {i}"
NORMAL_AUDIO = "faint ambient noise around segment {i}"
ANOMALY_AUDIO = "loud crashing and shouting around segment {i}"


@dataclass(frozen=True)
class SynthResult:
    out_dir: Path
    n_segments: int
    dim: int
    n_anomalous: int
    oracle_auc: float | None
    paths: dict


def gen_synthetic(
    out_dir,
    n_segments: int = 400,
    dim: int = 16,
    anomaly_fraction: float = 0.1,
    shift: float = 6.0,
    seed: int = 0,
    frames_per_segment: int = 16,
    with_audio: bool = False,
) -> SynthResult:
    """Write a complete synthetic dataset and its generation metadata. An
    argument of the wrong kind (by ``core.kind_issues``) or out of range, or
    an ``out_dir`` that cannot be a directory (by ``core.out_dir_issues``),
    raises ValidationError before anything is written."""
    issues = kind_issues(
        dict(n_segments=n_segments, dim=dim, anomaly_fraction=anomaly_fraction, shift=shift, seed=seed,
             frames_per_segment=frames_per_segment, with_audio=with_audio),
        ints={"n_segments", "dim", "seed", "frames_per_segment"}, bools={"with_audio"}) + out_dir_issues(out_dir)
    if issues:
        raise ValidationError(issues)
    if not 0.0 < anomaly_fraction < 1.0:
        raise ValidationError(f"anomaly_fraction must lie in (0, 1), got {anomaly_fraction}")
    if shift < 0:
        raise ValidationError(f"shift must be non-negative, got {shift}")
    if n_segments < 0:
        raise ValidationError("n_segments must be non-negative")
    if dim < 1:
        raise ValidationError("dim must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if frames_per_segment < 1:
        raise ValidationError("frames_per_segment must be at least 1")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    direction = seeded_unit_vector(seed, dim)

    n_anom = int(round(anomaly_fraction * n_segments))
    seg_labels = np.zeros(n_segments, dtype=np.int64)
    if n_anom > 0:
        block_start = int(rng.integers(0, n_segments - n_anom + 1))
        seg_labels[block_start : block_start + n_anom] = 1

    visual = rng.standard_normal((n_segments, dim))
    visual += seg_labels[:, None] * shift * direction[None, :]

    mix = TEXT_VISUAL_MIX
    text = mix * visual + np.sqrt(1.0 - mix * mix) * rng.standard_normal((n_segments, dim))

    segments = []
    for i in range(n_segments):
        template = ANOMALY_CAPTION if seg_labels[i] else NORMAL_CAPTION
        audio_caption = None
        if with_audio:
            audio_caption = (ANOMALY_AUDIO if seg_labels[i] else NORMAL_AUDIO).format(i=i)
        segments.append(
            SegmentRecord(
                index=i,
                frame_start=i * frames_per_segment,
                frame_end=(i + 1) * frames_per_segment - 1,
                visual_caption=template.format(i=i),
                audio_caption=audio_caption,
            )
        )

    frame_labels = np.repeat(seg_labels, frames_per_segment)

    paths = {
        "visual": out_dir / "visual.emb",
        "text": out_dir / "text.emb",
        "captions": out_dir / "captions.jsonl",
        "labels": out_dir / "labels.csv",
        "meta": out_dir / "meta.json",
    }
    write_embeddings(paths["visual"], visual, Modality.VISUAL)
    write_embeddings(paths["text"], text, Modality.TEXT)
    if with_audio:
        audio = rng.standard_normal((n_segments, dim))
        audio += seg_labels[:, None] * shift * direction[None, :]
        paths["audio"] = out_dir / "audio.emb"
        write_embeddings(paths["audio"], audio, Modality.AUDIO)
    write_captions(paths["captions"], segments)
    write_labels(paths["labels"], frame_labels)

    # Upper-bound sanity oracle: distance to the true normal distribution,
    # expanded to frames exactly like pipeline scores are.
    oracle_auc = None
    if 0 < n_anom < n_segments:
        seg_distance = np.linalg.norm(visual, axis=1)
        frame_distance = np.repeat(seg_distance, frames_per_segment)
        oracle_auc = auc_roc(frame_distance, frame_labels)

    meta = {
        "n_segments": n_segments,
        "dim": dim,
        "anomaly_fraction": anomaly_fraction,
        "shift": shift,
        "seed": seed,
        "frames_per_segment": frames_per_segment,
        "with_audio": with_audio,
        "n_anomalous_segments": int(n_anom),
        "text_visual_mix": mix,
        "shift_direction": [float(x) for x in direction],
        "oracle_auc": oracle_auc,
    }
    paths["meta"].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return SynthResult(
        out_dir=out_dir,
        n_segments=n_segments,
        dim=dim,
        n_anomalous=int(n_anom),
        oracle_auc=oracle_auc,
        paths=paths,
    )
