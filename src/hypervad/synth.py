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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import INT64_MAX, Modality, SegmentTable, ValidationError, kind_issues, out_dir_issues, seeded_unit_vector
from .dataio import (FLOAT32_RANGE, float32_rows, write_captions, write_embeddings, write_labels, write_outputs,
                     write_report)
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
    """Write a complete synthetic dataset and its generation metadata. Before
    anything is written, one ValidationError lists every argument of the wrong
    kind (by ``core.kind_issues``) or, if all are of their kind, out of range
    (a frame count ``n_segments * frames_per_segment``, ``frames_per_segment``
    alone for no segments, beyond int64 included), and an ``out_dir`` that
    cannot be a directory (by ``core.out_dir_issues``). A ``shift`` that puts
    an embedding beyond float32's range raises next, also before writing."""
    issues = kind_issues(
        dict(n_segments=n_segments, dim=dim, anomaly_fraction=anomaly_fraction, shift=shift, seed=seed,
             frames_per_segment=frames_per_segment, with_audio=with_audio),
        ints={"n_segments", "dim", "seed", "frames_per_segment"}, bools={"with_audio"})
    if not issues:  # the range checks need numbers of the right kind
        if not 0.0 < anomaly_fraction < 1.0:
            issues.append(f"anomaly_fraction must lie in (0, 1), got {anomaly_fraction}")
        if shift < 0:
            issues.append(f"shift must be non-negative, got {shift}")
        if n_segments < 0:
            issues.append("n_segments must be non-negative")
        if dim < 1:
            issues.append("dim must be at least 1")
        if seed < 0:
            issues.append("seed must be non-negative")
        if frames_per_segment < 1:
            issues.append("frames_per_segment must be at least 1")
        most_frames = INT64_MAX // max(n_segments, 1)  # so that every frame number fits in int64
        if frames_per_segment > most_frames:
            issues.append(f"frames_per_segment must be at most {most_frames} for {n_segments} segments, "
                          f"got {frames_per_segment}")
    issues += out_dir_issues(out_dir)
    if issues:
        raise ValidationError(issues)

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
    embeddings = {Modality.VISUAL: visual, Modality.TEXT: text}
    if with_audio:
        audio = rng.standard_normal((n_segments, dim))
        audio += seg_labels[:, None] * shift * direction[None, :]
        embeddings[Modality.AUDIO] = audio
    for modality, rows in embeddings.items():
        _, row = float32_rows(rows)
        if row is not None:
            raise ValidationError(f"shift {shift} puts {modality.value} row {row} beyond {FLOAT32_RANGE}")

    anomalous = list(enumerate(seg_labels.tolist()))
    audio_captions = [None] * n_segments
    if with_audio:
        audio_captions = [(ANOMALY_AUDIO if a else NORMAL_AUDIO).format(i=i) for i, a in anomalous]
    index = np.arange(n_segments)
    segments = SegmentTable(
        index=index,
        frame_start=index * frames_per_segment,
        frame_end=(index + 1) * frames_per_segment - 1,
        visual=[(ANOMALY_CAPTION if a else NORMAL_CAPTION).format(i=i) for i, a in anomalous],
        audio=audio_captions,
    )

    # Upper-bound sanity oracle: distance to the true normal distribution.
    # Its frame-level AUC is the segments' AUC: repeating every segment's
    # score and label f times scales both 2U and n_pos * n_neg by f^2.
    oracle_auc = None
    if 0 < n_anom < n_segments:
        oracle_auc = auc_roc(np.linalg.norm(visual, axis=1), seg_labels)

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
    files = [(f"{modality.value}.emb", write_embeddings, rows, modality) for modality, rows in embeddings.items()]
    files += [("captions.jsonl", write_captions, segments),
              ("labels.csv", write_labels, np.repeat(seg_labels, frames_per_segment)),
              ("meta.json", write_report, meta)]
    out_dir = Path(out_dir)
    write_outputs(out_dir, files)
    paths = {name.split(".")[0]: out_dir / name for name, *_ in files}

    return SynthResult(
        out_dir=out_dir,
        n_segments=n_segments,
        dim=dim,
        n_anomalous=int(n_anom),
        oracle_auc=oracle_auc,
        paths=paths,
    )
