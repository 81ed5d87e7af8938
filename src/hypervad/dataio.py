"""On-disk formats: binary embeddings, captions JSONL, label/score CSVs,
key=value config files, and the JSON run report.

Embedding container (little-endian): magic "MMVE", version u32 = 1,
modality u8 (0=visual, 1=audio, 2=text), dim u32, count u32, then
count * dim float32 values row-major. Values are widened to float64 on
load; all other formats are plain UTF-8 text.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import (
    CODE_TO_MODALITY,
    MODALITY_CODES,
    EmbeddingMatrix,
    PipelineConfig,
    SegmentRecord,
    ValidationError,
)

MAGIC = b"MMVE"
VERSION = 1
_HEADER = struct.Struct("<4sIBII")


def write_embeddings(path, matrix: EmbeddingMatrix) -> None:
    payload = matrix.data.astype("<f4").tobytes(order="C")
    header = _HEADER.pack(MAGIC, VERSION, MODALITY_CODES[matrix.modality], matrix.dim, matrix.count)
    Path(path).write_bytes(header + payload)


def read_embeddings(path) -> EmbeddingMatrix:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValidationError(f"{path}: truncated embedding file ({len(raw)} bytes)")
    magic, version, modality_code, dim, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if modality_code not in CODE_TO_MODALITY:
        raise ValidationError(f"{path}: unknown modality code {modality_code}")
    expected = count * dim * 4
    body = raw[_HEADER.size :]
    if len(body) != expected:
        raise ValidationError(
            f"{path}: payload is {len(body)} bytes, header promises {expected}"
        )
    data = np.frombuffer(body, dtype="<f4").reshape(count, dim).astype(np.float64)
    return EmbeddingMatrix(data, CODE_TO_MODALITY[modality_code])


def write_captions(path, segments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segments:
            fh.write(
                json.dumps(
                    {
                        "index": seg.index,
                        "frame_start": seg.frame_start,
                        "frame_end": seg.frame_end,
                        "visual": seg.visual_caption,
                        "audio": seg.audio_caption,
                    }
                )
                + "\n"
            )


def read_captions(path):
    segments = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                segments.append(
                    SegmentRecord(
                        index=int(obj["index"]),
                        frame_start=int(obj["frame_start"]),
                        frame_end=int(obj["frame_end"]),
                        visual_caption=str(obj["visual"]),
                        audio_caption=None if obj.get("audio") is None else str(obj["audio"]),
                    )
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad caption record: {exc}") from exc
    return segments


def write_labels(path, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "label"])
        for frame, label in enumerate(labels):
            writer.writerow([frame, int(label)])


def read_labels(path) -> np.ndarray:
    labels = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if lineno == 1 and row[0] == "frame":
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'frame,label', got {row}")
            try:
                frame, label = int(row[0]), int(row[1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: non-integer field: {exc}") from exc
            if label not in (0, 1):
                raise ValidationError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            if frame != len(labels):
                raise ValidationError(
                    f"{path}:{lineno}: frames must be contiguous from 0, got {frame} "
                    f"at position {len(labels)}"
                )
            labels.append(label)
    return np.asarray(labels, dtype=np.int64)


def write_scores(path, frame_scores) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "score"])
        for frame, score in enumerate(frame_scores):
            writer.writerow([frame, repr(float(score))])


def read_scores(path) -> np.ndarray:
    scores = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if lineno == 1 and row[0] == "frame":
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'frame,score', got {row}")
            try:
                frame, score = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad field: {exc}") from exc
            if not math.isfinite(score):
                raise ValidationError(f"{path}:{lineno}: score must be finite, got {row[1]!r}")
            if frame != len(scores):
                raise ValidationError(f"{path}:{lineno}: frames must be contiguous from 0")
            scores.append(score)
    return np.asarray(scores, dtype=np.float64)


def write_loss_history(path, loss_history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss"])
        for i, loss in enumerate(loss_history):
            writer.writerow([i, repr(float(loss))])


_CONFIG_PARSERS = {
    "curvature": float,
    "visual_weight": float,
    "audio_weight": float,
    "prompt_dim": int,
    "learning_rate": float,
    "opt_iters": int,
    "target_mass": float,
    "sparsity_weight": float,
    "neighbors": int,
    "shrinkage": float,
    "ball_eps": float,
    "seed": int,
    "window": int,
    "tangent_scale": float,
    "karcher_tol": float,
    "karcher_max_iter": int,
}

assert set(_CONFIG_PARSERS) == {f.name for f in fields(PipelineConfig)}


def read_config(path) -> PipelineConfig:
    """Parse a flat key=value file. Unknown keys are hard errors, catching
    typos before a long run."""
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_PARSERS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in overrides:
                raise ValidationError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                overrides[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return PipelineConfig(**overrides)


def write_config(path, config: PipelineConfig) -> None:
    lines = []
    for key in _CONFIG_PARSERS:
        value = getattr(config, key)
        if value is None:
            continue
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
