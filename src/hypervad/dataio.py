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

from .core import INT_SETTINGS, Modality, PipelineConfig, SegmentRecord, ValidationError

MAGIC = b"MMVE"
VERSION = 1
_HEADER = struct.Struct("<4sIBII")
# The header's modality byte, as listed in the module docstring.
MODALITY_CODES = {Modality.VISUAL: 0, Modality.AUDIO: 1, Modality.TEXT: 2}


def write_embeddings(path, data: np.ndarray, modality: Modality) -> None:
    """Write an (n, d) array as a ``modality`` embedding file. A finite
    value beyond float32's range is a ValueError, and no file is written."""
    data = np.asarray(data, dtype=np.float64)
    count, dim = data.shape
    with np.errstate(over="ignore"):
        values = data.astype("<f4")
    overflow = np.isinf(values) & np.isfinite(data)
    if overflow.any():
        row = int(np.argmax(overflow.any(axis=1)))
        raise ValueError(
            f"{path}: row {row} has a value beyond float32's range "
            f"(±{float(np.finfo(np.float32).max):.4g})"
        )
    header = _HEADER.pack(MAGIC, VERSION, MODALITY_CODES[modality], dim, count)
    Path(path).write_bytes(header + values.tobytes())


def read_embeddings(path, modality: Modality) -> np.ndarray:
    """The (count, dim) float64 array of an embedding file whose header
    names ``modality``; any other modality code is a ValidationError."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValidationError(f"{path}: truncated embedding file ({len(raw)} bytes)")
    magic, version, modality_code, dim, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if modality_code != MODALITY_CODES[modality]:
        raise ValidationError(
            f"{path}: header has modality code {modality_code}, but {modality.value} "
            f"embeddings need code {MODALITY_CODES[modality]}"
        )
    expected = count * dim * 4
    body = raw[_HEADER.size :]
    if len(body) != expected:
        raise ValidationError(
            f"{path}: payload is {len(body)} bytes, header promises {expected}"
        )
    return np.frombuffer(body, dtype="<f4").reshape(count, dim).astype(np.float64)


# One row per caption-record key: JSON key, SegmentRecord field, required
# type, and whether the key may be null or absent. Types are checked exactly
# (``type(v) is int``), so a bool, a float or a list never passes as a value.
_CAPTION_FIELDS = (
    ("index", "index", int, False),
    ("frame_start", "frame_start", int, False),
    ("frame_end", "frame_end", int, False),
    ("visual", "visual_caption", str, False),
    ("audio", "audio_caption", str, True),
)


def write_captions(path, segments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segments:
            record = {key: getattr(seg, name) for key, name, _, _ in _CAPTION_FIELDS}
            fh.write(json.dumps(record) + "\n")


def _caption_record(obj) -> SegmentRecord:
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    values = {}
    for key, name, kind, optional in _CAPTION_FIELDS:
        if key not in obj and not optional:
            raise ValueError(f"missing key {key!r}")
        value = obj.get(key)
        if type(value) is not kind and not (optional and value is None):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return SegmentRecord(**values)


def read_captions(path):
    segments = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                segments.append(_caption_record(json.loads(line)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad caption record: {exc}") from exc
    return segments


def _write_frame_csv(path, header, values, fmt) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([i, fmt(value)] for i, value in enumerate(values))


def _read_frame_csv(path, column, parse) -> list:
    """Rows ``frame,<column>`` after an optional header, frames contiguous
    from 0. ``parse`` turns a field into a value or raises ValueError."""
    values = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0] == "frame"):
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'frame,{column}', got {row}")
            try:
                frame, value = int(row[0]), parse(row[1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            if frame != len(values):
                raise ValidationError(
                    f"{path}:{lineno}: frames must be contiguous from 0, got {frame} "
                    f"at position {len(values)}"
                )
            values.append(value)
    return values


def _label(field: str) -> int:
    label = int(field)
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


def _score(field: str) -> float:
    score = float(field)
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {field!r}")
    return score


def _full_precision(value) -> str:
    return repr(float(value))


def write_labels(path, labels) -> None:
    _write_frame_csv(path, ("frame", "label"), labels, int)


def read_labels(path) -> np.ndarray:
    return np.asarray(_read_frame_csv(path, "label", _label), dtype=np.int64)


def write_scores(path, frame_scores) -> None:
    _write_frame_csv(path, ("frame", "score"), frame_scores, _full_precision)


def read_scores(path) -> np.ndarray:
    return np.asarray(_read_frame_csv(path, "score", _score), dtype=np.float64)


def write_loss_history(path, loss_history) -> None:
    _write_frame_csv(path, ("iteration", "loss"), loss_history, _full_precision)


_CONFIG_PARSERS = {
    f.name: int if f.name in INT_SETTINGS else float for f in fields(PipelineConfig)
}


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
    lines = [f"{key} = {value}" for key, value in config.as_dict().items() if value is not None]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
