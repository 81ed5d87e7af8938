"""Domain types, configuration, and dataset validation shared by all pipeline stages.

All floating-point state is float64 internally regardless of on-disk storage;
downstream covariance inversion and the Karcher iteration are sensitive to
rounding. Segment ids are 0-based everywhere, including file formats.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Input data or configuration violates an invariant.

    Carries a list of human-readable issue strings, each naming the offending
    segment, modality, or row.
    """

    def __init__(self, issues):
        if isinstance(issues, str):
            issues = [issues]
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class StageError(PipelineError):
    """A pipeline stage aborted. Carries the stage name for error reporting."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class TransportError(PipelineError):
    """Remote scorer transport failure (unreachable endpoint, bad response)."""


class Modality(enum.Enum):
    VISUAL = "visual"
    AUDIO = "audio"
    TEXT = "text"


@dataclass(frozen=True)
class SegmentRecord:
    """One temporal segment: inclusive frame range plus its captions."""

    index: int
    frame_start: int
    frame_end: int
    visual_caption: str
    audio_caption: Optional[str] = None

    @property
    def has_audio(self) -> bool:
        return self.audio_caption is not None

    @property
    def n_frames(self) -> int:
        return self.frame_end - self.frame_start + 1


def finite_real(value) -> bool:
    """Whether ``value`` is an ``int`` or ``float`` (float64 is one), not a
    bool, finite as a float64: NaN, the infinities and an int beyond float64
    are not."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large to convert
        return False


def kind_issues(values: dict, ints=(), bools=()) -> list:
    """One issue per value of the wrong kind, in order. A name in ``ints``
    needs exactly an ``int`` and one in ``bools`` exactly a ``bool`` (a
    float or numpy scalar is neither). Any other needs a :func:`finite_real`:
    a range check such as ``x < 0`` would let NaN through, and a Fraction or
    float32 fails later."""
    issues = []
    for name, value in values.items():
        if name in ints:
            if type(value) is not int:
                issues.append(f"{name} must be an integer, got {value!r}")
        elif name in bools:
            if type(value) is not bool:
                issues.append(f"{name} must be a bool, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            issues.append(f"{name} must be a number, got {value!r}")
        elif not finite_real(value):
            issues.append(f"{name} must be finite, got {value}")
    return issues


def out_dir_issues(out_dir) -> list:
    """The issue, if any, that would stop ``out_dir`` from being made and
    written as a directory: it must be a path that names a directory or
    nothing, and its nearest existing ancestor must be a directory."""
    try:
        path = Path(out_dir)
    except TypeError:
        return [f"output directory must be a path, got {out_dir!r}"]
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    return [] if nearest.is_dir() else [f"output directory {path} is unusable: {nearest} is not a directory"]


@dataclass(frozen=True)
class PipelineConfig:
    """The method's settings, with the defaults used throughout.

    ``audio_weight`` is the audio share of a fused segment, the visual
    share ``1 - audio_weight``. ``target_mass`` of ``None`` resolves at run
    time to 0.1 times the number of summaries, encoding the prior rarity of
    abnormal events. A setting annotated ``int`` must be exactly an ``int``;
    every other setting must be a finite real number, by :func:`kind_issues`.
    """

    curvature: float = 1.0
    audio_weight: float = 0.5
    prompt_dim: int = 32
    learning_rate: float = 0.05
    opt_iters: int = 50
    target_mass: Optional[float] = None
    sparsity_weight: float = 1.0
    neighbors: int = 5
    shrinkage: float = 0.1
    seed: int = 0
    window: int = 10

    def __post_init__(self):
        values = {k: v for k, v in self.as_dict().items() if v is not None or k != "target_mass"}
        issues = kind_issues(values, ints=INT_SETTINGS)
        if issues:  # the range checks below need finite numbers of the right kind
            raise ValidationError(issues)
        if not self.curvature > 0:
            issues.append(f"curvature must be positive, got {self.curvature}")
        if not 0.0 <= self.audio_weight <= 1.0:
            issues.append(f"audio_weight must lie in [0, 1], got {self.audio_weight}")
        if self.prompt_dim < 1:
            issues.append("prompt_dim must be a positive integer")
        if not self.learning_rate > 0:
            issues.append("learning_rate must be positive")
        if self.opt_iters < 0:
            issues.append("opt_iters must be non-negative")
        if self.target_mass is not None and self.target_mass < 0:
            issues.append("target_mass must be non-negative")
        if self.sparsity_weight < 0:
            issues.append("sparsity_weight must be non-negative")
        if self.neighbors < 1:
            issues.append("neighbors must be at least 1")
        if self.seed < 0:
            issues.append("seed must be non-negative")
        if not 0.0 <= self.shrinkage <= 1.0:
            issues.append("shrinkage must lie in [0, 1]")
        if self.window < 1:
            issues.append("window must be at least 1")
        if issues:
            raise ValidationError(issues)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# The settings annotated int; read_config parses them with int(), the rest with float().
INT_SETTINGS = frozenset(
    name for name, hint in get_type_hints(PipelineConfig).items() if hint is int
)


@dataclass(frozen=True)
class Dataset:
    """A validated bundle of segments and their (n, d) embedding arrays, one
    row per segment; ``audio`` is None when the video has no audio.

    The arrays are read-only views, so no stage can write to them; safe to
    share read-only across workers.
    """

    segments: tuple
    visual: np.ndarray
    text: np.ndarray
    audio: Optional[np.ndarray] = None
    n_frames: int = 0

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def has_audio(self) -> bool:
        return self.audio is not None

    @property
    def audio_rows(self) -> np.ndarray:
        """Boolean mask of the segments that carry an audio caption."""
        return np.array([seg.has_audio for seg in self.segments], dtype=bool)


def validate_dataset(segments, visual, text, audio=None) -> Dataset:
    """Check every type invariant and return an immutable Dataset.

    Raises ValidationError listing all violations at once: shape mismatches,
    non-finite entries (with row index), and segment contiguity breaks (with
    segment index). Each array must be 2-D with one row per segment. Visual
    and audio rows must have the text rows' dimension: caption cleaning and
    refinement compare visual with text rows, and fusion merges text with
    audio rows. The Dataset holds read-only float64 views of the arrays.
    """
    issues = []
    segments = tuple(segments)
    n = len(segments)
    arrays = {"visual": visual, "text": text}
    if audio is not None:
        arrays["audio"] = audio

    for name, data in arrays.items():
        data = np.ascontiguousarray(data, dtype=np.float64).view()
        data.flags.writeable = False
        arrays[name] = data
        if data.ndim != 2:
            issues.append(f"{name}: embeddings must be 2-D, got shape {data.shape}")
            continue
        count, dim = data.shape
        if dim < 1:
            issues.append(f"{name}: embedding dimension must be at least 1")
        if count != n:
            issues.append(
                f"{name}: count mismatch, matrix has {count} rows but there are {n} segments"
            )
        bad = ~np.isfinite(data)
        if bad.any():
            rows = np.unique(np.nonzero(bad)[0])
            shown = ", ".join(str(r) for r in rows[:5])
            issues.append(f"{name}: non-finite entry in row(s) {shown}")

    text = arrays["text"]
    if text.ndim == 2:
        for name in ("visual", "audio"):
            data = arrays.get(name)
            if data is not None and data.ndim == 2 and data.shape[1] != text.shape[1]:
                issues.append(
                    f"{name}: dimension mismatch, rows have dim {data.shape[1]} "
                    f"but text rows have dim {text.shape[1]}"
                )

    tiling_issues, n_frames = segment_tiling(segments)
    issues.extend(tiling_issues)
    if issues:
        raise ValidationError(issues)
    return Dataset(segments=segments, n_frames=n_frames, **arrays)


def segment_tiling(segments):
    """Check that the segments tile frames 0..n_frames-1 in order: segment i
    has index i, frame_start <= frame_end, and starts one frame after
    segment i-1 ends. Returns (issues, n_frames), one issue per violation."""
    issues = []
    expected_start = 0
    for i, seg in enumerate(segments):
        if seg.index != i:
            issues.append(f"segment {i}: index field is {seg.index}, expected {i}")
        if seg.frame_start > seg.frame_end:
            issues.append(
                f"segment {i}: frame_start {seg.frame_start} > frame_end {seg.frame_end}"
            )
            continue
        if seg.frame_start != expected_start:
            issues.append(
                f"segment {i}: non-contiguous, starts at frame {seg.frame_start} "
                f"but previous segment ended at {expected_start - 1}"
            )
        expected_start = seg.frame_end + 1
    return issues, expected_start


def seeded_unit_vector(seed: int, dim: int) -> np.ndarray:
    """Deterministic unit vector for a (seed, dim) pair.

    The synthetic generator draws its anomaly shift direction from this, and
    the stub scorer draws its embedding readout vector from it, so a shared
    seed aligns the two by construction.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:  # astronomically unlikely; regenerate deterministically
        v = np.ones(dim)
        norm = float(np.linalg.norm(v))
    return v / norm
