"""Domain types, configuration, and dataset validation shared by all pipeline stages.

All floating-point state is float64 internally regardless of on-disk storage;
downstream covariance inversion and the Karcher iteration are sensitive to
rounding. Segment ids are 0-based everywhere, including file formats.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields
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


# Wire encoding of modalities in the binary embedding format.
MODALITY_CODES = {Modality.VISUAL: 0, Modality.AUDIO: 1, Modality.TEXT: 2}
CODE_TO_MODALITY = {v: k for k, v in MODALITY_CODES.items()}


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row-major collection of fixed-dimension vectors for one modality.

    ``data`` is coerced to a read-only float64 array of shape (count, dim).
    Finiteness is a dataset invariant checked by :func:`validate_dataset`,
    not at construction, so that ingested files with bad values produce a
    structured report naming the row.
    """

    data: np.ndarray
    modality: Modality

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


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


@dataclass(frozen=True)
class PipelineConfig:
    """Every numeric knob of the pipeline, with the defaults used throughout.

    ``target_mass`` of ``None`` resolves at run time to 0.1 times the number
    of summaries, encoding the prior rarity of abnormal events. A setting
    annotated ``int`` must be exactly an ``int`` (not a bool, not a float);
    every other setting must be a finite real number: NaN passes no
    comparison, so the range checks alone would let it through.
    """

    curvature: float = 1.0
    visual_weight: float = 0.5
    audio_weight: float = 0.5
    prompt_dim: int = 32
    learning_rate: float = 0.05
    opt_iters: int = 50
    target_mass: Optional[float] = None
    sparsity_weight: float = 1.0
    neighbors: int = 5
    shrinkage: float = 0.1
    ball_eps: float = 1e-5
    seed: int = 0
    window: int = 10
    tangent_scale: float = 0.5
    karcher_tol: float = 1e-10
    karcher_max_iter: int = 200

    def __post_init__(self):
        issues = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in INT_SETTINGS:
                if type(value) is not int:
                    issues.append(f"{f.name} must be an integer, got {value!r}")
            elif value is None and f.default is None:
                continue
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                issues.append(f"{f.name} must be a number, got {value!r}")
            elif not math.isfinite(value):
                issues.append(f"{f.name} must be finite, got {value}")
        if issues:  # the range checks below need finite numbers of the right kind
            raise ValidationError(issues)
        if not self.curvature > 0:
            issues.append(f"curvature must be positive, got {self.curvature}")
        if self.visual_weight < 0 or self.audio_weight < 0:
            issues.append("fusion weights must be non-negative")
        if abs(self.visual_weight + self.audio_weight - 1.0) > 1e-9:
            issues.append(
                f"fusion weights must sum to 1, got {self.visual_weight + self.audio_weight}"
            )
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
        if not 0.0 < self.ball_eps <= 1e-3:
            issues.append(f"ball_eps must lie in (0, 1e-3], got {self.ball_eps}")
        if self.window < 1:
            issues.append("window must be at least 1")
        if not self.tangent_scale > 0:
            issues.append("tangent_scale must be positive")
        if not self.karcher_tol > 0:
            issues.append("karcher_tol must be positive")
        if self.karcher_max_iter < 1:
            issues.append("karcher_max_iter must be at least 1")
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
    """A validated bundle of segments and per-modality embeddings.

    Immutable after validation; safe to share read-only across workers.
    """

    segments: tuple
    embeddings: dict
    n_frames: int = field(default=0)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def has_audio(self) -> bool:
        return Modality.AUDIO in self.embeddings

    @property
    def audio_rows(self) -> np.ndarray:
        """Boolean mask of the segments that carry an audio caption."""
        return np.array([seg.has_audio for seg in self.segments], dtype=bool)

    def matrix(self, modality: Modality) -> EmbeddingMatrix:
        return self.embeddings[modality]


def validate_dataset(segments, embeddings) -> Dataset:
    """Check every type invariant and return an immutable Dataset.

    Raises ValidationError listing all violations at once: shape mismatches,
    non-finite entries (with row index), and segment contiguity breaks (with
    segment index). Visual and text matrices are required; audio is optional.
    Visual and audio rows must have the text rows' dimension: caption
    cleaning and refinement compare visual with text rows, and fusion merges
    text with audio rows.
    """
    issues = []
    segments = tuple(segments)
    n = len(segments)

    for required in (Modality.VISUAL, Modality.TEXT):
        if required not in embeddings:
            issues.append(f"missing required embedding modality '{required.value}'")

    for modality, mat in embeddings.items():
        if not isinstance(mat, EmbeddingMatrix):
            issues.append(f"{modality.value}: expected EmbeddingMatrix, got {type(mat).__name__}")
            continue
        if mat.modality is not modality:
            issues.append(
                f"{modality.value}: matrix tagged '{mat.modality.value}' registered under "
                f"'{modality.value}'"
            )
        if mat.dim < 1:
            issues.append(f"{modality.value}: embedding dimension must be at least 1")
        if mat.count != n:
            issues.append(
                f"{modality.value}: count mismatch, matrix has {mat.count} rows "
                f"but there are {n} segments"
            )
        bad = ~np.isfinite(mat.data)
        if bad.any():
            rows = np.unique(np.nonzero(bad)[0])
            shown = ", ".join(str(r) for r in rows[:5])
            issues.append(f"{modality.value}: non-finite entry in row(s) {shown}")

    text = embeddings.get(Modality.TEXT)
    if isinstance(text, EmbeddingMatrix):
        for modality in (Modality.VISUAL, Modality.AUDIO):
            mat = embeddings.get(modality)
            if isinstance(mat, EmbeddingMatrix) and mat.dim != text.dim:
                issues.append(
                    f"{modality.value}: dimension mismatch, rows have dim {mat.dim} "
                    f"but text rows have dim {text.dim}"
                )

    tiling_issues, n_frames = segment_tiling(segments)
    issues.extend(tiling_issues)
    if issues:
        raise ValidationError(issues)
    return Dataset(segments=segments, embeddings=dict(embeddings), n_frames=n_frames)


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
