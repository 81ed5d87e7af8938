"""Project caption embeddings into the Poincare ball and fuse modalities.

Each embedding row is L2-normalized and scaled by the constant
``TANGENT_SCALE`` (0.5, not a setting) before the exponential map so tangent
norms stay well inside tanh's non-saturating range. A segment without audio
takes the unimodal branch, which is exactly exp_0 of the text tangent. A
segment with audio takes the weighted geodesic mean of its text and audio
points, which for two points is the closed form exp_x(w_aud log_x(y)).
Neither iterates, and both run on the (n, d) arrays of all segments at once.
"""

from __future__ import annotations

import numpy as np

from .captions import window_stacks
from .core import Dataset, PipelineConfig
from .hyperbolic import exp_map_origin, geodesic_point, weighted_geodesic_mean

TANGENT_SCALE = 0.5


def prepare_tangent(e: np.ndarray) -> np.ndarray:
    """L2-normalize rows then scale by TANGENT_SCALE; zero rows stay zero."""
    e = np.asarray(e, dtype=np.float64)
    norm = np.linalg.norm(e, axis=-1, keepdims=True)
    return e * (TANGENT_SCALE / np.where(norm == 0.0, 1.0, norm))


def fuse_sequence(dataset: Dataset, config: PipelineConfig) -> np.ndarray:
    """One fused ball point per segment of a validated dataset, as an (n, d) array."""
    points = exp_map_origin(prepare_tangent(dataset.text), config.curvature)
    if dataset.has_audio:
        rows = dataset.audio_rows
        audio = exp_map_origin(prepare_tangent(dataset.audio[rows]), config.curvature)
        points[rows] = geodesic_point(points[rows], audio, config.audio_weight, config.curvature)
    return points


def fuse_sequence_euclidean(dataset: Dataset, config: PipelineConfig) -> np.ndarray:
    """Ablation branch: weighted arithmetic mean of the prepared tangents.

    Matches the hyperbolic path in the flat limit (curvature -> 0).
    """
    out = prepare_tangent(dataset.text)
    if dataset.has_audio:
        rows = dataset.audio_rows
        audio = prepare_tangent(dataset.audio[rows])
        out[rows] = (1.0 - config.audio_weight) * out[rows] + config.audio_weight * audio
    return out


def window_fused_points(fused: np.ndarray, config: PipelineConfig):
    """Aggregate per-segment fused points (n, d) to one point per summary
    window, the windows stacked by :func:`captions.window_stacks`.

    Returns the (n_windows, d) points and the list of windows whose mean did
    not converge. Single-segment windows pass their point through untouched;
    larger windows take the equal-weight geodesic mean of their members,
    exact for two and iterated for more. Each stack is one mean call, each
    window stopping at its own iteration.
    """
    out, failures = [fused[:0]], []
    for first, stack in window_stacks(fused, config.window):
        size = stack.shape[1]
        if size < 2:
            out.append(stack[:, 0])
        else:
            result = weighted_geodesic_mean(stack, np.full(size, 1.0 / size), config.curvature)
            out.append(result.point)
            failures.extend(first + int(k) for k in np.flatnonzero(result.unconverged))
    return np.concatenate(out), failures
