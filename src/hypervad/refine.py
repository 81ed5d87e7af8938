"""Covariance-aware score refinement.

Fits mean and shrunk covariance of the visual embedding distribution, scores
each summary's visual plausibility as exp(-Mahalanobis distance), and smooths
anomaly scores by plausibility-weighted aggregation over cosine nearest
neighbors in text-embedding space. The precision matrix comes from
numpy.linalg alone: a Cholesky factor and two triangular solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .captions import block_products, normalize_rows


@dataclass(frozen=True)
class VisualStats:
    """Mean and precision (inverse covariance) of the visual distribution."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        prec = np.asarray(self.precision, dtype=np.float64)
        if prec.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("precision must be d x d for a d-dimensional mean")
        if not np.allclose(prec, prec.T, atol=1e-10):
            raise ValueError("precision must be symmetric")
        mean.flags.writeable = False
        prec.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)


def fit_visual_stats(visual_embs: np.ndarray, shrinkage: float) -> VisualStats:
    """Column mean plus precision of the shrunk unbiased sample covariance.

    Sigma = (1 - s) * Sigma_sample + s * (tr(Sigma_sample) / d) * I.
    The precision comes from the Cholesky factor L = cholesky(Sigma), which
    also certifies positive definiteness (failure reports the smallest
    eigenvalue), by the two solves LAPACK potrs runs: L Y = I, then L^T P = Y.
    """
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError(f"shrinkage must lie in [0, 1], got {shrinkage}")
    n, d = visual_embs.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows to fit covariance, got {n}")
    mean = visual_embs.mean(axis=0)
    centered = visual_embs - mean
    sample_cov = centered.T @ centered / (n - 1)
    target = (np.trace(sample_cov) / d) * np.eye(d)
    cov = (1.0 - shrinkage) * sample_cov + shrinkage * target
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(cov)[0])
        raise ValueError(
            f"covariance not positive definite even after shrinkage {shrinkage} "
            f"(smallest eigenvalue ~ {smallest:.3e})"
        ) from exc
    precision = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(d)))
    precision = (precision + precision.T) / 2.0
    return VisualStats(mean=mean, precision=precision)


def mahalanobis_rows(rows: np.ndarray, stats: VisualStats) -> np.ndarray:
    """sqrt((x - mean)^T precision (x - mean)) for each row x of an (n, d)
    array; zero at the mean. One stacked product gives every row the bits
    of the one-row product delta @ precision @ delta: numpy does not promise
    it, the tests hold it."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1:] != stats.mean.shape:
        raise ValueError(f"dimension mismatch: {rows.shape} vs mean {stats.mean.shape}")
    delta = rows - stats.mean
    q = ((delta[:, None, :] @ stats.precision) @ delta[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(q, 0.0))


def mahalanobis(x: np.ndarray, stats: VisualStats) -> float:
    """The distance of one (d,) row: :func:`mahalanobis_rows` of a one-row stack."""
    return float(mahalanobis_rows(np.asarray(x, dtype=np.float64)[None], stats)[0])


def neighbor_sets(text_embs: np.ndarray, k: int) -> np.ndarray:
    """K nearest rows per row by cosine distance, always including self.

    Self is a forced member; the remaining k-1 slots go to the nearest other
    rows, exactly equal distances broken by lower index. Rows are returned
    sorted by rank (self first, then increasing distance). Identical rows
    are not guaranteed exactly equal distances: they come from matrix
    products, whose blocked summation can differ by 1 ulp between two
    identical columns, and the higher index then wins.

    Each block of :func:`captions.block_products` takes its rows' distances
    to all rows in the one block buffer, pins its part of the diagonal to
    -inf, then makes k passes of a row-wise argmin (whose first-index rule
    is the tie break), each marking the taken entries +inf: O(k n^2) time,
    and O(n k) memory plus one block of BLOCK_BYTES. A full sort of every
    row costs more for k up to about 200; refinement uses k = neighbors = 5.
    """
    n = len(text_embs)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    unit, _ = normalize_rows(text_embs)
    out = np.empty((n, k), dtype=np.int64)
    for lo, hi, cos_dist in block_products(unit, unit):
        np.subtract(1.0, cos_dist, out=cos_dist)
        rows = np.arange(hi - lo)
        cos_dist[rows, rows + lo] = -np.inf
        for rank in range(k):
            out[lo:hi, rank] = cos_dist.argmin(axis=1)
            cos_dist[rows, out[lo:hi, rank]] = np.inf
    return out


def refine_scores(
    scores: np.ndarray,
    text_embs: np.ndarray,
    stats: VisualStats,
    k: int,
) -> np.ndarray:
    """Weighted KNN aggregation: a'_t = sum_j w_j a_j / sum_j w_j over K_t.

    w_j = exp(-D_M(text_embs[j], stats)), computed with a per-neighborhood
    log-space shift: the neighbor with the smallest distance gets weight
    exp(0) = 1, so the weight sum is at least 1 and large distances cannot
    underflow it. Text rows of another width than the visual mean, or a
    non-finite distance, raise ValueError before any weight is computed;
    float32 inputs on disk keep the distances finite.

    The distances of all rows come from one :func:`mahalanobis_rows` call
    and the (n, k) weights from ``math.exp``; numerators and denominators
    then gain one neighbor rank per pass over all rows. Each row's sums thus
    run left to right in rank order, as a per-row loop adds them, which
    keeps results reproducible down to the last bit across platforms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(text_embs)
    if scores.shape != (n,):
        raise ValueError(f"need one score per text row, got {scores.shape} vs {n}")
    if n == 0:
        return scores.copy()
    dm = mahalanobis_rows(text_embs, stats)
    bad = np.flatnonzero(~np.isfinite(dm))
    if bad.size:
        raise ValueError(f"non-finite Mahalanobis distance for row(s) {bad[:5].tolist()}")
    sets = neighbor_sets(text_embs, k)
    dist = dm[sets]
    log_weights = dist.min(axis=1, keepdims=True) - dist
    weights = np.fromiter(map(math.exp, log_weights.ravel().tolist()), float, n * k).reshape(n, k)
    neighbor_scores = scores[sets]
    num, den = np.zeros(n), np.zeros(n)
    for rank in range(k):
        num += weights[:, rank] * neighbor_scores[:, rank]
        den += weights[:, rank]
    return np.clip(num / den, 0.0, 1.0)
