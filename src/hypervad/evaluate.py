"""Frame-level evaluation: score expansion, AUC-ROC, and AP.

Each reads its own descending-score threshold sweep, tied scores grouped into
one step: AUC is its trapezoidal ROC area, the Mann-Whitney statistic with
ties at half credit; AP sums precision times the recall gained per step. The
sweep sorts runs of equal consecutive scores, each carrying its positive and
negative counts, not single frames; its counts at each distinct score are
the integers a sweep over sorted frames gives.
Metrics are reported as explicitly undefined when a class is missing, never
defaulted to 0 or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import segment_tiling


class UndefinedMetricError(ValueError):
    """Raised when a metric's preconditions (both classes present) fail."""


@dataclass(frozen=True)
class EvalReport:
    """AUC-ROC and AP with explicit undefined states."""

    auc_roc: Optional[float]
    average_precision: Optional[float]
    frame_count: int
    positive_count: int
    undefined_reason: Optional[str] = None

    @property
    def defined(self) -> bool:
        return self.auc_roc is not None and self.average_precision is not None

    def as_dict(self) -> dict:
        return {
            "auc_roc": self.auc_roc,
            "average_precision": self.average_precision,
            "frame_count": self.frame_count,
            "positive_count": self.positive_count,
            "defined": self.defined,
            "undefined_reason": self.undefined_reason,
        }


def expand_to_frames(segment_scores, segments) -> np.ndarray:
    """Piecewise-constant expansion: every frame of segment t gets score t.
    Raises the first violation of the tiling that validate_dataset enforces."""
    issues, _ = segment_tiling(segments)
    if issues:
        raise ValueError(issues[0])
    segment_scores = np.asarray(segment_scores, dtype=np.float64)
    return np.repeat(segment_scores, segments.frame_end - segments.frame_start + 1)


def _check_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores and labels must be equal-length vectors, got {scores.shape} vs {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return scores, labels.astype(np.int64)


def _threshold_sweep(scores: np.ndarray, labels: np.ndarray):
    """Cumulative (tp, fp) counts of frames scoring at or above each distinct
    score, highest first: each step ends at the last of a tied-score group.

    The sweep sorts runs of equal consecutive scores, each carrying its
    positive and negative counts, rather than frames: a window's frames
    share its score, so there are at most as many runs as windows.
    """
    starts = np.append(0, np.flatnonzero(scores[1:] != scores[:-1]) + 1)
    positives = np.add.reduceat(labels, starts)
    negatives = np.diff(starts, append=scores.size) - positives
    run_scores = scores[starts]
    order = np.argsort(-run_scores, kind="stable")
    tp = np.cumsum(positives[order])
    fp = np.cumsum(negatives[order])
    idx = np.append(np.nonzero(np.diff(run_scores[order]))[0], run_scores.size - 1)
    return tp[idx], fp[idx]


def auc_roc(scores, labels) -> float:
    """Tie-aware AUC: P(score+ > score-) + 0.5 * P(score+ = score-).

    Twice the trapezoidal ROC area over the threshold steps is the integer
    2U = sum_k (fp_k - fp_{k-1}) (tp_k + tp_{k-1}); one correctly rounded
    division by 2 n_pos n_neg makes it equal the pairwise statistic exactly.
    """
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC-ROC needs both classes present")
    tp, fp = _threshold_sweep(scores, labels)
    two_u = int(np.dot(np.diff(fp, prepend=0), tp + np.append(0, tp[:-1])))
    return two_u / (2 * n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """AP = sum_k (R_k - R_{k-1}) P_k over descending unique-score thresholds."""
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    tp, fp = _threshold_sweep(scores, labels)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def build_report(scores, labels) -> EvalReport:
    """Evaluate both metrics, flagging undefined states instead of raising."""
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    try:
        auc = auc_roc(scores, labels)
        ap = average_precision(scores, labels)
        return EvalReport(auc, ap, int(scores.size), n_pos)
    except UndefinedMetricError as exc:
        return EvalReport(None, None, int(scores.size), n_pos, undefined_reason=str(exc))
