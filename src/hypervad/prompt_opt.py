"""Test-time adaptation of a continuous prompt vector against a pluggable
scorer, by full-batch gradient descent on an unsupervised objective:

    L(q) = sum_t H(a_t) + sparsity_weight * |sum_t a_t - target_mass|

where a_t = scorer(q, summary_t) and H is binary entropy. Confident scores
minimize the first term; the second ties total anomaly mass to a prior
target. No labels are involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Protocol, Sequence

import numpy as np

from .core import PipelineConfig, seeded_unit_vector

# Scores are clamped to [EPS_P, 1 - EPS_P] inside the entropy derivative
# only; ln((1-a)/a) is unbounded at the endpoints.
EPS_P = 1e-7


def binary_entropy(p):
    """H(p) = -p ln p - (1-p) ln(1-p) elementwise, with H(0) = H(1) = 0 by
    continuity. A scalar p gives a float."""
    p = np.asarray(p, dtype=np.float64)
    outside = p[~((p >= 0.0) & (p <= 1.0))]
    if outside.size:
        raise ValueError(f"p must lie in [0, 1], got {outside[0]}")
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    s = p[interior]
    out[interior] = -s * np.log(s) - (1.0 - s) * np.log(1.0 - s)
    return float(out) if out.ndim == 0 else out


def total_loss(scores, target_mass: float, sparsity_weight: float) -> float:
    """Confidence-sparsity objective over one batch of scores."""
    scores = np.asarray(scores, dtype=np.float64)
    entropy = float(binary_entropy(scores).sum())
    return entropy + sparsity_weight * abs(float(scores.sum()) - target_mass)


def loss_score_gradient(scores: np.ndarray, target_mass: float, sparsity_weight: float) -> np.ndarray:
    """dL/da_t = ln((1-a)/a) + sparsity_weight * sign(sum a - target).

    Uses subgradient 0 for the absolute value exactly on target, and clamps
    a into [EPS_P, 1-EPS_P] inside the log only.
    """
    a = np.clip(scores, EPS_P, 1.0 - EPS_P)
    entropy_term = np.log((1.0 - a) / a)
    gap = float(scores.sum()) - target_mass
    sign = 0.0 if gap == 0.0 else math.copysign(1.0, gap)
    return entropy_term + sparsity_weight * sign


class Scorer(Protocol):
    """Backend that maps (prompt, summary) to an anomaly likelihood in [0, 1].

    A scorer is two batch calls: ``score_batch``, the (n,) scores of every
    summary under one prompt, which :func:`score_all` makes once per
    evaluation, and ``grad_sum``, the whole batch's weighted prompt
    gradient sum_t coeff[t] * d score(q, embs[t], texts[t]) / dq in one
    call per step. ``scores`` are the scores at ``q`` that the optimizer
    already holds, for backends that can reuse them. ``embs`` holds the
    summaries' embedding rows and ``texts`` their decoded strings, for
    backends that prompt a language model; numeric backends may ignore the
    text. The two built-in scorers keep ``score`` and ``grad_q`` as one-row
    views, and their ``score_batch`` calls ``score`` once per row, so that
    a tracer counting those calls by name still sees every row.
    """

    def score_batch(self, q: np.ndarray, embs: np.ndarray, texts: Sequence[str]) -> np.ndarray: ...

    def grad_sum(self, q: np.ndarray, embs: np.ndarray, texts: Sequence[str],
                 coeff: np.ndarray, scores: np.ndarray) -> np.ndarray: ...


class StubScorer:
    """Deterministic differentiable stand-in for a frozen language model.

    score(q, s) = sigmoid(w . q + u . s + b) with (w, u, b) derived from the
    seed by a fixed PRNG scheme: w ~ N(0, 1/prompt_dim), b ~ N(0, 1), and u
    is the seed's unit vector from :func:`seeded_unit_vector`. A synthetic
    dataset built with the same seed therefore has its anomaly shift aligned
    with u, making the classes linearly separable to this scorer.
    """

    def __init__(self, prompt_dim: int, emb_dim: int, seed: int):
        rng = np.random.default_rng([seed, 0x57AB])
        self.w = rng.standard_normal(prompt_dim) / math.sqrt(prompt_dim)
        self.b = float(rng.standard_normal())
        self.u = seeded_unit_vector(seed, emb_dim)

    def score(self, q: np.ndarray, emb: np.ndarray, text: str = "") -> float:
        # ndarray.dot skips the matmul gufunc's per-call dispatch; same bytes
        # as @. Python floats add in the same order and rounding as numpy's
        # scalars, for less work per addition.
        x = float(self.w.dot(q)) + float(self.u.dot(emb)) + self.b
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)

    def score_batch(self, q: np.ndarray, embs: np.ndarray, texts: Sequence[str]) -> np.ndarray:
        # texts shorter than embs ends the map early, and fromiter raises
        n = embs.shape[0]
        return np.fromiter(map(self.score, repeat(q), embs, texts), np.float64, n)

    def grad_q(self, q: np.ndarray, emb: np.ndarray, text: str = "") -> np.ndarray:
        s = self.score(q, emb)
        return s * (1.0 - s) * self.w

    def grad_sum(self, q: np.ndarray, embs: np.ndarray, texts: Sequence[str],
                 coeff: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """sum_t coeff[t] * scores[t] * (1 - scores[t]) * w, its rows added
        in order onto a zero row, as a running total adds them.

        ``.sum(axis=0)`` over two or more columns adds row after row, each
        column in order; over a single column numpy sums pairwise, which
        rounds differently. So the rows are at least two columns wide, a
        one-dimensional prompt padded by a zero column that is dropped.
        """
        d = self.w.size
        rows = np.zeros((scores.size + 1, max(d, 2)))
        grads = rows[1:, :d]
        np.multiply.outer(scores * (1.0 - scores), self.w, out=grads)
        grads *= coeff[:, None]
        return rows.sum(axis=0)[:d]


@dataclass
class PromptState:
    """Optimized prompt plus its loss trajectory (loss_history[0] is the
    initial loss, then one entry per step)."""

    q: np.ndarray
    loss_history: list

    @property
    def iteration(self) -> int:
        return len(self.loss_history) - 1

    @property
    def monotone_fraction(self) -> float:
        """Fraction of steps that did not increase the loss (diagnostic)."""
        if self.iteration == 0:
            return 1.0
        h = self.loss_history
        drops = sum(1 for a, b in zip(h, h[1:]) if b <= a)
        return drops / self.iteration


def resolve_target_mass(explicit: Optional[float], n_summaries: int) -> float:
    """Default anomaly mass is 10% of the summaries, the prior rarity."""
    if explicit is not None:
        return float(explicit)
    return 0.1 * n_summaries


def score_all(scorer: Scorer, q: np.ndarray, embs: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    """The (n,) float64 scores of every summary under ``q``, by one
    ``score_batch`` call. Raises ValueError for scores of another shape, or
    naming the first summary whose score is outside [0, 1]."""
    n = embs.shape[0]
    scores = np.asarray(scorer.score_batch(q, embs, texts))
    if scores.shape != (n,):
        raise ValueError(f"scorer returned scores of shape {scores.shape} for {n} summaries")
    outside = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))  # NaN too
    if outside.size:
        t = outside[0]
        raise ValueError(f"scorer returned {scores[t]} outside [0, 1] for summary {t}")
    return scores.astype(np.float64, copy=False)


def optimize_prompt(q0: np.ndarray, summaries, scorer: Scorer, config: PipelineConfig):
    """Run ``config.opt_iters`` steps of q <- q - learning_rate * grad L(q);
    return the final state and the scores under the optimized prompt.

    ``config`` supplies the objective's ``learning_rate``, ``opt_iters``,
    ``target_mass`` and ``sparsity_weight``; constructing it validated them.
    With opt_iters = 0 the prompt is untouched and the initial scores are
    returned. Aborts with the iteration index if the gradient is not of
    the prompt's shape or goes non-finite.
    """
    q = np.array(q0, dtype=np.float64)
    embs, texts = summaries.embeddings, summaries.texts
    mu = resolve_target_mass(config.target_mass, embs.shape[0])

    scores = score_all(scorer, q, embs, texts)
    history = [total_loss(scores, mu, config.sparsity_weight)]

    for k in range(config.opt_iters):
        coeff = loss_score_gradient(scores, mu, config.sparsity_weight)
        grad = scorer.grad_sum(q, embs, texts, coeff, scores)
        if np.shape(grad) != q.shape:  # a (1,) or (d, 1) gradient would broadcast
            raise ValueError(f"scorer returned a prompt gradient of shape {np.shape(grad)} "
                             f"for a prompt of shape {q.shape} at iteration {k}")
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite prompt gradient at iteration {k}")
        q = q - config.learning_rate * grad
        scores = score_all(scorer, q, embs, texts)
        history.append(total_loss(scores, mu, config.sparsity_weight))

    return PromptState(q=q, loss_history=history), scores

