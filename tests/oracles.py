"""Independent brute-force oracles used to check the package implementations.

Everything here is deliberately written as plain loops over definitions, with
no code shared with the package paths it checks. The exception is the pair
of prompt-gradient oracles: they call the package's objective (``total_loss``)
and its derivative in the scores (``loss_score_gradient``), because comparing
the analytic gradient with central differences of the objective is what
checks that derivative. The per-row optimizer reference calls them too: it
is the package's ``optimize_prompt`` from before the prompt gradient became
one ``grad_sum`` call per step, which must match it bit for bit. The
Karcher-mean reference loops call the package's maps too: they check how
the stacked iteration batches and masks the sets, and the same maps on the
same rows are what make a bit-for-bit comparison possible. The dense references of the two all-pairs searches are the
package's own bodies from before the searches ran over row blocks, on the
package's ``normalize_rows``: the blocked searches must return exactly
their indices. The frame-CSV reader is the package's per-row reader from
before its canonical fast paths, which must return what it returns; it
rejects non-ASCII digits as the package does, but has neither the header
and ``_`` rules nor the UTF-8 wrapper. The labels row reference is the
package's labels reader without its fixed-width path, so every file takes
the package's row path inside its UTF-8 wrapper: the fixed-width reader
must give its values and error messages on any bytes. The segment records
are the package's from before segments became columns: its record type,
its captions reader and writer, the synthetic generator's record loop, its
tiling loop and its frame expansion, with no package code but the
generator's caption templates. The segment table must hold their values column by column, give
their issue lists in order and write their bytes. The last four are the
package's bodies from before they ran array at a time, which the new code
must match byte for byte: the stub score by ``@``, the
Mahalanobis distance of one row, refinement by one loop over rows (on the
package's ``neighbor_sets``) and the window summaries by one loop over
windows (on the package's ``SummarySet``). The two window references lay
out their windows with their own loop over window starts, not with the
package's layout helpers, so they check the layout too. The loopback
server's check of a request vector is its body from before its all-float
fast path, on the package's ``finite_real``. The per-block searches and
the per-frame threshold sweep are the package's bodies from before the
searches reused one block buffer and the sweep ran over score runs; the new
bodies must match them byte for byte. The searches run on the package's
``normalize_rows`` and ``row_blocks``, so the block layout is shared and
only the products are checked.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import rankdata

from hypervad.captions import SummarySet, normalize_rows, row_blocks
from hypervad.core import ValidationError, finite_real
from hypervad.dataio import _label, _read_csv_rows, _read_input
from hypervad.hyperbolic import exp_map, geodesic_point, log_map, project_to_ball
from hypervad.prompt_opt import PromptState, loss_score_gradient, resolve_target_mass, total_loss
from hypervad.refine import neighbor_sets
from hypervad.synth import ANOMALY_AUDIO, ANOMALY_CAPTION, NORMAL_AUDIO, NORMAL_CAPTION


def cosine_argmax_oracle(frame_rows: np.ndarray, caption_rows: np.ndarray) -> np.ndarray:
    """For each frame row, scan all caption rows and keep the first maximal
    cosine. Zero-norm rows score -inf against everything."""
    n = frame_rows.shape[0]
    out = np.zeros(n, dtype=np.int64)
    f_norms = [math.sqrt(float(np.dot(r, r))) for r in frame_rows]
    c_norms = [math.sqrt(float(np.dot(r, r))) for r in caption_rows]
    f_unit = [frame_rows[i] / f_norms[i] if f_norms[i] else frame_rows[i] for i in range(n)]
    c_unit = [caption_rows[j] / c_norms[j] if c_norms[j] else caption_rows[j] for j in range(n)]
    for t in range(n):
        best_j, best_sim = 0, -math.inf
        for j in range(n):
            if f_norms[t] == 0.0 or c_norms[j] == 0.0:
                sim = -math.inf
            else:
                sim = float(np.dot(f_unit[t], c_unit[j]))
            if sim > best_sim:
                best_sim, best_j = sim, j
        out[t] = best_j
    return out


def neighbor_sets_oracle(rows, k):
    """Self first, then the k-1 other rows sorted by (cosine distance, index).
    Zero-norm rows keep their zero vector, so their distance to all is 1."""
    n = len(rows)
    norms = [math.sqrt(float(np.dot(r, r))) for r in rows]
    units = [rows[i] / norms[i] if norms[i] else rows[i] for i in range(n)]
    out = np.zeros((n, k), dtype=np.int64)
    for t in range(n):
        ranked = sorted(
            (j for j in range(n) if j != t),
            key=lambda j: (1.0 - float(np.dot(units[t], units[j])), j),
        )
        out[t] = [t] + ranked[: k - 1]
    return out


def clean_caption_indices_dense(frame_embs: np.ndarray, caption_embs: np.ndarray):
    """Caption cleaning on one n x n similarity matrix."""
    (n, dim), (n_captions, caption_dim) = frame_embs.shape, caption_embs.shape
    if n != n_captions:
        raise ValueError(f"count mismatch: {n} visual rows vs {n_captions} captions")
    if dim != caption_dim:
        raise ValueError(f"dim mismatch: {dim} vs {caption_dim}")
    if n == 0:
        return np.zeros(0, dtype=np.int64), ()

    f_unit, f_zero = normalize_rows(frame_embs)
    c_unit, c_zero = normalize_rows(caption_embs)
    sim = f_unit @ c_unit.T
    sim[f_zero, :] = -np.inf
    sim[:, c_zero] = -np.inf
    # np.argmax returns the first maximum, which is the lowest-index tie break
    indices = np.argmax(sim, axis=1).astype(np.int64)

    reports = tuple(
        [("visual", int(r)) for r in np.nonzero(f_zero)[0]]
        + [("text", int(r)) for r in np.nonzero(c_zero)[0]]
    )
    return indices, reports


def neighbor_sets_dense(text_embs: np.ndarray, k: int) -> np.ndarray:
    """The neighbour search on one n x n distance matrix, with k passes of a
    row-wise argmin, each marking the taken entries +inf."""
    n = len(text_embs)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    unit, _ = normalize_rows(text_embs)
    cos_dist = unit @ unit.T
    np.subtract(1.0, cos_dist, out=cos_dist)
    np.fill_diagonal(cos_dist, -np.inf)

    rows = np.arange(n)
    out = np.empty((n, k), dtype=np.int64)
    for rank in range(k):
        out[:, rank] = cos_dist.argmin(axis=1)
        cos_dist[rows, out[:, rank]] = np.inf
    return out


def clean_caption_indices_per_block(frame_embs: np.ndarray, caption_embs: np.ndarray):
    """Caption cleaning with a new product array for every row block."""
    n = len(frame_embs)
    if n == 0:
        return np.zeros(0, dtype=np.int64), ()
    f_unit, f_zero = normalize_rows(frame_embs)
    c_unit, c_zero = normalize_rows(caption_embs)
    indices = np.empty(n, dtype=np.int64)
    for lo, hi in row_blocks(n, n):
        sim = f_unit[lo:hi] @ c_unit.T
        sim[f_zero[lo:hi], :] = -np.inf
        sim[:, c_zero] = -np.inf
        indices[lo:hi] = np.argmax(sim, axis=1)
    reports = tuple(
        [("visual", int(r)) for r in np.nonzero(f_zero)[0]]
        + [("text", int(r)) for r in np.nonzero(c_zero)[0]]
    )
    return indices, reports


def neighbor_sets_per_block(text_embs: np.ndarray, k: int) -> np.ndarray:
    """The neighbour search with a new distance array for every row block."""
    n = len(text_embs)
    unit, _ = normalize_rows(text_embs)
    out = np.empty((n, k), dtype=np.int64)
    for lo, hi in row_blocks(n, n):
        cos_dist = unit[lo:hi] @ unit.T
        np.subtract(1.0, cos_dist, out=cos_dist)
        rows = np.arange(hi - lo)
        cos_dist[rows, rows + lo] = -np.inf
        for rank in range(k):
            out[lo:hi, rank] = cos_dist.argmin(axis=1)
            cos_dist[rows, out[lo:hi, rank]] = np.inf
    return out


def threshold_sweep_per_frame(scores, labels):
    """The threshold sweep over single frames: one stable sort of every
    frame, cumulative counts, read at the last frame of each tied group."""
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(1 - sorted_labels)
    idx = np.append(np.nonzero(np.diff(scores[order]))[0], scores.size - 1)
    return tp[idx], fp[idx]


def frame_csv_oracle(path, header, values, fmt) -> None:
    """A frame CSV written through ``csv.writer``: the header row, then one
    ``i,fmt(value)`` row per value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([i, fmt(value)] for i, value in enumerate(values))


def read_frame_csv_oracle(path, column):
    """The package's frame-CSV reader from before it gained a canonical fast
    path: one ``csv.reader`` row at a time, rows ``frame,<column>`` after an
    optional header (any line-1 row whose first field is ``frame``), frames
    contiguous from 0; an int64 array for labels, float64 for scores."""
    def label(field):
        value = int(field)
        if value not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {value}")
        return value

    def score(field):
        value = float(field)
        if not math.isfinite(value):
            raise ValueError(f"score must be finite, got {field!r}")
        return value

    parse, dtype = {"label": (label, np.int64), "score": (score, np.float64)}[column]
    values = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0] == "frame"):
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'frame,{column}', got {row}")
            try:
                for field in row:
                    if not field.isascii():
                        raise ValueError(f"a number must be ASCII, got {field!r}")
                frame, value = int(row[0]), parse(row[1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            if frame != len(values):
                raise ValidationError(
                    f"{path}:{lineno}: frames must be contiguous from 0, got {frame} "
                    f"at position {len(values)}"
                )
            values.append(value)
    return np.asarray(values, dtype=dtype)


def read_labels_by_rows(path):
    """The package's labels reader from before it read fixed-width byte
    rows, less the character-block path that then took written files: every
    file goes row by row."""
    return _read_csv_rows(path, _read_input(path, "labels"), "label", _label, np.int64)


@dataclass(frozen=True)
class SegmentRecord:
    """One temporal segment: inclusive frame range plus its captions."""

    index: int
    frame_start: int
    frame_end: int
    visual_caption: str
    audio_caption: Optional[str] = None

    @property
    def n_frames(self) -> int:
        return self.frame_end - self.frame_start + 1


def record_columns(records) -> dict:
    """The records' fields as the SegmentTable columns they become, each a
    list: ``{"index": [...], ..., "audio": [...]}``."""
    return {
        "index": [r.index for r in records],
        "frame_start": [r.frame_start for r in records],
        "frame_end": [r.frame_end for r in records],
        "visual": [r.visual_caption for r in records],
        "audio": [r.audio_caption for r in records],
    }


# JSON key, SegmentRecord field, required type, and whether the key may be
# null or absent.
CAPTION_FIELDS = (
    ("index", "index", int, False),
    ("frame_start", "frame_start", int, False),
    ("frame_end", "frame_end", int, False),
    ("visual", "visual_caption", str, False),
    ("audio", "audio_caption", str, True),
)


def write_caption_records(path, segments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segments:
            record = {key: getattr(seg, name) for key, name, _, _ in CAPTION_FIELDS}
            fh.write(json.dumps(record) + "\n")


def caption_record(obj) -> SegmentRecord:
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    values = {}
    for key, name, kind, optional in CAPTION_FIELDS:
        if key not in obj and not optional:
            raise ValueError(f"missing key {key!r}")
        value = obj.get(key)
        if type(value) is not kind and not (optional and value is None):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return SegmentRecord(**values)


_scan_json = json.JSONDecoder().scan_once


def read_caption_records(path):
    """One record per non-blank line. A line that is one JSON object whose
    ``CAPTION_FIELDS`` have their exact types is built at once; any other
    line goes through ``json.loads`` and ``caption_record``, which word
    what is wrong with it. (No UTF-8 wrapper: it reads only UTF-8 files.)"""
    segments = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, stop = _scan_json(line, 0)
                index, start, end, visual, audio = (
                    obj["index"], obj["frame_start"], obj["frame_end"], obj["visual"], obj.get("audio"))
            except (StopIteration, ValueError, KeyError, TypeError, RecursionError):
                stop = None
            if (stop == len(line) and type(index) is int and type(start) is int and type(end) is int
                    and type(visual) is str and (audio is None or type(audio) is str)):
                segments.append(SegmentRecord(index, start, end, visual, audio))
                continue
            try:
                segments.append(caption_record(json.loads(line)))
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise ValidationError(f"{path}:{lineno}: bad caption record: {exc}") from exc
    return segments


def synthetic_records(seg_labels, frames_per_segment, with_audio):
    """gen_synthetic's records of segments labelled ``seg_labels``."""
    segments = []
    for i in range(len(seg_labels)):
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
    return segments


def segment_tiling_loop(segments):
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


def expand_records(segment_scores, segments) -> np.ndarray:
    """Piecewise-constant expansion: every frame of segment t gets score t.
    Raises the first violation of the tiling that validate_dataset enforces."""
    issues, _ = segment_tiling_loop(segments)
    if issues:
        raise ValueError(issues[0])
    segment_scores = np.asarray(segment_scores, dtype=np.float64)
    return np.repeat(segment_scores, [seg.n_frames for seg in segments])


def knn_refine_oracle(scores, text_rows, mean, precision, k):
    """Definition-level KNN refinement: self is a forced neighbor, the other
    k-1 slots go to smallest cosine distance with lower index on ties, and
    each neighbor contributes exp(-Mahalanobis) weight."""
    n = len(scores)
    norms = [math.sqrt(float(np.dot(r, r))) for r in text_rows]
    units = [text_rows[i] / norms[i] if norms[i] else text_rows[i] for i in range(n)]

    def cos_dist(a, b):
        return 1.0 - float(np.dot(units[a], units[b]))

    def maha(j):
        d = text_rows[j] - mean
        return math.sqrt(max(float(d @ precision @ d), 0.0))

    out = np.zeros(n)
    for t in range(n):
        ranked = sorted((j for j in range(n) if j != t), key=lambda j: (cos_dist(t, j), j))
        members = [t] + ranked[: k - 1]
        dms = [maha(j) for j in members]
        shift = min(dms)
        weights = [math.exp(-(d - shift)) for d in dms]
        total = sum(weights)
        out[t] = sum(w * scores[j] for w, j in zip(weights, members)) / total
    return out


def paint_frames_oracle(segment_scores, segments, n_frames) -> np.ndarray:
    """Paint each segment's score, looked up by its index field, onto every
    frame of its inclusive range; frames no segment covers stay NaN."""
    out = np.full(n_frames, np.nan)
    for seg in segments:
        for frame in range(seg.frame_start, seg.frame_end + 1):
            out[frame] = segment_scores[seg.index]
    return out


def auc_pairwise_oracle(scores, labels) -> float:
    """Mann-Whitney by explicit pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_rank_sum_oracle(scores, labels) -> float:
    """Mann-Whitney from the positives' sum of average ranks, independent of
    the package's threshold sweep; exact while rank sums stay below 2**52."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(np.asarray(scores, dtype=np.float64), method="average")
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ap_sweep_oracle(scores, labels) -> float:
    """Average precision by sweeping every distinct score as a threshold,
    from the highest down, computing precision and recall at >= threshold."""
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def shrunk_precision_oracle(rows: np.ndarray, shrinkage: float) -> np.ndarray:
    """Precision of the shrunk covariance (1 - s) S + s (tr S / d) I, with S
    from ``np.cov`` and the inverse from scipy's ``cho_factor``/``cho_solve``."""
    sample = np.cov(rows, rowvar=False, ddof=1)
    d = sample.shape[0]
    cov = (1.0 - shrinkage) * sample + shrinkage * (np.trace(sample) / d) * np.eye(d)
    precision = cho_solve(cho_factor(cov, lower=True), np.eye(d))
    return (precision + precision.T) / 2.0


def inverse_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 matrix inverse."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def mobius_neg(x) -> np.ndarray:
    """Gyrogroup inverse of a ball point; on plain coordinates it is -x."""
    return -np.asarray(x, dtype=np.float64)


def poincare_distance(x, y, c: float) -> float:
    """Geodesic distance from the arcosh form
    d = arcosh(1 + 2c|x - y|^2 / ((1 - c|x|^2)(1 - c|y|^2))) / sqrt(c),
    independent of the Mobius-addition form the package uses."""
    diff = float(np.dot(x - y, x - y))
    den = (1.0 - c * float(np.dot(x, x))) * (1.0 - c * float(np.dot(y, y)))
    return math.acosh(1.0 + 2.0 * c * diff / den) / math.sqrt(c)


def karcher_objective(m, points, weights, c: float) -> float:
    """Weighted sum of squared geodesic distances, the quantity the mean minimizes."""
    return float(sum(w * poincare_distance(m, p, c) ** 2 for w, p in zip(weights, points)))


def karcher_mean_oracle(points, weights, c: float, tol: float = 1e-10, max_iter: int = 200):
    """Weighted Karcher mean of one (m, d) point set by the damped fixed-point
    iteration, one set at a time. Returns (point, iterations, converged)."""
    points = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    w = w / float(w.sum())
    support = w > 0
    points, w = points[support], w[support]
    top = int(np.argmax(w))
    if w[top] == 1.0:
        return points[top], 0, True
    if len(w) == 2:
        return geodesic_point(points[0], points[1], w[1], c), 0, True
    mean = project_to_ball(w @ points, c)
    for it in range(1, max_iter + 1):
        tangents = log_map(mean, points, c)
        update = w @ tangents
        if float(np.linalg.norm(update)) < tol:
            return mean, it, True
        t = math.sqrt(c) * np.linalg.norm(tangents, axis=-1)
        t = t[t > 1e-8]
        smoothness = float(np.max(t / np.tanh(t), initial=1.0))
        mean = exp_map(mean, update / smoothness, c)
    return mean, max_iter, False


def window_means_oracle(fused, config, max_iter=200):
    """Per-window loop over windows of ``config.window`` segments, the last
    one shorter if the segments run out: one equal-weight
    :func:`karcher_mean_oracle` per window of two or more segments, each
    capped at ``max_iter`` iterations. Returns (points, failed windows,
    per-window iterations)."""
    points, failures, iterations = [], [], []
    for k, lo in enumerate(range(0, len(fused), config.window)):
        hi = min(lo + config.window, len(fused))
        if hi - lo < 2:
            point, its, converged = fused[lo], 0, True
        else:
            point, its, converged = karcher_mean_oracle(
                fused[lo:hi], np.full(hi - lo, 1.0 / (hi - lo)), config.curvature, max_iter=max_iter
            )
        points.append(point)
        iterations.append(its)
        if not converged:
            failures.append(k)
    return np.array(points).reshape(-1, fused.shape[1]), failures, iterations


def analytic_total_gradient(
    q: np.ndarray,
    embs: np.ndarray,
    scorer,
    target_mass: float,
    sparsity_weight: float,
) -> np.ndarray:
    """Closed-form gradient of the objective for gradient checking."""
    scores = np.array([scorer.score(q, e) for e in embs])
    coeff = loss_score_gradient(scores, target_mass, sparsity_weight)
    grad = np.zeros_like(q)
    for t, e in enumerate(embs):
        grad += coeff[t] * scorer.grad_q(q, e)
    return grad


def finite_difference_total_gradient(
    q: np.ndarray,
    embs: np.ndarray,
    scorer,
    target_mass: float,
    sparsity_weight: float,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of the objective, one loss per probe."""

    def loss_at(qq: np.ndarray) -> float:
        scores = np.array([scorer.score(qq, e) for e in embs])
        return total_loss(scores, target_mass, sparsity_weight)

    grad = np.zeros_like(q, dtype=np.float64)
    for i in range(q.size):
        probe = np.zeros_like(q)
        probe[i] = step
        grad[i] = (loss_at(q + probe) - loss_at(q - probe)) / (2.0 * step)
    return grad


def optimize_prompt_per_row(q0, summaries, scorer, config):
    """``optimize_prompt`` with one ``grad_q`` call per summary per step."""

    embs, texts = summaries.embeddings, summaries.texts

    def score_all(qq):
        return np.array([scorer.score(qq, e, text=t) for e, t in zip(embs, texts)])

    q = np.array(q0, dtype=np.float64)
    mu = resolve_target_mass(config.target_mass, embs.shape[0])
    scores = score_all(q)
    history = [total_loss(scores, mu, config.sparsity_weight)]
    for _ in range(config.opt_iters):
        coeff = loss_score_gradient(scores, mu, config.sparsity_weight)
        grad = np.zeros_like(q)
        for t in range(embs.shape[0]):
            grad += coeff[t] * scorer.grad_q(q, embs[t], text=texts[t])
        q = q - config.learning_rate * grad
        scores = score_all(q)
        history.append(total_loss(scores, mu, config.sparsity_weight))
    return PromptState(q=q, loss_history=history), scores


def stub_score_matmul(scorer, q, emb) -> float:
    """``StubScorer.score`` with its two dot products written as ``@``, added
    as numpy scalars, and its sigmoid as a helper function."""
    return _sigmoid(float(scorer.w @ q + scorer.u @ emb + scorer.b))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def mahalanobis_one_row(x, stats) -> float:
    """``mahalanobis`` of one (d,) row by ``delta @ precision @ delta``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != stats.mean.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs mean {stats.mean.shape}")
    delta = x - stats.mean
    q = float(delta @ stats.precision @ delta)
    return float(np.sqrt(max(q, 0.0)))


def refine_scores_per_row(scores, text_embs, stats, k):
    """``refine_scores`` as one loop over rows: each row's distance by
    :func:`mahalanobis_one_row`, then per row its neighbours' shift, weights
    and left-to-right sums."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(text_embs)
    if scores.shape != (n,):
        raise ValueError(f"need one score per text row, got {scores.shape} vs {n}")
    if n == 0:
        return scores.copy()
    sets = neighbor_sets(text_embs, k)
    dm = [mahalanobis_one_row(text_embs[j], stats) for j in range(n)]
    bad = [j for j in range(n) if not math.isfinite(dm[j])]
    if bad:
        raise ValueError(f"non-finite Mahalanobis distance for row(s) {bad[:5]}")
    refined = np.empty(n)
    for t in range(n):
        idx = sets[t]
        shift = min(dm[j] for j in idx)
        weights = [math.exp(-(dm[j] - shift)) for j in idx]
        refined[t] = sum(w * scores[j] for w, j in zip(weights, idx)) / sum(weights)
    return np.clip(refined, 0.0, 1.0)


def build_summaries_per_window(cleaned, caption_embs, audio_captions, window):
    """``build_summaries`` as one loop over windows: each window's map
    entries, mean, visual text and audio text in turn."""
    n = len(cleaned.raw)
    windows = [(lo, min(lo + window, n)) for lo in range(0, n, window)]
    texts = []
    means = np.zeros((len(windows), caption_embs.shape[1]))
    mapping = np.zeros(n, dtype=np.int64)
    cleaned_texts = cleaned.cleaned
    rows = caption_embs[cleaned.cleaned_index]
    for k, (lo, hi) in enumerate(windows):
        mapping[lo:hi] = k
        means[k] = rows[lo:hi].mean(axis=0)
        visual_part = " ".join(cleaned_texts[lo:hi])
        audio_parts = []
        if audio_captions is not None:
            audio_parts = [a for a in audio_captions[lo:hi] if a is not None]
        audio_part = " ".join(audio_parts) if audio_parts else "none"
        texts.append(f"VISUAL: {visual_part} | AUDIO: {audio_part}")
    return SummarySet(texts=tuple(texts), embeddings=means, segment_to_window=mapping)


def finite_vector_oracle(payload: dict, key: str) -> np.ndarray:
    """A request's ``key`` entry as float64. ValueError unless it is a list
    of :func:`finite_real` numbers, each checked in turn."""
    values = payload[key]
    if not isinstance(values, list) or not all(finite_real(x) for x in values):
        raise ValueError(f"{key} must be a list of finite numbers")
    return np.asarray(values, dtype=np.float64)
