"""Caption cleaning by semantic self-alignment and windowed summary building.

Cleaning replaces each segment's caption with the caption from the whole
video whose text embedding is most cosine-similar to that segment's visual
embedding. Exactly equal cosines break to the lowest index; zero-norm rows
are reported and score minus infinity against everything. The search runs
over row blocks (see :func:`row_blocks`), so it never holds an n x n matrix.

The window layout is stated here only: windows of ``window`` consecutive
segments, then one shorter trailing window, so every frame gets a score.
:func:`window_slices` gives their segment ranges and :func:`window_stacks`
their rows; every per-window aggregate reads one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Byte budget of one row block of an all-pairs search, so that peak memory
# grows with n, not n^2. A 1 MiB block stays in cache; a 16 MiB one would
# still hold a 1,500-row search in one block.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class CaptionSet:
    """Raw captions plus the per-segment index of the cleaned replacement.

    Invariant: cleaned[t] == raw[cleaned_index[t]] for all t.
    """

    raw: tuple
    cleaned_index: np.ndarray
    zero_norm_rows: tuple = ()

    def __post_init__(self):
        idx = np.asarray(self.cleaned_index, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "cleaned_index", idx)
        if idx.shape != (len(self.raw),):
            raise ValueError("one cleaned index per caption required")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.raw)):
            raise ValueError("cleaned_index out of range")

    @property
    def cleaned(self) -> tuple:
        return tuple(self.raw[j] for j in self.cleaned_index)


@dataclass(frozen=True)
class SummarySet:
    """Per-window textual summaries with their (n_windows, d) embeddings.

    Every segment maps to exactly one window, in the layout the module
    docstring states.
    """

    texts: tuple
    embeddings: np.ndarray
    segment_to_window: np.ndarray

    def __post_init__(self):
        mapping = np.asarray(self.segment_to_window, dtype=np.int64)
        mapping.flags.writeable = False
        object.__setattr__(self, "segment_to_window", mapping)
        if len(self.embeddings) != len(self.texts):
            raise ValueError("one embedding row per summary required")
        if mapping.size and (mapping.min() < 0 or mapping.max() >= len(self.texts)):
            raise ValueError("segment_to_window references a missing window")

    @property
    def n_windows(self) -> int:
        return len(self.texts)


def normalize_rows(data: np.ndarray):
    """Rows scaled to unit length, plus the mask of zero rows (left as zeros)."""
    norms = np.linalg.norm(data, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return data / safe[:, None], zero


def row_blocks(n_rows: int, n_cols: int):
    """Consecutive (lo, hi) row ranges of an n_rows x n_cols float64 matrix,
    each holding as many rows as fit in BLOCK_BYTES, and at least one."""
    step = max(1, BLOCK_BYTES // (8 * n_cols))
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def clean_caption_indices(frame_embs: np.ndarray, caption_embs: np.ndarray):
    """Argmax cosine alignment of each visual row against all caption rows.

    Returns (indices, zero_norm_rows) where zero_norm_rows lists
    ("visual"|"text", row) pairs whose similarities were pinned to -inf.

    Each block of :func:`row_blocks` multiplies its visual rows against all
    caption rows and takes the row-wise argmax, so memory is O(n) plus one
    block of BLOCK_BYTES. Exactly equal cosines break to the lowest index.
    Identical caption rows are not guaranteed exactly equal cosines: the
    similarities come from matrix products, whose blocked summation can
    differ by 1 ulp between two identical columns, and the higher index
    then wins.
    """
    (n, dim), (n_captions, caption_dim) = frame_embs.shape, caption_embs.shape
    if n != n_captions:
        raise ValueError(f"count mismatch: {n} visual rows vs {n_captions} captions")
    if dim != caption_dim:
        raise ValueError(f"dim mismatch: {dim} vs {caption_dim}")
    if n == 0:
        return np.zeros(0, dtype=np.int64), ()

    f_unit, f_zero = normalize_rows(frame_embs)
    c_unit, c_zero = normalize_rows(caption_embs)
    indices = np.empty(n, dtype=np.int64)
    for lo, hi in row_blocks(n, n):
        sim = f_unit[lo:hi] @ c_unit.T
        sim[f_zero[lo:hi], :] = -np.inf
        sim[:, c_zero] = -np.inf
        # np.argmax returns the first maximum, which is the lowest-index tie break
        indices[lo:hi] = np.argmax(sim, axis=1)

    reports = tuple(
        [("visual", int(r)) for r in np.nonzero(f_zero)[0]]
        + [("text", int(r)) for r in np.nonzero(c_zero)[0]]
    )
    return indices, reports


def clean_captions(
    raw_captions: Sequence[str],
    frame_embs: np.ndarray,
    caption_embs: np.ndarray,
) -> CaptionSet:
    indices, reports = clean_caption_indices(frame_embs, caption_embs)
    if len(raw_captions) != len(indices):
        raise ValueError("caption count must match embedding count")
    return CaptionSet(raw=tuple(raw_captions), cleaned_index=indices, zero_norm_rows=reports)


def identity_captions(raw_captions: Sequence[str]) -> CaptionSet:
    """CaptionSet with cleaning disabled: every segment keeps its own caption."""
    n = len(raw_captions)
    return CaptionSet(raw=tuple(raw_captions), cleaned_index=np.arange(n, dtype=np.int64))


def window_slices(n_segments: int, window: int):
    """The (lo, hi) segment range of each window, in order."""
    if window < 1:
        raise ValueError("window must be at least 1")
    return [(start, min(start + window, n_segments)) for start in range(0, n_segments, window)]


def window_stacks(rows: np.ndarray, window: int):
    """The windows of an (n, ...) array as at most two (count, size, ...)
    views, the full windows then the trailing one, each paired with the
    index of its first window; a run with no window is left out."""
    if window < 1:
        raise ValueError("window must be at least 1")
    full = len(rows) // window
    cut = full * window
    runs = [(0, rows[:cut].reshape(full, window, *rows.shape[1:])), (full, rows[cut:][None])]
    return [(first, stack) for first, stack in runs if 0 not in stack.shape[:2]]


def build_summaries(
    cleaned: CaptionSet,
    caption_embs: np.ndarray,
    audio_captions: Optional[Sequence[Optional[str]]],
    window: int,
) -> SummarySet:
    """Per-window summary texts plus window embeddings.

    Template: "VISUAL: <cleaned captions joined by spaces> | AUDIO: <audio
    captions joined by spaces, or 'none'>". The window embedding is the
    arithmetic mean of the member segments' cleaned caption embeddings, i.e.
    rows caption_embs[cleaned_index[t]]: one mean per stack of
    :func:`window_stacks`, each adding its rows in order as a per-window
    mean does.
    """
    n = len(cleaned.raw)
    rows = caption_embs[cleaned.cleaned_index]
    means = np.concatenate([rows[:0]] + [stack.mean(axis=1) for _, stack in window_stacks(rows, window)])
    texts = []
    cleaned_texts = cleaned.cleaned
    for lo, hi in window_slices(n, window):
        visual_part = " ".join(cleaned_texts[lo:hi])
        audio_parts = []
        if audio_captions is not None:
            audio_parts = [a for a in audio_captions[lo:hi] if a is not None]
        audio_part = " ".join(audio_parts) if audio_parts else "none"
        texts.append(f"VISUAL: {visual_part} | AUDIO: {audio_part}")
    mapping = np.arange(n, dtype=np.int64) // window
    return SummarySet(texts=tuple(texts), embeddings=means, segment_to_window=mapping)
