import numpy as np
import pytest

from hypervad import captions
from hypervad.core import Modality, SegmentTable


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_rows(n, frames_per_segment=4, audio=False):
    """The (index, frame_start, frame_end, visual, audio) rows of n segments
    that tile their frames, for a test to edit and pass to
    ``SegmentTable.from_rows``."""
    return [
        (i, i * frames_per_segment, (i + 1) * frames_per_segment - 1, f"caption {i}", f"audio {i}" if audio else None)
        for i in range(n)
    ]


def make_segments(n, frames_per_segment=4, audio=False):
    return SegmentTable.from_rows(make_rows(n, frames_per_segment, audio))


def table_columns(table) -> dict:
    """A SegmentTable's columns as lists, comparable with
    ``oracles.record_columns``."""
    columns = {name: getattr(table, name).tolist() for name in ("index", "frame_start", "frame_end")}
    return {**columns, "visual": list(table.visual), "audio": list(table.audio)}


def records_table(records) -> SegmentTable:
    """The SegmentTable of ``oracles.SegmentRecord`` records."""
    return SegmentTable.from_rows(
        (r.index, r.frame_start, r.frame_end, r.visual_caption, r.audio_caption) for r in records)


def make_matrix(rows, modality=Modality.VISUAL):
    """A read-only float64 copy of ``rows``, like the arrays a Dataset holds.
    ``modality`` names the slot the rows are for at the call site; the
    array itself carries no tag."""
    data = np.array(rows, dtype=np.float64)
    data.flags.writeable = False
    return data


def exact_cosine_rows(rng, n):
    """n rows drawn from zero, scaled +/- basis vectors and scaled sign
    vectors: unit rows are exact, every cosine is a multiple of 1/4,
    duplicates abound, and most argmin/argmax ranks are decided by index."""
    basis = np.vstack([np.eye(4), -np.eye(4)])
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 4)).reshape(4, -1).T
    pool = np.vstack([np.zeros((1, 4)), basis, signs])
    return pool[rng.integers(0, len(pool), size=n)] * rng.choice([0.5, 1.0, 3.0], size=(n, 1))


def set_block_rows(monkeypatch, n_cols, rows):
    """Shrink the row-block budget so that a block of an n_cols-column
    search holds ``rows`` rows."""
    monkeypatch.setattr(captions, "BLOCK_BYTES", 8 * n_cols * rows)


def all_pairs_cases(rng, dim=16):
    """(name, a, b) row pairs for an all-pairs search: random rows, zero
    rows, identical rows, and n = 1 and 2. ``b`` is an independent draw."""
    for n in (1, 2, 23):
        yield f"random n={n}", rng.normal(size=(n, dim)), rng.normal(size=(n, dim))
    a, b = rng.normal(size=(23, dim)), rng.normal(size=(23, dim))
    a[[0, 6, 7, 22]] = 0.0
    b[[1, 6, 21]] = 0.0
    yield "zero rows", a, b
    a, b = rng.normal(size=(23, dim)), rng.normal(size=(23, dim))
    a[::3] = a[1]
    b[::4] = b[2]
    yield "identical rows", a, b
