import numpy as np
import pytest

from hypervad import captions
from hypervad.core import Modality, SegmentRecord


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_segments(n, frames_per_segment=4, audio=False):
    return [
        SegmentRecord(
            index=i,
            frame_start=i * frames_per_segment,
            frame_end=(i + 1) * frames_per_segment - 1,
            visual_caption=f"caption {i}",
            audio_caption=f"audio {i}" if audio else None,
        )
        for i in range(n)
    ]


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
