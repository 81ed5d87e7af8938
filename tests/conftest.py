import numpy as np
import pytest

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
