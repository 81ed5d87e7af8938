import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervad import captions as captions_module
from hypervad.captions import (
    CaptionSet,
    SummarySet,
    build_summaries,
    clean_caption_indices,
    clean_captions,
    identity_captions,
    window_slices,
    window_stacks,
)
from hypervad.core import Modality

from conftest import all_pairs_cases, exact_cosine_rows, make_matrix, set_block_rows
from oracles import (
    build_summaries_per_window,
    clean_caption_indices_dense,
    clean_caption_indices_per_block,
    cosine_argmax_oracle,
)


class TestCleanCaptions:
    def test_identity_on_orthonormal_self(self):
        eye = np.eye(4)
        idx, reports = clean_caption_indices(
            make_matrix(eye, Modality.VISUAL), make_matrix(eye, Modality.TEXT)
        )
        assert np.array_equal(idx, np.arange(4))
        assert reports == ()

    def test_hand_built_similarity_targets(self):
        # caption rows are the standard basis, frame row t points at its target
        targets = [2, 2, 0, 3]
        captions = np.eye(4)
        frames = captions[targets]
        idx, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        assert idx.tolist() == targets
        assert idx.tolist() == cosine_argmax_oracle(frames, captions).tolist()

    def test_exact_tie_breaks_to_lower_index(self):
        captions = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        frames = np.array([[2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        idx, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        # captions 0 and 1 are bitwise identical for rows 0 and 1
        assert idx[0] == 0 and idx[1] == 0

    def test_zero_norm_rows_reported_and_never_selected(self):
        captions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        frames = np.array([[1.0, 0.0], [0.0, 0.0], [0.3, 0.9]])
        idx, reports = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        assert ("text", 0) in reports and ("visual", 1) in reports
        assert idx[0] == 1  # caption 0 has zero norm, so next best wins
        assert idx[1] == 0  # all -inf collapses to the lowest index
        assert idx.tolist() == cosine_argmax_oracle(frames, captions).tolist()

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            clean_caption_indices(
                make_matrix(np.ones((3, 2)), Modality.VISUAL),
                make_matrix(np.ones((2, 2)), Modality.TEXT),
            )

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 64), dim=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_matches_bruteforce_oracle(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(n, dim))
        captions = rng.normal(size=(n, dim))
        if n >= 2:  # engineered exact tie
            captions[1] = captions[0]
        idx, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        assert idx.tolist() == cosine_argmax_oracle(frames, captions).tolist()

    def test_idempotent_at_index_level(self, rng):
        frames = rng.normal(size=(20, 6))
        captions = rng.normal(size=(20, 6))
        a, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        b, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        assert np.array_equal(a, b)

    def test_scale_invariance_of_indices(self, rng):
        frames = rng.normal(size=(30, 5))
        captions = rng.normal(size=(30, 5))
        base, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        scaled_f = frames.copy()
        scaled_c = captions.copy()
        # powers of two keep the normalized rows bitwise identical
        scaled_f[3] *= 4.0
        scaled_c[7] *= 0.25
        scaled_c[11] *= 1024.0
        after, _ = clean_caption_indices(
            make_matrix(scaled_f, Modality.VISUAL), make_matrix(scaled_c, Modality.TEXT)
        )
        assert np.array_equal(base, after)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_row_blocks_match_dense(self, rng, monkeypatch, block):
        # n = 5 fits in one 7-row block, n = 23 leaves a short last block at
        # every size. Even trials zero the rows and captions on both sides of
        # the first block edge; odd ones tie the captions there.
        for n in (1, 2, 5, 8, 23):
            set_block_rows(monkeypatch, n, block)
            for trial in range(10):
                frames, captions = exact_cosine_rows(rng, n), exact_cosine_rows(rng, n)
                if n > block:
                    edge = slice(block - 1, block + 1)
                    if trial % 2 == 0:
                        frames[edge] = 0.0
                        captions[edge] = 0.0
                    else:
                        captions[edge] = captions[block - 1]
                got = clean_caption_indices(
                    make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
                )
                want = clean_caption_indices_dense(frames, captions)
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_default_blocks_match_dense(self, rng):
        # 1,000 rows make several blocks under the default budget
        frames, captions = rng.normal(size=(1000, 16)), rng.normal(size=(1000, 16))
        idx, _ = clean_caption_indices(
            make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
        )
        assert np.array_equal(idx, clean_caption_indices_dense(frames, captions)[0])

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_block_buffer_matches_per_block_products(self, rng, monkeypatch, block):
        # n = 23 leaves a short last block at 3 and 7 rows; None keeps the
        # default budget, one block
        for name, frames, captions in all_pairs_cases(rng):
            if block is not None:
                set_block_rows(monkeypatch, len(frames), block)
            got = clean_caption_indices(
                make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
            )
            want = clean_caption_indices_per_block(frames, captions)
            assert np.array_equal(got[0], want[0]) and got[0].tobytes() == want[0].tobytes(), name
            assert got[1] == want[1], name

    def test_peak_memory_holds_one_block_at_n_800(self, rng):
        # 163 rows of 800 similarities make a block: the search holds that
        # one block, both sets of unit rows and a few n-vectors, never a
        # second block made while the last one is still referenced
        n, dim = 800, 16
        frames = make_matrix(rng.normal(size=(n, dim)), Modality.VISUAL)
        captions = make_matrix(rng.normal(size=(n, dim)), Modality.TEXT)
        block = captions_module.BLOCK_BYTES // (8 * n) * 8 * n
        tracemalloc.start()
        try:
            clean_caption_indices(frames, captions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block + 8 * n * (2 * dim + 16)

    def test_peak_memory_one_block(self, rng):
        # no n x n buffer (72 MB at n = 3,000): one block of similarities
        # plus both sets of unit rows and the indices, with a loose margin
        n, dim = 3000, 16
        frames = make_matrix(rng.normal(size=(n, dim)), Modality.VISUAL)
        captions = make_matrix(rng.normal(size=(n, dim)), Modality.TEXT)
        tracemalloc.start()
        try:
            clean_caption_indices(frames, captions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * captions_module.BLOCK_BYTES + 8 * n * (2 * dim + 2)

    def test_caption_set_invariant(self):
        frames = np.eye(3)
        cs = clean_captions(
            ["a", "b", "c"],
            make_matrix(frames, Modality.VISUAL),
            make_matrix(frames[[1, 0, 2]], Modality.TEXT),
        )
        assert cs.cleaned == tuple(cs.raw[j] for j in cs.cleaned_index)


class TestCaptionSetType:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            CaptionSet(raw=("a", "b"), cleaned_index=np.array([0, 5]))

    @pytest.mark.parametrize("call, message", [
        (lambda: CaptionSet(raw=("a", "b"), cleaned_index=np.array([0])), "one cleaned index per caption"),
        (lambda: SummarySet(texts=("w",), embeddings=np.zeros((2, 3)), segment_to_window=np.array([0])),
         "one embedding row per summary"),
        (lambda: SummarySet(texts=("w",), embeddings=np.zeros((1, 3)), segment_to_window=np.array([0, 1])),
         "segment_to_window references a missing window"),
        (lambda: clean_caption_indices(np.ones((2, 3)), np.ones((2, 4))), "dim mismatch: 3 vs 4"),
        (lambda: clean_captions(["a"], np.eye(2), np.eye(2)), "caption count must match embedding count"),
        (lambda: window_slices(3, 0), "window must be at least 1"),
        (lambda: window_stacks(np.zeros((3, 2)), 0), "window must be at least 1"),
    ], ids=["caption-set", "summary-rows", "summary-map", "clean-dim", "clean-count", "slices", "stacks"])
    def test_direct_calls_check_their_arguments(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_identity_captions(self):
        cs = identity_captions(["x", "y"])
        assert cs.cleaned == ("x", "y")


def summarize(captions, audio, window):
    """build_summaries over identity-cleaned captions with placeholder embeddings."""
    cs = identity_captions(captions)
    embs = make_matrix(np.zeros((len(captions), 3)), Modality.TEXT)
    summaries = build_summaries(cs, embs, audio, window)
    return list(summaries.texts), summaries.segment_to_window


class TestSummaries:
    def test_window_one_template(self):
        texts, mapping = summarize(["a man runs"], None, 1)
        assert texts == ["VISUAL: a man runs | AUDIO: none"]
        assert mapping.tolist() == [0]

    def test_window_two_over_four_segments(self):
        texts, mapping = summarize(["a", "b", "c", "d"], ["p", None, "q", "r"], 2)
        assert len(texts) == 2
        assert texts[0] == "VISUAL: a b | AUDIO: p"
        assert texts[1] == "VISUAL: c d | AUDIO: q r"
        assert mapping.tolist() == [0, 0, 1, 1]

    def test_trailing_partial_window_kept(self):
        texts, mapping = summarize(["a", "b", "c", "d"], None, 3)
        assert len(texts) == 2
        assert texts[1] == "VISUAL: d | AUDIO: none"
        assert mapping.tolist() == [0, 0, 0, 1]

    def test_window_slices_cover_every_segment(self):
        for n in range(0, 41):
            for w in range(1, 13):
                slices = window_slices(n, w)
                covered = [t for lo, hi in slices for t in range(lo, hi)]
                assert covered == list(range(n))
                # the stacks against a plain loop over window starts: runs of
                # equal-size windows, in order, as views of the rows
                rows = np.arange(3.0 * n).reshape(n, 3)
                windows = [rows[lo : lo + w] for lo in range(0, n, w)]
                runs = []  # [first window, window count, window size]
                for k, win in enumerate(windows):
                    if runs and runs[-1][2] == len(win):
                        runs[-1][1] += 1
                    else:
                        runs.append([k, 1, len(win)])
                stacks = window_stacks(rows, w)
                assert [(first, stack.shape) for first, stack in stacks] == [
                    (k, (count, size, 3)) for k, count, size in runs
                ]
                assert all(stack.size and np.shares_memory(stack, rows) for _, stack in stacks)
                got = [win for _, stack in stacks for win in stack]
                assert len(got) == len(windows)
                assert all(np.array_equal(a, b) for a, b in zip(got, windows))

    @pytest.mark.parametrize("window", [2**63 - 1, 10**30])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_window_beyond_the_video_is_one_window(self, n, window):
        # no array is shaped by the window itself: 2**63 - 1 would be too
        # big for an array and 10**30 too big for an int64
        rows = np.arange(3.0 * n).reshape(n, 3)
        whole = max(n, 1)
        assert window_slices(n, window) == window_slices(n, whole) == ([(0, n)] if n else [])
        assert [(first, stack.shape) for first, stack in window_stacks(rows, window)] == [
            (first, stack.shape) for first, stack in window_stacks(rows, whole)]
        cs = identity_captions([f"c{t}" for t in range(n)])
        got = build_summaries(cs, make_matrix(rows, Modality.TEXT), None, window)
        want = build_summaries(cs, make_matrix(rows, Modality.TEXT), None, whole)
        assert got.n_windows == min(n, 1) and got.texts == want.texts
        assert got.embeddings.tobytes() == want.embeddings.tobytes()
        assert np.array_equal(got.segment_to_window, want.segment_to_window)

    def test_summary_embeddings_average_cleaned_rows(self, rng):
        captions = rng.normal(size=(4, 3))
        cs = CaptionSet(raw=("a", "b", "c", "d"), cleaned_index=np.array([1, 1, 0, 3]))
        summaries = build_summaries(cs, make_matrix(captions, Modality.TEXT), None, 2)
        assert summaries.n_windows == 2
        expected0 = (captions[1] + captions[1]) / 2
        expected1 = (captions[0] + captions[3]) / 2
        assert np.allclose(summaries.embeddings[0], expected0, atol=1e-15)
        assert np.allclose(summaries.embeddings[1], expected1, atol=1e-15)

    def test_empty_dataset(self):
        cs = identity_captions([])
        summaries = build_summaries(cs, make_matrix(np.zeros((0, 3)), Modality.TEXT), None, 4)
        assert summaries.n_windows == 0
        assert summaries.embeddings.shape == (0, 3)
        assert summaries.segment_to_window.size == 0

    @pytest.mark.parametrize("audio", ["absent", "partial", "full"])
    @pytest.mark.parametrize("n, window", [
        (1, 1), (37, 1), (5, 9), (40, 8), (41, 8), (300, 7), (300, 17), (300, 1000),
    ])
    def test_equals_per_window_loop_bit_for_bit(self, n, window, audio):
        # widths from 1 to 64, rows of mixed magnitude, cleaned indices
        # with repeats; "partial" audio is None for about a third of rows
        for trial in range(4):
            rng = np.random.default_rng([n, window, trial])
            d = (1, 3, 16, 64)[trial]
            embs = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
            cs = CaptionSet(raw=tuple(f"c{t}" for t in range(n)),
                            cleaned_index=rng.integers(0, n, size=n))
            audio_caps = {
                "absent": None,
                "partial": [None if rng.uniform() < 0.35 else f"a{t}" for t in range(n)],
                "full": [f"a{t}" for t in range(n)],
            }[audio]
            got = build_summaries(cs, make_matrix(embs, Modality.TEXT), audio_caps, window)
            want = build_summaries_per_window(cs, make_matrix(embs, Modality.TEXT), audio_caps, window)
            assert got.texts == want.texts
            assert got.embeddings.shape == want.embeddings.shape
            assert np.array_equal(got.embeddings, want.embeddings)
            assert got.embeddings.tobytes() == want.embeddings.tobytes()
            assert np.array_equal(got.segment_to_window, want.segment_to_window)
