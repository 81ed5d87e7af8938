import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervad.core import SegmentRecord, ValidationError, validate_dataset
from hypervad.evaluate import (
    UndefinedMetricError,
    auc_roc,
    average_precision,
    build_report,
    expand_to_frames,
)

from oracles import ap_sweep_oracle, auc_pairwise_oracle, auc_rank_sum_oracle, paint_frames_oracle


@st.composite
def mutated_tilings(draw):
    """A valid tiling of up to 5 segments, then at most one rule broken at
    one segment: a gap, an overlap, swapped index fields, start > end, or two
    records out of order."""
    lengths = draw(st.lists(st.integers(1, 4), max_size=5))
    segs, start = [], 0
    for i, length in enumerate(lengths):
        segs.append(SegmentRecord(i, start, start + length - 1, f"caption {i}"))
        start += length
    mutation = draw(st.sampled_from(["none", "gap", "overlap", "swap_index", "inverted", "reorder"]))
    if not segs or mutation == "none":
        return segs
    k = draw(st.integers(0, len(segs) - 1))
    seg = segs[k]
    if mutation == "gap":
        segs[k:] = [replace(s, frame_start=s.frame_start + 1, frame_end=s.frame_end + 1) for s in segs[k:]]
    elif mutation == "overlap" and k > 0:
        segs[k] = replace(seg, frame_start=seg.frame_start - 1)
    elif mutation == "inverted":
        segs[k] = replace(seg, frame_start=seg.frame_end + 1)
    elif mutation == "swap_index" and k > 0:
        prev = segs[k - 1]
        segs[k - 1], segs[k] = replace(prev, index=seg.index), replace(seg, index=prev.index)
    elif mutation == "reorder" and k > 0:
        segs[k - 1], segs[k] = seg, segs[k - 1]
    return segs


# Records with arbitrary small fields: mostly broken, sometimes by chance valid.
random_segment_lists = st.lists(
    st.builds(SegmentRecord, st.integers(0, 4), st.integers(0, 8), st.integers(0, 8), st.just("")),
    max_size=5,
)


class TestExpandToFrames:
    def test_single_window_single_segment(self):
        segs = [SegmentRecord(0, 0, 4, "x")]
        out = expand_to_frames([0.7], segs)
        assert np.array_equal(out, np.full(5, 0.7))

    def test_two_windows_uneven_segments(self):
        segs = [SegmentRecord(0, 0, 2, "x"), SegmentRecord(1, 3, 4, "y")]
        out = expand_to_frames([0.2, 0.9], segs)
        assert out.tolist() == [0.2, 0.2, 0.2, 0.9, 0.9]

    def test_gap_raises_named_range(self):
        segs = [SegmentRecord(0, 0, 1, "x"), SegmentRecord(1, 4, 5, "y")]
        with pytest.raises(ValueError, match="segment 1: non-contiguous, starts at frame 4"):
            expand_to_frames([0.2, 0.9], segs)

    def test_empty(self):
        assert expand_to_frames([], []).size == 0

    def test_overlap_raises(self):
        segs = [SegmentRecord(0, 0, 3, "x"), SegmentRecord(1, 2, 5, "y")]
        with pytest.raises(ValueError, match="segment 1: non-contiguous, starts at frame 2"):
            expand_to_frames([0.2, 0.9], segs)

    def test_swapped_index_raises(self):
        segs = [SegmentRecord(1, 0, 3, "x"), SegmentRecord(0, 4, 5, "y")]
        with pytest.raises(ValueError, match="segment 0: index field is 1, expected 0"):
            expand_to_frames([0.2, 0.9], segs)

    @settings(max_examples=300, deadline=None)
    @given(segs=st.one_of(mutated_tilings(), random_segment_lists), data=st.data())
    def test_same_tiling_rule_as_validate_dataset(self, segs, data):
        n = len(segs)
        scores = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        try:
            dataset = validate_dataset(segs, np.zeros((n, 2)), np.zeros((n, 2)))
        except ValidationError as exc:
            with pytest.raises(ValueError, match=re.escape(exc.issues[0])):
                expand_to_frames(scores, segs)
            return
        frames = expand_to_frames(scores, segs)
        assert frames.shape == (dataset.n_frames,)
        assert np.array_equal(frames, paint_frames_oracle(scores, segs, dataset.n_frames))


class TestAucRoc:
    def test_perfect_ranking(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted_ranking(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_ties_half(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle_exactly(self, rng):
        for trial in range(30):
            n = int(rng.integers(5, 60))
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n) if trial % 2 else rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc_roc(scores, labels) == auc_pairwise_oracle(scores, labels)

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_matches_rank_sum_oracle_exactly_tie_heavy(self, rng, n):
        scores = rng.choice([0.1, 0.25, 0.5, 0.8, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) == auc_rank_sum_oracle(scores, labels)

    def test_matches_rank_sum_oracle_all_tied(self, rng):
        scores = np.full(1000, 0.3)
        labels = rng.integers(0, 2, size=1000)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) == auc_rank_sum_oracle(scores, labels) == 0.5

    def test_matches_rank_sum_oracle_single_positive(self, rng):
        scores = rng.choice([0.2, 0.4, 0.6], size=500)
        labels = np.zeros(500, dtype=int)
        labels[17] = 1
        assert auc_roc(scores, labels) == auc_rank_sum_oracle(scores, labels)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = auc_roc(scores, labels)
        assert auc_roc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc_roc(scores**3 + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_identity_without_ties(self, rng):
        scores = rng.permutation(np.linspace(0.01, 0.99, 30))
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) + auc_roc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        # direct formula: one threshold step reaches recall 1 at precision 1/4
        assert average_precision([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == pytest.approx(0.25, abs=1e-12)

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.5, 0.6], [0, 0])

    def test_matches_sweep_oracle(self, rng):
        for trial in range(30):
            n = int(rng.integers(4, 50))
            scores = rng.choice([0.2, 0.4, 0.6, 0.9], size=n) if trial % 2 else rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            assert average_precision(scores, labels) == pytest.approx(
                ap_sweep_oracle(scores, labels), abs=1e-12
            )

    def test_random_permutation_ap_near_prevalence(self):
        # statistical check: mean AP of randomly permuted scores approaches
        # the positive fraction (random-ranker AP carries a small positive
        # finite-sample bias, so n must be large enough for the 0.05 bound)
        rng = np.random.default_rng(7)
        n, n_pos = 200, 60
        labels = (np.arange(n) < n_pos).astype(int)
        prevalence = n_pos / n
        values = []
        for _ in range(1000):
            scores = rng.permutation(np.linspace(0.001, 0.999, n))
            values.append(average_precision(scores, labels))
        assert abs(float(np.mean(values)) - prevalence) < 0.05


class TestBuildReport:
    def test_defined_case(self):
        report = build_report([0.9, 0.1], [1, 0])
        assert report.defined
        assert report.auc_roc == 1.0
        assert report.average_precision == 1.0
        assert (report.frame_count, report.positive_count) == (2, 1)

    def test_single_class_flagged_not_defaulted(self):
        report = build_report([0.9, 0.1], [0, 0])
        assert not report.defined
        assert report.auc_roc is None and report.average_precision is None
        assert "class" in report.undefined_reason or "positive" in report.undefined_reason

    def test_empty_flagged(self):
        report = build_report([], [])
        assert not report.defined
        assert report.frame_count == 0

    def test_fractional_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            build_report([0.2, 0.8, 0.6], [0.5, 1.0, 1.9])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores, labels = [0.9, bad, 0.1, 0.2], [1, 1, 0, 0]
        for metric in (auc_roc, average_precision, build_report):
            with pytest.raises(ValueError, match="scores must be finite"):
                metric(scores, labels)

    @pytest.mark.parametrize("scores, labels", [
        ([0.9, 0.1], [1]),
        ([0.9], [1, 0]),
        ([[0.9, 0.1]], [[1, 0]]),  # equal shapes, but not vectors
    ])
    def test_unequal_or_non_vector_shapes_rejected(self, scores, labels):
        for metric in (auc_roc, average_precision, build_report):
            with pytest.raises(ValueError, match="scores and labels must be equal-length vectors"):
                metric(scores, labels)

    def test_as_dict_round(self):
        d = build_report([0.9, 0.1], [1, 0]).as_dict()
        assert d["defined"] is True and d["auc_roc"] == 1.0


def test_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: no scipy module at all
    code = (
        "import sys, hypervad\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    # the child does not read pytest's pythonpath setting, so it gets src here
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
