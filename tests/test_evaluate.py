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

from hypervad import evaluate
from hypervad.core import SegmentTable, ValidationError, segment_tiling, validate_dataset
from hypervad.evaluate import (
    UndefinedMetricError,
    auc_roc,
    average_precision,
    build_report,
    expand_to_frames,
)

from conftest import records_table
from oracles import (
    SegmentRecord,
    ap_sweep_oracle,
    auc_pairwise_oracle,
    auc_rank_sum_oracle,
    expand_records,
    paint_frames_oracle,
    segment_tiling_loop,
    threshold_sweep_per_frame,
)


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
# Records whose fields sit at and next to int64's ends, where an int64
# frame_end + 1 would wrap.
INT64_EDGES = [-2**63, -2**63 + 1, -1, 0, 1, 2, 2**63 - 2, 2**63 - 1]
edge_segment_lists = st.lists(
    st.builds(SegmentRecord, *[st.sampled_from(INT64_EDGES) | st.integers(0, 3)] * 3, st.just("")),
    max_size=5,
)


def table(*rows):
    """The SegmentTable of (index, frame_start, frame_end) rows."""
    return SegmentTable.from_rows((*row, "x", None) for row in rows)


class TestExpandToFrames:
    def test_single_window_single_segment(self):
        out = expand_to_frames([0.7], table((0, 0, 4)))
        assert np.array_equal(out, np.full(5, 0.7))

    def test_two_windows_uneven_segments(self):
        out = expand_to_frames([0.2, 0.9], table((0, 0, 2), (1, 3, 4)))
        assert out.tolist() == [0.2, 0.2, 0.2, 0.9, 0.9]

    def test_gap_raises_named_range(self):
        with pytest.raises(ValueError, match="segment 1: non-contiguous, starts at frame 4"):
            expand_to_frames([0.2, 0.9], table((0, 0, 1), (1, 4, 5)))

    def test_empty(self):
        assert expand_to_frames([], table()).size == 0

    def test_overlap_raises(self):
        with pytest.raises(ValueError, match="segment 1: non-contiguous, starts at frame 2"):
            expand_to_frames([0.2, 0.9], table((0, 0, 3), (1, 2, 5)))

    def test_swapped_index_raises(self):
        with pytest.raises(ValueError, match="segment 0: index field is 1, expected 0"):
            expand_to_frames([0.2, 0.9], table((1, 0, 3), (0, 4, 5)))

    @settings(max_examples=300, deadline=None)
    @given(segs=st.one_of(mutated_tilings(), random_segment_lists), data=st.data())
    def test_same_tiling_rule_as_validate_dataset(self, segs, data):
        # the records' own tiling loop and expansion against the columns'
        n = len(segs)
        segments = records_table(segs)
        issues, n_frames = segment_tiling_loop(segs)
        assert segment_tiling(segments) == (issues, n_frames)
        scores = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        try:
            dataset = validate_dataset(segments, np.zeros((n, 2)), np.zeros((n, 2)))
        except ValidationError as exc:
            assert exc.issues == issues
            with pytest.raises(ValueError, match=re.escape(exc.issues[0])):
                expand_to_frames(scores, segments)
            with pytest.raises(ValueError, match=re.escape(exc.issues[0])):
                expand_records(scores, segs)
            return
        assert issues == []
        frames = expand_to_frames(scores, segments)
        assert frames.shape == (dataset.n_frames,) == (n_frames,)
        assert np.array_equal(frames, expand_records(scores, segs))
        assert np.array_equal(frames, paint_frames_oracle(scores, segs, dataset.n_frames))

    @settings(max_examples=300, deadline=None)
    @given(segs=edge_segment_lists)
    def test_same_tiling_rule_at_int64_ends(self, segs):
        # a frame_end of 2**63 - 1 ends the frames: no start can follow it
        assert segment_tiling(records_table(segs)) == segment_tiling_loop(segs)

    def test_last_frame_of_int64(self):
        top = 2**63 - 1
        segs = table((0, 0, top), (1, -2**63, 0))
        assert segment_tiling(segs) == (
            [f"segment 1: non-contiguous, starts at frame {-2**63} but previous segment ended at {top}"],
            1,
        )
        assert segment_tiling(table((0, 0, top))) == ([], 2**63)


class TestAucRoc:
    def test_perfect_ranking(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-2, 2), st.integers(0, 1)),
                          min_size=2, max_size=40).filter(lambda pairs: len({label for _, label in pairs}) == 2),
           frames=st.integers(1, 16))
    def test_repeating_every_segment_keeps_the_auc(self, pairs, frames):
        # gen_synthetic's oracle is the segments' AUC: f frames a segment
        # scale 2U and n_pos * n_neg both by f^2, and the division is rounded once
        scores, labels = map(np.array, zip(*pairs))
        assert auc_roc(np.repeat(scores, frames), np.repeat(labels, frames)) == auc_roc(scores, labels)

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


def sweep_cases(rng):
    """(name, scores, labels) cases for the threshold sweep, each with both
    classes present."""
    n = 200
    yield "all distinct", rng.uniform(size=n), rng.integers(0, 2, size=n)
    # mostly one-frame runs of five tied scores
    yield "one-frame runs", rng.choice(rng.uniform(size=5), size=n), rng.integers(0, 2, size=n)
    signed_zeros = rng.choice([0.0, -0.0, 0.5, -0.5], size=n)
    yield "+-0.0", signed_zeros, rng.integers(0, 2, size=n)
    # runs of one score far apart, with mixed labels inside each run
    runs = rng.choice([0.1, 0.7, 0.3], size=40)
    yield "tied non-adjacent runs", np.repeat(runs, 5), rng.integers(0, 2, size=200)
    yield "one run", np.full(30, 0.25), np.arange(30) % 2
    lengths = rng.integers(1, 20, size=30)
    yield "segment runs", np.repeat(rng.choice(rng.uniform(size=8), size=30), lengths), \
        rng.integers(0, 2, size=int(lengths.sum()))


class TestThresholdSweepByRuns:
    """The sweep over runs of equal consecutive scores gives the per-frame
    sweep's counts, and so each metric's bytes."""

    def test_counts_match_per_frame_sweep(self, rng):
        for name, scores, labels in sweep_cases(rng):
            got = evaluate._threshold_sweep(scores, labels.astype(np.int64))
            want = threshold_sweep_per_frame(scores, labels.astype(np.int64))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name

    def test_metrics_match_per_frame_sweep(self, rng, monkeypatch):
        cases = list(sweep_cases(rng))
        got = [(auc_roc(s, y), average_precision(s, y)) for _, s, y in cases]
        monkeypatch.setattr(evaluate, "_threshold_sweep", threshold_sweep_per_frame)
        want = [(auc_roc(s, y), average_precision(s, y)) for _, s, y in cases]
        assert [np.float64(v).tobytes() for pair in got for v in pair] == \
            [np.float64(v).tobytes() for pair in want for v in pair]


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
    # numpy is the only runtime dependency: no scipy module at all. The
    # package root imports nothing, so the child imports cli and remote,
    # which between them load every module
    code = (
        "import sys, hypervad.cli, hypervad.remote\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    # the child does not read pytest's pythonpath setting, so it gets src here
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
