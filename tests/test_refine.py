import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypervad import captions
from hypervad.core import Modality
from hypervad.refine import (
    VisualStats,
    fit_visual_stats,
    mahalanobis,
    mahalanobis_rows,
    neighbor_sets,
    refine_scores,
)

from conftest import all_pairs_cases, exact_cosine_rows, make_matrix, set_block_rows
from oracles import (
    inverse_2x2,
    knn_refine_oracle,
    mahalanobis_one_row,
    neighbor_sets_dense,
    neighbor_sets_oracle,
    neighbor_sets_per_block,
    refine_scores_per_row,
    shrunk_precision_oracle,
)

F32_MAX = float(np.finfo(np.float32).max)


def identity_stats(dim):
    return VisualStats(mean=np.zeros(dim), precision=np.eye(dim))


def refinement_case(rng, n, d, kind):
    """Scores, text rows and visual stats for a refinement of n rows of
    width d. ``kind`` "ties" copies row 0 over every third row; "extremes"
    puts the text rows at float32's largest magnitude and fits the stats to
    float32 visual rows of scale 1e-30 or 1."""
    rows = rng.normal(size=(n, d)) * 3.0
    scale = 1.0
    if kind == "ties":
        rows[::3] = rows[0]
    elif kind == "extremes":
        rows = np.where(rows > 0, F32_MAX, -F32_MAX)
        scale = float(rng.choice([1e-30, 1.0]))
    vis = (rng.normal(size=(n + d + 2, d)) * scale).astype(np.float32)
    stats = fit_visual_stats(make_matrix(vis), shrinkage=float(rng.choice([0.0, 0.1])))
    return rng.uniform(size=n), make_matrix(rows, Modality.TEXT), stats


class TestFitVisualStats:
    def test_full_shrinkage_is_scaled_identity(self):
        rows = np.eye(3)
        stats = fit_visual_stats(make_matrix(rows), shrinkage=1.0)
        sample = np.cov(rows, rowvar=False, ddof=1)
        scale = np.trace(sample) / 3.0
        assert np.allclose(stats.precision, np.eye(3) / scale, atol=1e-12)

    def test_singular_without_shrinkage_fails(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="positive definite"):
            fit_visual_stats(make_matrix(rows), shrinkage=0.0)

    def test_hand_rows_match_closed_form_inverse(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0], [0.5, 2.5]])
        stats = fit_visual_stats(make_matrix(rows), shrinkage=0.0)
        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / 3.0
        assert np.max(np.abs(stats.precision - inverse_2x2(cov))) < 1e-12

    def test_zero_shrinkage_recovers_textbook_estimator(self, rng):
        X = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 4))
        stats = fit_visual_stats(make_matrix(X), shrinkage=0.0)
        textbook = np.cov(X, rowvar=False, ddof=1)
        assert np.max(np.abs(np.linalg.inv(stats.precision) - textbook)) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("shrinkage", [0.1, 1.0])
    def test_precision_matches_scipy_cholesky_oracle(self, rng, d, shrinkage):
        X = rng.normal(size=(10 * d, d)) @ rng.normal(size=(d, d))
        oracle = shrunk_precision_oracle(X, shrinkage)
        precision = fit_visual_stats(make_matrix(X), shrinkage).precision
        assert np.max(np.abs(precision - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("mean, precision, message", [
        (np.zeros(2), np.eye(3), "precision must be d x d"),
        (np.zeros(2), np.eye(2)[:1], "precision must be d x d"),
        (np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), "precision must be symmetric"),
    ])
    def test_stats_check_their_shapes(self, mean, precision, message):
        with pytest.raises(ValueError, match=message):
            VisualStats(mean=mean, precision=precision)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_visual_stats(make_matrix(np.ones((1, 3))), shrinkage=0.5)

    def test_precision_symmetric(self, rng):
        stats = fit_visual_stats(make_matrix(rng.normal(size=(50, 6))), shrinkage=0.1)
        assert np.max(np.abs(stats.precision - stats.precision.T)) < 1e-10

    def test_rejects_bad_shrinkage(self, rng):
        with pytest.raises(ValueError, match="shrinkage"):
            fit_visual_stats(make_matrix(rng.normal(size=(5, 2))), shrinkage=1.5)


class TestMahalanobis:
    def test_zero_at_mean(self, rng):
        stats = fit_visual_stats(make_matrix(rng.normal(size=(20, 3))), shrinkage=0.1)
        assert mahalanobis(stats.mean, stats) == 0.0

    def test_identity_precision_is_euclidean(self, rng):
        stats = identity_stats(4)
        for _ in range(10):
            x = rng.normal(size=4)
            assert mahalanobis(x, stats) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_diagonal_closed_form(self):
        stats = VisualStats(mean=np.zeros(2), precision=np.diag([0.25, 1.0]))
        # oracle: sqrt(2^2/4 + 1^2/1) = sqrt(2)
        assert mahalanobis(np.array([2.0, 1.0]), stats) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert mahalanobis(np.array([2.0, 1.0]), stats) == pytest.approx(1.41421, abs=1e-5)

    def test_dim_mismatch(self):
        # a (1, 2) row would pass as a one-row stack of width 2
        for shape in ((3,), (1, 2)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                mahalanobis(np.zeros(shape), identity_stats(2))

    @pytest.mark.parametrize("kind", ["plain", "ties", "extremes"])
    def test_rows_equal_one_row_products_bit_for_bit(self, kind):
        for trial in range(10):
            rng = np.random.default_rng([trial, len(kind)])
            n, d = int(rng.integers(1, 200)), int(rng.integers(1, 33))
            _, rows, stats = refinement_case(rng, n, d, kind)
            got = mahalanobis_rows(rows, stats)
            want = np.array([mahalanobis_one_row(x, stats) for x in rows])
            assert np.all(np.isfinite(got))
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
            assert [mahalanobis(x, stats) for x in rows] == want.tolist()


class TestNeighborSets:
    def test_self_is_always_first(self, rng):
        m = make_matrix(rng.normal(size=(8, 3)), Modality.TEXT)
        sets = neighbor_sets(m, 4)
        assert np.array_equal(sets[:, 0], np.arange(8))

    def test_identical_embeddings_tie_break_deterministic(self):
        m = make_matrix(np.ones((5, 2)), Modality.TEXT)
        sets = neighbor_sets(m, 3)
        assert sets[0].tolist() == [0, 1, 2]
        assert sets[3].tolist() == [3, 0, 1]

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_matches_oracle_on_exact_ties(self, rng, k):
        for _ in range(20):
            rows = exact_cosine_rows(rng, int(rng.integers(k, 60)))
            sets = neighbor_sets(make_matrix(rows, Modality.TEXT), k)
            assert np.array_equal(sets, neighbor_sets_oracle(rows, k))

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_matches_oracle_with_zero_rows(self, rng, k):
        for _ in range(20):
            n = int(rng.integers(k, 60))
            rows = rng.normal(size=(n, 4))
            rows[rng.integers(0, n, size=2)] = 0.0
            sets = neighbor_sets(make_matrix(rows, Modality.TEXT), k)
            assert np.array_equal(sets, neighbor_sets_oracle(rows, k))

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_row_blocks_match_dense(self, rng, monkeypatch, block):
        # n = 5 fits in one 7-row block, n = 23 leaves a short last block at
        # every size; k runs from 1 to n. Even trials zero the rows on both
        # sides of the first block edge, odd ones tie them.
        for n in (1, 2, 5, 8, 23):
            set_block_rows(monkeypatch, n, block)
            for k in sorted({1, min(3, n), n}):
                for trial in range(6):
                    rows = exact_cosine_rows(rng, n)
                    if n > block:
                        rows[block - 1 : block + 1] = 0.0 if trial % 2 == 0 else rows[block - 1]
                    sets = neighbor_sets(make_matrix(rows, Modality.TEXT), k)
                    assert np.array_equal(sets, neighbor_sets_dense(rows, k))

    def test_default_blocks_match_dense(self, rng):
        # 1,000 rows make several blocks under the default budget
        rows = rng.normal(size=(1000, 16))
        sets = neighbor_sets(make_matrix(rows, Modality.TEXT), 5)
        assert np.array_equal(sets, neighbor_sets_dense(rows, 5))

    def test_peak_memory_one_distance_matrix(self, rng):
        # the loose ceiling: never more than one n x n float64 distance
        # matrix, whatever the block budget
        n = 1000
        m = make_matrix(rng.normal(size=(n, 16)), Modality.TEXT)
        tracemalloc.start()
        try:
            neighbor_sets(m, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_block_buffer_matches_per_block_products(self, rng, monkeypatch, block):
        # n = 23 leaves a short last block at 3 and 7 rows; None keeps the
        # default budget, one block
        for name, rows, _ in all_pairs_cases(rng):
            if block is not None:
                set_block_rows(monkeypatch, len(rows), block)
            for k in sorted({1, min(2, len(rows)), min(5, len(rows)), len(rows)}):
                got = neighbor_sets(make_matrix(rows, Modality.TEXT), k)
                want = neighbor_sets_per_block(rows, k)
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), (name, k)

    def test_peak_memory_holds_one_block_at_n_800(self, rng):
        # 163 rows of 800 distances make a block: the search holds that one
        # block, the unit rows, the (n, k) result and a few n-vectors, never
        # a second block made while the last one is still referenced
        n, dim, k = 800, 16, 5
        m = make_matrix(rng.normal(size=(n, dim)), Modality.TEXT)
        block = captions.BLOCK_BYTES // (8 * n) * 8 * n
        tracemalloc.start()
        try:
            neighbor_sets(m, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block + 8 * n * (dim + k + 16)

    def test_peak_memory_one_block(self, rng):
        # no n x n buffer (72 MB at n = 3,000): one block of distances plus
        # the unit rows and the (n, k) result, with a loose margin
        n, dim, k = 3000, 16, 5
        m = make_matrix(rng.normal(size=(n, dim)), Modality.TEXT)
        tracemalloc.start()
        try:
            neighbor_sets(m, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * captions.BLOCK_BYTES + 8 * n * (2 * dim + k)

    def test_k_bounds(self, rng):
        m = make_matrix(rng.normal(size=(4, 2)), Modality.TEXT)
        with pytest.raises(ValueError):
            neighbor_sets(m, 0)
        with pytest.raises(ValueError):
            neighbor_sets(m, 5)


class TestRefineScores:
    def test_k1_is_identity(self, rng):
        scores = rng.uniform(size=10)
        m = make_matrix(rng.normal(size=(10, 4)), Modality.TEXT)
        stats = fit_visual_stats(make_matrix(rng.normal(size=(10, 4))), shrinkage=0.1)
        assert np.array_equal(refine_scores(scores, m, stats, 1), scores)

    def test_identical_embeddings_equal_weights_mean(self):
        scores = np.array([0.1, 0.9, 0.5, 0.3])
        m = make_matrix(np.tile([1.0, 2.0], (4, 1)), Modality.TEXT)
        stats = identity_stats(2)
        out = refine_scores(scores, m, stats, 3)
        sets = neighbor_sets(m, 3)
        for t in range(4):
            assert out[t] == pytest.approx(scores[sets[t]].mean(), abs=1e-15)

    def test_matches_bruteforce_oracle(self, rng):
        for n, k in ((6, 3), (20, 5), (50, 7), (256, 9)):
            scores = rng.uniform(size=n)
            rows = rng.normal(size=(n, 3))
            stats = fit_visual_stats(make_matrix(rng.normal(size=(max(n, 4), 3))), shrinkage=0.1)
            out = refine_scores(scores, make_matrix(rows, Modality.TEXT), stats, k)
            oracle = knn_refine_oracle(scores, rows, stats.mean, stats.precision, k)
            assert np.max(np.abs(out - oracle)) == 0.0

    def test_range_preservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n + 1))
            scores = rng.uniform(size=n)
            m = make_matrix(rng.normal(size=(n, 4)), Modality.TEXT)
            stats = fit_visual_stats(make_matrix(rng.normal(size=(n + 4, 4))), shrinkage=0.2)
            out = refine_scores(scores, m, stats, k)
            sets = neighbor_sets(m, k)
            for t in range(n):
                group = scores[sets[t]]
                assert group.min() - 1e-12 <= out[t] <= group.max() + 1e-12

    def test_weight_monotonicity(self):
        # pushing one neighbor further from the visual mean shrinks its share
        stats = identity_stats(2)
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        scores = np.array([0.0, 1.0, 0.0])

        def influence_of_row1(row1):
            rows = base.copy()
            rows[1] = row1
            out = refine_scores(scores, make_matrix(rows, Modality.TEXT), stats, 3)
            return out[0]  # only neighbor 1 has score 1, so a'_0 equals its weight share

        near = influence_of_row1(np.array([0.0, 1.0]))
        far = influence_of_row1(np.array([0.0, 5.0]))
        assert far < near

    def test_non_finite_distance_raises(self):
        # rows at 1e200 overflow the Mahalanobis distance (float64 only; no
        # float32 input gets there), which would give inf - inf = nan weights
        scores = np.array([0.2, 0.4, 0.9])
        rows = np.full((3, 2), 1e200)
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape("non-finite Mahalanobis distance for row(s) [0, 1, 2]")
        ):
            refine_scores(scores, make_matrix(rows, Modality.TEXT), identity_stats(2), 3)

    def test_one_non_finite_distance_names_its_row(self):
        # the other neighbourhoods' distances are finite; the run still stops
        rows = np.array([[1.0, 0.0], [1e200, 1e200], [0.7, 0.7]])
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape("non-finite Mahalanobis distance for row(s) [1]")
        ):
            refine_scores(np.array([0.2, 0.4, 0.9]), make_matrix(rows, Modality.TEXT), identity_stats(2), 2)

    def test_no_rows_refine_to_no_scores(self):
        refined = refine_scores(np.zeros(0), make_matrix(np.zeros((0, 2)), Modality.TEXT), identity_stats(2), 1)
        assert refined.shape == (0,) and refined.dtype == np.float64

    def test_score_length_mismatch(self, rng):
        m = make_matrix(rng.normal(size=(3, 2)), Modality.TEXT)
        with pytest.raises(ValueError, match="one score per"):
            refine_scores(np.array([0.5]), m, identity_stats(2), 1)

    @pytest.mark.parametrize("mean_dim", [1, 2, 5])
    def test_text_width_mismatch_raises(self, rng, mean_dim):
        # a one-element mean would broadcast against the rows unchecked
        m = make_matrix(rng.normal(size=(6, 3)), Modality.TEXT)
        with pytest.raises(ValueError, match=re.escape(f"dimension mismatch: (6, 3) vs mean ({mean_dim},)")):
            refine_scores(rng.uniform(size=6), m, identity_stats(mean_dim), 2)

    @pytest.mark.parametrize("kind", ["plain", "ties", "extremes"])
    def test_equals_per_row_loop_bit_for_bit(self, kind):
        # n = 1, then k = 1, k = n and k drawn between them
        for trial in range(12):
            rng = np.random.default_rng([trial, len(kind), 0x4EF])
            n = 1 if trial == 0 else int(rng.integers(2, 300))
            k = (1, 1, n, n)[trial] if trial < 4 else int(rng.integers(1, n + 1))
            scores, rows, stats = refinement_case(rng, n, int(rng.integers(1, 33)), kind)
            got = refine_scores(scores, rows, stats, k)
            want = refine_scores_per_row(scores, rows, stats, k)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


# Fits the stats of 400 rows of width 16 and prints the bytes of the
# precision and of every row's distance, in hex.
STATS_BYTES = """
import numpy as np
from hypervad.refine import fit_visual_stats, mahalanobis_rows
rows = np.random.default_rng(16).normal(size=(400, 16))
stats = fit_visual_stats(rows, 0.1)
print((stats.precision.tobytes() + mahalanobis_rows(rows, stats).tobytes()).hex())
"""


def test_stats_bytes_match_across_blas_thread_counts():
    # README scopes byte-identical outputs to one build and one BLAS thread
    # count; at width 16 the two thread counts also agree (ROADMAP item 13
    # holds the wider widths that do not)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("fewer than two usable CPUs: a second BLAS thread cannot run, so the bytes cannot differ")
    # the children do not read pytest's pythonpath setting, so they get src here
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", STATS_BYTES], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
