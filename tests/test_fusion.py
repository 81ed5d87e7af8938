from dataclasses import replace

import numpy as np
import pytest

from hypervad import fusion, hyperbolic
from hypervad.core import PipelineConfig, ValidationError, validate_dataset
from hypervad.fusion import (
    fuse_sequence,
    fuse_sequence_euclidean,
    prepare_tangent,
    window_fused_points,
)
from hypervad.hyperbolic import exp_map_origin, weighted_geodesic_mean

from conftest import make_segments
from oracles import window_means_oracle


def make_dataset(rng, n=6, dim=4, audio="all"):
    segs = make_segments(n, audio=False)
    if audio in ("all", "mixed"):
        segs = make_segments(n, audio=True)
        if audio == "mixed":
            segs = replace(segs, audio=segs.audio[:2] + (None,) + segs.audio[3:])
    visual, text = rng.normal(size=(n, dim)), rng.normal(size=(n, dim))
    audio = None if audio == "none" else rng.normal(size=(n, dim))
    return validate_dataset(segs, visual, text, audio)


def one_segment(e_vis, e_aud):
    """A validated one-segment dataset: text row e_vis, audio row e_aud or none."""
    e_vis = np.asarray(e_vis, dtype=np.float64)
    audio = None if e_aud is None else [e_aud]
    return validate_dataset(make_segments(1, audio=e_aud is not None),
                            [np.ones_like(e_vis)], [e_vis], audio)


def fuse_one(e_vis, e_aud, audio_weight, curvature):
    config = PipelineConfig(audio_weight=audio_weight, curvature=curvature)
    return fuse_sequence(one_segment(e_vis, e_aud), config)[0]


class TestFuseSegment:
    """One segment through fuse_sequence."""

    def test_audio_absent_is_exact_exp_map(self, rng):
        e = rng.normal(size=5)
        point = fuse_one(e, None, 0.5, 1.0)
        assert np.array_equal(point, exp_map_origin(prepare_tangent(e), 1.0))

    def test_identical_modalities_collapse(self, rng):
        e = rng.normal(size=4)
        point = fuse_one(e, e.copy(), 0.5, 1.0)
        expected = exp_map_origin(prepare_tangent(e), 1.0)
        assert np.max(np.abs(point - expected)) < 1e-12

    def test_symmetric_inputs_fuse_to_origin(self):
        point = fuse_one(np.array([0.4, 0.0]), np.array([-0.4, 0.0]), 0.5, 1.0)
        assert np.max(np.abs(point)) < 1e-9

    def test_weight_degeneracy(self, rng):
        e_vis, e_aud = rng.normal(size=3), rng.normal(size=3)
        point = fuse_one(e_vis, e_aud, 0.0, 1.0)
        expected = exp_map_origin(prepare_tangent(e_vis), 1.0)
        assert np.max(np.abs(point - expected)) < 1e-10

    def test_order_independence(self, rng):
        e_vis, e_aud = rng.normal(size=4), rng.normal(size=4)
        a = fuse_one(e_vis, e_aud, 0.7, 1.0)
        b = fuse_one(e_aud, e_vis, 0.3, 1.0)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_flat_limit_matches_arithmetic_mean(self, rng):
        c = 1e-8
        for _ in range(10):
            e_vis, e_aud = rng.normal(size=4), rng.normal(size=4)
            point = fuse_one(e_vis, e_aud, 0.5, c)
            mean = 0.5 * prepare_tangent(e_vis) + 0.5 * prepare_tangent(e_aud)
            assert np.max(np.abs(point - mean)) < 1e-5

    def test_matches_iterated_two_point_mean(self, rng):
        # the closed form agrees with iterating the Karcher update on the pair
        for c in (0.1, 1.0, 4.0):
            config = PipelineConfig(curvature=c, audio_weight=0.65)
            ds = make_dataset(rng, n=20, dim=8)
            fused = fuse_sequence(ds, config)
            vis = exp_map_origin(prepare_tangent(ds.text), c)
            aud = exp_map_origin(prepare_tangent(ds.audio), c)
            for t in range(20):
                # a third copy of the visual point keeps the mean iterative
                pts = np.stack([vis[t], vis[t], aud[t]])
                iterated = weighted_geodesic_mean(pts, [0.175, 0.175, 0.65], c)
                assert iterated.iterations > 0
                assert np.max(np.abs(fused[t] - iterated.point)) < 1e-9

    # The checks that guarded the per-segment fusion now run when the
    # dataset and the config are built, before any compute.
    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError, match="audio: dimension mismatch"):
            one_segment(rng.normal(size=3), rng.normal(size=4))

    def test_non_finite_input(self):
        with pytest.raises(ValidationError, match="finite"):
            one_segment(np.array([np.inf, 0.0]), None)

    def test_bad_weights(self):
        with pytest.raises(ValidationError, match="audio_weight must lie in"):
            PipelineConfig(audio_weight=1.6)


class TestFuseSequence:
    def test_all_visual_dataset_is_pointwise_exp(self, rng):
        ds = make_dataset(rng, audio="none")
        fused = fuse_sequence(ds, PipelineConfig())
        text = ds.text
        assert fused.shape == text.shape
        for t, point in enumerate(fused):
            assert np.array_equal(point, exp_map_origin(prepare_tangent(text[t]), 1.0))

    def test_mixed_dataset_per_segment_rule(self, rng):
        ds = make_dataset(rng, audio="mixed")
        fused = fuse_sequence(ds, PipelineConfig())
        unimodal = exp_map_origin(prepare_tangent(ds.text), 1.0)
        assert np.array_equal(fused[2], unimodal[2])
        others = np.arange(6) != 2
        assert np.all(np.abs(fused[others] - unimodal[others]).max(axis=1) > 1e-6)

    def test_modality_deletion_invariance(self, rng):
        ds_with = make_dataset(rng, audio="all")
        segs_mono = replace(ds_with.segments, audio=(None,) * ds_with.n_segments)
        ds_without = validate_dataset(segs_mono, ds_with.visual, ds_with.text)
        config = PipelineConfig()
        mono = fuse_sequence(ds_without, config)
        text = ds_without.text
        for t, point in enumerate(mono):
            expected = exp_map_origin(prepare_tangent(text[t]), config.curvature)
            assert np.array_equal(point, expected)

    def test_flat_limit_sequence_matches_euclidean(self, rng):
        ds = make_dataset(rng, audio="all")
        config = PipelineConfig(curvature=1e-8)
        hyperbolic = fuse_sequence(ds, config)
        euclidean = fuse_sequence_euclidean(ds, config)
        assert np.max(np.abs(hyperbolic - euclidean)) < 1e-5

    def test_empty_dataset(self):
        ds = validate_dataset(make_segments(0), np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 4)))
        assert fuse_sequence(ds, PipelineConfig()).shape == (0, 4)
        assert fuse_sequence_euclidean(ds, PipelineConfig()).shape == (0, 4)


class TestWindowFusedPoints:
    def test_single_segment_windows_pass_through(self, rng):
        ds = make_dataset(rng, n=4, audio="none")
        config = PipelineConfig(window=1)
        fused = fuse_sequence(ds, config)
        points, failures = window_fused_points(fused, config)
        assert np.array_equal(points, fused)
        assert failures == []

    def test_multi_segment_window_is_geodesic_mean(self, rng):
        ds = make_dataset(rng, n=5, audio="none")
        config = PipelineConfig(window=3)
        fused = fuse_sequence(ds, config)
        points, failures = window_fused_points(fused, config)
        assert points.shape == (2, 4) and failures == []
        expected, expected_failures, _ = window_means_oracle(fused, config)
        assert np.array_equal(points, expected) and expected_failures == []

    def test_failed_window_means_reported(self, rng, monkeypatch):
        ds = make_dataset(rng, n=8, audio="none")
        config = PipelineConfig(window=3)
        fused = fuse_sequence(ds, config)
        monkeypatch.setattr(hyperbolic, "KARCHER_MAX_ITER", 1)
        # windows of 3, 3 and 2 segments: only the three-point means iterate
        _, failures = window_fused_points(fused, config)
        assert failures == [0, 1]

    @pytest.mark.parametrize("n, window, calls", [
        (40, 4, 1),   # full windows only
        (41, 4, 1),   # trailing window of one passes through
        (42, 4, 2),   # trailing window of two: closed form
        (43, 4, 2),   # trailing window of three: iterated
        (33, 7, 2),
        (2, 3, 1),    # the partial window is the only one
        (12, 1, 0),   # every window passes through
    ])
    @pytest.mark.parametrize("max_iter", [3, 8, 200])  # 8: some windows fail, some converge
    def test_ragged_layouts_match_per_window_oracle(self, rng, monkeypatch, n, window, calls, max_iter):
        ds = make_dataset(rng, n=n, dim=5, audio="all")
        config = PipelineConfig(window=window, curvature=float(rng.uniform(0.5, 2.0)))
        fused = fuse_sequence(ds, config)
        seen = []

        def counted(points, *args, **kwargs):
            seen.append(np.shape(points))
            return weighted_geodesic_mean(points, *args, **kwargs)

        monkeypatch.setattr(fusion, "weighted_geodesic_mean", counted)
        monkeypatch.setattr(hyperbolic, "KARCHER_MAX_ITER", max_iter)
        points, failures = window_fused_points(fused, config)
        expected, expected_failures, _ = window_means_oracle(fused, config, max_iter=max_iter)
        assert np.array_equal(points, expected)
        assert failures == expected_failures
        assert all(type(k) is int for k in failures)
        assert len(seen) == calls and all(shape[1] >= 2 for shape in seen)

    def test_empty_sequence(self):
        points, failures = window_fused_points(np.zeros((0, 4)), PipelineConfig(window=3))
        assert points.shape == (0, 4) and failures == []
