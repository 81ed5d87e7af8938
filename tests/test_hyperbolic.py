import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervad import hyperbolic
from hypervad.hyperbolic import (
    BALL_EPS,
    KARCHER_TOL,
    distance,
    exp_map,
    exp_map_origin,
    geodesic_point,
    log_map,
    log_map_origin,
    mobius_add,
    project_to_ball,
    weighted_geodesic_mean,
)

from oracles import karcher_mean_oracle, karcher_objective, mobius_neg, poincare_distance


def random_point(rng, dim=3, c=1.0, radius=0.8):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v) * rng.uniform(0, radius) / math.sqrt(c)


def random_points(rng, n, dim, c=1.0, radius=0.8):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(0, radius, size=(n, 1)) / math.sqrt(c)


class TestExpLogOrigin:
    def test_exp_of_zero_is_origin(self):
        p = exp_map_origin(np.zeros(4), 1.0)
        assert np.array_equal(p, np.zeros(4))

    def test_exp_closed_form(self):
        # independent oracle: exp_0(v) = tanh(sqrt(c)|v|) v / (sqrt(c)|v|)
        p = exp_map_origin(np.array([0.5, 0.0]), 1.0)
        assert p[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(0.46212, abs=1e-5)

    def test_exp_flat_limit_is_identity(self, rng):
        for _ in range(20):
            v = rng.normal(size=5)
            v = v / np.linalg.norm(v) * rng.uniform(0, 1.0)
            p = exp_map_origin(v, 1e-8)
            assert np.max(np.abs(p - v)) < 1e-6

    def test_log_of_origin_is_zero(self):
        assert np.array_equal(log_map_origin(np.zeros(3), 1.0), np.zeros(3))

    def test_log_closed_form(self):
        # artanh oracle on the exp example point
        v = log_map_origin(np.array([math.tanh(0.5), 0.0]), 1.0)
        assert v[0] == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip_small(self):
        v = np.array([0.3, -0.2])
        back = log_map_origin(exp_map_origin(v, 1.0), 1.0)
        assert np.max(np.abs(back - v)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 8, 64, 512]),
        norm=st.floats(1e-6, 5.0),
        c=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, dim, norm, c, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=dim)
        v = v / np.linalg.norm(v) * norm / math.sqrt(c)
        back = log_map_origin(exp_map_origin(v, c), c)
        assert np.max(np.abs(back - v)) < 1e-9

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            exp_map_origin(np.array([np.nan, 0.0]), 1.0)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            log_map_origin(np.array([1.0, 0.0]), 1.0)


class TestMobius:
    def test_right_identity(self, rng):
        x = random_point(rng)
        assert np.max(np.abs(mobius_add(x, np.zeros(3), 1.0) - x)) < 1e-15

    def test_left_identity(self, rng):
        y = random_point(rng)
        assert np.max(np.abs(mobius_add(np.zeros(3), y, 1.0) - y)) < 1e-15

    def test_left_inverse(self, rng):
        x = random_points(rng, 50, 3)
        assert np.max(np.abs(mobius_add(mobius_neg(x), x, 1.0))) < 1e-12

    def test_rejects_non_positive_curvature(self, rng):
        for c in (0.0, -1.0):
            with pytest.raises(ValueError, match="curvature"):
                exp_map_origin(random_point(rng), c)
            with pytest.raises(ValueError, match="curvature"):
                weighted_geodesic_mean(random_points(rng, 3, 3), np.ones(3), c)

    def test_mismatched_dim(self, rng):
        with pytest.raises(ValueError, match="broadcast"):
            mobius_add(random_point(rng, dim=2), random_point(rng, dim=3), 1.0)


class TestDistance:
    def test_zero_at_identical(self, rng):
        x = random_point(rng)
        assert distance(x, x, 1.0) == 0.0

    def test_scalar_closed_form(self):
        # 1-D oracle: d(0, y) = (2/sqrt(c)) artanh(sqrt(c) y)
        d = distance(np.array([0.0]), np.array([0.5]), 1.0)
        assert d == pytest.approx(2.0 * math.atanh(0.5), abs=1e-12)
        assert d == pytest.approx(1.09861, abs=1e-5)

    def test_symmetry(self, rng):
        x, y = random_points(rng, 100, 3), random_points(rng, 100, 3)
        assert np.max(np.abs(distance(x, y, 1.0) - distance(y, x, 1.0))) < 1e-12

    def test_triangle_inequality(self, rng):
        x, y, z = (random_points(rng, 500, 3, c=1.3, radius=0.95) for _ in range(3))
        assert np.all(distance(x, z, 1.3) <= distance(x, y, 1.3) + distance(y, z, 1.3) + 1e-9)

    def test_flat_limit_matches_scaled_euclidean(self, rng):
        c = 1e-8
        for _ in range(50):
            a = rng.normal(size=4)
            a = a / np.linalg.norm(a) * rng.uniform(0.01, 0.1)
            b = rng.normal(size=4)
            b = b / np.linalg.norm(b) * rng.uniform(0.01, 0.1)
            d = distance(a, b, c)
            euclid = 2.0 * np.linalg.norm(a - b)
            assert abs(d - euclid) / euclid < 1e-4

    def test_matches_arcosh_oracle(self, rng):
        for c in (0.1, 1.0, 4.0):
            x, y = random_points(rng, 20, 5, c=c), random_points(rng, 20, 5, c=c)
            batched = distance(x, y, c)
            for i in range(20):
                assert batched[i] == pytest.approx(poincare_distance(x[i], y[i], c), rel=1e-9)


class TestBallContainment:
    def test_projection_margin(self):
        out = project_to_ball(np.array([5.0, 0.0]), 1.0)
        assert np.linalg.norm(out) <= 1.0 - BALL_EPS + 1e-15

    def test_ops_stay_inside(self, rng):
        c = 2.0
        x = random_points(rng, 50, 3, c=c, radius=0.999)
        y = random_points(rng, 50, 3, c=c, radius=0.999)
        # far along the geodesic to y and along random directions, both past the margin
        for v in (log_map(x, y, c) * 50, rng.normal(size=(50, 3)) * 3):
            p = exp_map(x, v, c)
            assert np.all(math.sqrt(c) * np.linalg.norm(p, axis=1) <= 1.0 - BALL_EPS + 1e-12)

    def test_exp_of_huge_tangent_projected(self):
        p = exp_map_origin(np.array([50.0, 0.0]), 1.0)
        assert np.linalg.norm(p) <= 1.0 - BALL_EPS + 1e-15


class TestExpLogBasepoint:
    def test_roundtrip_at_basepoint(self, rng):
        base = random_points(rng, 30, 4, radius=0.7)
        target = random_points(rng, 30, 4, radius=0.7)
        back = exp_map(base, log_map(base, target, 1.0), 1.0)
        assert np.max(np.abs(back - target)) < 1e-10

    def test_log_at_self_is_zero(self, rng):
        base = random_point(rng)
        assert np.max(np.abs(log_map(base, base, 1.0))) < 1e-15


class TestBatchedRows:
    """A row of a batched call is bit-identical to the call on that row alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        dim=st.sampled_from([1, 2, 3, 8, 16, 64, 512]),
        c=st.sampled_from([0.1, 1.0, 4.0]),
        seed=st.integers(0, 2**31),
    )
    def test_rows_match_single_calls(self, n, dim, c, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, dim)) * rng.uniform(0.0, 3.0, size=(n, 1))
        v[rng.random(n) < 0.1] = 0.0  # zero tangents take their own branch
        base = random_points(rng, n, dim, c=c)
        target = random_points(rng, n, dim, c=c)
        batched = {
            "exp_map_origin": exp_map_origin(v, c),
            "log_map": log_map(base, target, c),
            "exp_map": exp_map(base, v, c),
        }
        for i in range(n):
            assert np.array_equal(batched["exp_map_origin"][i], exp_map_origin(v[i], c))
            assert np.array_equal(batched["log_map"][i], log_map(base[i], target[i], c))
            assert np.array_equal(batched["exp_map"][i], exp_map(base[i], v[i], c))


class TestKarcherMean:
    def test_single_point(self, rng):
        x = random_point(rng)
        result = weighted_geodesic_mean([x], [1.0], 1.0)
        assert result.converged
        assert np.array_equal(result.point, x)

    def test_identical_points_any_weights(self, rng):
        x = random_point(rng)
        result = weighted_geodesic_mean([x, x, x], [0.2, 0.5, 0.3], 1.0)
        assert result.converged
        assert np.max(np.abs(result.point - x)) < 1e-12

    def test_symmetric_pair_mean_at_origin(self, rng):
        for _ in range(10):
            x = random_point(rng, dim=5)
            result = weighted_geodesic_mean([x, mobius_neg(x)], [0.5, 0.5], 1.0)
            assert result.converged
            assert np.max(np.abs(result.point)) < 1e-9
            assert distance(result.point, x, 1.0) == pytest.approx(
                distance(result.point, mobius_neg(x), 1.0), abs=1e-9
            )

    def test_weight_degeneracy(self, rng):
        x, y = random_point(rng), random_point(rng)
        result = weighted_geodesic_mean([x, y], [1.0, 0.0], 1.0)
        assert result.converged
        assert np.array_equal(result.point, x)

    def test_flat_limit_matches_euclidean_weighted_mean(self, rng):
        c = 1e-8
        for _ in range(10):
            pts = rng.uniform(-0.3, 0.3, size=(4, 3))
            w = rng.uniform(0.1, 1.0, size=4)
            result = weighted_geodesic_mean(pts, w, c)
            euclid = (w / w.sum()) @ pts
            assert np.max(np.abs(result.point - euclid)) < 1e-5

    def test_local_minimum_perturbation(self, rng):
        for _ in range(20):
            n, dim = int(rng.integers(2, 8)), int(rng.integers(2, 16))
            pts = random_points(rng, n, dim, radius=0.9)
            w = rng.uniform(0.1, 1.0, size=n)
            result = weighted_geodesic_mean(pts, w, 1.0)
            assert result.converged
            base = karcher_objective(result.point, pts, w, 1.0)
            for _ in range(5):
                noise = rng.normal(size=dim)
                noise = noise / np.linalg.norm(noise) * (10 * KARCHER_TOL)
                perturbed = exp_map(result.point, noise, 1.0)
                assert karcher_objective(perturbed, pts, w, 1.0) >= base - 1e-9

    def test_two_points_first_order_condition(self, rng):
        # the closed form zeroes the Riemannian gradient without iterating
        for c in (0.1, 1.0, 4.0):
            for _ in range(50):
                dim = int(rng.integers(1, 33))
                x, y = random_point(rng, dim, c, 0.95), random_point(rng, dim, c, 0.95)
                w = rng.uniform(0.05, 1.0, size=2)
                result = weighted_geodesic_mean([x, y], w, c)
                assert result.converged and result.iterations == 0
                grad = w[0] * log_map(result.point, x, c) + w[1] * log_map(result.point, y, c)
                assert np.linalg.norm(grad) < 1e-9

    def test_two_points_is_geodesic_point(self, rng):
        x, y = random_points(rng, 2, 6, radius=0.9)
        result = weighted_geodesic_mean([x, y], [0.25, 0.75], 1.0)
        assert np.array_equal(result.point, geodesic_point(x, y, 0.75, 1.0))
        swapped = weighted_geodesic_mean([y, x], [0.75, 0.25], 1.0)
        assert np.max(np.abs(swapped.point - result.point)) < 1e-12

    def test_zero_weight_points_dropped(self, rng):
        pts = random_points(rng, 3, 4, radius=0.9)
        result = weighted_geodesic_mean(pts, [0.5, 0.0, 0.5], 1.0)
        assert result.iterations == 0
        assert np.array_equal(result.point, weighted_geodesic_mean(pts[[0, 2]], [0.5, 0.5], 1.0).point)

    def test_non_convergence_flagged(self, rng, monkeypatch):
        monkeypatch.setattr(hyperbolic, "KARCHER_TOL", 1e-16)
        monkeypatch.setattr(hyperbolic, "KARCHER_MAX_ITER", 1)
        pts = random_points(rng, 5, 3, radius=0.9)
        result = weighted_geodesic_mean(pts, np.ones(5), 1.0)
        assert not result.converged
        assert type(result.iterations) is int and type(result.converged) is bool

    def test_rejects_bad_weights(self, rng):
        x = random_point(rng)
        with pytest.raises(ValueError, match="non-negative"):
            weighted_geodesic_mean([x, x], [0.5, -0.5], 1.0)
        with pytest.raises(ValueError, match="positive"):
            weighted_geodesic_mean([x, x], [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="at least one"):
            weighted_geodesic_mean([], [], 1.0)

    @pytest.mark.parametrize("weights, message", [
        ([0.5, math.nan, 0.5], "weights must be finite"),
        ([0.5, math.inf, 0.5], "weights must be finite"),
        ([1e308, 1e308, 1.0, 1.0], "weights must sum to a finite positive value"),
    ])
    def test_rejects_weights_without_a_finite_total(self, rng, weights, message):
        # checked before any division, so no RuntimeWarning comes first
        pts = random_points(rng, len(weights), 3, radius=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                weighted_geodesic_mean(pts, weights, 1.0)

    def test_rejects_points_outside_ball(self, rng):
        x = random_point(rng)
        with pytest.raises(ValueError, match="boundary"):
            weighted_geodesic_mean([x, np.array([1.0, 0.0, 0.0])], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="finite"):
            weighted_geodesic_mean([x, np.array([np.nan, 0.0, 0.0])], [0.5, 0.5], 1.0)


def assert_matches_per_set_oracle(result, stack, w, c, **kwargs):
    """Every set of ``stack`` (..., m, d) against the one-set reference loop."""
    sets = stack.reshape(-1, *stack.shape[-2:])
    points = result.point.reshape(len(sets), -1)
    for i, (pts, point, its, unconverged) in enumerate(zip(
        sets, points, result.set_iterations.ravel(), result.unconverged.ravel()
    )):
        expected, expected_its, expected_converged = karcher_mean_oracle(pts, w, c, **kwargs)
        assert np.array_equal(point, expected), i
        assert (its, not unconverged) == (expected_its, expected_converged), i


class TestStackedKarcherMean:
    def test_matches_per_set_reference(self, rng):
        for m in [1, 2] + list(range(3, 17)):
            for _ in range(3):
                c = float(rng.uniform(0.1, 4.0))
                dim = int(rng.integers(1, 9))
                stack_shape = [(int(rng.integers(1, 7)),), (2, 3)][int(rng.integers(2))]
                stack = random_points(rng, int(np.prod(stack_shape)) * m, dim, c=c, radius=0.95)
                stack = stack.reshape(*stack_shape, m, dim)
                w = rng.uniform(0.05, 1.0, size=m)
                if m > 1:
                    w[rng.integers(m)] = 0.0
                result = weighted_geodesic_mean(stack, w, c)
                assert result.point.shape == (*stack_shape, dim)
                assert result.set_iterations.shape == result.unconverged.shape == stack_shape
                assert_matches_per_set_oracle(result, stack, w, c)
                assert result.iterations == int(result.set_iterations.sum())
                assert result.converged == (not result.unconverged.any())

    def test_each_set_stops_on_its_own(self, rng, monkeypatch):
        # identical points are done at the first iteration, spread points
        # are not done within two
        dim, m = 4, 6
        same = np.repeat(random_points(rng, 3, dim)[:, None, :], m, axis=1)
        spread = random_points(rng, 3 * m, dim, radius=0.95).reshape(3, m, dim)
        stack = np.stack([same[0], spread[0], spread[1], same[1], spread[2], same[2]])
        w = np.ones(m)
        monkeypatch.setattr(hyperbolic, "KARCHER_MAX_ITER", 2)
        result = weighted_geodesic_mean(stack, w, 1.0)
        assert result.set_iterations.tolist() == [1, 2, 2, 1, 2, 1]
        assert result.unconverged.tolist() == [False, True, True, False, True, False]
        assert result.iterations == 9 and result.converged is False
        assert_matches_per_set_oracle(result, stack, w, 1.0, max_iter=2)

    def test_single_set_is_stack_of_one(self, rng):
        pts = random_points(rng, 5, 3, radius=0.9)
        w = rng.uniform(0.1, 1.0, size=5)
        single = weighted_geodesic_mean(pts, w, 1.0)
        stacked = weighted_geodesic_mean(pts[None], w, 1.0)
        assert single.point.shape == (3,) and single.unconverged.shape == ()
        assert np.array_equal(single.point, stacked.point[0])
        assert single.iterations == stacked.iterations > 0
        assert type(stacked.iterations) is int and type(stacked.converged) is bool

    def test_input_checked_across_the_stack(self, rng):
        stack = random_points(rng, 6, 3, radius=0.9).reshape(2, 3, 3)
        stack[1, 2] = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="boundary"):
            weighted_geodesic_mean(stack, np.ones(3), 1.0)
        with pytest.raises(ValueError, match="one weight per point"):
            weighted_geodesic_mean(stack[:1], np.ones(2), 1.0)

    def test_empty_stack(self):
        result = weighted_geodesic_mean(np.zeros((0, 3, 2)), np.ones(3), 1.0)
        assert result.point.shape == (0, 2)
        assert result.iterations == 0 and result.converged
