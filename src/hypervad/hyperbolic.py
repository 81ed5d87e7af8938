"""Poincare-ball geometry on plain float64 arrays: exp/log maps, Mobius
addition, geodesic distance, and the weighted geodesic (Karcher) mean used
for modality fusion and window aggregation.

Points and tangent vectors are ``(..., d)`` arrays; every map works row-wise
and broadcasts over the leading axes, and the curvature c > 0 is an
argument. The ball of curvature c is {x : c * ||x||^2 < 1}, radius
1/sqrt(c). Maps that return points project them to radius
(1 - BALL_EPS) / sqrt(c) because artanh blows up at the boundary. The margin
and the Karcher tolerance and cap are module constants, not arguments.

Formulas follow the standard gyrovector-space treatment (Ungar; Ganea et al.,
"Hyperbolic neural networks", NeurIPS 2018):

    x (+) y   = ((1 + 2c<x,y> + c|y|^2) x + (1 - c|x|^2) y)
                / (1 + 2c<x,y> + c^2 |x|^2 |y|^2)
    d(x, y)   = (2 / sqrt(c)) artanh(sqrt(c) |(-x) (+) y|)
    lambda_x  = 2 / (1 - c |x|^2)                     (conformal factor)
    exp_x(v)  = x (+) tanh(sqrt(c) lambda_x |v| / 2) v / (sqrt(c) |v|)
    log_x(p)  = (2 / (sqrt(c) lambda_x)) artanh(sqrt(c) |u|) u / |u|,
                u = (-x) (+) p

The origin maps exp_0 and log_0 are these at x = 0, where lambda_0 = 2 and
0 (+) y = y: exp_0(v) = tanh(sqrt(c) |v|) v / (sqrt(c) |v|) and
log_0(p) = artanh(sqrt(c) |p|) p / (sqrt(c) |p|). A row of a batched result
is computed by the same elementwise code as a call on that row alone.

Inputs are checked at the entry points that take them from outside:
exp_map_origin (finite tangents), log_map_origin and weighted_geodesic_mean
(finite points strictly inside the ball), all three for positive curvature.
The other maps assume valid ball points, so the Karcher iteration does not
re-check its own iterates.

weighted_geodesic_mean takes a stack of point sets (..., m, d) that share one
weight vector and iterates all sets together. A set leaves the iteration
when its own residual drops below KARCHER_TOL, so each set's point and
iteration count are those of a call on that set alone, bit for bit; a single
(m, d) set is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BALL_EPS = 1e-5
KARCHER_TOL = 1e-10
KARCHER_MAX_ITER = 200

_MIN_NORM = 1e-15
# The largest sqrt(c)|u| passed to artanh, which is infinite at 1.
_MAX_ARTANH_ARG = 1.0 - 1e-15


def _norm(x: np.ndarray) -> np.ndarray:
    """Row norms, keeping the reduced axis so they broadcast against ``x``."""
    return np.linalg.norm(x, axis=-1, keepdims=True)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * y, axis=-1, keepdims=True)


def _check_curvature(curvature: float) -> None:
    if not curvature > 0:
        raise ValueError(f"curvature must be positive, got {curvature}")


def _checked_points(x, curvature: float) -> np.ndarray:
    _check_curvature(curvature)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    if np.any(np.sqrt(curvature) * _norm(x) >= 1.0):
        raise ValueError("point lies on or outside the ball boundary")
    return x


def project_to_ball(x, curvature: float) -> np.ndarray:
    """Scale rows radially so that sqrt(c)*||x|| <= 1 - BALL_EPS; rows already
    inside are returned unchanged."""
    x = np.asarray(x, dtype=np.float64)
    max_radius = (1.0 - BALL_EPS) / np.sqrt(curvature)
    norm = _norm(x)
    return np.where(norm > max_radius, x * (max_radius / np.maximum(norm, _MIN_NORM)), x)


def mobius_add(x, y, curvature: float) -> np.ndarray:
    """Mobius addition x (+) y, unprojected: the log map and the distance
    take the raw sum, and :func:`exp_map` projects its own result."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = curvature
    x2, y2, xy = _dot(x, x), _dot(y, y), _dot(x, y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    denom = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / np.maximum(denom, _MIN_NORM)


def exp_map_origin(v, curvature: float) -> np.ndarray:
    """Map tangent vectors at the origin onto the ball: :func:`exp_map` at 0.

    exp_0(0) is the origin exactly; other rows land strictly inside the ball
    after the margin projection.
    """
    _check_curvature(curvature)
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("tangent vector must be finite")
    return exp_map(np.zeros_like(v), v, curvature)


def log_map_origin(p, curvature: float) -> np.ndarray:
    """Inverse of exp_map_origin, :func:`log_map` at 0: tangent vectors at
    the origin reaching p."""
    p = _checked_points(p, curvature)
    return log_map(np.zeros_like(p), p, curvature)


def _conformal_factor(x: np.ndarray, c: float) -> np.ndarray:
    return 2.0 / np.maximum(1.0 - c * _dot(x, x), _MIN_NORM)


def exp_map(base, v, curvature: float) -> np.ndarray:
    """Exponential map at basepoints, via Mobius translation, projected to
    the margin. A zero tangent returns its basepoint exactly."""
    base = np.asarray(base, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    sqrt_c = np.sqrt(curvature)
    norm = _norm(v)
    zero = norm < _MIN_NORM
    norm = np.maximum(norm, _MIN_NORM)
    lam = _conformal_factor(base, curvature)
    second = np.tanh(sqrt_c * lam * norm / 2.0) * v / (sqrt_c * norm)
    return np.where(zero, base, project_to_ball(mobius_add(base, second, curvature), curvature))


def log_map(base, p, curvature: float) -> np.ndarray:
    """Logarithmic map at basepoints, via Mobius translation."""
    base = np.asarray(base, dtype=np.float64)
    sqrt_c = np.sqrt(curvature)
    u = mobius_add(-base, p, curvature)
    norm = _norm(u)
    zero = norm < _MIN_NORM
    norm = np.maximum(norm, _MIN_NORM)
    lam = _conformal_factor(base, curvature)
    scaled = np.minimum(sqrt_c * norm, _MAX_ARTANH_ARG)
    return np.where(zero, 0.0, (2.0 / (sqrt_c * lam)) * np.arctanh(scaled) * u / norm)


def distance(x, y, curvature: float) -> np.ndarray:
    """Geodesic distance d(x, y) = (2/sqrt(c)) artanh(sqrt(c) |(-x) (+) y|)."""
    sqrt_c = np.sqrt(curvature)
    diff = mobius_add(-np.asarray(x, dtype=np.float64), y, curvature)
    scaled = np.minimum(sqrt_c * np.linalg.norm(diff, axis=-1), _MAX_ARTANH_ARG)
    return 2.0 / sqrt_c * np.arctanh(scaled)


def geodesic_point(x, y, t, curvature: float) -> np.ndarray:
    """The point a fraction ``t`` of the way along the geodesic from x to y,
    exp_x(t log_x(y)).

    It is the exact weighted Karcher mean of the pair for t = w_y / (w_x + w_y):
    at that point log_m(x) and log_m(y) are antiparallel with norms t d and
    (1 - t) d, so w_x log_m(x) + w_y log_m(y) = 0.
    """
    return exp_map(x, t * log_map(x, y, curvature), curvature)


@dataclass(frozen=True)
class KarcherResult:
    """Outcome of the weighted geodesic mean of a stack of point sets.

    For points of shape ``(..., m, d)`` the per-set fields have the stack
    shape ``(...)``: ``point`` is ``(..., d)``, ``set_iterations`` the
    iteration each set stopped at, and ``unconverged`` marks the sets that
    exhausted the constant KARCHER_MAX_ITER, whose point is the best effort
    found, never a silent success. A single ``(m, d)`` set gives a ``(d,)``
    point and 0-d per-set fields. ``iterations`` (a Python int) sums the
    per-set counts; ``converged`` (a bool) holds only if every set
    converged. The closed-form cases (one point of full weight, two points)
    report 0 iterations.
    """

    point: np.ndarray
    set_iterations: np.ndarray
    unconverged: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.set_iterations.sum())

    @property
    def converged(self) -> bool:
        return not self.unconverged.any()


def weighted_geodesic_mean(points, weights, curvature: float) -> KarcherResult:
    """Weighted Karcher mean of each point set in ``points`` (..., m, d):
    per set, the point minimizing sum_i w_i d(m, x_i)^2, with one weight
    vector ``weights`` (m,) shared by every set.

    Points of zero weight are dropped. A single remaining point of full
    weight is the mean exactly, and two remaining points have the closed
    form :func:`geodesic_point`. More points iterate m <- exp_m(step * u)
    with u = sum_i w_i log_m(x_i) / sum_i w_i, starting from the
    weight-normalized Euclidean average of the coordinates (projected into
    the ball). All sets iterate together, and a set leaves the active stack
    at the first iteration its ||u|| drops below the constant KARCHER_TOL,
    so each set stops at the iteration, and with the point, that it reaches
    on its own; one still moving after KARCHER_MAX_ITER iterations is
    marked unconverged. The inputs are checked once, before any iteration.

    The raw fixed-point iteration (step 1) oscillates once points sit more
    than about two units of geodesic distance from the mean: the squared
    distance Hessian has eigenvalues up to sqrt(c) d coth(sqrt(c) d), so a
    unit step overshoots. The step of each set is therefore damped to 1/H
    with H the largest such factor over its support, which restores
    guaranteed descent while keeping the same fixed point and the same
    residual definition.
    """
    points = _checked_points(points, curvature)
    if points.ndim < 2 or points.shape[-2] == 0:
        raise ValueError(f"need at least one point as an (..., m, d) array, got shape {points.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (points.shape[-2],):
        raise ValueError("one weight per point required")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        total = float(w.sum())
    if not 0 < total < np.inf:
        raise ValueError("weights must sum to a finite positive value")
    w = w / total

    support = w > 0
    stack, d = points.shape[:-2], points.shape[-1]
    # compress copies to C order, the layout the matmuls below expect: on a
    # strided view, w @ sets can round differently from the same rows copied
    sets = np.compress(support, points, axis=-2).reshape(-1, int(support.sum()), d)
    w = w[support]
    set_iterations = np.zeros(len(sets), dtype=np.int64)
    unconverged = np.zeros(len(sets), dtype=bool)
    top = int(np.argmax(w))
    if w[top] == 1.0:
        # degenerate weighting: the mean is that point exactly
        out = sets[:, top]
    elif len(w) == 2:
        out = geodesic_point(sets[:, 0], sets[:, 1], w[1], curvature)
    else:
        out = _iterate_means(sets, w, curvature, set_iterations, unconverged)
    return KarcherResult(
        out.reshape(*stack, d),
        set_iterations.reshape(stack),
        unconverged.reshape(stack),
    )


def _iterate_means(sets, w, curvature, set_iterations, unconverged):
    """The damped fixed-point iteration over the (k, m, d) stack ``sets``.

    ``active`` indexes the sets still iterating, and ``mean`` and ``points``
    hold only their rows, so the arrays shrink as sets converge. Fills the
    per-set outputs in place and returns the (k, d) means.
    """
    sqrt_c = np.sqrt(curvature)
    out = project_to_ball(w @ sets, curvature)
    active, mean, points = np.arange(len(sets)), out, sets
    for it in range(1, KARCHER_MAX_ITER + 1):
        tangents = log_map(mean[:, None, :], points, curvature)
        update = w @ tangents
        # per-row sqrt(u . u) by the same dot product as a norm of one row
        norms = np.sqrt((update[:, None, :] @ update[:, :, None])[:, 0, 0])
        done = norms < KARCHER_TOL
        if done.any():
            out[active[done]] = mean[done]
            set_iterations[active[done]] = it
            keep = ~done
            active, mean, points = active[keep], mean[keep], points[keep]
            tangents, update = tangents[keep], update[keep]
        if not len(active):
            return out
        # the log map norms are the geodesic distances to the points
        t = sqrt_c * np.linalg.norm(tangents, axis=-1)
        ratio = np.divide(t, np.tanh(t), out=np.ones_like(t), where=t > 1e-8)
        smoothness = np.max(ratio, axis=-1, initial=1.0)
        mean = exp_map(mean, update / smoothness[:, None], curvature)
    out[active] = mean
    set_iterations[active] = KARCHER_MAX_ITER
    unconverged[active] = True
    return out
