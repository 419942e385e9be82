"""Curated test-function library.

Every entry is a proper lsc function with a vectorized evaluator of
coordinate arrays, a batched exact subderivative, and (for the convex
entries) a batched exact subdifferential that emits graph rows only where
they exist; each has the one vectorized form that
:class:`~varpolar.core.FunctionOracle` describes. These supply ground truth
for the numerical machinery and for the cross-validation suites. Functions
are addressable by stable string ids.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Array, FunctionOracle, Region, _ball_fan, _beyond_box, interval_rows

_BOX_1D = Region.interval(-2.0, 2.0)
_BOX_TWOWELL = Region.interval(-1.0, 3.0)
_BOX_2D = Region.box([(-2.0, 2.0), (-2.0, 2.0)])


def _interval_side_oracle(bounds):
    """Batched side-oracle of a 1-D entry whose subdifferential at x is the
    interval [lo, hi] with (lo, hi) = bounds(x) for an (N,) array x; NaN
    bounds mark points where it is empty."""

    def batch(points: Array, half_width: float) -> tuple[Array, Array, Array]:
        return interval_rows(*bounds(points[:, 0]), half_width)

    return batch


def _one_dim(sd):
    """Batched subderivative of a 1-D entry from ``sd(x, d)`` on the (N,)
    columns of its bases and directions."""
    return lambda xbars, ds: sd(xbars[:, 0], ds[:, 0])


def _sd_abs(x: Array, d: Array) -> Array:
    return np.where(x > 0, d, np.where(x < 0, -d, np.abs(d)))


def _bounds_abs(x: Array) -> tuple[Array, Array]:
    return np.where(x > 0, 1.0, -1.0), np.where(x < 0, -1.0, 1.0)


def _sd_ind_halfline(x: Array, d: Array) -> Array:
    # +inf outside dom f, where callers should not get
    return np.where((x > 0) | ((x == 0) & (d >= 0)), 0.0, math.inf)


def _bounds_ind_halfline(x: Array) -> tuple[Array, Array]:
    lo = np.where(x > 0, 0.0, np.where(x == 0, -math.inf, math.nan))
    return lo, np.where(x >= 0, 0.0, math.nan)


def _bounds_ind_origin(x: Array) -> tuple[Array, Array]:
    return np.where(x == 0, -math.inf, math.nan), np.where(x == 0, math.inf, math.nan)


def _sd_maxzero(x: Array, d: Array) -> Array:
    return np.where(x > 0, d, np.where(x < 0, 0.0, np.maximum(d, 0.0)))


def _bounds_maxzero(x: Array) -> tuple[Array, Array]:
    return np.where(x > 0, 1.0, 0.0), np.where(x < 0, 0.0, 1.0)


# min(|x|, |x-2|+1): two local minima, at 0 (value 0) and 2 (value 1); kinks
# at 0 and 2 (convex) and at the crossover 1.5 (concave).
def _sd_twowell(x: Array, d: Array) -> Array:
    # the active piece's subderivative, and the smaller one where both are
    left, right = _sd_abs(x, d), _sd_abs(x - 2.0, d)
    return np.where(x < 1.5, left, np.where(x > 1.5, right, np.minimum(left, right)))


def _sd_norm2d(xbars: Array, ds: Array) -> Array:
    x1, x2, d1, d2 = xbars[:, 0], xbars[:, 1], ds[:, 0], ds[:, 1]
    nx = np.sqrt(x1 * x1 + x2 * x2)
    kink = nx == 0.0
    return np.where(kink, np.sqrt(d1 * d1 + d2 * d2), (x1 * d1 + x2 * d2) / np.where(kink, 1.0, nx))


def _rows_norm2d(points: Array, half_width: float) -> tuple[Array, Array, Array]:
    nx = np.sqrt(points[:, 0] * points[:, 0] + points[:, 1] * points[:, 1])
    kink = np.flatnonzero(nx == 0.0)
    n = points.shape[0]
    if not kink.size:
        normals = points / nx[:, None]
        return np.arange(n), normals, _beyond_box(normals, half_width)
    # one unit normal per point, and the whole ball at the kink
    ball = _ball_fan()
    nx[kink] = 1.0
    counts = np.ones(n, dtype=np.intp)
    counts[kink] = ball.shape[0]
    owner = np.repeat(np.arange(n), counts)
    normals = points / nx[:, None]
    covectors = np.take(normals, owner, axis=0)
    at = kink + (ball.shape[0] - 1) * np.arange(kink.size)  # each kink's first row
    covectors[at[:, None] + np.arange(ball.shape[0])] = ball
    truncated = _beyond_box(normals, half_width)
    truncated[kink] = _beyond_box(ball, half_width).any()
    return owner, covectors, truncated


def _sd_mixed2d(xbars: Array, ds: Array) -> Array:
    return 2.0 * xbars[:, 0] * ds[:, 0] + _sd_abs(xbars[:, 1], ds[:, 1])


def _rows_mixed2d(points: Array, half_width: float) -> tuple[Array, Array, Array]:
    # the vertex (g, sign x2), and on the line x2 = 0 the segment's vertices
    # (g, -1) and (g, 1) and their mean
    n = points.shape[0]
    kink = np.flatnonzero(points[:, 1] == 0)
    counts = np.ones(n, dtype=np.intp)
    counts[kink] = 3
    owner = np.repeat(np.arange(n), counts) if kink.size else np.arange(n)
    g = 2.0 * points[:, 0]
    covectors = np.empty((owner.size, 2))
    covectors[:, 0] = np.take(g, owner)
    covectors[:, 1] = np.take(np.where(points[:, 1] > 0, 1.0, -1.0), owner)
    at = kink + 2 * np.arange(kink.size)  # each kink's first row
    covectors[at + 1, 1] = 1.0
    # the mean of the two vertices (a plain sum would keep the sign of
    # g = -0.0)
    covectors[at + 2] = np.stack([covectors[at], covectors[at + 1]], axis=1).mean(axis=1)
    # every row of a point is (g, c) with |c| <= 1, and one has |c| = 1
    return owner, covectors, (np.abs(g) > half_width) | (half_width < 1.0)


def _build_library() -> dict[str, FunctionOracle]:
    entries = [
        FunctionOracle(
            name="abs",
            dim=1,
            batch=np.abs,
            is_convex=True,
            exact_subderivative=_one_dim(_sd_abs),
            exact_subdifferential=_interval_side_oracle(_bounds_abs),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="square",
            dim=1,
            batch=lambda x: x * x,
            is_convex=True,
            exact_subderivative=_one_dim(lambda x, d: 2.0 * x * d),
            exact_subdifferential=_interval_side_oracle(lambda x: (2.0 * x, 2.0 * x)),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="neg_abs",
            dim=1,
            batch=lambda x: -np.abs(x),
            is_convex=False,
            exact_subderivative=_one_dim(lambda x, d: -_sd_abs(x, d)),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="ind_halfline",
            dim=1,
            batch=lambda x: np.where(x >= 0, 0.0, math.inf),
            is_convex=True,
            exact_subderivative=_one_dim(_sd_ind_halfline),
            exact_subdifferential=_interval_side_oracle(_bounds_ind_halfline),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="ind_origin",
            dim=1,
            batch=lambda x: np.where(x == 0, 0.0, math.inf),
            is_convex=True,
            exact_subderivative=_one_dim(
                lambda x, d: np.where((x == 0) & (d == 0), 0.0, math.inf)
            ),
            exact_subdifferential=_interval_side_oracle(_bounds_ind_origin),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="maxzero",
            dim=1,
            batch=lambda x: np.maximum(x, 0.0),
            is_convex=True,
            exact_subderivative=_one_dim(_sd_maxzero),
            exact_subdifferential=_interval_side_oracle(_bounds_maxzero),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="twowell",
            dim=1,
            batch=lambda x: np.minimum(np.abs(x), np.abs(x - 2.0) + 1.0),
            is_convex=False,
            exact_subderivative=_one_dim(_sd_twowell),
            default_region=_BOX_TWOWELL,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="norm2d",
            dim=2,
            # the same IEEE operations as np.linalg.norm(p, axis=1) on the
            # points p with coordinates x1, x2, without its strided reduce
            batch=lambda x1, x2: np.sqrt(x1 * x1 + x2 * x2),
            is_convex=True,
            exact_subderivative=_sd_norm2d,
            exact_subdifferential=_rows_norm2d,
            default_region=_BOX_2D,
            finite_point=np.array([0.0, 0.0]),
        ),
        FunctionOracle(
            name="mixed2d",
            dim=2,
            batch=lambda x1, x2: x1 * x1 + np.abs(x2),
            is_convex=True,
            exact_subderivative=_sd_mixed2d,
            exact_subdifferential=_rows_mixed2d,
            default_region=_BOX_2D,
            finite_point=np.array([0.0, 0.0]),
        ),
    ]
    return {f.name: f for f in entries}


_LIBRARY = _build_library()

FUNCTION_IDS: tuple[str, ...] = tuple(_LIBRARY)


def test_library() -> list[FunctionOracle]:
    """All curated oracles, in stable id order."""
    return list(_LIBRARY.values())


def get_function(function_id: str) -> FunctionOracle:
    """Look up a library oracle by its stable id."""
    try:
        return _LIBRARY[function_id]
    except KeyError:
        known = ", ".join(FUNCTION_IDS)
        raise KeyError(f"unknown function id {function_id!r}; known ids: {known}") from None
