"""Curated test-function library.

Every entry is a proper lsc function with a vectorized evaluator, an exact
subderivative oracle, and (for the convex entries) an exact subdifferential
oracle. These supply ground truth for the numerical machinery and for the
cross-validation suites. Every exact subdifferential comes with its batched
form, built from the same pieces, which emits graph rows only where they
exist (see :class:`~varpolar.core.FunctionOracle`). Functions are
addressable by stable string ids.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Array,
    BallSet,
    FunctionOracle,
    IntervalSet,
    PolytopeSet,
    Region,
    SubdiffSet,
)

_BOX_1D = Region.interval(-2.0, 2.0)
_BOX_TWOWELL = Region.interval(-1.0, 3.0)
_BOX_2D = Region.box([(-2.0, 2.0), (-2.0, 2.0)])


def _interval_side_oracle(bounds):
    """Batched side-oracle of a 1-D entry whose subdifferential at x is the
    interval [lo, hi] with (lo, hi) = bounds(x) for an (N,) array x; NaN
    bounds mark points where it is empty."""

    def batch(points: Array, half_width: float) -> tuple[Array, Array, Array]:
        return IntervalSet.batch_representatives(*bounds(points[:, 0]), half_width)

    return batch


def _sd_abs(x: Array, d: Array) -> float:
    if x[0] > 0:
        return float(d[0])
    if x[0] < 0:
        return float(-d[0])
    return abs(float(d[0]))


def _sdiff_abs(x: Array) -> SubdiffSet:
    if x[0] > 0:
        return IntervalSet(1.0, 1.0)
    if x[0] < 0:
        return IntervalSet(-1.0, -1.0)
    return IntervalSet(-1.0, 1.0)


def _bounds_abs(x: Array) -> tuple[Array, Array]:
    return np.where(x > 0, 1.0, -1.0), np.where(x < 0, -1.0, 1.0)


def _sd_square(x: Array, d: Array) -> float:
    return 2.0 * float(x[0]) * float(d[0])


def _sd_neg_abs(x: Array, d: Array) -> float:
    if x[0] > 0:
        return float(-d[0])
    if x[0] < 0:
        return float(d[0])
    return -abs(float(d[0]))


def _sd_ind_halfline(x: Array, d: Array) -> float:
    if x[0] > 0:
        return 0.0
    if x[0] == 0:
        return 0.0 if d[0] >= 0 else math.inf
    return math.inf  # outside dom f; callers should not get here


def _sdiff_ind_halfline(x: Array) -> SubdiffSet | None:
    if x[0] > 0:
        return IntervalSet(0.0, 0.0)
    if x[0] == 0:
        return IntervalSet(-math.inf, 0.0)
    return None


def _bounds_ind_halfline(x: Array) -> tuple[Array, Array]:
    lo = np.where(x > 0, 0.0, np.where(x == 0, -math.inf, math.nan))
    return lo, np.where(x >= 0, 0.0, math.nan)


def _bounds_ind_origin(x: Array) -> tuple[Array, Array]:
    return np.where(x == 0, -math.inf, math.nan), np.where(x == 0, math.inf, math.nan)


def _sd_ind_origin(x: Array, d: Array) -> float:
    if x[0] == 0:
        return 0.0 if d[0] == 0 else math.inf
    return math.inf


def _sd_maxzero(x: Array, d: Array) -> float:
    if x[0] > 0:
        return float(d[0])
    if x[0] < 0:
        return 0.0
    return max(float(d[0]), 0.0)


def _sdiff_maxzero(x: Array) -> SubdiffSet:
    if x[0] > 0:
        return IntervalSet(1.0, 1.0)
    if x[0] < 0:
        return IntervalSet(0.0, 0.0)
    return IntervalSet(0.0, 1.0)


def _bounds_maxzero(x: Array) -> tuple[Array, Array]:
    return np.where(x > 0, 1.0, 0.0), np.where(x < 0, 0.0, 1.0)


# min(|x|, |x-2|+1): two local minima, at 0 (value 0) and 2 (value 1); kinks
# at 0 and 2 (convex) and at the crossover 1.5 (concave).
def _twowell(x: Array) -> float:
    v = float(x[0])
    return min(abs(v), abs(v - 2.0) + 1.0)


def _twowell_slopes(v: float) -> tuple[float, float]:
    """(left slope, right slope) of the two-well function at v."""
    if v < 0.0:
        return -1.0, -1.0
    if v == 0.0:
        return -1.0, 1.0
    if v < 1.5:
        return 1.0, 1.0
    if v == 1.5:
        return 1.0, -1.0
    if v < 2.0:
        return -1.0, -1.0
    if v == 2.0:
        return -1.0, 1.0
    return 1.0, 1.0


def _sd_twowell(x: Array, d: Array) -> float:
    sl, sr = _twowell_slopes(float(x[0]))
    dd = float(d[0])
    return sr * dd if dd >= 0 else sl * dd


def _sd_norm2d(x: Array, d: Array) -> float:
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return float(np.linalg.norm(d))
    return float(np.dot(x, d)) / nx


def _sdiff_norm2d(x: Array) -> SubdiffSet:
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return BallSet(np.zeros(2), 1.0)
    return PolytopeSet((x / nx)[None, :])


def _sdiff_norm2d_batch(points: Array, half_width: float) -> tuple[Array, Array, Array]:
    # The stacked matmul takes the same BLAS dot product as np.linalg.norm of
    # a single point, so the unit normals match _sdiff_norm2d bitwise
    # (np.linalg.norm(points, axis=1) rounds differently).
    nx = np.sqrt(points[:, None, :] @ points[:, :, None])[:, 0, 0]
    kink = np.flatnonzero(nx == 0.0)
    n = points.shape[0]
    if not kink.size:
        return np.arange(n), points / nx[:, None], np.zeros(n, dtype=bool)
    # one unit normal per point, and the whole ball at the kink
    ball, _ = BallSet(np.zeros(2), 1.0).representatives(half_width)
    nx[kink] = 1.0
    counts = np.ones(n, dtype=np.intp)
    counts[kink] = ball.shape[0]
    owner = np.repeat(np.arange(n), counts)
    covectors = np.take(points / nx[:, None], owner, axis=0)
    at = kink + (ball.shape[0] - 1) * np.arange(kink.size)  # each kink's first row
    covectors[at[:, None] + np.arange(ball.shape[0])] = ball
    return owner, covectors, np.zeros(n, dtype=bool)


def _sd_mixed2d(x: Array, d: Array) -> float:
    smooth = 2.0 * float(x[0]) * float(d[0])
    if x[1] > 0:
        return smooth + float(d[1])
    if x[1] < 0:
        return smooth - float(d[1])
    return smooth + abs(float(d[1]))


def _sdiff_mixed2d(x: Array) -> SubdiffSet:
    g = 2.0 * float(x[0])
    if x[1] > 0:
        return PolytopeSet(np.array([[g, 1.0]]))
    if x[1] < 0:
        return PolytopeSet(np.array([[g, -1.0]]))
    return PolytopeSet(np.array([[g, -1.0], [g, 1.0]]))


def _sdiff_mixed2d_batch(points: Array, half_width: float) -> tuple[Array, Array, Array]:
    # the vertex (g, sign x2), and on the line x2 = 0 the vertices (g, -1)
    # and (g, 1) and their mean
    n = points.shape[0]
    kink = np.flatnonzero(points[:, 1] == 0)
    counts = np.ones(n, dtype=np.intp)
    counts[kink] = 3
    owner = np.repeat(np.arange(n), counts) if kink.size else np.arange(n)
    covectors = np.empty((owner.size, 2))
    covectors[:, 0] = np.take(2.0 * points[:, 0], owner)
    covectors[:, 1] = np.take(np.where(points[:, 1] > 0, 1.0, -1.0), owner)
    at = kink + 2 * np.arange(kink.size)  # each kink's first row
    covectors[at + 1, 1] = 1.0
    # the mean as PolytopeSet.representatives takes it (a plain sum would
    # keep the sign of g = -0.0)
    covectors[at + 2] = np.stack([covectors[at], covectors[at + 1]], axis=1).mean(axis=1)
    return owner, covectors, np.zeros(n, dtype=bool)


def _build_library() -> dict[str, FunctionOracle]:
    entries = [
        FunctionOracle(
            name="abs",
            dim=1,
            fn=lambda x: abs(float(x[0])),
            batch=lambda p: np.abs(p[:, 0]),
            is_convex=True,
            exact_subderivative=_sd_abs,
            exact_subdifferential=_sdiff_abs,
            exact_subdifferential_batch=_interval_side_oracle(_bounds_abs),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="square",
            dim=1,
            fn=lambda x: float(x[0]) ** 2,
            batch=lambda p: p[:, 0] ** 2,
            is_convex=True,
            exact_subderivative=_sd_square,
            exact_subdifferential=lambda x: IntervalSet(2.0 * float(x[0]), 2.0 * float(x[0])),
            exact_subdifferential_batch=_interval_side_oracle(lambda x: (2.0 * x, 2.0 * x)),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="neg_abs",
            dim=1,
            fn=lambda x: -abs(float(x[0])),
            batch=lambda p: -np.abs(p[:, 0]),
            is_convex=False,
            exact_subderivative=_sd_neg_abs,
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="ind_halfline",
            dim=1,
            fn=lambda x: 0.0 if x[0] >= 0 else math.inf,
            batch=lambda p: np.where(p[:, 0] >= 0, 0.0, math.inf),
            is_convex=True,
            exact_subderivative=_sd_ind_halfline,
            exact_subdifferential=_sdiff_ind_halfline,
            exact_subdifferential_batch=_interval_side_oracle(_bounds_ind_halfline),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="ind_origin",
            dim=1,
            fn=lambda x: 0.0 if x[0] == 0 else math.inf,
            batch=lambda p: np.where(p[:, 0] == 0, 0.0, math.inf),
            is_convex=True,
            exact_subderivative=_sd_ind_origin,
            exact_subdifferential=lambda x: IntervalSet(-math.inf, math.inf) if x[0] == 0 else None,
            exact_subdifferential_batch=_interval_side_oracle(_bounds_ind_origin),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="maxzero",
            dim=1,
            fn=lambda x: max(float(x[0]), 0.0),
            batch=lambda p: np.maximum(p[:, 0], 0.0),
            is_convex=True,
            exact_subderivative=_sd_maxzero,
            exact_subdifferential=_sdiff_maxzero,
            exact_subdifferential_batch=_interval_side_oracle(_bounds_maxzero),
            default_region=_BOX_1D,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="twowell",
            dim=1,
            fn=_twowell,
            batch=lambda p: np.minimum(np.abs(p[:, 0]), np.abs(p[:, 0] - 2.0) + 1.0),
            is_convex=False,
            exact_subderivative=_sd_twowell,
            default_region=_BOX_TWOWELL,
            finite_point=np.array([0.0]),
        ),
        FunctionOracle(
            name="norm2d",
            dim=2,
            fn=lambda x: float(np.linalg.norm(x)),
            # the same IEEE operations as np.linalg.norm(p, axis=1), without
            # its strided reduce
            batch=lambda p: np.sqrt(p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1]),
            is_convex=True,
            exact_subderivative=_sd_norm2d,
            exact_subdifferential=_sdiff_norm2d,
            exact_subdifferential_batch=_sdiff_norm2d_batch,
            default_region=_BOX_2D,
            finite_point=np.array([0.0, 0.0]),
        ),
        FunctionOracle(
            name="mixed2d",
            dim=2,
            fn=lambda x: float(x[0]) ** 2 + abs(float(x[1])),
            batch=lambda p: p[:, 0] ** 2 + np.abs(p[:, 1]),
            is_convex=True,
            exact_subderivative=_sd_mixed2d,
            exact_subdifferential=_sdiff_mixed2d,
            exact_subdifferential_batch=_sdiff_mixed2d_batch,
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
