"""Lower Dini subderivatives, the generalized (Clarke-type) directional
derivative, and the mean value witness search.

The liminf over t -> 0+ is estimated on a geometric step grid: the estimate is
the minimum difference quotient over the tail window (the smallest steps), and
the (min, max) spread over that window is reported as a bracket so callers can
detect non-convergence. Steps are measured along the unit vector of the
requested direction, which makes the estimate exactly positively homogeneous
(scaling d rescales quotients without moving the evaluation points).

The generalized derivative sup_{delta>0} limsup inf_{d' in d + delta B} is
discretized by :func:`clarke_directional_values` on a shrinking ring of base
points and a direction-ball grid, extrapolated linearly to delta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Array,
    DEFAULT_TOL,
    DomainError,
    FunctionOracle,
    as_point,
    _check_bound,
    _pairings,
    _row_blocks,
)

#: Ring radius around the base point, as a multiple of the current step.
RADIUS_FACTOR = 10.0

#: Delta ladder for the direction-ball infimum: decreasing, with at least
#: two entries, since the delta -> 0 extrapolation reads the two smallest.
DEFAULT_DELTAS: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02)

#: Shells of the ring of base points around xbar, per ring direction.
_NBHD_RESOLUTION = 3

#: Smallest admissible step of a scheme; below this the difference quotients
#: drown in float64 cancellation noise.
MIN_STEP = 1e-12

#: Smallest normal float; a tail-quotient product below it has lost digits.
_TINY = np.finfo(float).tiny

#: Points of the uniform scan of [x, xbar) in :func:`mean_value_witness`.
_SEGMENT_RESOLUTION = 33


@dataclass(frozen=True)
class LiminfScheme:
    """Geometric step grid t0 * ratio**k, k = 0..steps-1, plus the fraction of
    smallest steps that forms the liminf tail window."""

    t0: float = 0.1
    ratio: float = 0.7
    steps: int = 40
    tail_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValueError("t0 must be a positive real")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError("tail_fraction must lie in (0, 1]")
        if self.t0 * self.ratio ** (self.steps - 1) < MIN_STEP:
            raise ValueError(f"smallest step falls below {MIN_STEP:g}; shorten the grid")

    @property
    def tail_count(self) -> int:
        return max(1, math.ceil(self.tail_fraction * self.steps))

    def step_grid(self) -> Array:
        """All steps, decreasing."""
        return self.t0 * self.ratio ** np.arange(self.steps, dtype=float)

    def tail_grid(self) -> Array:
        """The tail window: the smallest ``tail_count`` steps, decreasing."""
        return self.step_grid()[self.steps - self.tail_count :]


DEFAULT_SCHEME = LiminfScheme()


@dataclass(frozen=True)
class SubderivEstimate:
    """A directional derivative estimate with its tail-window bracket, in
    (-inf, +inf] with ``math.inf`` for +inf."""

    value: float
    bracket: tuple[float, float]

    def __post_init__(self) -> None:
        low, high = self.bracket
        for v in (self.value, low, high):
            if math.isnan(v) or v == -math.inf:
                raise ValueError("estimates live in (-inf, +inf]: NaN and -inf are rejected")
        if not (low <= self.value <= high):
            raise ValueError("estimate must lie inside its bracket")


class WitnessNotFoundError(RuntimeError):
    """The mean value witness search exhausted its refinement budget.

    Carries the best candidate seen; signals either resolution exhaustion or
    an oracle that is not lower semicontinuous.
    """

    def __init__(self, message: str, best_point: Array, best_value: float):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value


# ---------------------------------------------------------------------------
# Lower Dini subderivative
# ---------------------------------------------------------------------------

def lower_dini_values(
    f: FunctionOracle,
    xbars: Array,
    ds: Array,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    f0: Array | None = None,
) -> Array:
    """Tail-minimum difference quotients for a batch of (base, direction)
    rows; raw floats with math.inf for +inf.

    Callers must ensure f is finite at every base point; the directions
    ``ds`` must be finite. ``f0``, when given, holds f at the base points,
    which are then not evaluated again.
    """
    xb = np.atleast_2d(np.asarray(xbars, dtype=float))
    dd = _finite_directions(ds, "ds")
    quot = _tail_quotients(f, xb, dd, scheme, f0)
    return quot.min(axis=1)


def _finite_directions(ds: Sequence[float] | float | Array, name: str) -> Array:
    """``ds`` as float rows; a non-finite coordinate is the caller's error,
    named by ``name``, not the oracle's."""
    dd = np.atleast_2d(np.asarray(ds, dtype=float))
    if not np.all(np.isfinite(dd)):
        raise ValueError(f"direction {name} must have finite coordinates")
    return dd


def _direction_norms(dd: Array) -> Array:
    """|d| for each row of ``dd``, 0 exactly for the zero rows.

    The length is the square root of the coordinate-by-coordinate sum of
    squares, which has the bits of ``np.linalg.norm(dd, axis=1)`` without
    its strided reduce. The squares make a row below about 1e-154 underflow
    to 0 and one above about 1e154 overflow to inf. Only those rows are
    rescaled by their largest coordinate; every other row keeps its bits. A
    row whose length itself overflows has no unit vector and raises
    :class:`ValueError`.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(_pairings(dd, dd))
    # column by column: a reduce along the short last axis costs seven times
    # as much
    nonzero = dd[:, 0] != 0.0
    for k in range(1, dd.shape[1]):
        nonzero |= dd[:, k] != 0.0
    bad = nonzero & ((norms == 0.0) | np.isinf(norms))
    if np.any(bad):
        big = np.abs(dd[bad]).max(axis=1)
        scaled = dd[bad] / big[:, None]
        with np.errstate(over="ignore"):
            norms[bad] = big * np.sqrt(_pairings(scaled, scaled))
        if np.any(np.isinf(norms)):
            raise ValueError("a direction's length overflows the float range")
    return norms


def _tail_quotients(
    f: FunctionOracle, xb: Array, dd: Array, scheme: LiminfScheme, f0: Array | None = None
) -> Array:
    """(N, T) difference quotients over the tail window, largest step first.
    ``f0``, when given, holds the values of f at the base points ``xb``.

    The tail points xb + t d/|d| fill a preallocated (dim, T, N) array one
    coordinate at a time: the product t d_k/|d|, then xb_k added in place,
    the floats of the broadcast over all coordinates. The oracle takes the
    transpose of its (dim, T N) view, t-major points whose coordinate
    columns are contiguous, and the quotients (f - f0) |d| / t are formed as
    (T, N) and returned transposed: a row minimum of the (N, T) result then
    reduces across contiguous rows. Where the product (f - f0) |d| of a
    nonzero difference leaves the normal float range (|d| below about
    1e-301), the quotient is ((f - f0) / t) |d| instead, so a tiny direction
    keeps its digits; every other entry keeps the first order's bits. A zero
    direction (every coordinate 0) keeps every point at the base, so its
    quotients are 0.
    """
    ts = scheme.tail_grid()
    n, dim = xb.shape
    norms = _direction_norms(dd)
    nonzero = norms > 0.0
    units = dd / np.where(nonzero, norms, 1.0)[:, None]
    if f0 is None:
        f0 = f.values(xb)
    if np.any(~np.isfinite(f0)):
        raise DomainError("subderivatives are only defined at points where f is finite")
    pts = np.empty((dim, ts.shape[0], n))
    for k in range(dim):
        np.multiply(ts[:, None], units[:, k], out=pts[k])
        pts[k] += xb[:, k]
    diff = f.values(pts.reshape(dim, -1).T).reshape(ts.shape[0], n) - f0
    with np.errstate(invalid="ignore"):  # +inf times a zero direction's |d|
        quot = diff * norms
    small = (quot < _TINY) & (quot > -_TINY)
    small &= diff != 0.0  # a zero difference has no digits to lose
    quot /= ts[:, None]
    if np.any(small):
        j, i = np.nonzero(small)
        quot[j, i] = diff[j, i] / ts[j] * norms[i]
    if not np.all(nonzero):
        quot[:, ~nonzero] = 0.0
    return quot.T


def lower_dini(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    d: Sequence[float] | float | Array,
    scheme: LiminfScheme = DEFAULT_SCHEME,
) -> SubderivEstimate:
    """Lower Dini subderivative estimate of f at xbar in direction d.

    The value is the minimum difference quotient over the tail window of the
    geometric step grid; it is +inf exactly when every tail quotient is +inf.
    Raises :class:`DomainError` when f(xbar) is not finite.
    """
    xb = as_point(xbar, f.dim)
    _finite_directions(d, "d")
    dd = as_point(d, f.dim)
    quot = _tail_quotients(f, xb[None, :], dd[None, :], scheme)[0]
    low, high = float(quot.min()), float(quot.max())
    return SubderivEstimate(value=low, bracket=(low, high))


# ---------------------------------------------------------------------------
# Generalized directional derivative
# ---------------------------------------------------------------------------

def clarke_directional_values(
    f: FunctionOracle,
    xbars: Array,
    d: Sequence[float] | float | Array,
    scheme: LiminfScheme = DEFAULT_SCHEME,
) -> tuple[Array, Array]:
    """Generalized directional derivative estimates for a batch of base
    points, all in direction d: (values, per_delta), raw floats with +inf
    allowed. per_delta (N, D) holds the finite-delta estimates in
    :data:`DEFAULT_DELTAS` order; values add the delta -> 0 extrapolation of
    the two smallest.

    Homogeneity. f°(x; .) is positively homogeneous (Clarke, *Optimization
    and Nonsmooth Analysis*, 1983, Prop. 2.1.1): the estimate is taken along
    u = d/|d| and multiplied by |d| once, so a direction of length 1e200
    keeps its scale, and one of length exactly 1.0 is its own u.
    f°(x; 0) = 0 exactly, with only f(xbar) evaluated.

    Points. Steps t run over the tail window. Each xbar gets ring points
    x = xbar + r o, r = RADIUS_FACTOR t, with o the center and
    S = :data:`_NBHD_RESOLUTION` shells along +-e_i and, in 2-D and up, +-u
    (M = 1 + 2 S offsets in 1-D, 1 + 2 (dim + 1) S beyond); a ring point is
    near when f(x) is finite and within r of f(xbar), so x -> xbar with
    f(x) -> f(xbar) as t -> 0. The direction ball u' = u + delta w,
    w in {0, +-e_i} (K = 1 + 2 dim), is evaluated at x + t u'. The
    extrapolation removes the O(delta) Lipschitz bias of the ball infimum
    and is exact on piecewise affine functions.

    Infimum before quotient. q(m) = (m - f(x)) / t is non-decreasing in m
    under IEEE rounding, so q of the ball minimum of f is bitwise the ball
    minimum of q(f). Oracle values are never NaN and f(x) is finite at a
    near ring point, so only the quotients of points that are not near can
    be NaN (+inf - +inf), and those are masked. The limsup is the maximum
    over the near (t, ring point) pairs.

    Blocks. f(xbar) takes one call; each of the package's row blocks
    (:func:`~varpolar.core._row_blocks`, four entries per ball coordinate)
    takes two, its ring and its whole ball shaped (D, K, b, T, M), so the
    peak memory is set by the block, not by N.
    """
    xb = np.atleast_2d(np.asarray(xbars, dtype=float))
    n, dim = xb.shape
    _finite_directions(d, "d")
    dd = as_point(d, f.dim)
    deltas = np.asarray(DEFAULT_DELTAS)
    with np.errstate(over="ignore"):
        dnorm = float(np.linalg.norm(dd))
    if dnorm == 0.0 or math.isinf(dnorm):
        # the squares underflow or overflow (or d = 0); the rescaled length
        # is 0 only for d = 0 and raises if |d| itself overflows
        dnorm = float(_direction_norms(dd[None, :])[0])
    f0 = f.values(xb)
    if np.any(~np.isfinite(f0)):
        raise DomainError("the generalized derivative needs f(xbar) finite")
    if dnorm == 0.0:
        return np.zeros(n), np.zeros((n, deltas.size))
    unit = dd / dnorm
    ts = scheme.tail_grid()
    radii = RADIUS_FACTOR * ts

    # Ring offsets (M, dim): the center, then per shell s the pairs +-s v
    # for v along the axes and, in 2-D and up, along u itself, so the ring
    # reaches x = xbar - r u off the axes too.
    eye = np.eye(dim)
    shell_dirs = eye if dim == 1 else np.vstack([eye, unit[None, :]])
    shells = np.arange(1, _NBHD_RESOLUTION + 1, dtype=float) / _NBHD_RESOLUTION
    signed = np.multiply.outer(shells, [1.0, -1.0])[:, None, :, None]
    offs = np.vstack([np.zeros((1, dim)), (signed * shell_dirs[:, None, :]).reshape(-1, dim)])
    # Ball steps t u', u' = u + delta w, w in {0, +-e_i}: (D, K, 1, T, 1, dim)
    ball = np.vstack([np.zeros((1, dim)), eye, -eye])
    dprime = unit + deltas[:, None, None] * ball
    steps = ts[:, None, None] * dprime[:, :, None, None, None, :]

    per_delta = np.empty((n, deltas.size))
    for rows in _row_blocks(n, 4 * steps.size * len(offs)):
        ring = xb[rows, None, None, :] + radii[:, None, None] * offs  # (b, T, M, dim)
        fring = f.values(ring.reshape(-1, dim)).reshape(ring.shape[:3])
        near = np.isfinite(fring) & (np.abs(fring - f0[rows, None, None]) <= radii[:, None])
        fball = f.values((ring + steps).reshape(-1, dim)).reshape(*dprime.shape[:2], *fring.shape)
        with np.errstate(invalid="ignore"):  # +inf - +inf where the point is not near
            quot = np.where(near, (np.fmin.reduce(fball, axis=1) - fring) / ts[:, None], -math.inf)
        # limsup over the near (t, ring point) pairs of each row
        per_delta[rows] = quot.reshape(deltas.size, len(fring), -1).max(axis=2).T

    # A max over -0.0 and +0.0 keeps whichever its reduction order meets
    # first; a zero limsup is +0.0 whatever the block size.
    per_delta += 0.0
    values = per_delta.max(axis=1)
    # The finite-delta values underestimate by O(delta); extrapolate the two
    # smallest deltas linearly to delta = 0 (slope clamped to >= 0, since
    # shrinking the ball can only raise the infimum).
    d_hi, d_lo = deltas[-2], deltas[-1]
    v_hi, v_lo = per_delta[:, -2], per_delta[:, -1]
    both = np.isfinite(v_hi) & np.isfinite(v_lo)
    if np.any(both):
        slope = np.maximum(v_lo[both] - v_hi[both], 0.0) / (d_hi - d_lo)
        values[both] = np.maximum(values[both], v_lo[both] + slope * d_lo)
    values *= dnorm
    per_delta *= dnorm
    return values, per_delta


# ---------------------------------------------------------------------------
# Mean value witness
# ---------------------------------------------------------------------------

def mean_value_witness(
    f: FunctionOracle,
    x: Sequence[float] | float | Array,
    xbar: Sequence[float] | float | Array,
    lam: float,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    tol: float = DEFAULT_TOL,
) -> Array:
    """Find x0 on [x, xbar) whose subderivative along xbar - x is >= lam - tol.

    Scans a uniform grid of ``_SEGMENT_RESOLUTION`` points of the half-open
    segment, then refines once around the best candidate; when the segment
    leaves dom f, the domain boundary is bisected and probed as well (for
    indicator-like functions the witness sits exactly there). Raises
    :class:`WitnessNotFoundError` with the best candidate when the refinement
    budget is exhausted.
    """
    _check_bound("tol", tol)
    p = as_point(x, f.dim)
    q = as_point(xbar, f.dim)
    if np.array_equal(p, q):
        raise ValueError("x and xbar must be distinct: the segment [x, xbar) is empty")
    fx = f.value(p)
    if not math.isfinite(fx):
        raise DomainError("mean value witness needs f(x) finite")
    gap = f.value(q) - fx  # may be +inf
    if lam > gap + tol:
        raise ValueError(f"lambda={lam} exceeds f(xbar) - f(x) = {gap}")
    d = q - p
    best = (p, -math.inf)  # the largest subderivative of the last scan without a hit

    def probe(ss: Array) -> tuple[Array | None, Array, Array | None]:
        """Scan the segment at parameters ``ss``: the first point whose
        subderivative reaches lam - tol (or None), the finite mask, and the
        subderivatives at the finite points (None when there are none)."""
        nonlocal best
        pts = p[None, :] + ss[:, None] * d[None, :]
        finite = np.isfinite(f.values(pts))
        if not np.any(finite):
            return None, finite, None
        pts = pts[finite]
        vals = lower_dini_values(f, pts, np.tile(d, (pts.shape[0], 1)), scheme)
        ok = vals >= lam - tol
        if np.any(ok):
            return pts[int(np.argmax(ok))], finite, vals
        idx = int(np.argmax(vals))
        best = (pts[idx], float(vals[idx]))
        return None, finite, vals

    ss = np.linspace(0.0, 1.0, _SEGMENT_RESOLUTION, endpoint=False)
    hit, finite_mask, vals = probe(ss)
    if hit is not None:
        return hit

    # One refinement pass around the most promising grid point.
    if vals is not None:
        best_s = float(ss[finite_mask][int(np.argmax(vals))])
        h = 1.0 / ss.size
        fine = np.linspace(max(0.0, best_s - h), min(1.0 - 1e-12, best_s + h), 4 * ss.size)
        hit, _, _ = probe(fine)
        if hit is not None:
            return hit

    # If the segment leaves dom f, the witness may sit exactly on the domain
    # boundary: bisect the first finite/infinite transition.
    trans = np.where(finite_mask[:-1] & ~finite_mask[1:])[0]
    if trans.size > 0:
        s_lo, s_hi = float(ss[trans[0]]), float(ss[trans[0] + 1])
        for _ in range(80):
            mid = 0.5 * (s_lo + s_hi)
            if math.isfinite(f.value(p + mid * d)):
                s_lo = mid
            else:
                s_hi = mid
        hit, _, _ = probe(np.array([s_lo]))
        if hit is not None:
            return hit

    best_pt, best_val = best
    raise WitnessNotFoundError(
        f"no witness found for lambda={lam}: best subderivative {best_val} at {best_pt}",
        best_point=best_pt,
        best_value=best_val,
    )
