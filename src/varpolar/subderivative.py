"""Lower Dini subderivatives, the generalized (Clarke-type) directional
derivative, and the mean value witness search.

The liminf over t -> 0+ is estimated on a geometric step grid: the estimate is
the minimum difference quotient over the tail window (the smallest steps), and
the (min, max) spread over that window is reported as a bracket so callers can
detect non-convergence. Steps are measured along the unit vector of the
requested direction, which makes the estimate exactly positively homogeneous
(scaling d rescales quotients without moving the evaluation points).

The generalized derivative sup_{delta>0} limsup inf_{d' in d + delta B} is
discretized with a shrinking ring of base points around xbar (both the ring
radius and the function-value window are tied to the step grid, which encodes
convergence of x to xbar with f(x) -> f(xbar)), a deterministic direction ball
grid, and a final linear extrapolation of the finite-delta values to delta=0;
the extrapolation removes the O(delta)*Lipschitz bias of the inner infimum and
is exact on piecewise affine functions.
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
    _pairings,
)

#: Ring radius around the base point, as a multiple of the current step.
RADIUS_FACTOR = 10.0

#: Delta ladder for the direction-ball infimum: decreasing, with at least
#: two entries, since the delta -> 0 extrapolation reads the two smallest.
DEFAULT_DELTAS: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02)

#: Shells of the ring of base points around xbar, per ring direction.
_NBHD_RESOLUTION = 3

#: Base points per block of :func:`clarke_directional_values`; bounds its
#: peak memory. In 1-D one ball slice of a block is 17,920 points (140 KB),
#: and the block's quotients for the four deltas take 560 KB.
_CLARKE_BLOCK = 256

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

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "ratio": self.ratio,
            "steps": self.steps,
            "tail_fraction": self.tail_fraction,
        }


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
) -> Array:
    """Tail-minimum difference quotients for a batch of (base, direction)
    rows; raw floats with math.inf for +inf.

    Callers must ensure f is finite at every base point; the directions
    ``ds`` must be finite.
    """
    xb = np.atleast_2d(np.asarray(xbars, dtype=float))
    dd = _finite_directions(ds, "ds")
    quot = _tail_quotients(f, xb, dd, scheme)
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
    points, all in direction d.

    Returns (values, per_delta) where per_delta has shape (N, D) with the
    finite-delta estimates in :data:`DEFAULT_DELTAS` order (decreasing).
    Values include the delta -> 0 extrapolation of the two smallest deltas.
    Raw floats; +inf allowed.

    Homogeneity. f°(x; .) is positively homogeneous (Clarke, *Optimization
    and Nonsmooth Analysis*, 1983, Prop. 2.1.1), so the estimate is taken
    along the unit vector u = d/|d| and ``values`` and ``per_delta`` are
    multiplied by |d| at the end; a direction of length exactly 1.0 is its
    own u. The factor |d| is applied once, so a direction of length 1e200
    neither overflows nor loses the scale. The zero direction has no u:
    f°(x; 0) = 0, and ``values`` and ``per_delta`` are exactly 0 there,
    with only f(xbar) evaluated.

    Evaluated points. Steps t run over the tail window. Each base xbar gets
    ring points x = xbar + r o with r = RADIUS_FACTOR t and o in the center
    plus S = :data:`_NBHD_RESOLUTION` shells along +-e_i and, in 2-D and
    up, along +-u (M = 1 + 2 S offsets in 1-D and 1 + 2 (dim + 1) S
    beyond); a ring point counts only when f(x) is finite and within r of
    f(xbar). The direction ball is
    u' = u + delta w with w in {0, +-e_i} (K = 1 + 2 dim), evaluated at
    x + t u'. Its center u + delta 0 is the same vector for every delta, so
    it is evaluated once: a ring point costs 1 + D (K - 1) oracle points, not
    D K (9 instead of 12 in 1-D with the four deltas).

    Infimum before quotient. The quotient q(m) = (m - f(x)) / t is
    non-decreasing in m under IEEE rounding (a subtraction, then a division
    by a positive number, each rounded monotonically), so
    q(min over the ball of f) equals the minimum over the ball of q(f),
    bitwise. The kernel takes the ball minimum on the f-values with
    ``np.fmin``, which skips a NaN value as one quotient per ball point read
    it +inf, and forms one quotient per delta. A NaN quotient still reads
    +inf; for an oracle without NaN values it arises only where f(x) = +inf,
    a ring point that is not near. The limsup is the maximum over the near
    (t, ring point) pairs.

    Row blocks. f(xbar) is taken in one call for the whole batch, then base
    points go in blocks of ``_CLARKE_BLOCK``: a block makes one call for its
    ring points and one per ball direction (1 + D (K - 1) calls), each on
    the block's b T M ring points shifted by t u'. The shifted points go
    into one scratch buffer that every slice reuses, each delta's slices
    fold into a running ``np.fmin`` (its K - 1 slices in order, then the
    center as the first argument), and the quotients fill a preallocated
    (D, b T M) array, so the working set of a slice stays in cache. The
    peak memory is set by the block, not by N; a batch of at most one block
    makes 3 + D (K - 1) calls (11 in 1-D with the four deltas).
    """
    xb = np.atleast_2d(np.asarray(xbars, dtype=float))
    _finite_directions(d, "d")
    dd = as_point(d, f.dim)
    deltas = np.asarray(DEFAULT_DELTAS)

    n, dim = xb.shape
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
    scale = dnorm
    unit = dd / scale
    ts = scheme.tail_grid()
    radii = RADIUS_FACTOR * ts

    # Ring of base-point offsets: the center plus shells along the axes and,
    # in 2-D and up, along u itself, so the ring reaches x = xbar - r u for
    # every u (axis shells alone miss it off the axes). Shape (M, dim) as
    # unit offsets, scaled per step by the shrinking radius.
    eye = np.eye(dim)
    shell_dirs = eye if dim == 1 else np.vstack([eye, unit[None, :]])
    shells = np.arange(1, _NBHD_RESOLUTION + 1, dtype=float) / _NBHD_RESOLUTION
    offsets = [np.zeros(dim)]
    for s in shells:
        for u in shell_dirs:
            offsets.append(s * u)
            offsets.append(-s * u)
    offs = np.asarray(offsets)  # (M, dim)

    # Direction-ball grid u + delta * w for w in {0, +-e_i}: shape (D, K, dim).
    # The center column is the same for every delta, so it is kept once,
    # first, then the K - 1 others of each delta: (1 + D (K - 1), dim).
    ball = np.vstack([np.zeros((1, dim)), eye, -eye])  # (K, dim)
    dprime = unit[None, None, :] + deltas[:, None, None] * ball[None, :, :]
    k_side = ball.shape[0] - 1
    dirs = np.vstack([dprime[0, :1], dprime[:, 1:].reshape(-1, dim)])
    steps = ts[None, :, None] * dirs[:, None, :]  # t u' per ball direction and step

    per_delta = np.empty((n, deltas.size))
    # Scratch arrays for the largest block, reused by every block and ball
    # direction: the shifted ring points, the center values, a running ball
    # infimum and the quotients, each over the block's (b, T, M) ring cells.
    cells = (min(n, _CLARKE_BLOCK), ts.size, offs.shape[0])
    qpts = np.empty((*cells, dim))
    center, inf_ball = np.empty(cells), np.empty(cells)
    quot = np.empty((deltas.size, *cells))

    def ball_values(ring: Array, s: int) -> Array:
        """f at ring + t u' for ball direction ``s``, shaped like the ring's
        cells. The values may view ``qpts``, which the next call overwrites."""
        pts = qpts[: ring.shape[0]]
        np.add(ring, steps[s][None, :, None, :], out=pts)
        return f.values(pts.reshape(-1, dim)).reshape(pts.shape[:3])

    for lo in range(0, n, _CLARKE_BLOCK):
        rows = xb[lo : lo + _CLARKE_BLOCK]
        b = rows.shape[0]
        ring = rows[:, None, None, :] + radii[None, :, None, None] * offs[None, None, :, :]
        fring = f.values(ring.reshape(-1, dim)).reshape(b, ts.size, offs.shape[0])
        near = np.isfinite(fring) & (
            np.abs(fring - f0[lo : lo + b, None, None]) <= radii[None, :, None]
        )
        c, acc, q = center[:b], inf_ball[:b], quot[:, :b]
        np.copyto(c, ball_values(ring, 0))
        for j in range(deltas.size):
            # Infimum over the delta's ball on the f-values: its K - 1 slices
            # in order, then the center; then one quotient per delta.
            first = 1 + j * k_side
            np.copyto(acc, ball_values(ring, first))
            for s in range(first + 1, first + k_side):
                np.fmin(acc, ball_values(ring, s), out=acc)
            np.fmin(c, acc, out=q[j])
        with np.errstate(invalid="ignore"):
            np.subtract(q, fring, out=q)
            q /= ts[None, None, :, None]
        np.copyto(q, math.inf, where=np.isnan(q))
        np.copyto(q, -math.inf, where=~near)
        # limsup over the near (t, ring point) pairs of each row
        per_delta[lo : lo + b] = q.reshape(deltas.size, b, -1).max(axis=2).T

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
    values *= scale
    per_delta *= scale
    return values, per_delta


def clarke_directional(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    d: Sequence[float] | float | Array,
    scheme: LiminfScheme = DEFAULT_SCHEME,
) -> SubderivEstimate:
    """Generalized directional derivative estimate of f at xbar along d:
    :func:`clarke_directional_values` at one base point.

    Dominates the lower Dini estimate up to tolerance by construction.
    """
    xb = as_point(xbar, f.dim)
    values, per_delta = clarke_directional_values(f, xb[None, :], d, scheme)
    value = float(values[0])
    high = max(value, float(per_delta[0].max()))
    return SubderivEstimate(value=value, bracket=(value, high))


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
