"""Monotone polar of finite graphs, monotonicity predicates, and the
increase-along-rays route to polar membership.

A pair (x, x*) is monotonically related to a sampled operator T when
<y* - x*, y - x> >= 0 for every sampled pair (y, y*); the polar collects all
such pairs. Because a finite sample imposes finitely many constraints, the
sampled polar over-approximates the true one; the dual route below tests the
same membership through the tilted function f - x* instead and is used for
cross-validation.

Candidates come as a product: points ``xs`` and covectors ``cs``, every
pair (xs[i], cs[j]) tested. The candidate × graph minimum is a (min, +)
product over that grid (:func:`_min_products`), and it and the graph ×
graph reduction run in blocks of about :data:`~varpolar.core._BLOCK_ENTRIES`
entries, with the same floats as one matrix: the pairings are explicit sums
over the coordinates, so every entry is computed the same way whatever block
holds it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    Array,
    DEFAULT_TOL,
    FunctionOracle,
    GraphSample,
    PolytopeSet,
    Region,
    Verdict,
    _pairings,
    _row_blocks,
    as_point,
)
from .minty import _ray_grid, _tilted_iar_residuals

#: Tolerance for exact-arithmetic-representable samples.
EXACT_TOL = 1e-9

#: Points per ray of the dual (rays) route to polar membership.
DEFAULT_RAY_RESOLUTION = 33


def _min_products(
    T: GraphSample, xs: Array, cs: Array, argmin: bool = False
) -> Array | tuple[Array, Array]:
    """Min over T of <y* - x*, y - x> for every point xs[i] and covector
    cs[j]: the (len(xs), len(cs)) array of minimum products, and with
    ``argmin`` also the index in T of each minimum's first occurrence.

    The pairing splits as (<y*, y> - <x, y*>) - <x*, y> + <x*, x>, so the
    minimum is a (min, +) product of A[x, y] = <y*, y> - <x, y*> and
    Q[x*, y] = <x*, y>, plus b[x, x*] = <x*, x> after the min: rounding is
    monotone, so min(z + b) = min(z) + b bit for bit, and each minimum is the
    value of one of the entries that attain it. A, Q and b are formed block
    by block, never whole: the blocks hold about
    :data:`~varpolar.core._BLOCK_ENTRIES` (graph column, x row, covector)
    entries, and a running minimum gathers them. With ``argmin``, b is added
    inside the block, each minimum is the value of its first occurrence, and
    a later block replaces it only when strictly smaller. An empty T gives
    +inf everywhere (a vacuous quantifier) and index 0.
    """
    py, cy = T.points, T.covectors
    a = _pairings(cy, py)  # <y*, y>
    mins = np.full((len(xs), len(cs)), math.inf)
    args = np.zeros(mins.shape, dtype=np.intp)
    for cols in _row_blocks(len(T), len(cs)):
        q = _pairings(py[cols, None], cs)  # Q: (w, nc)
        for rows in _row_blocks(len(xs), q.size):
            left = a[cols, None] - _pairings(cy[cols, None], xs[rows])  # A: (w, r)
            z = left[:, :, None] - q[:, None, :]  # A - Q: (w, r, nc)
            if argmin:
                z += _pairings(xs[rows, None], cs)  # b, inside the block
                k = z.argmin(axis=0)
                block = np.take_along_axis(z, k[None], 0)[0]
                better = block < mins[rows]
                mins[rows] = np.where(better, block, mins[rows])
                args[rows] = np.where(better, k + cols.start, args[rows])
            else:
                np.minimum(mins[rows], z.min(axis=0), out=mins[rows])
    if argmin:
        return mins, args
    for rows in _row_blocks(len(xs), len(cs)):
        mins[rows] += _pairings(xs[rows, None], cs)  # b, after the min
    return mins


def polar_contains(
    T: GraphSample,
    x: Sequence[float] | float | Array,
    xstar: Sequence[float] | float | Array,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Is (x, xstar) monotonically related to every sampled pair of T?

    The residual is the minimum pairing product over T and the witness the
    first sampled pair achieving it: the 1 x 1 case of the (min, +) product
    of :func:`_min_products`. An empty sample relates everything (vacuous
    quantifier): the residual is +inf by convention and no witness is
    reported.
    """
    p = as_point(x, T.dim if len(T) else None)
    c = as_point(xstar, p.shape[0])
    if len(T) == 0:
        return Verdict(ok=True, residual=math.inf, witness=None)
    mins, args = _min_products(T, p[None, :], c[None, :], argmin=True)
    k = int(args[0, 0])
    return Verdict(
        ok=bool(mins[0, 0] >= -tol),
        residual=float(mins[0, 0]),
        witness=(T.points[k], T.covectors[k]),
    )


def is_monotone(T: GraphSample, tol: float = DEFAULT_TOL) -> Verdict:
    """Does every pair of elements of T satisfy <y* - x*, y - x> >= -tol?

    The residual is the minimum product and the witness the pair of graph
    elements (as two (point, covector) tuples) achieving it.
    """
    n = len(T)
    if n <= 1:
        return Verdict(ok=True, residual=math.inf, witness=None)
    p, c = T.points, T.covectors
    diag = np.einsum("ij,ij->i", c, p)  # <x*, x> of every element
    mins = np.empty(n - 1)
    args = np.empty(n - 1, dtype=np.intp)
    for rows in _row_blocks(n - 1, n):
        # rows i against columns j > rows.start; the pairs with j <= i are masked
        cols = slice(rows.start + 1, n)
        m = (
            diag[rows, None]
            + diag[None, cols]
            - _pairings(c[rows, None], p[cols])
            - _pairings(c[None, cols], p[rows, None])
        )
        m[np.tril_indices(m.shape[0], -1, m.shape[1])] = np.inf
        mins[rows] = m.min(axis=1)
        args[rows] = m.argmin(axis=1) + cols.start
    i = int(np.argmin(mins))
    j = int(args[i])
    mp = float(mins[i])
    return Verdict(
        ok=mp >= -tol,
        residual=mp,
        witness=((p[i], c[i]), (p[j], c[j])),
    )


def polar_of_sample(T: GraphSample, xs: Array, cs: Array, tol: float = DEFAULT_TOL) -> GraphSample:
    """The candidate pairs (xs[i], cs[j]) of the product of the points ``xs``
    and the covectors ``cs`` that are monotonically related to T, x-major.
    Only the related pairs are formed; an empty T relates all of them."""
    i, j = np.nonzero(_min_products(T, xs, cs) >= -tol)
    return GraphSample(xs[i], cs[j])


def _in_hull_at_point(T: GraphSample, points: Array, covectors: Array, tol: float) -> Array:
    """Whether each covectors[i] lies within ``tol`` in the convex hull of
    T's covectors at the point equal to points[i] (False where T has none).

    One masked pass over row blocks of (row, T element) pairs: in 1-D the
    hull is the interval [min, max] of the masked covectors; beyond, each
    row with a nonempty mask is a :class:`~varpolar.core.PolytopeSet` test.
    """
    inside = np.zeros(len(points), dtype=bool)
    for rows in _row_blocks(len(points), len(T)):
        same = np.all(points[rows, None, :] == T.points[None, :, :], axis=2)
        if T.dim == 1:
            c = T.covectors[None, :, 0]
            lo = np.where(same, c, math.inf).min(axis=1)
            hi = np.where(same, c, -math.inf).max(axis=1)
            inside[rows] = (lo - tol <= covectors[rows, 0]) & (covectors[rows, 0] <= hi + tol)
        else:
            for i in np.flatnonzero(same.any(axis=1)):
                hull = PolytopeSet(T.covectors[same[i]])
                inside[rows.start + i] = hull.contains(covectors[rows.start + i], tol)
    return inside


def is_absorbing(
    T: GraphSample,
    xs: Array,
    cs: Array,
    match_radius: float,
    oracle: FunctionOracle | None = None,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Is every candidate pair of the product xs x cs that is related to T
    attributable to T itself?

    A related candidate is attributed when it lies within ``match_radius`` of
    some sampled element in graph distance max(||dx||, ||dx*||), or when its
    covector lies within ``tol`` in the set at its point: the oracle's exact
    subdifferential when it has one, and otherwise the convex hull of T's
    covectors at that same point (T's sampled set there, such as a numeric
    Clarke set). The verdict's witness is the worst unattributed offender and
    the residual its attribution distance minus the radius.
    """
    related = polar_of_sample(T, xs, cs, tol)
    if len(related) == 0:
        return Verdict(
            ok=True,
            residual=-match_radius,
            witness=None,
            details={"related": 0, "unattributed": 0},
        )
    if len(T) == 0:
        return Verdict(
            ok=False,
            residual=math.inf,
            witness=(related.points[0], related.covectors[0]),
            details={"reason": "empty sample absorbs nothing"},
        )
    dist = np.empty(len(related))
    for rows in _row_blocks(len(related), len(T)):
        dp = np.linalg.norm(related.points[rows, None, :] - T.points[None, :, :], axis=2)
        dc = np.linalg.norm(related.covectors[rows, None, :] - T.covectors[None, :, :], axis=2)
        dist[rows] = np.maximum(dp, dc).min(axis=1)
    attributed = dist <= match_radius + 1e-12
    if oracle is not None and oracle.exact_subdifferential is not None:
        for i in np.where(~attributed)[0]:
            desc = oracle.exact_subdifferential(related.points[i])
            if desc is not None and desc.contains(related.covectors[i], tol):
                attributed[i] = True
                dist[i] = 0.0
    else:
        rest = np.flatnonzero(~attributed)
        inside = _in_hull_at_point(T, related.points[rest], related.covectors[rest], tol)
        attributed[rest[inside]] = True
        dist[rest[inside]] = 0.0
    worst = int(np.argmax(np.where(attributed, -math.inf, dist)))
    ok = bool(np.all(attributed))
    return Verdict(
        ok=ok,
        residual=float(dist.max() - match_radius),
        witness=None if ok else (related.points[worst], related.covectors[worst]),
        details={"related": len(related), "unattributed": int((~attributed).sum())},
    )


def polar_membership_via_iar(
    f: FunctionOracle,
    x: Sequence[float] | float | Array,
    xstar: Sequence[float] | float | Array,
    probe: Region,
    probe_resolution: int = 65,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Dual route to polar membership: (x, x*) lies in the polar of the
    subdifferential of f exactly when the tilted function f - x* increases
    along every ray starting from x.

    Checked as (f - x*)(y + t(x - y)) <= (f - x*)(y) + tol for all probe-grid
    y with finite value and all t in a uniform [0, 1] grid of
    :data:`DEFAULT_RAY_RESOLUTION` points. Tilting is linear,
    (f - x*)(p) = f(p) - <x*, p>, so the tilted values are f's values minus
    the pairing with x*; this is the one-covector case of the rays kernel
    that the thm3 suite runs over all candidate covectors at once.
    The witness is the violating (y, t).
    """
    p = as_point(x, f.dim)
    c = as_point(xstar, f.dim)
    grid = _ray_grid(f, probe, probe_resolution, DEFAULT_RAY_RESOLUTION)
    [[(residual, witness)]] = _tilted_iar_residuals(f, p[None, :], c[None, :], grid)
    if witness is None:
        return Verdict(ok=True, residual=residual, witness=None)
    return Verdict(
        ok=residual <= tol,
        residual=residual,
        witness=witness,
        details={"probe": probe.describe(), "probe_resolution": probe_resolution},
    )
