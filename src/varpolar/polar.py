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
product over that grid (:func:`~varpolar.core._min_products`, shared with
the Minty route), and it and the graph × graph reduction run in blocks of
about :data:`~varpolar.core._BLOCK_ENTRIES` entries, with the same floats as
one matrix: the pairings are explicit sums over the coordinates, so every
entry is computed the same way whatever block holds it. The polar of a
sample takes the graph in a ladder of nested levels, coarsest first: the
coarsest runs the product over all candidates, and each finer level runs
only its new graph pairs on the candidate pairs still open
(:func:`polar_of_sample`, :func:`~varpolar.core._min_products_at`).

:func:`polar_contains` and :func:`polar_membership_via_iar` are the
one-pair calls of thm3's two kernels, the polar kernel on the suite's graph
and the rays kernel, and ``explain --xstar`` prints them: a pair's lines
are the thm3 suite's row of that pair.

A tolerance or match radius that is NaN, infinite or negative raises
:class:`ValueError`: it would make the quantifier vacuous, or fail every
pair, whatever the sample.

:func:`is_absorbing` reads T alone, whichever subdifferential it samples: no
side-oracle decides which related candidates T attributes.
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
    Region,
    Verdict,
    _candidate_rows,
    _check_bound,
    _min_products,
    _min_products_at,
    _pairings,
    _row_blocks,
    _split_fits,
    as_point,
)
from .minty import _LADDER_RATIO, _ladder_steps, _ray_grid, _tilted_iar_residuals

#: Tolerance for exact-arithmetic-representable samples.
EXACT_TOL = 1e-9

#: Points per ray of the dual (rays) route to polar membership.
DEFAULT_RAY_RESOLUTION = 33


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
    reported. A NaN, infinite or negative ``tol`` raises :class:`ValueError`.
    """
    _check_bound("tol", tol)
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
    elements (as two (point, covector) tuples) achieving it. A NaN, infinite
    or negative ``tol`` raises :class:`ValueError`.
    """
    _check_bound("tol", tol)
    n = len(T)
    if n <= 1:
        return Verdict(ok=True, residual=math.inf, witness=None)
    p, c = T.points, T.covectors
    diag = _pairings(c, p)  # <x*, x> of every element
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
        m[np.arange(m.shape[1]) < np.arange(m.shape[0])[:, None]] = np.inf
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
    Only the related pairs are formed; an empty T relates all of them.

    The graph pairs go in a ladder of nested levels, coarsest first
    (:func:`_graph_ladder`). The coarsest level runs :func:`_min_products`
    over the whole product, and each finer level runs
    :func:`~varpolar.core._min_products_at` over its new pairs of T alone,
    at the candidate pairs still open: a pair whose minimum over a level is
    below -tol (or NaN) is unrelated. The related set is that of one pass
    over all of T: each entry is computed the same way at every level, in
    the one form of the pairing that :func:`_split_fits` picks for all of T,
    ``xs`` and ``cs``; b is added after the minimum and rounding is
    monotone, so the minimum over T, plus b, is the least of the levels'
    (or NaN with one of them), bit for bit, and a pair closed at one level
    stays closed. ``xs`` and ``cs`` must be finite (k, n) arrays, with n =
    T.dim when T is not empty, and ``tol`` finite and nonnegative
    (:class:`ValueError` otherwise).
    """
    _check_bound("tol", tol)
    xs = _candidate_rows("xs", xs, T.dim if len(T) else None)
    cs = _candidate_rows("cs", cs, xs.shape[1])
    split = _split_fits(T, xs, cs)
    coarsest, *finer = _graph_ladder(len(T))
    i, j = np.nonzero(_min_products(T.filter(coarsest), xs, cs, split=split) >= -tol)
    for level in finer:
        if i.size == 0:
            break
        still = _min_products_at(T.filter(level), xs, cs, i, j, split) >= -tol
        i, j = i[still], j[still]
    return GraphSample(xs[i], cs[j])


def _graph_ladder(n: int) -> list[Array]:
    """The levels of :func:`polar_of_sample` over the n pairs of a graph,
    coarsest first, as indices: level k holds every ``_LADDER_RATIO**k``-th
    pair (the strides of :func:`~varpolar.minty._ladder_steps`) less the
    pairs of the coarser levels, and the coarsest also holds the last pair.
    Every pair is in exactly one level."""
    top, *steps = _ladder_steps(n)
    levels = [np.concatenate([np.arange(0, n - 1, top), np.arange(n)[-1:]])]
    for step in steps:
        rows = np.arange(0, n, step)
        levels.append(rows[(rows % (step * _LADDER_RATIO) != 0) & (rows != n - 1)])
    return levels


def _chords(T: GraphSample) -> tuple[Array, Array, Array]:
    """T's chords as row arrays (point, start, end): at every sampled point
    p, the segments [y*_i, y*_j] (i <= j) between the covectors that T
    samples at p; with i = j, each element of T as a segment of length 0."""
    order = np.lexsort(T.points.T[::-1])
    points, covectors = T.points[order], T.covectors[order]
    starts = np.flatnonzero(np.r_[True, np.any(points[1:] != points[:-1], axis=1)])
    sizes = np.diff(starts, append=len(T))
    ends = []
    for k in sorted(set(sizes.tolist())):
        i, j = np.triu_indices(k)
        at = starts[sizes == k, None]
        ends.append(((at + i).ravel(), (at + j).ravel()))
    a, b = (np.concatenate(e) for e in zip(*ends))
    return points[a], covectors[a], covectors[b]


def is_absorbing(
    T: GraphSample,
    xs: Array,
    cs: Array,
    match_radius: float,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Is every candidate pair of the product xs x cs that is related to T
    attributable to T itself?

    A related candidate (x, x*) is attributed when, for some sampled point
    p, both ||x - p|| and the distance from x* to a chord between two
    covectors that T samples at p (:func:`_chords`) are within
    ``match_radius``; the chord from a covector to itself gives the graph
    distance max(||dx||, ||dx*||) to an element of T. Every chord lies in the
    hull of the covectors sampled at p, so for a convex-valued source it
    attributes nothing that the set at p would reject, up to the radius band
    of the graph distance. The witness is the worst unattributed candidate
    and the residual the largest attribution distance (the least max of the
    two distances over the chords) minus the radius.

    The related candidates are :func:`polar_of_sample`'s, which settles
    most of them on the coarsest level of its ladder over T. A
    ``match_radius`` or ``tol`` that is NaN, infinite or negative, or
    candidates that :func:`polar_of_sample` rejects, raise
    :class:`ValueError` before any product is formed.
    """
    _check_bound("match_radius", match_radius)
    _check_bound("tol", tol)
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
    at, start, end = _chords(T)
    edge = end - start
    length2 = _pairings(edge, edge)
    offset = _pairings(start, edge)
    dist = np.empty(len(related))
    for rows in _row_blocks(len(related), len(at)):
        x, xstar = related.points[rows, None], related.covectors[rows, None]
        # t = <x* - start, edge> / |edge|^2 in [0, 1] marks the chord point
        # nearest to x* (t = 0 on a chord of length 0)
        t = _pairings(xstar, edge)
        t -= offset
        np.divide(t, length2, out=t, where=length2 > 0)
        np.clip(t, 0.0, 1.0, out=t)
        dx2 = np.square(x[..., 0] - at[:, 0])
        dc2 = np.square(xstar[..., 0] - start[:, 0] - t * edge[:, 0])
        for k in range(1, T.dim):
            dx2 += np.square(x[..., k] - at[:, k])
            dc2 += np.square(xstar[..., k] - start[:, k] - t * edge[:, k])
        dist[rows] = np.maximum(dx2, dc2).min(axis=1)
    dist = np.sqrt(dist)  # monotone, so after the minimum it keeps every bit
    attributed = dist <= match_radius + 1e-12
    worst = int(np.argmax(np.where(attributed, -math.inf, dist)))
    ok = bool(np.all(attributed))
    return Verdict(
        ok=ok,
        residual=float(dist.max() - match_radius),
        witness=None if ok else (related.points[worst], related.covectors[worst]),
        details={"related": len(related), "unattributed": int((~attributed).sum())},
    )


def _check_tilt(probe: Region, x: Array, xstar: Array) -> None:
    """Raise :class:`ValueError` when <x*, p> can overflow on the box of
    ``probe`` and x: ``f.shifted(x*)`` rejects the values it gives there."""
    reach = np.max(np.abs([probe.lower, probe.upper, x]), axis=0)
    with np.errstate(over="ignore"):
        if not math.isfinite(float(np.sum(np.abs(xstar) * reach))):
            raise ValueError(f"the tilt by x* = {xstar.tolist()} overflows on the probe region")


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
    the pairing with x*: one exact entry of the rays kernel
    :func:`~varpolar.minty._tilted_iar_residuals`, which the thm3 suite
    runs over all candidate pairs. The witness is the violating (y, t); an
    x* whose tilt can overflow raises :class:`ValueError`.
    """
    _check_bound("tol", tol)
    p = as_point(x, f.dim)
    c = as_point(xstar, f.dim)
    _check_tilt(probe, p, c)
    grid = _ray_grid(f, probe, probe_resolution, DEFAULT_RAY_RESOLUTION)
    residuals, witnesses = _tilted_iar_residuals(f, p[None, :], c[None, :], grid)
    residual = float(residuals[0, 0])
    return Verdict(residual <= tol, residual, grid.witness(witnesses[0, 0]),
                   details={"probe": probe.describe(), "probe_resolution": probe_resolution})
