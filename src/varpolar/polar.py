"""Monotone polar of finite graphs, monotonicity predicates, and the
increase-along-rays route to polar membership.

A pair (x, x*) is monotonically related to a sampled operator T when
<y* - x*, y - x> >= 0 for every sampled pair (y, y*); the polar collects all
such pairs. Because a finite sample imposes finitely many constraints, the
sampled polar over-approximates the true one; the dual route below tests the
same membership through the tilted function f - x* instead and is used for
cross-validation.

The candidate × graph and graph × graph reductions run in row blocks of
about :data:`~varpolar.core._BLOCK_ENTRIES` entries, with the same floats as
one matrix: the pairings are explicit sums over the coordinates, so every
entry is computed the same way whatever block holds it.
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
    _row_blocks,
    as_point,
)
from .minty import _tilted_iar_residuals

#: Tolerance for exact-arithmetic-representable samples.
EXACT_TOL = 1e-9

#: Points per ray of the dual (rays) route to polar membership.
DEFAULT_RAY_RESOLUTION = 33


def _pairings(u: Array, v: Array) -> Array:
    """The matrix of <u_i, v_j>, summed coordinate by coordinate in order.

    BLAS gives the entries of ``u @ v.T`` different last bits depending on
    where its kernel splits the matrix, so a row block would not reproduce the
    whole matrix; these sums depend only on the two rows.
    """
    out = u[:, 0, None] * v[None, :, 0]
    for k in range(1, u.shape[1]):
        out += u[:, k, None] * v[None, :, k]
    return out


def _min_products(T: GraphSample, points: Array, covectors: Array) -> tuple[Array, Array]:
    """For each candidate row, min over T of <y* - x*, y - x> and argmin."""
    py, cy = T.points, T.covectors
    a = np.einsum("ij,ij->i", cy, py)  # <y*, y>
    b = np.einsum("ij,ij->i", covectors, points)  # <x*, x>
    mins = np.empty(len(points))
    args = np.empty(len(points), dtype=np.intp)
    for rows in _row_blocks(len(points), len(T)):
        m = (
            a[None, :]
            - _pairings(points[rows], cy)
            - _pairings(covectors[rows], py)
            + b[rows, None]
        )
        mins[rows] = m.min(axis=1)
        args[rows] = m.argmin(axis=1)
    return mins, args


def polar_contains(
    T: GraphSample,
    x: Sequence[float] | float | Array,
    xstar: Sequence[float] | float | Array,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Is (x, xstar) monotonically related to every sampled pair of T?

    The residual is the minimum pairing product over T and the witness the
    sampled pair achieving it. An empty sample relates everything (vacuous
    quantifier): the residual is +inf by convention and no witness is
    reported.
    """
    p = as_point(x, T.dim if len(T) else None)
    c = as_point(xstar, p.shape[0])
    if len(T) == 0:
        return Verdict(ok=True, residual=math.inf, witness=None)
    mins, args = _min_products(T, p[None, :], c[None, :])
    k = int(args[0])
    return Verdict(
        ok=bool(mins[0] >= -tol),
        residual=float(mins[0]),
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
            - _pairings(c[rows], p[cols])
            - _pairings(c[cols], p[rows]).T
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


def polar_of_sample(
    T: GraphSample, candidates: GraphSample, tol: float = DEFAULT_TOL
) -> GraphSample:
    """The subset of candidate pairs monotonically related to T."""
    if len(candidates) == 0:
        return candidates
    if len(T) == 0:
        return candidates
    mins, _ = _min_products(T, candidates.points, candidates.covectors)
    return candidates.filter(mins >= -tol)


def is_absorbing(
    T: GraphSample,
    candidates: GraphSample,
    match_radius: float,
    oracle: FunctionOracle | None = None,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Is every candidate related to T attributable to T itself?

    A related candidate is attributed when it lies within ``match_radius`` of
    some sampled element in graph distance max(||dx||, ||dx*||), or when the
    oracle's exact subdifferential (if available) certifies membership. The
    verdict's witness is the worst unattributed offender and the residual its
    attribution distance minus the radius.
    """
    related = polar_of_sample(T, candidates, tol)
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
    [[(residual, witness)]] = _tilted_iar_residuals(
        f, p[None, :], c[None, :], probe, probe_resolution, DEFAULT_RAY_RESOLUTION
    )
    if witness is None:
        return Verdict(ok=True, residual=residual, witness=None)
    return Verdict(
        ok=residual <= tol,
        residual=residual,
        witness=witness,
        details={"probe": probe.describe(), "probe_resolution": probe_resolution},
    )
