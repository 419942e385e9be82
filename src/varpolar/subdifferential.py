"""Subdifferential membership tests, graph sampling, the epsilon-enlargement
filter, and the subderivative-vs-enlargement inequality check.

Two concrete subdifferentials are available: the exact side-oracles of the
curated library (convex-analysis subdifferentials) and a numeric Clarke
route. Where f is locally Lipschitz, the numeric set at x is the hull of
gradients sampled by central differences at points near x; elsewhere (a
domain boundary, or a set that leaves the covector box) it is the polytope of
covectors dominated by the generalized derivative f°(x; d) on a
deterministic sphere grid of directions d. Both routes are cut by a
documented covector box; unbounded subdifferentials are reported with a
truncation flag rather than silently clipped.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Array,
    DEFAULT_BOX_HALF_WIDTH,
    DEFAULT_TOL,
    DomainError,
    FunctionOracle,
    GraphSample,
    Region,
    Verdict,
    as_point,
    _fibonacci_sphere,
    _pairings,
    _row_blocks,
)
from .subderivative import (
    DEFAULT_SCHEME,
    LiminfScheme,
    clarke_directional_values,
    lower_dini_values,
)

#: Geometric epsilon ladder 1, 1/2, ..., 2**-10 used to approximate the
#: infimum over epsilon > 0.
EPS_LADDER: tuple[float, ...] = tuple(2.0 ** -k for k in range(11))

#: Points per axis of the local box grid around each base point and epsilon
#: in the cdd pass.
_CDD_GRID = 9

#: Stacked local grid points per block of base points in the cdd pass:
#: 41 base points in 1-D and 4 in 2-D at the default ladder and grid.
_CDD_BLOCK_POINTS = 4096

#: Tolerance of the subderivative / enlargement inequality.
DEFAULT_CDD_TOL = 1e-3

#: Minimum number of sphere directions of the numeric Clarke route (in 1-D
#: the directions are always +1 and -1): the sample offsets of the gradient
#: hull and the directions of the support table.
_DIR_RESOLUTION = 16

#: Sampling radius R and difference step H of the gradient hull: gradients
#: are taken at x + R u, by central differences of step H per axis. Measured
#: window: R/H at 1e-4/1e-6, 1e-5/1e-8 and 1e-7/1e-9 give the same verdicts
#: on the library's twins (entries with their side-oracles removed); at
#: 1e-9/1e-11 cancellation fails the `norm2d` twin's predicates. The smallest
#: R that passes keeps the samples closest to x.
_HULL_RADIUS = 1e-7
_HULL_STEP = 1e-9


# ---------------------------------------------------------------------------
# Membership tests
# ---------------------------------------------------------------------------

def convex_subdiff_contains(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    xstar: Sequence[float] | float | Array,
    probe: Region | None = None,
    resolution: int = 65,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Test the global support inequality <xstar, y - xbar> + f(xbar) <= f(y)
    over a probe grid.

    The residual is the largest violation over grid points with f(y) finite
    (<= tol when xstar is a member) and the witness the grid point achieving
    it.
    """
    xb = as_point(xbar, f.dim)
    xs = as_point(xstar, f.dim)
    fx = f.value(xb)
    if not math.isfinite(fx):
        raise DomainError("membership tests need f(xbar) finite")
    region = probe if probe is not None else Region.full(f.dim)
    ys = region.sample(resolution)
    fy = f.values(ys)
    finite = np.isfinite(fy)
    if not np.any(finite):
        return Verdict(ok=True, residual=-math.inf, witness=None)
    margins = (ys[finite] - xb[None, :]) @ xs + fx - fy[finite]
    idx = int(np.argmax(margins))
    residual = float(margins[idx])
    return Verdict(ok=residual <= tol, residual=residual, witness=ys[finite][idx])


def sphere_directions(dim: int, resolution: int) -> Array:
    """Deterministic grid of unit directions with at least ``resolution``
    entries (in 1-D exactly {+1, -1})."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        m = max(4, resolution)
        ang = 2.0 * np.pi * np.arange(m) / m
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    extra = _fibonacci_sphere(max(resolution, 2 * dim))
    dirs = np.vstack([axes, extra])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def clarke_subdiff_contains(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    xstar: Sequence[float] | float | Array,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Test <xstar, d> <= generalized derivative of f at xbar along d for all
    unit d in a deterministic sphere grid.

    The residual is the largest margin <xstar, d> - f_up(xbar; d) (-inf where
    the bound is +inf) and the witness the first direction achieving it, or
    None when every margin is -inf.
    """
    xb = as_point(xbar, f.dim)
    xs = as_point(xstar, f.dim)
    if not math.isfinite(f.value(xb)):
        raise DomainError("membership tests need f(xbar) finite")
    dirs = sphere_directions(f.dim, _DIR_RESOLUTION)
    support = _clarke_support(f, xb[None, :], dirs, scheme)[0]
    # np.dot per direction: a matrix product rounds differently in 2-D and 3-D
    margins = np.array([np.dot(xs, d) for d in dirs]) - support
    j = int(np.argmax(margins))
    best = float(margins[j])
    witness = dirs[j] if best > -math.inf else None
    return Verdict(ok=best <= tol, residual=best, witness=witness)


def _clarke_support(
    f: FunctionOracle, pts: Array, dirs: Array, scheme: LiminfScheme, groups: Array | None = None
) -> Array:
    """(N, J) table of generalized derivatives f_up(pts[i]; dirs[j]), one
    estimator call per direction, in direction order. Entries may be +inf.
    The table is the support function, on the direction grid, of the
    numeric Clarke subdifferential at each point.

    The estimator runs once per distinct row of ``pts`` within each group of
    the integer labels ``groups`` (one group when None), keyed by the row's
    bytes (so +0.0 and -0.0 stay distinct), and the rows are scattered back.
    Each row of :func:`clarke_directional_values` depends only on its own
    base point, so the table is bitwise the one a per-row call gives. The
    cdd pass groups its rows by base point: the epsilon grids of one base
    share the base and their dyadic offsets at every resolution, while those
    of neighbouring bases meet only where the grid spacing is a power of two,
    which would make the estimator's work depend on the resolution."""
    rows = np.ascontiguousarray(pts, dtype=float).view(np.uint64)
    if groups is not None:
        rows = np.column_stack([np.asarray(groups, dtype=np.uint64), rows])
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = np.asarray(pts, dtype=float)[first]
    table = np.empty((distinct.shape[0], dirs.shape[0]))
    for j, d in enumerate(dirs):
        table[:, j] = clarke_directional_values(f, distinct, d, scheme)[0]
    return table[inverse.ravel()]


# ---------------------------------------------------------------------------
# Graph sampling
# ---------------------------------------------------------------------------

def _resolve_source(f: FunctionOracle, source: str) -> str:
    """Resolve ``source="auto"``: the exact side-oracle when f has one, the
    numeric route otherwise. Any other source passes through."""
    if source != "auto":
        return source
    return "exact" if f.exact_subdifferential is not None else "clarke-numeric"


def _compact(rows: Array, keep: Array) -> tuple[Array, Array]:
    """Each point's kept rows of a padded (N, R, dim) array, moved to the
    front in order, with the padding cut to the largest kept count."""
    order = np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(axis=1).max(initial=0)]
    return np.take_along_axis(rows, order[..., None], 1), np.take_along_axis(keep, order, 1)


def _merged_rows(block: slice, rows: Array, valid: Array) -> tuple[Array, Array]:
    """Graph rows (owner, covectors) of the block of points ``block`` from
    their candidate rows, a padded (b, S, dim) array: each point's valid
    rows, in order, with a row within DEFAULT_TOL (Euclidean) of an earlier
    valid row merged into it, then their centroid when two or more remain.
    The merge runs on the padded array, since every point has the same S
    candidates, and the block becomes rows once at the end. The pairwise
    comparison runs in nested row blocks, and every sum coordinate by
    coordinate, so a point's rows do not depend on its block."""
    dim = rows.shape[2]
    rows, valid = _compact(rows, valid)
    merged = np.zeros_like(valid)
    width = rows.shape[1]
    for r in _row_blocks(width, len(rows) * width):
        gap = sum((rows[:, r, None, k] - rows[:, None, :, k]) ** 2 for k in range(dim))
        earlier = np.arange(width) < np.arange(r.start, r.stop)[:, None]
        merged[:, r] = np.any((gap <= DEFAULT_TOL**2) & earlier & valid[:, None, :], axis=2)
    rows, keep = _compact(rows, valid & ~merged)
    count = keep.sum(axis=1, keepdims=True)
    centroid = (rows * keep[..., None]).sum(axis=1) / np.maximum(count, 1)
    # flat indices into the (b, R, dim) rows: far faster than a 2-D
    # nonzero and fancy index on these narrow axes
    flat = np.flatnonzero(np.hstack([keep, count > 1]))
    rows = np.hstack([rows, centroid[:, None]])
    return block.start + flat // rows.shape[1], np.take(rows.reshape(-1, dim), flat, axis=0)


def _joined(pieces: list[tuple[Array, Array]], dim: int) -> tuple[Array, Array]:
    """One (owner, covectors) pair from the graph rows of consecutive
    blocks of points."""
    owners = [np.zeros(0, dtype=np.intp)] + [owner for owner, _ in pieces]
    covectors = [np.zeros((0, dim))] + [cov for _, cov in pieces]
    return np.concatenate(owners), np.concatenate(covectors)


def _clarke_polytopes(support: Array, dirs: Array, half_width: float) -> tuple[Array, Array, Array]:
    """The numeric Clarke sets {x* : <x*, dirs[j]> <= support[i, j]}, cut by
    the covector box, as graph rows ``(owner, covectors, truncated)`` over
    the rows of ``support`` (the layout of
    :meth:`~varpolar.core.FunctionOracle.subdifferential_representatives`).

    Each nonsingular dim-subset of the normals [dirs; I; -I] gives a
    candidate vertex; the candidates within DEFAULT_TOL of every halfspace
    are the vertices. The rows are the vertices in subset order, merged and
    closed by their centroid as :func:`_merged_rows` does, since a
    one-point set comes out of the noisy table as a thin sliver. A point is
    truncated where some support value is +inf, and where the box cuts the
    whole set away (no vertex is left, as for a slope steeper than the box):
    the point then has no rows, and its flag says why. Sums run coordinate
    by coordinate, so a point's rows do not depend on its row block.
    """
    n, dim = support.shape[0], dirs.shape[1]
    normals = np.vstack([dirs, np.eye(dim), -np.eye(dim)])
    subsets = np.array(list(itertools.combinations(range(len(normals)), dim)))
    subsets = subsets[np.abs(np.linalg.det(normals[subsets])) > 1e-9]
    inverses = np.linalg.inv(normals[subsets])  # the same at every point
    # +inf leaves x* free along dirs[j] up to the box, whose own support
    # value there cuts nothing more and keeps the solves finite
    bounds = np.hstack([np.minimum(support, half_width * np.abs(dirs).sum(axis=1)),
                        np.full((n, 2 * dim), float(half_width))])
    pieces = []
    for rows in _row_blocks(n, len(subsets) * len(normals)):
        b = bounds[rows]
        verts = _pairings(inverses[None], b[:, subsets][:, :, None, :])
        slack = _pairings(verts[:, :, None, :], normals) - b[:, None, :]
        pieces.append(_merged_rows(rows, verts, np.all(slack <= DEFAULT_TOL, axis=2)))
    owner, covectors = _joined(pieces, dim)
    empty = np.ones(n, dtype=bool)
    empty[owner] = False
    return owner, covectors, ~np.all(np.isfinite(support), axis=1) | empty


def _gradient_hulls(
    f: FunctionOracle, pts: Array, dirs: Array, half_width: float
) -> tuple[Array, Array, Array]:
    """Sampled-gradient hulls at an (N, dim) array of points, where f is
    locally Lipschitz: the graph rows (owner, covectors) of the points
    where the hull is usable, and the (N,) flags of those points.

    At each point x, gradients are taken at y = x + R u for u in {0} and
    the rows of ``dirs`` (R = :data:`_HULL_RADIUS`), by central differences
    of step H = :data:`_HULL_STEP` along each axis, divided by the realised
    step (y + H e_k)_k - (y - H e_k)_k rather than 2H, so that the slopes of
    piecewise affine functions come out exact. The rows are the gradients,
    merged and closed by their centroid as :func:`_merged_rows` does. For
    locally Lipschitz f the Clarke set is the convex hull of the limits of
    nearby gradients (Clarke, *Optimization and Nonsmooth Analysis*,
    Thm 2.5.1), which gradient sampling builds the same way (Burke, Lewis
    and Overton, SIAM J. Optim. 15, 2005).

    The hull is usable where every sampled value is finite and every
    gradient lies in the covector box; elsewhere (near a domain boundary,
    or where f is steeper than the box) the point has no rows. Points go in
    row blocks, one oracle call per block.
    """
    n, dim = pts.shape
    offsets = _HULL_RADIUS * np.vstack([np.zeros((1, dim)), dirs])  # (S, dim)
    axis = np.arange(dim)
    usable = np.zeros(n, dtype=bool)
    pieces = []
    for rows in _row_blocks(n, 2 * len(offsets) * dim * dim):
        # the two sides of each axis difference at each sample: (2, b, S, dim, dim)
        y = pts[rows, None, :] + offsets[None, :, :]
        sides = np.repeat(y[None, :, :, None, :], 2, axis=0).repeat(dim, axis=3)
        sides[0][..., axis, axis] += _HULL_STEP
        sides[1][..., axis, axis] -= _HULL_STEP
        vals = f.values(sides.reshape(-1, dim)).reshape(sides.shape[:-1])
        step = sides[0][..., axis, axis] - sides[1][..., axis, axis]
        # inf - inf at a domain edge is NaN, and such a point takes no hull
        with np.errstate(invalid="ignore", divide="ignore"):
            grads = (vals[0] - vals[1]) / step  # (b, S, dim)
        ok = np.all(np.isfinite(vals), axis=(0, 2, 3)) & np.all(
            np.abs(grads) <= half_width, axis=(1, 2)
        )
        usable[rows] = ok
        grads[~ok] = 0.0  # not valid below; keeps the merge's sums finite
        pieces.append(_merged_rows(rows, grads, np.repeat(ok[:, None], len(offsets), 1)))
    return *_joined(pieces, dim), usable


def _graph_rows(
    f: FunctionOracle,
    pts: Array,
    source: str,
    covector_half_width: float,
    scheme: LiminfScheme,
    groups: Array | None = None,
) -> tuple[Array, Array, Array]:
    """Raw graph rows at an (N, dim) array of points where f is finite.

    Returns (owner, covectors, truncated): row r pairs pts[owner[r]] with
    covectors[r], and truncated[i] says whether the covector set at pts[i]
    was truncated to the covector box. ``owner`` is nondecreasing: rows come
    point by point in the order of ``pts``, each point's covectors in the
    order its construction lists them, and duplicates are kept. Every
    construction emits this layout itself, with no padding. See
    :func:`sample_subdiff_graph` for the sources.

    The ``exact`` rows are those of the side-oracle
    (:meth:`~varpolar.core.FunctionOracle.subdifferential_representatives`),
    unchanged. The ``clarke-numeric`` rows of a point are its gradient hull
    (:func:`_gradient_hulls`) where that is usable, and otherwise the
    support-table polytope (:func:`_clarke_support`,
    :func:`_clarke_polytopes`), built for the remaining points alone;
    ``groups`` labels the points for that table. The two cover disjoint
    points, so a stable sort on the owner joins them point by point. Only
    the table truncates, which includes a point whose whole set lies outside
    the covector box (it contributes no rows).
    """
    if source == "exact":
        return f.subdifferential_representatives(pts, covector_half_width)
    dirs = sphere_directions(f.dim, _DIR_RESOLUTION)
    owner, covectors, hull = _gradient_hulls(f, pts, dirs, covector_half_width)
    truncated = np.zeros(len(pts), dtype=bool)
    rest = np.flatnonzero(~hull)
    if rest.size:
        # the support-table polytope at the points the hull cannot take
        support = _clarke_support(
            f, pts[rest], dirs, scheme, None if groups is None else groups[rest]
        )
        table_owner, table_covectors, truncated[rest] = _clarke_polytopes(
            support, dirs, covector_half_width
        )
        owner = np.concatenate([owner, rest[table_owner]])
        order = np.argsort(owner, kind="stable")
        covectors = np.take(np.concatenate([covectors, table_covectors]), order, axis=0)
        owner = owner[order]
    return owner, covectors, truncated


def sample_subdiff_graph(
    f: FunctionOracle,
    region: Region,
    resolution: int,
    source: str = "exact",
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    scheme: LiminfScheme = DEFAULT_SCHEME,
) -> GraphSample:
    """Sample representative (point, covector) pairs of the subdifferential
    graph over a region grid.

    ``source="exact"`` uses the analytic side-oracle (its batched form when
    the oracle has one): interval endpoints and midpoint in 1-D, the vertex
    list (plus centroid) in n-D, a center-plus-fan for ball sets.
    ``source="clarke-numeric"`` samples the Clarke subdifferential in the
    same layout. Where every sampled value is finite and every gradient lies
    in the covector box, it lists the gradients at x and at x + R u for the
    sphere directions u, merged within DEFAULT_TOL, and their centroid
    (:func:`_gradient_hulls`). Elsewhere it lists the vertices, merged the
    same way, and the centroid of the polytope {x* : <x*, d> <= f_up(x; d)
    for every sphere direction d} in the covector box
    (:func:`_clarke_polytopes`), with the table of f_up(x; d) evaluated once
    per distinct point (:func:`_clarke_support`).
    ``source="auto"`` picks the exact side-oracle when f has one and the
    numeric route otherwise. Points where f is not finite contribute nothing.
    The sample's ``meta`` records the construction (with the source used) and
    whether any covector set was truncated to the covector box.
    """
    source = _resolve_source(f, source)
    if source not in ("exact", "clarke-numeric"):
        raise ValueError(f"unknown source {source!r}")
    grid = region.sample(resolution)
    finite = np.isfinite(f.values(grid))
    pts = grid[finite]
    owner, covectors, truncated = _graph_rows(f, pts, source, covector_half_width, scheme)
    meta = {
        "function": f.name,
        "region": region.describe(),
        "resolution": resolution,
        "source": source,
        "covector_half_width": covector_half_width,
        "truncated": bool(np.any(truncated)),
    }
    return GraphSample(pts[owner], covectors, meta)


# ---------------------------------------------------------------------------
# Epsilon-enlargement
# ---------------------------------------------------------------------------

def _enlargement_mask(
    diffs: Array, fvals: Array, fx: Array | float, covectors: Array, eps: Array | float
) -> Array:
    """The three enlargement conditions row by row, for rows (x, x*) with
    ``diffs`` = x - xbar and ``fvals`` = f(x): ||x - xbar|| <= eps,
    |f(x) - f(xbar)| <= eps and <x*, x - xbar> <= eps. ``fx`` and ``eps``
    are scalars or per-row arrays; a row with f(x) = +inf fails the second
    condition."""
    with np.errstate(invalid="ignore"):
        close_f = np.abs(fvals - fx) <= eps
    # the square root of the coordinate-by-coordinate sum of squares has the
    # bits of np.linalg.norm(diffs, axis=1) without its strided reduce
    return (
        (np.sqrt(_pairings(diffs, diffs)) <= eps)
        & close_f
        & (np.einsum("ij,ij->i", covectors, diffs) <= eps)
    )


def epsilon_enlargement(
    g: GraphSample,
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    epsilon: float,
) -> GraphSample:
    """Keep exactly the pairs (x, x*) of g with ||x - xbar|| <= eps,
    |f(x) - f(xbar)| <= eps, and <x*, x - xbar> <= eps."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    xb = as_point(xbar, f.dim)
    fx = f.value(xb)
    if not math.isfinite(fx):
        raise DomainError("enlargement needs f(xbar) finite")
    if len(g) == 0:
        return g
    diffs = g.points - xb[None, :]
    return g.filter(_enlargement_mask(diffs, f.values(g.points), fx, g.covectors, epsilon))


# ---------------------------------------------------------------------------
# Subderivative / enlargement inequality
# ---------------------------------------------------------------------------

def _local_grids(xbars: Array, eps: Array, resolution: int) -> Array:
    """(B, L, resolution**dim, dim) stack of the box grids of half-width
    eps[l] around xbars[b]; entry [b, l] is bitwise
    ``Region.box([(c - eps[l], c + eps[l]) for c in xbars[b]]).sample(resolution)``."""
    dim = xbars.shape[1]
    axes = np.linspace(
        xbars[:, None, :] - eps[None, :, None],
        xbars[:, None, :] + eps[None, :, None],
        resolution,
        axis=-1,
    )  # (B, L, dim, resolution)
    idx = np.indices((resolution,) * dim).reshape(dim, -1)  # last axis fastest
    return np.stack([axes[:, :, i, idx[i]] for i in range(dim)], axis=-1)


def _cell_suprema(cells: Array, values: Array, n: int) -> Array:
    """(n, J) maxima of the (R, J) rows of ``values`` by cell, -inf where a
    cell has no row, for cell labels ``cells`` in nondecreasing order: one
    segmented maximum per run of equal labels, reduced in row order, which
    gives the same floats (zero signs included) as an unbuffered
    ``np.maximum.at`` scatter into -inf."""
    sups = np.full((n, values.shape[1]), -math.inf)
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    if starts.size:
        sups[cells[starts]] = np.maximum.reduceat(values, starts, axis=0)
    return sups


def _cdd_profiles(
    f: FunctionOracle,
    xbars: Array,
    dirs: Array,
    scheme: LiminfScheme,
    covector_half_width: float,
    tol: float,
) -> Iterator[list[Verdict]]:
    """The verdicts of :func:`cdd_profile` at each row of ``xbars``, in order.

    Base points go in blocks of about ``_CDD_BLOCK_POINTS`` stacked grid
    points. A block makes one oracle call on all of its (base, epsilon) local
    grids, one :func:`_graph_rows` call on their finite points and one
    :func:`lower_dini_values` call for all left-hand sides; the enlargement
    conditions of :func:`epsilon_enlargement` are applied row by row against
    the base and epsilon of the row's grid, and a segmented maximum gives
    each (base, epsilon) supremum (:func:`_cell_suprema`: the points come in
    cell order and each point's rows together, so the kept rows' cells are
    nondecreasing). Every per-row operation is the one a
    single-base call makes, so each base gets the same floats as alone.
    """
    source = _resolve_source(f, "auto")
    eps = np.asarray(EPS_LADDER)
    levels = eps.size
    grid_points = _CDD_GRID ** f.dim
    block = max(1, _CDD_BLOCK_POINTS // (levels * grid_points))
    for start in range(0, xbars.shape[0], block):
        xb = xbars[start : start + block]
        nb = xb.shape[0]
        # f(xbar) from the pointwise evaluator, as epsilon_enlargement takes it
        fx = np.array([f.value(x) for x in xb])
        if not np.all(np.isfinite(fx)):
            raise DomainError("the inequality check needs f(xbar) finite")

        # cell[i] = base * levels + level of stacked grid point i
        pts = _local_grids(xb, eps, _CDD_GRID).reshape(-1, f.dim)
        cell = np.repeat(np.arange(nb * levels), grid_points)
        fvals = f.values(pts)
        finite = np.isfinite(fvals)
        # np.compress and np.take gather the rows of a narrow 2-D array
        # several times faster than boolean and integer indexing
        pts, fvals, cell = np.compress(finite, pts, axis=0), fvals[finite], cell[finite]
        owner, covectors, truncated = _graph_rows(
            f, pts, source, covector_half_width, scheme, cell // levels
        )

        # Duplicate rows change neither a supremum nor emptiness, so the rows
        # need no deduplication.
        row_cell = cell[owner]
        row_base = row_cell // levels
        eps_rows = eps[row_cell % levels]
        diffs = np.take(pts, owner, axis=0) - np.take(xb, row_base, axis=0)
        kept = _enlargement_mask(diffs, fvals[owner], fx[row_base], covectors, eps_rows)
        pairings = np.compress(kept, covectors @ dirs.T, axis=0)
        sups = _cell_suprema(row_cell[kept], pairings, nb * levels)
        rhs_values = sups.reshape(nb, levels, -1).min(axis=1)
        empty = np.ones(nb * levels, dtype=bool)
        empty[row_cell[kept]] = False
        empty = empty.reshape(nb, levels)
        base_truncated = np.zeros(nb, dtype=bool)
        base_truncated[cell[truncated] // levels] = True
        lhs_values = lower_dini_values(
            f, np.repeat(xb, dirs.shape[0], axis=0), np.tile(dirs, (nb, 1)), scheme
        ).reshape(nb, -1)

        for b in range(nb):
            empty_eps = EPS_LADDER[int(np.argmax(empty[b]))] if empty[b].any() else None
            yield _cdd_verdicts(
                lhs_values[b], rhs_values[b], dirs, bool(base_truncated[b]), empty_eps, tol
            )


def _cdd_verdicts(
    lhs_values: Array,
    rhs_values: Array,
    dirs: Array,
    truncated: bool,
    empty_eps: float | None,
    tol: float,
) -> list[Verdict]:
    """One verdict per direction from the subderivatives and the minimum
    over the ladder of the enlargement suprema at one base point."""
    verdicts = []
    flags = ("covector_truncated",) if truncated else ()
    for j in range(dirs.shape[0]):
        lhs = float(lhs_values[j])
        rhs = float(rhs_values[j])
        details = {"lhs": lhs, "rhs": rhs, "direction": dirs[j].tolist()}
        if empty_eps is not None:
            flagged = flags + ("empty_enlargement",)
            verdicts.append(Verdict(False, math.inf, empty_eps, flagged, details))
            continue
        if lhs == math.inf:
            # A covector set cut by the box cannot reach an infinite supremum;
            # with the truncation documented the check passes by convention.
            ok = truncated or rhs == math.inf
            residual = 0.0 if ok else math.inf
        else:
            residual = lhs - rhs
            ok = residual <= tol
        verdicts.append(Verdict(ok, residual, None if ok else dirs[j], flags, details))
    return verdicts


def cdd_profile(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    directions: Array,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    tol: float = DEFAULT_CDD_TOL,
) -> list[Verdict]:
    """Check the inequality f'(xbar; d) <= inf_eps sup <enlargement, d> for
    several directions at once, sharing the per-epsilon samples.

    For each epsilon of :data:`EPS_LADDER` the graph is sampled, from the
    exact side-oracle when f has one, on a local grid around xbar whose
    spacing scales with epsilon, which keeps the enlargement nonempty whenever
    the subdifferential at xbar itself can be sampled. All grids of the ladder
    are sampled in one pass and filtered as :func:`epsilon_enlargement` would,
    row by row against their own epsilon. The right-hand side is the minimum
    over the ladder of the supremum of pairings; unbounded covector sets
    enter through their truncated representatives and set the truncation
    flag on the verdict. This is the one-point case of the stacked pass that
    ``suites.cdd_suite`` runs over a whole grid of base points.
    """
    xb = as_point(xbar, f.dim)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    return next(_cdd_profiles(f, xb[None, :], dirs, scheme, covector_half_width, tol))
