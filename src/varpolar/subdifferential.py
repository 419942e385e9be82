"""Subdifferential graph sampling, the epsilon-enlargement filter, and the
subderivative-vs-enlargement inequality check.

Two concrete subdifferentials are available: the exact side-oracles of the
curated library (convex-analysis subdifferentials) and a numeric Clarke
route. Where f is locally Lipschitz, the numeric set at x is the hull of
gradients sampled by central differences at points near x; elsewhere (a
domain boundary, or a set that leaves the covector box) it is the polytope of
covectors dominated by the generalized derivative f°(x; d) on a
deterministic sphere grid of directions d.

The covector box [-w, w]^n cuts two kinds of set: the 1-D intervals of the
exact route and the support-table polytopes of the numeric route. A point
whose set it cut carries a truncation flag, so an unbounded subdifferential
is reported rather than silently clipped. The exact route's polytopes and
balls are listed whole whatever the box, flagged where a representative
leaves it, and the gradient hull is used only where every sampled gradient
lies in the box.
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
    _block_rows,
    _candidate_rows,
    _check_bound,
    _fibonacci_sphere,
    _pairing,
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
# Support table of the numeric route
# ---------------------------------------------------------------------------

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


def _clarke_support(f: FunctionOracle, pts: Array, dirs: Array, scheme: LiminfScheme) -> Array:
    """(N, J) table of generalized derivatives f_up(pts[i]; dirs[j]), one
    estimator call per direction over all rows, in direction order. Entries
    may be +inf. The table is the support function, on the direction grid,
    of the numeric Clarke subdifferential at each point."""
    table = np.empty((len(pts), len(dirs)))
    for j, d in enumerate(dirs):
        table[:, j] = clarke_directional_values(f, pts, d, scheme)[0]
    return table


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
    truncated where some support value exceeds the box's own support
    half_width ||dirs[j]||_1 (+inf included: the box then cuts the set
    along dirs[j]), and where the box cuts the whole set away (no vertex is
    left, as for a slope steeper than the box): the point then has no
    rows, and its flag says why. Sums run coordinate by coordinate, so a
    point's rows do not depend on its row block.
    """
    n, dim = support.shape[0], dirs.shape[1]
    normals = np.vstack([dirs, np.eye(dim), -np.eye(dim)])
    subsets = np.array(list(itertools.combinations(range(len(normals)), dim)))
    subsets = subsets[np.abs(np.linalg.det(normals[subsets])) > 1e-9]
    inverses = np.linalg.inv(normals[subsets])  # the same at every point
    # a support value above the box's own leaves x* free along dirs[j] up
    # to the box, which cuts nothing more there and keeps the solves finite
    box = half_width * np.abs(dirs).sum(axis=1)
    bounds = np.hstack([np.minimum(support, box), np.full((n, 2 * dim), float(half_width))])
    pieces = []
    for rows in _row_blocks(n, len(subsets) * len(normals)):
        b = bounds[rows]
        verts = _pairings(inverses[None], b[:, subsets][:, :, None, :])
        slack = _pairings(verts[:, :, None, :], normals) - b[:, None, :]
        pieces.append(_merged_rows(rows, verts, np.all(slack <= DEFAULT_TOL, axis=2)))
    owner, covectors = _joined(pieces, dim)
    empty = np.ones(n, dtype=bool)
    empty[owner] = False
    return owner, covectors, np.any(~(support <= box), axis=1) | empty


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
    row blocks of about :data:`~varpolar.core._BLOCK_ENTRIES` entries, one
    oracle call per block, and the budget counts every temporary a point
    allocates, not only its largest: six entries per coordinate of the
    point's 2 S dim**2 difference sides. A point's rows do not depend on its
    block.
    """
    n, dim = pts.shape
    offsets = _HULL_RADIUS * np.vstack([np.zeros((1, dim)), dirs])  # (S, dim)
    axis = np.arange(dim)
    usable = np.zeros(n, dtype=bool)
    pieces = []
    # Besides its sides, a point holds their values, the steps, the gradients
    # and the merge's arrays: measured with tracemalloc on one block, 6.6
    # times the sides' entries in 1-D, 6.8 in 2-D and 4.6 in 3-D. Counting
    # the sides alone let a 1-D cdd block's hulls set the pass's peak.
    for rows in _row_blocks(n, 6 * (2 * len(offsets) * dim * dim)):
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


def _distinct(pts: Array) -> tuple[Array, Array]:
    """The bit-distinct rows of an (N, dim) array: indices ``first`` of one
    row of each, and the (N,) ``inverse`` with ``pts[first][inverse]``
    equal to ``pts`` bit for bit. Rows are keyed on the int64 view of their
    coordinates, so +0.0 and -0.0 stay distinct, and grouped by one sort (a
    lexicographic one beyond 1-D); ``first`` follows the keys' order."""
    keys = np.ascontiguousarray(pts).view(np.int64)
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    new = np.zeros(len(order), dtype=bool)  # the first row of each key
    new[:1] = True
    for k in range(keys.shape[1]):  # column by column, as in _beyond_box
        column = np.take(keys[:, k], order)
        new[1:] |= column[1:] != column[:-1]
    group = np.cumsum(new, out=column)  # the sorted rows' groups, in place
    group -= 1
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = group
    return order[new], inverse


def _graph_rows(
    f: FunctionOracle,
    pts: Array,
    source: str,
    covector_half_width: float,
    scheme: LiminfScheme,
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
    :func:`_clarke_polytopes`), built for the remaining points alone. The
    two cover disjoint points, so a stable sort on the owner joins them
    point by point. Only the table truncates, which includes a point whose
    whole set lies outside the covector box (it contributes no rows).

    A numeric point's rows depend only on its own bits, so they are built
    once per bit-distinct point (:func:`_distinct`; +0.0 and -0.0 are
    distinct) and gathered back to every repeat, in the order of ``pts``:
    the cdd pass's stacked local grids repeat most of their points. The
    ``exact`` side-oracle costs less than that sort and takes every point.
    """
    if source == "exact":
        return f.subdifferential_representatives(pts, covector_half_width)
    first, inverse = _distinct(pts)
    distinct = pts[first]
    dirs = sphere_directions(f.dim, _DIR_RESOLUTION)
    owner, covectors, hull = _gradient_hulls(f, distinct, dirs, covector_half_width)
    truncated = np.zeros(len(distinct), dtype=bool)
    rest = np.flatnonzero(~hull)
    if rest.size:
        # the support-table polytope at the points the hull cannot take
        support = _clarke_support(f, distinct[rest], dirs, scheme)
        table_owner, table_covectors, truncated[rest] = _clarke_polytopes(
            support, dirs, covector_half_width
        )
        owner = np.concatenate([owner, rest[table_owner]])
        order = np.argsort(owner, kind="stable")
        covectors = np.take(np.concatenate([covectors, table_covectors]), order, axis=0)
        owner = owner[order]
    # each point takes the consecutive rows of its distinct point: row j of
    # point i is row j of the group, shifted by the group's end minus i's
    # (in place where it can: these arrays are as long as ``pts``)
    per_group = np.bincount(owner, minlength=first.size)
    truncated = truncated[inverse]
    shift = np.cumsum(per_group)[inverse]
    counts = per_group[inverse]
    del inverse
    shift -= np.cumsum(counts)
    rows = np.repeat(shift, counts)
    del shift
    rows += np.arange(rows.size)
    owner = np.repeat(np.arange(len(pts)), counts)
    return owner, np.take(covectors, rows, axis=0), truncated


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

    ``source="exact"`` takes the rows of the analytic side-oracle, one call
    for the whole grid: for the library, interval endpoints and midpoint in
    1-D, the vertex list (plus centroid) in n-D, a center-plus-fan for the
    ball.
    ``source="clarke-numeric"`` samples the Clarke subdifferential in the
    same layout. Where every sampled value is finite and every gradient lies
    in the covector box, it lists the gradients at x and at x + R u for the
    sphere directions u, merged within DEFAULT_TOL, and their centroid
    (:func:`_gradient_hulls`). Elsewhere it lists the vertices, merged the
    same way, and the centroid of the polytope {x* : <x*, d> <= f_up(x; d)
    for every sphere direction d} in the covector box
    (:func:`_clarke_polytopes`), with the table of f_up(x; d) taken by one
    estimator call per direction (:func:`_clarke_support`).
    ``source="auto"`` picks the exact side-oracle when f has one and the
    numeric route otherwise. Points where f is not finite contribute nothing.
    The numeric route builds its rows once per bit-distinct point
    (:func:`_graph_rows`); a region grid repeats none, so each of its
    points is built.
    The sample's ``meta`` records the construction (with the source used) and
    whether any covector set was truncated to the covector box.
    """
    _check_bound("covector_half_width", covector_half_width)
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

def _point_conditions(
    offsets: Sequence[Array], fvals: Array, fx: Array | float, eps: Array | float
) -> Array:
    """The enlargement conditions on the point x alone, for points with
    per-axis offsets ``offsets[k]`` = x_k - xbar_k and ``fvals`` = f(x),
    arrays that broadcast together: ||x - xbar|| <= eps and
    |f(x) - f(xbar)| <= eps (the f-attentive neighbourhood). ``fx`` and
    ``eps`` are scalars or arrays that broadcast with them; a point where f
    is not finite fails the second condition."""
    with np.errstate(invalid="ignore"):
        close_f = np.abs(fvals - fx) <= eps
    # the square root of the coordinate-by-coordinate sum of squares has the
    # bits of np.linalg.norm(diffs, axis=1) without its strided reduce
    return (np.sqrt(_pairing(offsets, offsets)) <= eps) & close_f


def _row_condition(covectors: Array, diffs: Array, eps: Array | float) -> Array:
    """The enlargement condition on the covector, row by row:
    <x*, x - xbar> <= eps for rows (x, x*) with ``diffs`` = x - xbar."""
    return _pairings(covectors, diffs) <= eps


def _enlargement_mask(
    diffs: Array, fvals: Array, fx: Array | float, covectors: Array, eps: Array | float
) -> Array:
    """The three enlargement conditions row by row, for rows (x, x*) with
    ``diffs`` = x - xbar and ``fvals`` = f(x): the point conditions
    (:func:`_point_conditions`) and the row condition
    (:func:`_row_condition`)."""
    offsets = [diffs[:, k] for k in range(diffs.shape[1])]
    return _point_conditions(offsets, fvals, fx, eps) & _row_condition(covectors, diffs, eps)


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
) -> Iterator[tuple[Array, ...]]:
    """The verdict arrays of :func:`_cdd_verdicts` for consecutive blocks of
    the rows of ``xbars``, in order: the stacked pass behind
    :func:`cdd_profile` and ``suites.cdd_suite``.

    A block holds about :data:`~varpolar.core._BLOCK_ENTRIES` (stacked grid
    point, direction) entries: 331 base points in 1-D and 18 in 2-D at the
    default ladder and grid with the directions +-e_i. Each block is one
    :func:`_cdd_block` call, whose temporaries are gone before the block's
    arrays are yielded. The stacked grids repeat most of their points
    across the ladder and neighbouring bases, and the numeric graph rows
    are built once per bit-distinct point of a block (:func:`_graph_rows`),
    so a wider block shares more of them.
    """
    source = _resolve_source(f, "auto")
    stacked = len(EPS_LADDER) * _CDD_GRID**f.dim
    block = _block_rows(stacked * dirs.shape[0])
    for start in range(0, xbars.shape[0], block):
        xb = xbars[start : start + block]
        yield _cdd_block(f, xb, dirs, source, scheme, covector_half_width, tol)


def _cdd_block(
    f: FunctionOracle,
    xb: Array,
    dirs: Array,
    source: str,
    scheme: LiminfScheme,
    covector_half_width: float,
    tol: float,
) -> tuple[Array, ...]:
    """:func:`_cdd_verdicts` at the block of base points ``xb``.

    The block takes f at its base points in one oracle call (each value has
    the bits of the ``f.value`` that :func:`epsilon_enlargement` takes), and
    makes one oracle call on the tensor axes of all of its (base, epsilon)
    local grids (:func:`_near_points`). The point conditions
    (:func:`_point_conditions`) drop a stacked point that is too far from
    its base, in x or in f, before its graph rows are sampled: such a
    point's rows could never enter the supremum. One :func:`_graph_rows`
    call samples the rest, the numeric route once per bit-distinct point,
    and the row condition
    (:func:`_row_condition`) filters each row against the base and epsilon
    of its grid; a segmented maximum gives each (base, epsilon) supremum
    (:func:`_cell_suprema`: the points come in cell order and each point's
    rows together, so the kept rows' cells are nondecreasing). A base point
    is truncated when the set of one of its kept points is. One
    :func:`lower_dini_values` call gives all left-hand sides. Every per-row
    operation is the one a single-base call makes, so each base gets the
    same floats as alone.
    """
    eps = np.asarray(EPS_LADDER)
    levels = eps.size
    nb = xb.shape[0]
    fx = f.values(xb)
    if not np.all(np.isfinite(fx)):
        raise DomainError("the inequality check needs f(xbar) finite")

    cell, pts, diffs = _near_points(f, xb, fx, eps)
    owner, covectors, truncated = _graph_rows(f, pts, source, covector_half_width, scheme)

    # Duplicate rows change neither a supremum nor emptiness, so the rows
    # need no deduplication.
    row_cell = cell[owner]
    kept = _row_condition(covectors, np.take(diffs, owner, axis=0), eps[row_cell % levels])
    pairings = np.compress(kept, covectors @ dirs.T, axis=0)
    kept_cells = row_cell[kept]
    sups = _cell_suprema(kept_cells, pairings, nb * levels)
    rhs = sups.reshape(nb, levels, -1).min(axis=1)
    empty = np.ones(nb * levels, dtype=bool)
    empty[kept_cells] = False
    empty = empty.reshape(nb, levels)
    empty_eps = np.where(empty.any(axis=1), eps[np.argmax(empty, axis=1)], math.nan)
    base_truncated = np.zeros(nb, dtype=bool)
    base_truncated[cell[truncated] // levels] = True
    lhs = lower_dini_values(
        f, np.repeat(xb, dirs.shape[0], axis=0), np.tile(dirs, (nb, 1)), scheme
    ).reshape(nb, -1)
    return _cdd_verdicts(lhs, rhs, base_truncated, empty_eps, tol)


def _near_points(f: FunctionOracle, xb: Array, fx: Array, eps: Array) -> tuple[Array, Array, Array]:
    """The stacked grid points of a block that meet the point conditions
    (:func:`_point_conditions`) of their base and epsilon, in stacked order:
    their cells (base * levels + level), their coordinates and their
    differences x - xbar.

    The local grid of base b and epsilon eps[l] is the tensor grid over the
    axes ``np.linspace(xb[b, k] - eps[l], xb[b, k] + eps[l], _CDD_GRID)``,
    bitwise ``Region.box(...).sample(_CDD_GRID)``, last axis fastest. As in
    the rays kernel, the block keeps only these (B, L, dim, G) axes and
    their offsets from the base, never the (B, L, G**dim, dim) grids: one
    ``values_at`` call takes f on the axes broadcast to (B, L, G, ..., G),
    and the point conditions pair the per-axis offsets, with the floats of
    the same operations on whole grids. Only the near points' coordinates
    and offsets are gathered, by flat index into the axes."""
    dim, g = f.dim, _CDD_GRID
    axes = np.linspace(xb[:, None, :] - eps[None, :, None], xb[:, None, :] + eps[None, :, None],
                       g, axis=-1)  # (B, L, dim, G)
    offsets = axes - xb[:, None, :, None]

    def on_grid_axis(a: Array, k: int) -> Array:
        shape = [*a.shape[:2]] + [1] * dim
        shape[2 + k] = g
        return a[:, :, k].reshape(shape)

    near = np.flatnonzero(_point_conditions(
        [on_grid_axis(offsets, k) for k in range(dim)],
        f.values_at(*(on_grid_axis(axes, k) for k in range(dim))),
        fx.reshape((-1,) + (1,) * (dim + 1)),
        eps.reshape((-1,) + (1,) * dim),
    ))
    cell = near // g**dim
    near -= cell * g**dim  # the index in the cell's local grid
    # coordinate k of grid point j of a cell's local grid is entry
    # table[j, k] of the cell's (dim, G) axes
    table = np.indices((g,) * dim).reshape(dim, -1).T + np.arange(dim) * g
    index = np.take(table, near, axis=0)
    del near
    index += (cell * (dim * g))[:, None]
    return cell, np.take(axes, index), np.take(offsets, index)


def _cdd_verdicts(
    lhs: Array, rhs: Array, truncated: Array, empty_eps: Array, tol: float
) -> tuple[Array, ...]:
    """The one decision rule of the inequality, over a block of base points
    and directions: from the (B, J) subderivatives ``lhs`` and minima over
    the ladder of the enlargement suprema ``rhs``, the (B,) truncation
    flags and the (B,) first epsilon of an empty enlargement (NaN where
    every enlargement is nonempty), the arrays (lhs, rhs, ok, residual,
    truncated, empty_eps).

    A check fails with residual +inf where the enlargement is empty. Where
    lhs is +inf, a covector set cut by the box cannot reach an infinite
    supremum: with the truncation documented the check passes by
    convention, as it does when rhs is +inf too, with residual 0 (+inf when
    it fails). Elsewhere the residual is lhs - rhs and the check passes
    when it is at most ``tol``.
    """
    with np.errstate(invalid="ignore"):
        residual = lhs - rhs
    unbounded = lhs == math.inf
    ok = np.where(unbounded, truncated[:, None] | (rhs == math.inf), residual <= tol)
    residual[unbounded] = np.where(ok[unbounded], 0.0, math.inf)
    empty = ~np.isnan(empty_eps)
    ok[empty] = False
    residual[empty] = math.inf
    return lhs, rhs, ok, residual, truncated, empty_eps


def _cdd_flags(truncated: bool, empty_eps: float) -> tuple[str, ...]:
    """The flags of a base point's checks, from its entries of the
    :func:`_cdd_verdicts` arrays."""
    flags = ("covector_truncated",) if truncated else ()
    if not math.isnan(empty_eps):
        flags += ("empty_enlargement",)
    return flags


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
    flag on the verdict; only the grid points that meet the point
    conditions of their own epsilon are sampled, so only their sets can set
    it. This is the one-point case of the stacked pass that
    ``suites.cdd_suite`` runs over a whole grid of base points, and its
    verdicts come from the same :func:`_cdd_verdicts` arrays.

    ``directions`` must be a (k, dim) array of finite coordinates (one
    direction may come as a flat list); any other shape raises
    :class:`~varpolar.core.DimensionMismatchError` and a non-finite
    coordinate :class:`ValueError`, before f is evaluated.
    """
    _check_bound("covector_half_width", covector_half_width)
    _check_bound("tol", tol)
    xb = as_point(xbar, f.dim)
    dirs = _candidate_rows("directions", np.atleast_2d(directions), f.dim)
    block = next(_cdd_profiles(f, xb[None, :], dirs, scheme, covector_half_width, tol))
    return _base_verdicts(block, dirs, 0)


def _base_verdicts(block: tuple[Array, ...], dirs: Array, b: int) -> list[Verdict]:
    """The verdicts, one per direction, of base point ``b`` of a block's
    :func:`_cdd_verdicts` arrays. A failing check's witness is its
    direction, or the first epsilon of an empty enlargement."""
    lhs, rhs, ok, residual, truncated, empty_eps = block
    flags = _cdd_flags(truncated[b], empty_eps[b])
    verdicts = []
    for j in range(dirs.shape[0]):
        passed = bool(ok[b, j])
        if math.isnan(empty_eps[b]):
            witness = None if passed else dirs[j]
        else:
            witness = float(empty_eps[b])
        details = {"lhs": float(lhs[b, j]), "rhs": float(rhs[b, j]), "direction": dirs[j].tolist()}
        verdicts.append(Verdict(passed, float(residual[b, j]), witness, flags, details))
    return verdicts
