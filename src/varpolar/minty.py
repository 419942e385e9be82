"""Minty variational inequality residuals and the three-way equivalence
cross-validator.

A point xbar solves the subderivative-type inequality on C when the lower
Dini subderivative of f at every y in C toward xbar is nonpositive; it solves
the subdifferential-type inequality on an open U when every sampled
subgradient pairs nonpositively with xbar - y; and it has the
increase-along-rays property when moving from any y toward xbar never
increases f. A Minty solution xbar is a pair (xbar, 0) of the monotone
polar: its subdifferential and rays residuals are thm3's kernels at x* = 0.
The cross-validator evaluates the selected comparisons on a grid of xbar, and
:func:`classify`, the one rule of prop1, thm2 and thm3, calls each agree /
indeterminate / hard, where "indeterminate" means the two discretizations
disagree but the false side's residual sits inside the band.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from .core import (
    Array,
    DEFAULT_TOL,
    FunctionOracle,
    GraphSample,
    Region,
    _check_bound,
    _min_products,
    _block_rows,
    _pairing,
    _row_blocks,
    tensor_grid,
)
from .subderivative import DEFAULT_SCHEME, LiminfScheme, _tail_quotients
from .subdifferential import sample_subdiff_graph

#: Residual band inside which equivalence disagreements are logged as
#: indeterminate rather than failures.
DEFAULT_BAND = 1e-3

#: Points of the uniform [0, 1] t grid of the rays route.
DEFAULT_T_RESOLUTION = 64

#: How many times finer than the query grid the y-probe grids are.
DEFAULT_PROBE_FACTOR = 2

#: How many times coarser, per axis, each level of the subderivative
#: route's probe ladder is than the next (see :meth:`_RayGrid.ladder`).
_LADDER_RATIO = 4

#: The comparisons of :func:`cross_validate`: prop1's routes on the closed
#: region and thm2's on its open interior, each against the rays route.
COMPARISONS = ("subderivative_vs_iar", "subdifferential_vs_iar")


def _ladder_steps(lines: int, step: int = 1) -> list[int]:
    """The strides ``step * _LADDER_RATIO**k`` for k = K, ..., 0, coarsest
    first, with K the largest k whose stride takes at least 3 of ``lines``
    lines (K = 0 when none does): the levels of :meth:`_RayGrid.ladder` and
    of :func:`~varpolar.polar.polar_of_sample`'s graph ladder."""
    steps = [step]
    while (lines - 1) // (steps[-1] * _LADDER_RATIO) >= 2:
        steps.append(steps[-1] * _LADDER_RATIO)
    return steps[::-1]


class _RayGrid:
    """The probe grid of the rays kernel :func:`_tilted_iar_residuals`: ray
    points y + t(xbar - y) from the points y of a tensor probe grid.

    ``axes`` are the grid's per-axis coordinates (last axis fastest, as in
    :func:`~varpolar.core.tensor_grid`) and ``ts`` a uniform [0, 1] grid of
    ``t_resolution >= 2`` points. ``ys`` are the grid points where f is
    finite, in grid order, ``fy`` their values and ``finite`` the mask of
    them, shaped as the grid.

    Coordinate k of a ray point, fl(fl(a_k (1 - t)) + fl(xbar_k t)), depends
    only on t and on the point's index a_k along axis k. So the grid keeps
    the per-axis starts a_k(1 - t), one (T, n_k) array per axis, and
    :meth:`walk` adds xbar_k t to them into per-axis ray coordinates, (T,
    n_k) scratch arrays that the grid keeps for its lifetime. The t = 1 row
    of the starts is +0.0, so every ray ends at ``xbar + 0.0``, bit for bit.
    Axis 0 keeps only its rows that hold a finite y. Those rows go in blocks
    of about :data:`~varpolar.core._BLOCK_ENTRIES` / dim ray points, and a
    block's oracle arguments are broadcast views of the ray coordinates:
    (T, b, 1, ...) for axis 0 and (T, 1, n_1, ...) and so on for the others.
    Memory for the ray starts is O(T (n_0 + n_1 + ...)).

    A block's cells are its flat indices into ``points``, the grid points of
    the kept rows; ``g`` holds f there, 0 where f is not finite, and
    ``holes`` the cells of a block where f is not finite, whose rays
    :meth:`fold` masks out (:attr:`holes` holds them over all cells, for
    :meth:`settle`). A ray point's index is cell * T + (its t index), first
    in y-major order first. Reusing the scratch for one xbar after another
    means one grid serves one thread at a time. (A plain class: a frozen
    dataclass costs about 1 ms of import time.)
    """

    def __init__(self, f: FunctionOracle, axes: Sequence[Array], t_resolution: int) -> None:
        if t_resolution < 2:
            raise ValueError("t_resolution must be >= 2")
        grid = tensor_grid(axes)
        values = f.values(grid)
        finite = np.isfinite(values)
        self.ys, self.fy = grid[finite], values[finite]
        self.finite = finite.reshape([len(a) for a in axes])
        self.ts = np.linspace(0.0, 1.0, t_resolution)
        by_row = finite.reshape(len(axes[0]), -1)
        live = np.flatnonzero(by_row.any(axis=1))
        kept = [axes[0][live], *axes[1:]]
        self.points = tensor_grid(kept)
        self.g = np.where(finite, values, 0.0).reshape(by_row.shape)[live].ravel()
        self.holes = np.flatnonzero(~by_row[live].ravel())
        self.starts = [a * (1.0 - self.ts)[:, None] for a in kept]
        for start in self.starts:
            start[-1] = 0.0  # fl(a_k 0) is -0.0 for a_k < 0
        self.coords = [np.empty_like(s) for s in self.starts]
        dim, inner = len(axes), by_row.shape[1]
        t = self.ts.shape[0]
        rest = [c.reshape((t,) + tuple(len(a) if j == k else 1 for j, a in enumerate(kept)))
                for k, c in enumerate(self.coords[1:], 1)]
        self.blocks = []
        for rows in _row_blocks(live.shape[0], t * inner * dim):
            cells = slice(rows.start * inner, rows.stop * inner)
            holes = np.flatnonzero(~by_row[live[rows]].ravel())
            lead = self.coords[0][:, rows].reshape((t, -1) + (1,) * (dim - 1))
            self.blocks.append((cells, holes if holes.size else None, (lead, *rest)))

    def nested(self, step: int) -> Array:
        """Indices into ``ys`` of the points on every ``step``-th grid line
        of each axis, in grid order: the points of the grid ``step`` times
        coarser that a probe grid refines (all of ``ys`` at step 1), empty
        when f is finite on none of them. The levels of :meth:`ladder`."""
        on = np.zeros_like(self.finite)
        on[(slice(None, None, step),) * on.ndim] = True
        return np.flatnonzero(on[self.finite])

    def ladder(self, step: int) -> list[Array]:
        """The nested subsets ``nested(step * _LADDER_RATIO**k)`` for k = K,
        ..., 0, coarsest first, with K the largest k that leaves at least 3
        grid lines on every axis (K = 0 when none does). With ``step`` the
        probe factor, the last level is the query grid's points and each
        level takes every 4th grid line of the next (5, 17 and 65 of 129
        probe points at the 1-D defaults, 25 and 289 of 1,089 in 2-D): the
        probe ladder of :func:`_subderivative_residuals`."""
        return [self.nested(s) for s in _ladder_steps(min(self.finite.shape), step)]

    def walk(self, xbar: Array) -> list[tuple[slice, Array | None, tuple[Array, ...]]]:
        """The blocks ``(cells, holes, coords)`` with ``coords`` the oracle's
        coordinate arrays of the block's ray points toward xbar; they view
        the grid's ray coordinates, which the next walk overwrites."""
        for start, coord, xk in zip(self.starts, self.coords, xbar):
            np.add(start, (xk * self.ts)[:, None], out=coord)
        return self.blocks

    def settle(self, diffs: Array) -> tuple[Array, Array]:
        """Per row of ``diffs`` (rows, cells), the values at t = 1 minus
        g(y): the max over the cells with finite f, and the index of its
        first ray point at t = 1, as :meth:`fold` gives them. The rows of
        ``diffs`` are overwritten.

        These are entries of the kernel's (y, t) maximum, so each is a lower
        bound on the row's residual, exact in floating point: the kernel
        forms the same differences of the same values."""
        diffs[:, self.holes] = -math.inf
        cells = np.argmax(diffs, axis=1)
        t = self.ts.shape[0]
        return np.take_along_axis(diffs, cells[:, None], 1)[:, 0], cells * t + t - 1

    def fold(self, vals: Array, g: Array, block: tuple) -> tuple[float, int]:
        """max over the block's y with finite f and over t of
        vals(y, t) - g(y), and the index of the first maximizing (y, t) in
        y-major order, for ``vals`` evaluated at the block's ray points
        (+inf allowed) and ``g`` finite over every cell.

        The max over t comes first, one vectorized max along the block's t
        axis, and g(y) is subtracted once per cell: rounding is monotone, so
        max_t fl(v - g) = fl(max_t v - g). The holes are then masked to
        -inf, so the first cell with the largest difference is the first
        maximizer's y. Only for it are the T differences formed again: the
        first maximizing t, and its difference as the residual, so a zero
        residual has the sign that one argmax over all differences gives it.
        """
        cells, holes, _ = block
        t = self.ts.shape[0]
        v = vals.reshape(t, -1)
        g = g[cells]
        r = v.max(axis=0)
        r -= g
        if holes is not None:
            r[holes] = -math.inf
        i = int(np.argmax(r))
        diffs = v[:, i] - g[i]
        j = int(np.argmax(diffs))
        return float(diffs[j]), (cells.start + i) * t + j

    def witness(self, index: int) -> tuple[Array, float] | None:
        """The ray point (y, t) of a kernel witness index, None for -1 (no
        witness)."""
        if index < 0:
            return None
        cell, j = divmod(int(index), self.ts.shape[0])
        return self.points[cell], float(self.ts[j])


def _ray_grid(f: FunctionOracle, region: Region, resolution: int, t_resolution: int) -> _RayGrid:
    """The rays grid over ``region``'s grid at ``resolution``."""
    return _RayGrid(f, region.axes(resolution), t_resolution)


def _stops(ok: Array, tol: float) -> Array:
    """The one stop rule of prop1, thm2 and thm3: a rays residual stops at
    ``tol`` where its partner route is already false (not ``ok``), since any
    residual above ``tol`` then gives the same class, and is exact elsewhere."""
    return np.where(ok, math.inf, tol)


def _tilted_iar_residuals(
    f: FunctionOracle, xs: Array, covectors: Array, rays: _RayGrid, stops: Array | None = None
) -> tuple[Array, Array]:
    """The rays kernel: (len(xs), len(covectors)) arrays of residuals and
    witness indices. Entry [i, k] is the rays residual of f - <x*_k, .> from
    xs[i], the max over the grid's (y, t) of (f - x*)(y + t(x_i - y)) -
    (f - x*)(y), and the index of its first maximizer in y-major order
    (:meth:`_RayGrid.witness`); +inf allowed, -inf and -1 on a grid with no
    finite point. prop1's and thm2's rays routes are its x* = 0 column,
    thm3's its whole candidate grid and
    :func:`~varpolar.polar.polar_membership_via_iar` one entry. A zero
    covector tilts nothing, so the x* = 0 entries are f's own bits (a
    pairing of -0.0 would turn a value -0.0 into +0.0).

    Tilting is linear, so f is evaluated once per block of each x's ray
    points (see :class:`_RayGrid`), and each nonzero x* subtracts the
    :func:`~varpolar.core._pairing` of the block's coordinate arrays with x*
    from those values, into one buffer of the largest block's size, as
    ``f.shifted(x*)`` does: with a ``batch`` the tilted values are bitwise
    those of ``f.shifted(x*)``. A later block's maximum replaces the running
    one only when strictly larger, which keeps the first maximizer, ties and
    +inf included.

    Where ``stops`` (len(xs), len(covectors)) is finite (see :func:`_stops`),
    the endpoint bound comes first, the max over y of the t = 1 increase
    (see :meth:`_RayGrid.settle`), and an entry whose bound exceeds its stop
    is that bound, a lower bound on the residual, with its witness at t = 1.
    Every ray ends at x + 0.0, so the bound evaluates f there once per x, in
    one ``values`` call, and subtracts the rows (f - x*)(y) from
    fl(f(x + 0) - <x*, x + 0>), in blocks of about
    :data:`~varpolar.core._BLOCK_ENTRIES` differences, which overwrite the
    gathered rows. Only the entries left open walk the blocks of their x.
    """
    tilts = np.any(covectors != 0.0, axis=1)
    gys = np.tile(rays.g, (len(covectors), 1))  # (f - x*)(y) per x*
    gys[tilts] -= _pairing(rays.points.T, covectors[tilts].T[:, :, None])
    residuals = np.full((len(xs), len(covectors)), -math.inf)
    witnesses = np.full(residuals.shape, -1)  # -1: open
    i, k = np.nonzero(stops < math.inf) if stops is not None and rays.g.size else ((), ())
    if len(i):  # the entries with a finite stop, x-major
        ends = xs + 0.0  # every ray's t = 1 point
        rows, at = np.unique(i, return_inverse=True)
        top = f.values(ends[rows])[at]
        m = np.flatnonzero(tilts[k])
        top[m] -= _pairing(ends[i[m]].T, covectors[k[m]].T)
        for block in _row_blocks(i.size, rays.g.size):
            diffs = gys[k[block]]
            np.subtract(top[block, None], diffs, out=diffs)
            bound, index = rays.settle(diffs)
            won = bound > stops[i[block], k[block]]
            entry = i[block][won], k[block][won]
            residuals[entry], witnesses[entry] = bound[won], index[won]
    t = rays.ts.shape[0]
    tilted = np.empty(max((t * (cells.stop - cells.start) for cells, _, _ in rays.blocks), default=0))
    for i in np.flatnonzero((witnesses < 0).any(axis=1)):
        open_ = np.flatnonzero(witnesses[i] < 0)
        for block in rays.walk(xs[i]):
            vals = f.values_at(*block[2])
            for k in open_:
                v = vals
                if tilts[k]:
                    buf = tilted[: vals.size].reshape(vals.shape)
                    v = np.subtract(vals, _pairing(block[2], covectors[k], out=buf), out=buf)
                r, index = rays.fold(v, gys[k], block)
                if witnesses[i, k] < 0 or r > residuals[i, k]:
                    residuals[i, k], witnesses[i, k] = r, index
    return residuals, witnesses


def _max_quotients(
    f: FunctionOracle, xbars: Array, ys: Array, fy: Array, scheme: LiminfScheme, step: int
) -> tuple[Array, Array]:
    """For each row xbar of ``xbars``, the max over ys of the subderivative
    toward xbar and the index of the first maximizing y, as two arrays;
    ``fy`` holds the values at ``ys``, so f is not evaluated there again.

    The xbar go in blocks of ``step`` rows. A block makes one
    :func:`_tail_quotients` call over its (y, xbar - y) rows, xbar-major,
    with the floats of one call per xbar.
    """
    n, dim = ys.shape
    maxima, args = np.empty(xbars.shape[0]), np.empty(xbars.shape[0], dtype=np.intp)
    for lo in range(0, xbars.shape[0], step):
        xb = xbars[lo:lo + step]
        b = xb.shape[0]
        dirs = (xb[:, None, :] - ys[None, :, :]).reshape(-1, dim)
        quot = _tail_quotients(f, np.tile(ys, (b, 1)), dirs, scheme, np.tile(fy, b))
        vals = quot.min(axis=1).reshape(b, n)
        args[lo:lo + b] = vals.argmax(axis=1)
        maxima[lo:lo + b] = vals[np.arange(b), args[lo:lo + b]]
    return maxima, args


def _subderivative_residuals(
    f: FunctionOracle,
    xbars: Array,
    ys: Array,
    fy: Array,
    scheme: LiminfScheme,
    stop: float = math.inf,
    levels: Sequence[Array] = (),
) -> tuple[Array, Array]:
    """For each row xbar of ``xbars``, the max over ys of the subderivative
    toward xbar and the index in ``ys`` of the first maximizing y, as two
    arrays (see :func:`_max_quotients`); -inf and -1 when ``ys`` is empty.
    The xbar go in blocks of about :data:`~varpolar.core._BLOCK_ENTRIES`
    tail-point coordinates.

    With a finite ``stop``, the rows go over ``levels`` first, nested
    subsets of the probe points in ``ys`` order, coarsest first (the ladder
    of :meth:`_RayGrid.ladder`), and then over all of ``ys``. Each level
    takes only the rows still open and only the probe points that the
    levels before it did not hold, in blocks of as many tail points as a
    block over all of ``ys`` holds; an open row keeps its running max and
    first maximizer, and a tie goes to the smaller ``ys`` index, so the
    running pair is the max over every point taken so far and its first
    maximizing y. A row whose running max exceeds ``stop`` after a level is
    settled by it: that partial max and its witness are a lower bound on
    the row's residual, not the exact maximum. The rows still open after
    all of ``ys`` are exact, and every probe point is taken once per row
    (129 at the 1-D defaults, not 5 + 17 + 65 + 129). Every quotient keeps
    the bits it has in the full pass.
    """
    residuals, witnesses = np.full(xbars.shape[0], -math.inf), np.full(xbars.shape[0], -1)
    if ys.shape[0] == 0:
        return residuals, witnesses
    n, dim = ys.shape
    step = _block_rows(n * scheme.tail_count * dim)
    rest = np.arange(xbars.shape[0])
    held = np.zeros(n, dtype=bool)
    for level in [*(levels if stop < math.inf else ()), np.arange(n)]:
        new = level[~held[level]]
        held[level] = True
        if new.size == 0 or rest.size == 0:
            continue
        r, k = _max_quotients(f, xbars[rest], ys[new], fy[new], scheme, step * n // new.size)
        k, run, wit = new[k], residuals[rest], witnesses[rest]
        better = (wit < 0) | (r > run) | ((r == run) & (k < wit))
        residuals[rest], witnesses[rest] = np.where(better, r, run), np.where(better, k, wit)
        rest = rest[~(residuals[rest] > stop)]
    return residuals, witnesses


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def classify(verdict_a, residual_a, verdict_b, residual_b, band: float) -> Array:
    """agree / indeterminate / hard for pairs of route verdicts, elementwise
    over verdict and residual arrays that broadcast together (a 0-d array
    for one pair; ``str()`` reads it).

    Disagreements are indeterminate when the false side's residual lies inside
    the band (it could be discretization noise); a wrong-sign residual beyond
    the band is a hard disagreement.
    """
    _check_bound("band", band)
    false_res = np.where(verdict_a, residual_b, residual_a)
    return np.where(np.equal(verdict_a, verdict_b), "agree",
                    np.where(np.abs(false_res) <= band, "indeterminate", "hard"))


def _equivalence_row(xbars: Array, interior: Array, graded: dict, tol: float, i: int) -> dict:
    """The row of ``xbars[i]`` that the report, the CSV and ``explain``
    print, from the interior mask and the ``graded`` arrays of
    :meth:`_EquivalenceProbes.rows`: the xbar, whether it is interior, and
    the residual and verdict (residual <= ``tol``) of each route and the
    class of each comparison that grades it (``subdifferential`` and
    ``iar_open`` only at interior xbar with graph pairs). A row whose
    classes do not all agree carries exact residuals; an agreeing row of
    ``cross_validate(..., exact=False)`` may carry a lower bound above tol
    on a false subderivative route (its max over the first level of the
    probe ladder, :meth:`_RayGrid.ladder`, that exceeds tol) and an endpoint
    bound on a rays route whose partner is false."""
    row = {"xbar": xbars[i].tolist(), "interior": bool(interior[i]),
           "residuals": {}, "verdicts": {}, "classes": {}}
    for comparison, (at, residuals, _, classes) in graded.items():
        j = int(np.searchsorted(at, i))
        if j < at.size and at[j] == i:
            for route, r in residuals.items():
                row["residuals"][route] = float(r[j])
                row["verdicts"][route] = float(r[j]) <= tol
            row["classes"][comparison] = str(classes[j])
    return row


@dataclass(eq=False)
class EquivalenceReport:
    """Per-function aggregation of the selected comparisons: the graded
    xbar (``xbars``, the grid points with finite f), their ``interior``
    mask and the ``graded`` arrays of :meth:`_EquivalenceProbes.rows`, with
    the band and tol they were classed at. :func:`_equivalence_row` forms
    the row of an xbar that is printed."""

    function: str
    region: dict
    resolution: int
    band: float
    tol: float
    probe_meta: dict
    xbars: Array
    interior: Array
    graded: dict[str, tuple[Array, dict[str, Array], dict[str, Array], Array]]

    def _classes(self, theorem: str) -> tuple[Array, Array]:
        """The indices of the xbar that ``theorem`` grades and their
        classes; empty when it grades none."""
        if theorem not in self.graded:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=str)
        at, _, _, classes = self.graded[theorem]
        return at, classes

    def row(self, i: int) -> dict:
        """:func:`_equivalence_row` at ``xbars[i]``."""
        return _equivalence_row(self.xbars, self.interior, self.graded, self.tol, i)

    def counts(self, theorem: str) -> dict[str, int]:
        _, classes = self._classes(theorem)
        return {c: int(np.count_nonzero(classes == c)) for c in ("agree", "indeterminate", "hard")}

    def section(self, theorem: str) -> dict:
        """The report section of one comparison (``"subderivative_vs_iar"``
        or ``"subdifferential_vs_iar"``): its counts over the xbar it
        classifies, the disagreement rows, and the grid and band."""
        counts = self.counts(theorem)
        graded = sum(counts.values())
        at, classes = self._classes(theorem)
        return {
            **counts,
            "disagreements": [self.row(i) for i in at[classes != "agree"].tolist()],
            "function": self.function,
            "region": self.region,
            "resolution": self.resolution,
            "band": self.band,
            "grid_points": graded,
            "indeterminate_fraction": counts["indeterminate"] / graded if graded else 0.0,
            "hard_count": counts["hard"],
        }

    def rows_table(self) -> tuple[list[str], list[list]]:
        """Per-xbar rows as a CSV-ready (header, rows) pair, one row per grid
        point, for plotting solution sets externally."""
        dim = self.xbars.shape[1] if len(self.xbars) else 0
        routes = ("subderivative", "subdifferential", "iar", "iar_open")
        header = (
            [f"xbar_{i + 1}" for i in range(dim)]
            + ["interior"]
            + [f"verdict_{r}" for r in routes]
            + [f"residual_{r}" for r in routes]
            + ["class_prop1", "class_thm2"]
        )
        table = []
        for i in range(len(self.xbars)):
            row = self.row(i)
            table.append(
                row["xbar"]
                + [row["interior"]]
                + [row["verdicts"].get(r, "") for r in routes]
                + [row["residuals"].get(r, "") for r in routes]
                + [row["classes"].get(c, "") for c in COMPARISONS]
            )
        return header, table


class _EquivalenceProbes:
    """The probe constructions of :func:`cross_validate` for one region,
    query-grid resolution and selection of :data:`COMPARISONS`, each built
    only when selected (None otherwise): for prop1 the rays grid at the
    probe resolution over the region (``rays_c``); for thm2 the graph
    (sampled at the probe resolution with ``scheme`` unless one is given),
    its pairs inside the open interior (``graph_inside``, restricted once)
    and the rays grid over the interior (``rays_u``). The interior is the
    region shrunk by one query-grid cell.

    :meth:`rows` evaluates the selected routes at a batch of xbar, each in
    one call of its kernel. ``cross_validate`` calls it once over its finite
    xbar and ``explain`` once with the one row x, exact: its prop1/thm2
    lines print :func:`_equivalence_row` of that call, the row of
    ``cross_validate(..., exact=True)`` at x. No other path evaluates these
    routes at a point.
    """

    def __init__(
        self,
        f: FunctionOracle,
        region: Region,
        resolution: int,
        probe_factor: int,
        t_resolution: int,
        graph: GraphSample | None,
        scheme: LiminfScheme,
        comparisons: Sequence[str] = COMPARISONS,
    ) -> None:
        if not set(comparisons) <= set(COMPARISONS):
            raise ValueError(f"comparisons must be among {COMPARISONS}")
        self.f, self.scheme, self.probe_factor = f, scheme, probe_factor
        self.probe_resolution = probe_factor * (resolution - 1) + 1
        self.interior_region = region.shrink(region.spacing(resolution))
        self.rays_c = self.rays_u = self.graph = self.graph_inside = None
        if "subderivative_vs_iar" in comparisons:
            self.rays_c = _ray_grid(f, region, self.probe_resolution, t_resolution)
        if "subdifferential_vs_iar" in comparisons:
            self.graph = graph if graph is not None else sample_subdiff_graph(
                f, region, self.probe_resolution, "auto", scheme=scheme)
            self.graph_inside = self.graph.restrict_points(self.interior_region)
            self.rays_u = _ray_grid(f, self.interior_region, self.probe_resolution, t_resolution)

    def rows(
        self, xbars: Array, tol: float, band: float, exact: bool = True
    ) -> tuple[Array, dict[str, tuple[Array, dict[str, Array], dict[str, Array], Array]]]:
        """The interior mask of the rows xbar of ``xbars`` and the arrays
        that grade each selected comparison: ``(at, residuals, witnesses,
        classes)``, with ``at`` the ascending indices of the xbar it grades,
        ``residuals`` and ``witnesses`` its route's and its rays route's
        arrays over them, keyed by route (:meth:`witness` decodes an index),
        and ``classes`` its class at each. thm2's routes run only at
        interior xbar and when the interior holds graph pairs; without them
        thm2 has no entry. Each route is one array over the xbar it grades:
        the subderivative route one :func:`_subderivative_residuals` call,
        the subdifferential route one call of the polar kernel at x* = 0,
        and each rays route one call of the rays kernel at x* = 0.
        :func:`_equivalence_row` forms the row of one xbar from them.

        With ``exact`` False, the subderivative route stops at ``tol``: it
        takes the ladder of nested probe subsets of :meth:`_RayGrid.ladder`,
        coarsest first, and a row whose max over a level exceeds ``tol``
        keeps that lower bound and its witness (see
        :func:`_subderivative_residuals`). Each rays route is one kernel
        call at x* = 0 over the xbar of its partner route, and stops at
        ``tol`` where the partner is false (see :func:`_stops`). Either
        bound decides its verdict, so a row whose classes all agree may
        carry it. A row with any other class is printed with all its
        residuals: its bounds give way to the exact residuals and witnesses,
        one batched call per route over all such rows, before it is classed,
        so its verdicts, classes and residuals are those of the exact run."""
        f, zero, closed = self.f, np.zeros((1, self.f.dim)), self.rays_c
        interior = self.interior_region.contains_many(xbars)
        sub_stop = math.inf if exact else tol
        graded = []  # (comparison, route, rays route, rays grid, graded xbar, route's arrays)
        if closed is not None:
            sub = _subderivative_residuals(f, xbars, closed.ys, closed.fy, self.scheme, sub_stop,
                                           closed.ladder(self.probe_factor))
            graded.append(("subderivative_vs_iar", "subderivative", "iar", closed,
                           np.arange(len(xbars)), *sub))
        if self.graph_inside is not None and len(self.graph_inside) > 0:
            at = np.flatnonzero(interior)
            mins, args = _min_products(self.graph_inside, xbars[at], zero, argmin=True)
            # max <y*, xbar - y> = 0 - min <y* - 0, y - xbar>
            graded.append(("subdifferential_vs_iar", "subdifferential", "iar_open", self.rays_u,
                           at, 0.0 - mins[:, 0], args[:, 0]))
        printed, columns = np.zeros(len(xbars), dtype=bool), []
        for *names, grid, at, r, w in graded:
            stops = _stops(np.logical_or(exact, r <= tol), tol)
            r_iar, w_iar = (a[:, 0] for a in _tilted_iar_residuals(f, xbars[at], zero, grid,
                                                                  stops[:, None]))
            printed[at] |= (r <= tol) != (r_iar <= tol)
            columns.append((*names, grid, at, r, w, r_iar, w_iar, stops))
        out = {}
        for comparison, route, rays, grid, at, r, w, r_iar, w_iar, stops in columns:
            # a printed row's bounds give way to the exact residuals and witnesses
            redo = np.flatnonzero(printed[at] & (r_iar > stops))
            if redo.size:
                r_iar[redo], w_iar[redo] = (a[:, 0] for a in _tilted_iar_residuals(
                    f, xbars[at[redo]], zero, grid))
            redo = np.flatnonzero(printed & (r > sub_stop)) if route == "subderivative" else []
            if len(redo):
                r[redo], w[redo] = _subderivative_residuals(f, xbars[redo], closed.ys, closed.fy,
                                                            self.scheme)
            out[comparison] = (at, {route: r, rays: r_iar}, {route: w, rays: w_iar},
                               classify(r <= tol, r, r_iar <= tol, r_iar, band))
        return interior, out

    def witness(self, route: str, index: int) -> Any:
        """``route``'s witness from its index in :meth:`rows`: a probe point
        y, a graph pair (y, y*) or a ray point (y, t); None for -1."""
        if index < 0:
            return None
        if route == "subderivative":
            return self.rays_c.ys[index]
        if route == "subdifferential":
            return self.graph_inside.points[index], self.graph_inside.covectors[index]
        return (self.rays_c if route == "iar" else self.rays_u).witness(index)


def cross_validate(
    f: FunctionOracle,
    region: Region | None = None,
    resolution: int = 65,
    probe_factor: int = DEFAULT_PROBE_FACTOR,
    t_resolution: int = DEFAULT_T_RESOLUTION,
    band: float = DEFAULT_BAND,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    graph: GraphSample | None = None,
    tol: float = DEFAULT_TOL,
    exact: bool = True,
    comparisons: Sequence[str] = COMPARISONS,
) -> EquivalenceReport:
    """Evaluate the subderivative-Minty, subdifferential-Minty, and
    increase-along-rays verdicts for every grid xbar in the region with finite
    value, and classify the pairwise comparisons named in ``comparisons``
    (both by default); only the routes those comparisons read are evaluated.

    The y-probe grids are sampled at ``probe_factor`` times the xbar
    resolution (nested refinement), which keeps residuals faithful enough for
    the band to separate genuine disagreements from grid artifacts. The
    subdifferential route quantifies over the open interior of the region,
    discretized by shrinking the box by one xbar-grid cell; comparisons
    against it are made at interior xbar only, with the rays route re-run on
    the shrunk region so both sides quantify over the same set.

    ``graph`` is the sampled subdifferential graph over the region; without
    one, the graph is sampled at the probe resolution from the exact
    side-oracle when f has one, with the default covector box and ``scheme``.
    Without thm2's comparison no graph is read or sampled, and ``probe_meta``
    has no graph entries.

    Every residual is exact by default. With ``exact`` False, the rows whose
    classes all agree may carry a subderivative residual that is only a
    lower bound above ``tol``, its max over a level of the probe ladder, or
    a rays residual that is only an endpoint bound above ``tol`` (see
    :meth:`_EquivalenceProbes.rows`); the verdicts, classes and sections are
    those of the exact run, and so is every disagreement row of
    :meth:`EquivalenceReport.section`.
    """
    _check_bound("band", band)
    _check_bound("tol", tol)
    if region is None:
        region = f.default_region
    if region is None:
        raise ValueError(f"oracle {f.name!r} has no default region; pass one")
    probes = _EquivalenceProbes(
        f, region, resolution, probe_factor, t_resolution, graph, scheme, comparisons
    )
    xgrid = region.sample(resolution)
    xbars = xgrid[np.isfinite(f.values(xgrid))]
    interior, graded = probes.rows(xbars, tol, band, exact)
    g = probes.graph
    graph_meta = {} if g is None else {"graph_source": g.meta["source"], "graph_size": len(g),
                                       "graph_truncated": bool(g.meta.get("truncated"))}
    return EquivalenceReport(
        function=f.name,
        region=region.describe(),
        resolution=resolution,
        band=band,
        tol=tol,
        probe_meta={
            "probe_resolution": probes.probe_resolution,
            "t_resolution": t_resolution,
            **graph_meta,
            "interior_region": probes.interior_region.describe(),
            "scheme": asdict(scheme),
        },
        xbars=xbars,
        interior=interior,
        graded=graded,
    )
