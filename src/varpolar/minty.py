"""Minty variational inequality residuals and the three-way equivalence
cross-validator.

A point xbar solves the subderivative-type inequality on C when the lower
Dini subderivative of f at every y in C toward xbar is nonpositive; it solves
the subdifferential-type inequality on an open U when every sampled
subgradient pairs nonpositively with xbar - y; and it has the
increase-along-rays property when moving from any y toward xbar never
increases f. The subdifferential residual is the polar kernel at x* = 0:
a Minty solution xbar is a pair (xbar, 0) of the monotone polar. The
cross-validator evaluates the selected comparisons on a grid of xbar, and
:func:`classify`, the one rule of prop1, thm2 and thm3, calls each agree /
indeterminate / hard, where "indeterminate" means the two discretizations
disagree but the false side's residual sits inside the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .core import (
    Array,
    DEFAULT_TOL,
    FunctionOracle,
    GraphSample,
    Region,
    UnusableSampleError,
    Verdict,
    _min_products,
    _block_rows,
    _pairing,
    _row_blocks,
    as_point,
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

#: The comparisons of :func:`cross_validate`: prop1's routes on the closed
#: region and thm2's on its open interior, each against the rays route.
COMPARISONS = ("subderivative_vs_iar", "subdifferential_vs_iar")


def _finite_grid(f: FunctionOracle, region: Region, resolution: int) -> tuple[Array, Array]:
    ys = region.sample(resolution)
    fy = f.values(ys)
    finite = np.isfinite(fy)
    return ys[finite], fy[finite]


class _RayGrid:
    """The rays kernel: ray points y + t(xbar - y) from the points y of a
    tensor probe grid, toward one xbar after another.

    ``axes`` are the grid's per-axis coordinates (last axis fastest, as in
    :func:`~varpolar.core.tensor_grid`) and ``ts`` a uniform [0, 1] grid of
    ``t_resolution >= 2`` points. ``ys`` are the grid points where f is
    finite, in grid order, ``fy`` their values and ``finite`` the mask of
    them, shaped as the grid.

    Coordinate k of a ray point, fl(fl(a_k (1 - t)) + fl(xbar_k t)), depends
    only on t and on the point's index a_k along axis k. So the grid keeps
    the per-axis starts a_k(1 - t), one (T, n_k) array per axis, and
    :meth:`walk` adds xbar_k t to them into per-axis ray coordinates, (T,
    n_k) scratch arrays that the grid keeps for its lifetime. Axis 0 keeps
    only its rows that hold a finite y. Those rows go in blocks of about
    :data:`~varpolar.core._BLOCK_ENTRIES` / dim ray points, and a block's
    oracle arguments are broadcast views of the ray coordinates: (T, b, 1,
    ...) for axis 0 and (T, 1, n_1, ...) and so on for the others. The
    oracle's (T, b, n_1, ...) values are those of building each ray point
    from scratch, and memory for the ray starts is O(T (n_0 + n_1 + ...)).

    A block's cells are its flat indices into ``points``, the grid points of
    the kept rows; ``g`` holds f there, 0 where f is not finite, and
    ``holes`` the cells of a block where f is not finite, whose rays
    :meth:`fold` masks out (:attr:`holes` holds them over all cells, for
    :meth:`settle`). Reusing
    the scratch for one xbar after another means one grid serves one thread
    at a time. (A plain class: a frozen dataclass costs about 1 ms of import
    time.)
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
        coarser that a probe grid refines (all of ``ys`` at step 1)."""
        on = np.zeros_like(self.finite)
        on[(slice(None, None, step),) * on.ndim] = True
        return np.flatnonzero(on[self.finite])

    def walk(self, xbar: Array) -> list[tuple[slice, Array | None, tuple[Array, ...]]]:
        """The blocks ``(cells, holes, coords)`` with ``coords`` the oracle's
        coordinate arrays of the block's ray points toward xbar; they view
        the grid's ray coordinates, which the next walk overwrites."""
        for start, coord, xk in zip(self.starts, self.coords, xbar):
            np.add(start, (xk * self.ts)[:, None], out=coord)
        return self.blocks

    def endpoint(self, xbar: Array) -> tuple[Array, ...]:
        """The oracle's coordinate arrays of the t = 1 ray points toward
        xbar, one per cell of ``points``, broadcast (n_0, 1, ...), (1, n_1,
        ...) and so on. Coordinate k is fl(a_k 0 + xbar_k), the last t row
        that :meth:`walk` writes, so f there gives the kernel's own t = 1
        values."""
        dim = len(self.starts)
        return tuple(
            np.add(start[-1], xk * self.ts[-1]).reshape([-1 if j == k else 1 for j in range(dim)])
            for k, (start, xk) in enumerate(zip(self.starts, xbar))
        )

    def settle(self, diffs: Array) -> list[tuple[float, int, int]]:
        """Per row of ``diffs`` (rows, cells), the values at t = 1 minus
        g(y), the max over the cells with finite f and its first cell, as
        :meth:`fold` gives them with the t index of t = 1. The rows of
        ``diffs`` are overwritten.

        These are entries of the kernel's (y, t) maximum, so each is a lower
        bound on the row's residual, exact in floating point: the kernel
        forms the same differences of the same values."""
        diffs[:, self.holes] = -math.inf
        cells = np.argmax(diffs, axis=1)
        last = self.ts.shape[0] - 1
        return [(float(r[i]), int(i), last) for r, i in zip(diffs, cells)]

    def fold(self, vals: Array, g: Array, block: tuple) -> tuple[float, int, int]:
        """max over the block's y with finite f and over t of
        vals(y, t) - g(y), and the cell and t index of the first maximizing
        (y, t) in y-major order, for ``vals`` evaluated at the block's ray
        points (+inf allowed) and ``g`` finite over every cell.

        The max over t comes first, one vectorized max along the block's t
        axis, and g(y) is subtracted once per cell: rounding is monotone, so
        max_t fl(v - g) = fl(max_t v - g). The holes are then masked to
        -inf, so the first cell with the largest difference is the first
        maximizer's y. Only for it are the T differences formed again: the
        first maximizing t, and its difference as the residual, so a zero
        residual has the sign that one argmax over all differences gives it.
        """
        cells, holes, _ = block
        v = vals.reshape(self.ts.shape[0], -1)
        g = g[cells]
        r = v.max(axis=0)
        r -= g
        if holes is not None:
            r[holes] = -math.inf
        i = int(np.argmax(r))
        diffs = v[:, i] - g[i]
        j = int(np.argmax(diffs))
        return float(diffs[j]), cells.start + i, j

    def witness(self, best: tuple[float, int, int] | None) -> tuple[float, tuple | None]:
        """A running maximum of :meth:`fold` as the residual and its (y, t);
        -inf with no witness when there is none."""
        if best is None:
            return -math.inf, None
        r, cell, j = best
        return r, (self.points[cell], float(self.ts[j]))


def _ray_grid(f: FunctionOracle, region: Region, resolution: int, t_resolution: int) -> _RayGrid:
    """The rays grid over ``region``'s grid at ``resolution``."""
    return _RayGrid(f, region.axes(resolution), t_resolution)


def _iar_residual(
    f: FunctionOracle, xbar: Array, rays: _RayGrid, stop: float = math.inf
) -> tuple[float, tuple | None]:
    """max over (y, t) of f(y + t(xbar - y)) - f(y) and the first maximizing
    (y, t) in y-major order; +inf allowed, -inf with no witness on a grid
    with no finite point.

    The oracle takes each block's ray points as broadcast coordinate arrays
    (see :class:`_RayGrid`), so no (T b, dim) array of ray points is built
    and memory does not grow with the probe grid beyond its values. A later
    block's maximum replaces the running one only when strictly larger,
    which keeps the first maximizer, as one argmax over all rays does, ties
    and +inf included.

    With a finite ``stop``, the endpoint bound comes first: the max over y
    of f(ray(y, 1)) - f(y), at one oracle point per probe point instead of
    T (see :meth:`_RayGrid.settle`). When it exceeds ``stop`` it is
    returned, with its first maximizing (y, 1.0), and no block is walked:
    the residual is then known to exceed ``stop`` but is a lower bound, not
    the exact maximum. Otherwise the result is the exact one.
    """
    if stop < math.inf and rays.g.size:
        ends = f.values_at(*rays.endpoint(xbar)).reshape(1, -1)
        (bound,) = rays.settle(ends - rays.g)
        if bound[0] > stop:
            return rays.witness(bound)
    best = None
    for block in rays.walk(xbar):
        folded = rays.fold(f.values_at(*block[2]), rays.g, block)
        # folded[0] > -inf: the values lie in (-inf, +inf] and g is finite
        if best is None or folded[0] > best[0]:
            best = folded
    return rays.witness(best)


def _tilted_iar_residuals(
    f: FunctionOracle, xs: Array, covectors: Array, rays: _RayGrid, stops: Array | None = None
) -> list[list[tuple[float, tuple[Array, float] | None]]]:
    """Rays residual of the tilted function f - <x*, .> from each x in ``xs``
    for each row x* of ``covectors``: entry [i][k] is the max over the
    grid's (y, t) of (f - x*)(y + t(x_i - y)) - (f - x*)(y), with the first
    maximizing (y, t) in y-major order, as :func:`_iar_residual` gives it
    for ``f.shifted(x*)``.

    Tilting is linear, (f - x*)(p) = f(p) - <x*, p>, so f is evaluated once
    per block of each x's ray points, from the block's coordinate arrays,
    and each covector subtracts its pairing from those values and folds
    them against (f - x*)(y) = f(y) - <x*, y>. Every tilt, of the rows
    (f - x*)(y), the endpoint bound and the blocks, is the
    :func:`~varpolar.core._pairing` of the coordinate arrays with x*, as in
    ``f.shifted(x*)``, so with a ``batch`` the tilted values are bitwise
    those of ``f.shifted(x*)``. They go into one buffer of the largest
    block's size (arrays per covector and block cost page faults at high
    resolution). A grid with no finite point makes every residual -inf
    with no witness.

    ``stops`` (len(xs), len(covectors)), when given, plays the role of
    :func:`_iar_residual`'s ``stop`` per entry: where it is finite, the
    tilted endpoint bound is formed first, at the blocks' own t = 1
    floats, and an entry whose bound exceeds its stop is that bound, with
    witness (y, 1.0). The blocks of an x are walked only when one of its
    entries is not settled so, and fold only those entries.
    """
    gys = rays.g - _pairing(rays.points.T, covectors.T[:, :, None])  # (f - x*)(y) per x*
    t = rays.ts.shape[0]
    size = max((t * (cells.stop - cells.start) for cells, _, _ in rays.blocks), default=0)
    tilted = np.empty(size)
    out = []
    for i, x in enumerate(xs):
        best: list[tuple[float, int, int] | None] = [None] * len(gys)
        ask = [] if stops is None or not rays.g.size else np.flatnonzero(stops[i] < math.inf)
        if len(ask):
            coords = rays.endpoint(x)
            ends = f.values_at(*coords).reshape(1, -1)
            cs = covectors[ask].T.reshape((f.dim, -1) + (1,) * f.dim)  # x* on a leading axis
            pairing = _pairing([c[None] for c in coords], cs).reshape(len(ask), -1)
            bounds = rays.settle(ends - pairing - gys[ask])
            for k, bound in zip(ask, bounds):
                if bound[0] > stops[i][k]:
                    best[k] = bound
        walked = [k for k, b in enumerate(best) if b is None]
        blocks = rays.walk(x) if walked else []
        for block in blocks:
            vals = f.values_at(*block[2])
            buf = tilted[: vals.size].reshape(vals.shape)
            for k in walked:
                pairing = _pairing(block[2], covectors[k], out=buf)
                folded = rays.fold(np.subtract(vals, pairing, out=buf), gys[k], block)
                if best[k] is None or folded[0] > best[k][0]:
                    best[k] = folded
        out.append([rays.witness(b) for b in best])
    return out


def iar_check(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    region: Region,
    resolution: int = 65,
    t_resolution: int = DEFAULT_T_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Does f increase along rays starting from xbar, over the region grid?

    The residual is the largest increase f(y + t(xbar - y)) - f(y) over grid
    points y with finite value and a uniform t grid containing 0 and 1, and
    the witness the maximizing (y, t); the details hold the probe metadata.
    """
    xb = as_point(xbar, f.dim)
    if not region.contains(xb):
        raise ValueError("xbar must belong to the probe region")
    rays = _ray_grid(f, region, resolution, t_resolution)
    meta = {"region": region.describe(), "resolution": resolution,
            "t_resolution": t_resolution, "finite_grid_points": int(rays.ys.shape[0])}
    if rays.ys.shape[0] == 0:
        # no finite-valued grid point: the quantifier is vacuous
        return Verdict(ok=True, residual=0.0, witness=None, details=meta)
    residual, witness = _iar_residual(f, xb, rays)
    return Verdict(ok=residual <= tol, residual=residual, witness=witness, details=meta)


def _max_quotients(
    f: FunctionOracle, xbars: Array, ys: Array, fy: Array, scheme: LiminfScheme, step: int
) -> list[tuple[float, int]]:
    """For each row xbar of ``xbars``, the max over ys of the subderivative
    toward xbar and the index of the first maximizing y; ``fy`` holds the
    values at ``ys``, so f is not evaluated there again.

    The xbar go in blocks of ``step`` rows. A block makes one
    :func:`_tail_quotients` call over its (y, xbar - y) rows, xbar-major,
    with the floats of one call per xbar.
    """
    n, dim = ys.shape
    out = []
    for lo in range(0, xbars.shape[0], step):
        xb = xbars[lo:lo + step]
        b = xb.shape[0]
        dirs = (xb[:, None, :] - ys[None, :, :]).reshape(-1, dim)
        quot = _tail_quotients(f, np.tile(ys, (b, 1)), dirs, scheme, np.tile(fy, b))
        vals = quot.min(axis=1).reshape(b, n)
        args = vals.argmax(axis=1)
        out.extend(zip(vals[np.arange(b), args].tolist(), args.tolist()))
    return out


def _subderivative_residuals(
    f: FunctionOracle,
    xbars: Array,
    ys: Array,
    fy: Array,
    scheme: LiminfScheme,
    stop: float = math.inf,
    first: Array | None = None,
) -> list[tuple[float, Array | None]]:
    """For each row xbar of ``xbars``, the max over ys of the subderivative
    toward xbar and the first maximizing y (see :func:`_max_quotients`);
    -inf with no witness when ``ys`` is empty. The xbar go in blocks of
    about :data:`~varpolar.core._BLOCK_ENTRIES` tail-point coordinates.

    With a finite ``stop``, the rows go over ``ys[first]`` first, a subset
    of the probe points in ``ys`` order (the query-grid points of a nested
    probe grid, :meth:`_RayGrid.nested`), in blocks of as many tail points
    as a block over all of ``ys`` holds. A row whose max there exceeds
    ``stop`` is settled by it: that partial max, with its first maximizing
    y of the subset, is a lower bound on the row's residual, not the exact
    maximum. Only the other rows go over all of ``ys``, and their results
    are exact. Every quotient keeps the bits it has in the full pass.
    """
    if ys.shape[0] == 0:
        return [(-math.inf, None)] * xbars.shape[0]
    n, dim = ys.shape
    step = _block_rows(n * scheme.tail_count * dim)
    out: list[tuple[float, Array | None] | None] = [None] * xbars.shape[0]
    if stop < math.inf and first is not None and first.shape[0] < n:
        coarse = _max_quotients(f, xbars, ys[first], fy[first], scheme, step * n // first.shape[0])
        for i, (r, k) in enumerate(coarse):
            if r > stop:
                out[i] = (r, ys[first[k]])
    rest = [i for i, o in enumerate(out) if o is None]
    for i, (r, k) in zip(rest, _max_quotients(f, xbars[rest], ys, fy, scheme, step)):
        out[i] = (r, ys[k])
    return out


def minty_subderivative(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    region: Region,
    resolution: int = 65,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Subderivative-type Minty residual: max over grid y in C with finite
    value of the subderivative of f at y toward xbar (y = xbar contributes
    exactly 0). The witness is the maximizing y."""
    xb = as_point(xbar, f.dim)
    if not region.contains(xb):
        raise ValueError("xbar must belong to the probe region")
    ys, fy = _finite_grid(f, region, resolution)
    meta = {"region": region.describe(), "resolution": resolution,
            "scheme": scheme.as_dict(), "finite_grid_points": int(ys.shape[0])}
    if ys.shape[0] == 0:
        return Verdict(ok=True, residual=0.0, witness=None, details=meta)
    ((residual, witness),) = _subderivative_residuals(f, xb[None, :], ys, fy, scheme)
    return Verdict(ok=residual <= tol, residual=residual, witness=witness, details=meta)


def minty_subdifferential(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    region: Region,
    graph: GraphSample,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Subdifferential-type Minty residual: max over sampled pairs (y, y*)
    with y in the region of <y*, xbar - y>, as 0 minus the polar kernel at
    x* = 0. The witness is the first maximizing pair."""
    xb = as_point(xbar, f.dim)
    if not region.contains(xb):
        raise ValueError("xbar must belong to the probe region")
    inside = graph.restrict_points(region)
    if len(inside) == 0:
        raise UnusableSampleError("the graph sample has no pairs inside the probe region")
    mins, args = _min_products(inside, xb[None, :], np.zeros((1, f.dim)), argmin=True)
    k = int(args[0, 0])
    residual, witness = 0.0 - float(mins[0, 0]), (inside.points[k], inside.covectors[k])
    return Verdict(
        ok=residual <= tol,
        residual=residual,
        witness=witness,
        details={"region": region.describe(), "graph": dict(graph.meta)},
    )


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def classify(
    verdict_a: bool, residual_a: float, verdict_b: bool, residual_b: float, band: float
) -> str:
    """agree / indeterminate / hard for one pair of route verdicts.

    Disagreements are indeterminate when the false side's residual lies inside
    the band (it could be discretization noise); a wrong-sign residual beyond
    the band is a hard disagreement.
    """
    if verdict_a == verdict_b:
        return "agree"
    false_res = residual_b if verdict_a else residual_a
    return "indeterminate" if abs(false_res) <= band else "hard"


@dataclass
class EquivalenceRow:
    """The routes of the selected comparisons at one xbar: residual and
    verdict per route (``subdifferential`` and ``iar_open`` only at interior
    xbar with graph pairs) and each class. :meth:`to_dict` prints all the
    residuals, so a row whose classes do not all agree carries exact
    residuals; an agreeing row of ``cross_validate(..., exact=False)`` may
    carry a lower bound above tol on a false subderivative route (its max
    over the query-grid probe points) and an endpoint bound on a rays
    route whose partner is false."""

    xbar: tuple[float, ...]
    interior: bool
    residuals: dict[str, float]
    verdicts: dict[str, bool]
    classes: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "xbar": list(self.xbar),
            "interior": self.interior,
            "residuals": self.residuals,
            "verdicts": self.verdicts,
            "classes": self.classes,
        }


@dataclass
class EquivalenceReport:
    """Per-function aggregation of the selected comparisons."""

    function: str
    region: dict
    resolution: int
    band: float
    probe_meta: dict
    rows: list[EquivalenceRow]

    def counts(self, theorem: str) -> dict[str, int]:
        out = {"agree": 0, "indeterminate": 0, "hard": 0}
        for row in self.rows:
            if theorem in row.classes:
                out[row.classes[theorem]] += 1
        return out

    def disagreements(self, theorem: str) -> list[EquivalenceRow]:
        return [r for r in self.rows if r.classes.get(theorem, "agree") != "agree"]

    def section(self, theorem: str) -> dict:
        """The report section of one comparison (``"subderivative_vs_iar"``
        or ``"subdifferential_vs_iar"``): its counts over the xbar it
        classifies, the disagreement rows, and the grid and band."""
        counts = self.counts(theorem)
        graded = sum(counts.values())
        return {
            **counts,
            "disagreements": [r.to_dict() for r in self.disagreements(theorem)],
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
        dim = len(self.rows[0].xbar) if self.rows else 0
        routes = ("subderivative", "subdifferential", "iar", "iar_open")
        header = (
            [f"xbar_{i + 1}" for i in range(dim)]
            + ["interior"]
            + [f"verdict_{r}" for r in routes]
            + [f"residual_{r}" for r in routes]
            + ["class_prop1", "class_thm2"]
        )
        table = []
        for row in self.rows:
            table.append(
                list(row.xbar)
                + [row.interior]
                + [row.verdicts.get(r, "") for r in routes]
                + [row.residuals.get(r, "") for r in routes]
                + [row.classes.get(c, "") for c in COMPARISONS]
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

    :meth:`rows` evaluates the selected routes at a batch of xbar: the
    subderivative route in one :func:`_subderivative_residuals` call, in
    blocks of xbar, the subdifferential route at all
    interior xbar in one call of the polar kernel at x* = 0, and the rays
    routes one xbar at a time. ``cross_validate`` calls it once over its
    finite xbar and ``explain`` with one row, so its lines match the suite
    row of the same point.
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
    ) -> list[tuple[EquivalenceRow, dict[str, Any]]]:
        """The equivalence row at each row xbar of ``xbars`` and the witness
        of each route's residual. thm2's routes run only at interior xbar
        and when the interior holds graph pairs.

        With ``exact`` False, the subderivative route stops at ``tol``: a
        row whose max over the query-grid probe points exceeds ``tol`` keeps
        that lower bound and its witness, and only the other rows take the
        whole probe grid (see :func:`_subderivative_residuals`). A rays
        route whose partner route is already false (residual > ``tol``)
        stops at ``tol`` too (see :func:`_iar_residual`). Either bound
        decides its verdict, so a row whose classes all agree may carry it,
        with its witness. A row with any other class is printed with all
        its residuals: its bounds are replaced by the exact residuals and
        witnesses before it is classed, so its verdicts, classes and
        residuals are those of the exact run."""
        f = self.f
        interior = self.interior_region.contains_many(xbars)
        partners = []  # (comparison, route, its (residual, witness) per xbar, rays route, grid)
        sub_stop = math.inf if exact else tol
        if self.rays_c is not None:
            closed = self.rays_c
            sub = _subderivative_residuals(f, xbars, closed.ys, closed.fy, self.scheme, sub_stop,
                                           closed.nested(self.probe_factor))
            partners.append(("subderivative_vs_iar", "subderivative", sub, "iar", closed))
        if self.graph_inside is not None and len(self.graph_inside) > 0:
            g, at = self.graph_inside, np.flatnonzero(interior)
            mins, args = _min_products(g, xbars[at], np.zeros((1, f.dim)), argmin=True)
            sdiff = [None] * len(xbars)  # max <y*, xbar - y> = 0 - min <y* - 0, y - xbar>
            for i, m, k in zip(at, mins[:, 0].tolist(), args[:, 0]):
                sdiff[i] = (0.0 - m, (g.points[k], g.covectors[k]))
            partners.append(("subdifferential_vs_iar", "subdifferential", sdiff, "iar_open",
                             self.rays_u))
        out = []
        for i, (xb, inner) in enumerate(zip(xbars, interior)):
            residuals, verdicts, witnesses, stops, graded = {}, {}, {}, {}, []
            for comparison, route, evaluated, rays, grid in partners:
                if evaluated[i] is None:
                    continue
                r, w = evaluated[i]
                stops[rays] = (math.inf if exact or r <= tol else tol), grid
                r_iar, w_iar = _iar_residual(f, xb, grid, stops[rays][0])
                residuals.update({route: r, rays: r_iar})
                verdicts.update({route: r <= tol, rays: r_iar <= tol})
                witnesses.update({route: w, rays: w_iar})
                graded.append((comparison, route, rays))
            if any(verdicts[route] != verdicts[rays] for _, route, rays in graded):
                # a class other than agree: the row is printed, so its
                # bounds give way to the exact residuals and witnesses
                for rays, (stop, grid) in stops.items():
                    if residuals[rays] > stop:
                        residuals[rays], witnesses[rays] = _iar_residual(f, xb, grid)
                if residuals.get("subderivative", -math.inf) > sub_stop:
                    closed = self.rays_c
                    ((residuals["subderivative"], witnesses["subderivative"]),) = (
                        _subderivative_residuals(f, xb[None, :], closed.ys, closed.fy, self.scheme))
            classes = {comparison: classify(verdicts[route], residuals[route],
                                            verdicts[rays], residuals[rays], band)
                       for comparison, route, rays in graded}
            xbar = tuple(float(c) for c in xb)
            out.append((EquivalenceRow(xbar, bool(inner), residuals, verdicts, classes), witnesses))
        return out


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
    classes all agree may carry a subderivative or rays residual that is
    only a lower bound above ``tol`` (see :meth:`_EquivalenceProbes.rows`);
    the verdicts, classes and sections are those of the exact run, and so
    is every row of :meth:`EquivalenceReport.disagreements`.
    """
    if region is None:
        region = f.default_region
    if region is None:
        raise ValueError(f"oracle {f.name!r} has no default region; pass one")
    probes = _EquivalenceProbes(
        f, region, resolution, probe_factor, t_resolution, graph, scheme, comparisons
    )
    xgrid = region.sample(resolution)
    xbars = xgrid[np.isfinite(f.values(xgrid))]
    rows = [row for row, _ in probes.rows(xbars, tol, band, exact)]
    g = probes.graph
    graph_meta = {} if g is None else {"graph_source": g.meta["source"], "graph_size": len(g),
                                       "graph_truncated": bool(g.meta.get("truncated"))}
    return EquivalenceReport(
        function=f.name,
        region=region.describe(),
        resolution=resolution,
        band=band,
        probe_meta={
            "probe_resolution": probes.probe_resolution,
            "t_resolution": t_resolution,
            **graph_meta,
            "interior_region": probes.interior_region.describe(),
            "scheme": scheme.as_dict(),
        },
        rows=rows,
    )
