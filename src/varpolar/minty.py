"""Minty variational inequality residuals and the three-way equivalence
cross-validator.

A point xbar solves the subderivative-type inequality on C when the lower
Dini subderivative of f at every y in C toward xbar is nonpositive; it solves
the subdifferential-type inequality on an open U when every sampled
subgradient pairs nonpositively with xbar - y; and it has the
increase-along-rays property when moving from any y toward xbar never
increases f. The cross-validator evaluates all three verdicts on a grid of
xbar and classifies each comparison as agree / indeterminate / hard, where
"indeterminate" means the two discretizations disagree but the false side's
residual sits inside the documented band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .core import (
    Array,
    DEFAULT_TOL,
    FunctionOracle,
    GraphSample,
    Region,
    UnusableSampleError,
    Verdict,
    _pairings,
    _row_blocks,
    as_point,
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


def _finite_grid(f: FunctionOracle, region: Region, resolution: int) -> tuple[Array, Array]:
    ys = region.sample(resolution)
    fy = f.values(ys)
    finite = np.isfinite(fy)
    return ys[finite], fy[finite]


class _RayGrid:
    """The rays kernel: ray points y + t(xbar - y) over a fixed probe grid.

    ``ys`` are the probe points with finite value ``fy`` and ``ts`` a uniform
    [0, 1] grid. ``blocks`` splits the rows of ``ys`` into blocks of about
    :data:`~varpolar.core._BLOCK_ENTRIES` ray coordinates. The ray starts
    y(1 - t) do not depend on xbar, so they are built once per probe grid,
    one contiguous (dim, T, b) array per block of b probe points:
    coordinate-major, then t-major. :meth:`walk` adds xbar_k t_j to a
    block's starts in one ``np.add`` into ``scratch``, the same floats as
    building each ray point from scratch, and hands the oracle the
    transpose of the (dim, T b) result: (T b, dim) points, t-major, whose
    coordinate columns are contiguous.

    The grid keeps ``scratch`` for its lifetime, so walking the blocks for
    one xbar after another reuses the same memory instead of faulting in
    fresh pages; one grid therefore serves one thread at a time.
    (A plain class: a frozen dataclass costs about 1 ms of import time.)
    """

    def __init__(self, ys: Array, fy: Array, t_resolution: int) -> None:
        self.ys, self.fy = ys, fy
        self.ts = np.linspace(0.0, 1.0, t_resolution)
        self.blocks = list(_row_blocks(ys.shape[0], t_resolution * ys.shape[1]))
        self.starts = [ys[rows].T[:, None, :] * (1.0 - self.ts)[:, None] for rows in self.blocks]
        self.scratch = np.empty(self.starts[0].size) if self.blocks else None

    def walk(self, xbar: Array) -> Iterator[tuple[slice, Array]]:
        """For each block, its rows of ``ys`` and its (T b, dim) ray points
        toward xbar, t-major; the points live in ``scratch`` until the next
        step."""
        xt = (xbar[:, None] * self.ts)[:, :, None]
        for rows, starts in zip(self.blocks, self.starts):
            pts = np.add(starts, xt, out=self.scratch[: starts.size].reshape(starts.shape))
            yield rows, pts.reshape(starts.shape[0], -1).T

    def fold(self, vals: Array, gy: Array, rows: slice) -> tuple[float, tuple[Array, float]]:
        """max over y in ys[rows] and t of vals(y, t) - gy(y) and the first
        maximizing (y, t) in y-major order, for ``vals`` evaluated at the
        block's points (+inf allowed) and finite ``gy`` over all of ``ys``.

        The max over t comes first, one vectorized max along the block's t
        axis, and gy(y) is subtracted once per probe: rounding is monotone,
        so max_t fl(v - g) = fl(max_t v - g). The first y with the largest
        difference is therefore the first maximizer's y. Only for it are the
        T differences formed again: the first maximizing t, and its
        difference as the residual, so a zero residual has the sign that
        one argmax over all differences gives it.
        """
        v = vals.reshape(self.ts.shape[0], -1)
        g = gy[rows]
        r = v.max(axis=0)
        r -= g
        i = int(np.argmax(r))
        diffs = v[:, i] - g[i]
        j = int(np.argmax(diffs))
        return float(diffs[j]), (self.ys[rows][i], float(self.ts[j]))


def _ray_grid(f: FunctionOracle, region: Region, resolution: int, t_resolution: int) -> _RayGrid:
    """The rays grid over the points of ``region``'s grid where f is finite."""
    return _RayGrid(*_finite_grid(f, region, resolution), t_resolution)


def _iar_residual(f: FunctionOracle, xbar: Array, rays: _RayGrid) -> tuple[float, tuple | None]:
    """max over (y, t) of f(y + t(xbar - y)) - f(y) and the first maximizing
    (y, t) in y-major order; +inf allowed, -inf with no witness on an empty
    grid.

    The probe rows go in the grid's row blocks (see :class:`_RayGrid`), so
    the working set stays in cache and memory does not grow with the probe
    grid. A later block's maximum replaces the running one only when
    strictly larger, which keeps the first maximizer, as one argmax over all
    rays does, ties and +inf included.
    """
    best: tuple[float, tuple | None] = (-math.inf, None)
    for rows, pts in rays.walk(xbar):
        r, witness = rays.fold(f.values(pts), rays.fy, rows)
        if r > best[0]:  # r > -inf: the values lie in (-inf, +inf], fy is finite
            best = (r, witness)
    return best


def _tilted_iar_residuals(
    f: FunctionOracle, xs: Array, covectors: Array, rays: _RayGrid
) -> list[list[tuple[float, tuple[Array, float] | None]]]:
    """Rays residual of the tilted function f - <x*, .> from each x in ``xs``
    for each row x* of ``covectors``: entry [i][k] is the max over the
    grid's (y, t) of (f - x*)(y + t(x_i - y)) - (f - x*)(y), with the first
    maximizing (y, t) in y-major order, as :func:`_iar_residual` gives it
    for ``f.shifted(x*)``.

    Tilting is linear, (f - x*)(p) = f(p) - <x*, p>, so f is evaluated once
    per block of each x's ray points, and each covector subtracts its
    pairing from those values and folds them against
    (f - x*)(y) = f(y) - <x*, y>. The pairings are :func:`_pairings` sums,
    as ``f.shifted(x*)`` forms them, so for an oracle with a ``batch``
    evaluator the tilted values are bitwise those of ``f.shifted(x*)``. An
    empty grid makes every residual -inf with no witness.
    """
    gys = [rays.fy - _pairings(rays.ys, c) for c in covectors]
    out = []
    for x in xs:
        best: list[tuple[float, tuple | None]] = [(-math.inf, None)] * len(gys)
        for rows, pts in rays.walk(x):
            vals = f.values(pts)
            for k, (c, gy) in enumerate(zip(covectors, gys)):
                tilted = _pairings(pts, c)
                np.subtract(vals, tilted, out=tilted)
                r, witness = rays.fold(tilted, gy, rows)
                if r > best[k][0]:
                    best[k] = (r, witness)
        out.append(best)
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
    ys, fy = _finite_grid(f, region, resolution)
    meta = {"region": region.describe(), "resolution": resolution,
            "t_resolution": t_resolution, "finite_grid_points": int(ys.shape[0])}
    if ys.shape[0] == 0:
        # no finite-valued grid point: the quantifier is vacuous
        return Verdict(ok=True, residual=0.0, witness=None, details=meta)
    residual, witness = _iar_residual(f, xb, _RayGrid(ys, fy, t_resolution))
    return Verdict(ok=residual <= tol, residual=residual, witness=witness, details=meta)


def _subderivative_residuals(
    f: FunctionOracle,
    xbars: Array,
    ys: Array,
    fy: Array,
    scheme: LiminfScheme,
) -> list[tuple[float, Array | None]]:
    """For each row xbar of ``xbars``, the max over ys of the subderivative
    toward xbar and the first maximizing y; ``fy`` holds the values at
    ``ys``, so f is not evaluated there again.

    The xbar go in row blocks of about :data:`~varpolar.core._BLOCK_ENTRIES`
    tail-point coordinates. A block makes one :func:`_tail_quotients` call
    over its (y, xbar - y) rows, xbar-major, with the floats of one call per
    xbar.
    """
    if ys.shape[0] == 0:
        return [(-math.inf, None)] * xbars.shape[0]
    n, dim = ys.shape
    out = []
    for rows in _row_blocks(xbars.shape[0], n * scheme.tail_count * dim):
        xb = xbars[rows]
        b = xb.shape[0]
        dirs = (xb[:, None, :] - ys[None, :, :]).reshape(-1, dim)
        quot = _tail_quotients(f, np.tile(ys, (b, 1)), dirs, scheme, np.tile(fy, b))
        vals = quot.min(axis=1).reshape(b, n)
        for v, i in zip(vals, vals.argmax(axis=1)):
            out.append((float(v[i]), ys[i]))
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


def _subdifferential_residual(
    xbar: Array, graph: GraphSample
) -> tuple[float, tuple[Array, Array]]:
    """max over the pairs (y, y*) of ``graph`` of <y*, xbar - y> and the
    first maximizing pair; the caller restricts the graph to the region."""
    pts, cov = graph.points, graph.covectors
    vals = np.einsum("ij,ij->i", cov, xbar[None, :] - pts)
    i = int(np.argmax(vals))
    return float(vals[i]), (pts[i], cov[i])


def minty_subdifferential(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    region: Region,
    graph: GraphSample,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Subdifferential-type Minty residual: max over sampled pairs (y, y*)
    with y in the region of <y*, xbar - y>. The witness is the maximizing
    pair."""
    xb = as_point(xbar, f.dim)
    if not region.contains(xb):
        raise ValueError("xbar must belong to the probe region")
    inside = graph.restrict_points(region)
    if len(inside) == 0:
        raise UnusableSampleError("the graph sample has no pairs inside the probe region")
    residual, witness = _subdifferential_residual(xb, inside)
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
    """Per-function aggregation of the three-route comparison."""

    function: str
    region: dict
    resolution: int
    band: float
    probe_meta: dict
    rows: list[EquivalenceRow]

    def counts(self, theorem: str) -> dict[str, int]:
        out = {"agree": 0, "indeterminate": 0, "hard": 0}
        for row in self.rows:
            cls = row.classes.get(theorem)
            if cls is not None:
                out[cls] += 1
        return out

    def disagreements(self, theorem: str) -> list[EquivalenceRow]:
        return [r for r in self.rows if r.classes.get(theorem) in ("indeterminate", "hard")]

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
                + [
                    row.classes.get("subderivative_vs_iar", ""),
                    row.classes.get("subdifferential_vs_iar", ""),
                ]
            )
        return header, table


class _EquivalenceProbes:
    """The probe constructions of :func:`cross_validate` for one region and
    query-grid resolution: the rays grids at the probe resolution over the
    region (``rays_c``) and over its open interior (``rays_u``), the graph
    (sampled at the probe resolution with ``scheme`` unless one is given) and
    its pairs inside the interior.

    The interior is the region shrunk by one query-grid cell, and the
    graph's pairs are restricted to it once, so the subdifferential route
    pairs ⟨y*, xbar - y⟩ over ``graph_inside`` without a membership test per
    xbar. :meth:`rows` evaluates the three routes at a batch of xbar: the
    subderivative route in blocks of xbar (see
    :func:`_subderivative_residuals`), the rays and subdifferential routes
    one xbar at a time. ``cross_validate`` calls it once over its finite
    xbar and ``explain`` with one row, so its lines match the suite row of
    the same point.
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
    ) -> None:
        self.f, self.scheme = f, scheme
        self.probe_resolution = probe_factor * (resolution - 1) + 1
        self.interior_region = region.shrink(region.spacing(resolution))
        if graph is None:
            graph = sample_subdiff_graph(f, region, self.probe_resolution, "auto", scheme=scheme)
        self.graph = graph
        self.rays_c = _ray_grid(f, region, self.probe_resolution, t_resolution)
        self.rays_u = _ray_grid(f, self.interior_region, self.probe_resolution, t_resolution)
        self.graph_inside = self.graph.restrict_points(self.interior_region)

    def rows(
        self, xbars: Array, tol: float, band: float
    ) -> list[tuple[EquivalenceRow, dict[str, Any]]]:
        """The equivalence row at each row xbar of ``xbars`` and the witness
        of each route's residual. The subderivative route runs over all the
        xbar at once; the subdifferential route and the interior rays route
        run only at interior xbar and when the interior holds graph pairs."""
        f = self.f
        interior = self.interior_region.contains_many(xbars)
        sub = _subderivative_residuals(f, xbars, self.rays_c.ys, self.rays_c.fy, self.scheme)
        out = []
        for xb, inner, (r_sd, w_sd) in zip(xbars, interior, sub):
            r_iar, w_iar = _iar_residual(f, xb, self.rays_c)
            v_sd, v_iar = r_sd <= tol, r_iar <= tol
            residuals = {"subderivative": r_sd, "iar": r_iar}
            verdicts = {"subderivative": v_sd, "iar": v_iar}
            witnesses = {"subderivative": w_sd, "iar": w_iar}
            classes = {"subderivative_vs_iar": classify(v_sd, r_sd, v_iar, r_iar, band)}
            if inner and len(self.graph_inside) > 0:
                r_sdiff, w_sdiff = _subdifferential_residual(xb, self.graph_inside)
                r_iar_u, w_iar_u = _iar_residual(f, xb, self.rays_u)
                v_sdiff, v_iar_u = r_sdiff <= tol, r_iar_u <= tol
                residuals.update({"subdifferential": r_sdiff, "iar_open": r_iar_u})
                verdicts.update({"subdifferential": v_sdiff, "iar_open": v_iar_u})
                witnesses.update({"subdifferential": w_sdiff, "iar_open": w_iar_u})
                classes["subdifferential_vs_iar"] = classify(
                    v_sdiff, r_sdiff, v_iar_u, r_iar_u, band
                )
            row = EquivalenceRow(
                xbar=tuple(float(c) for c in xb),
                interior=bool(inner),
                residuals=residuals,
                verdicts=verdicts,
                classes=classes,
            )
            out.append((row, witnesses))
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
) -> EquivalenceReport:
    """Evaluate the subderivative-Minty, subdifferential-Minty, and
    increase-along-rays verdicts for every grid xbar in the region with finite
    value, and classify the two pairwise comparisons.

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
    """
    if region is None:
        region = f.default_region
    if region is None:
        raise ValueError(f"oracle {f.name!r} has no default region; pass one")
    probes = _EquivalenceProbes(f, region, resolution, probe_factor, t_resolution, graph, scheme)
    xgrid = region.sample(resolution)
    xbars = xgrid[np.isfinite(f.values(xgrid))]
    rows = [row for row, _ in probes.rows(xbars, tol, band)]
    return EquivalenceReport(
        function=f.name,
        region=region.describe(),
        resolution=resolution,
        band=band,
        probe_meta={
            "probe_resolution": probes.probe_resolution,
            "t_resolution": t_resolution,
            "graph_source": probes.graph.meta["source"],
            "graph_size": len(probes.graph),
            "interior_region": probes.interior_region.describe(),
            "scheme": scheme.as_dict(),
        },
        rows=rows,
    )
