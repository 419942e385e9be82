"""Subdifferential membership tests, graph sampling, the epsilon-enlargement
filter, and the subderivative-vs-enlargement inequality check.

Two concrete subdifferentials are available: the exact side-oracles of the
curated library (convex-analysis subdifferentials) and a numeric route that
accepts a covector when it is dominated directionally by the generalized
derivative on a deterministic sphere grid. Covector search grids are truncated
to a documented box; unbounded subdifferentials are reported with a truncation
flag rather than silently clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    tensor_grid,
    _fibonacci_sphere,
)
from .subderivative import (
    DEFAULT_DELTAS,
    DEFAULT_SCHEME,
    LiminfScheme,
    clarke_directional_values,
    lower_dini_values,
)

#: Geometric epsilon ladder 1, 1/2, ..., 2**-10 used to approximate the
#: infimum over epsilon > 0.
EPS_LADDER: tuple[float, ...] = tuple(2.0 ** -k for k in range(11))

#: Stacked local grid points per block of base points in the cdd pass:
#: 41 base points in 1-D and 4 in 2-D at the default ladder and grid.
_CDD_BLOCK_POINTS = 4096


@dataclass(frozen=True)
class EnlargementParams:
    """Shared bound for the three enlargement conditions."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a covector membership test.

    ``residual`` is the worst violated margin (<= tol when the covector is a
    member); ``witness`` is the probe point or direction achieving it.
    """

    contains: bool
    residual: float
    witness: Array | None = None

    def __bool__(self) -> bool:
        return self.contains


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
) -> MembershipVerdict:
    """Test the global support inequality <xstar, y - xbar> + f(xbar) <= f(y)
    over a probe grid.

    The residual is the largest violation over grid points with f(y) finite.
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
        return MembershipVerdict(contains=True, residual=-math.inf, witness=None)
    margins = (ys[finite] - xb[None, :]) @ xs + fx - fy[finite]
    idx = int(np.argmax(margins))
    residual = float(margins[idx])
    return MembershipVerdict(contains=residual <= tol, residual=residual, witness=ys[finite][idx])


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
    dir_resolution: int = 16,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    delta_list: Sequence[float] = DEFAULT_DELTAS,
    nbhd_resolution: int = 3,
    tol: float = DEFAULT_TOL,
) -> MembershipVerdict:
    """Test <xstar, d> <= generalized derivative of f at xbar along d for all
    unit d in a deterministic sphere grid."""
    xb = as_point(xbar, f.dim)
    xs = as_point(xstar, f.dim)
    if not math.isfinite(f.value(xb)):
        raise DomainError("membership tests need f(xbar) finite")
    dirs = sphere_directions(f.dim, dir_resolution)
    best = -math.inf
    witness = None
    for d in dirs:
        up, _ = clarke_directional_values(
            f, xb[None, :], d, scheme, delta_list, nbhd_resolution
        )
        margin = float(np.dot(xs, d)) - float(up[0])  # -inf when the bound is +inf
        if margin > best:
            best, witness = margin, d
    return MembershipVerdict(contains=best <= tol, residual=best, witness=witness)


# ---------------------------------------------------------------------------
# Graph sampling
# ---------------------------------------------------------------------------

def _clarke_intervals_1d(
    f: FunctionOracle,
    points: Array,
    scheme: LiminfScheme,
    delta_list: Sequence[float],
    nbhd_resolution: int,
) -> tuple[Array, Array]:
    """Per-point bounds (-f_up(x;-1), f_up(x;+1)) describing the numeric
    Clarke interval in 1-D. Either side may be infinite."""
    up_pos, _ = clarke_directional_values(f, points, [1.0], scheme, delta_list, nbhd_resolution)
    up_neg, _ = clarke_directional_values(f, points, [-1.0], scheme, delta_list, nbhd_resolution)
    return -up_neg, up_pos


def _resolve_source(f: FunctionOracle, source: str) -> str:
    """Resolve ``source="auto"``: the exact side-oracle when f has one, the
    numeric route otherwise. Any other source passes through."""
    if source != "auto":
        return source
    return "exact" if f.exact_subdifferential is not None else "clarke-numeric"


def _graph_rows(
    f: FunctionOracle,
    pts: Array,
    source: str,
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    covector_resolution: int = 41,
    dir_resolution: int = 16,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    delta_list: Sequence[float] = DEFAULT_DELTAS,
    nbhd_resolution: int = 3,
    tol: float = DEFAULT_TOL,
) -> tuple[Array, Array, Array]:
    """Raw graph rows at an (N, dim) array of points where f is finite.

    Returns (owner, covectors, truncated): row r pairs pts[owner[r]] with
    covectors[r], and truncated[i] says whether the covector set at pts[i]
    was truncated to the covector box. Rows come point by point in the order
    of ``pts``, each point's covectors in the order its construction lists
    them, and duplicates are kept. See :func:`sample_subdiff_graph` for the
    sources.
    """
    if source == "exact":
        reps, mask, truncated = f.subdifferential_representatives(pts, covector_half_width)
    elif f.dim == 1:
        lo, hi = _clarke_intervals_1d(f, pts, scheme, delta_list, nbhd_resolution)
        cands = np.linspace(-covector_half_width, covector_half_width, covector_resolution)
        truncated = ~np.isfinite(lo) | ~np.isfinite(hi)
        mask = (cands[None, :] >= lo[:, None] - tol) & (cands[None, :] <= hi[:, None] + tol)
        reps = np.broadcast_to(cands[None, :, None], mask.shape + (1,))
    else:
        dirs = sphere_directions(f.dim, dir_resolution)
        axis = np.linspace(-covector_half_width, covector_half_width, covector_resolution)
        cands = tensor_grid([axis] * f.dim)
        pairings = cands @ dirs.T
        mask = np.ones((pts.shape[0], cands.shape[0]), dtype=bool)
        for j, d in enumerate(dirs):
            up, _ = clarke_directional_values(f, pts, d, scheme, delta_list, nbhd_resolution)
            mask &= pairings[None, :, j] - up[:, None] <= tol
        reps = np.broadcast_to(cands[None, :, :], mask.shape + (f.dim,))
        truncated = np.zeros(pts.shape[0], dtype=bool)
    owner = np.repeat(np.arange(pts.shape[0]), mask.sum(axis=1))
    return owner, reps[mask], truncated


def sample_subdiff_graph(
    f: FunctionOracle,
    region: Region,
    resolution: int,
    source: str = "exact",
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    covector_resolution: int = 41,
    dir_resolution: int = 16,
    scheme: LiminfScheme = DEFAULT_SCHEME,
    delta_list: Sequence[float] = DEFAULT_DELTAS,
    nbhd_resolution: int = 3,
    tol: float = DEFAULT_TOL,
) -> GraphSample:
    """Sample representative (point, covector) pairs of the subdifferential
    graph over a region grid.

    ``source="exact"`` uses the analytic side-oracle (its batched form when
    the oracle has one): interval endpoints and midpoint in 1-D, the vertex
    list (plus centroid) in n-D, a center-plus-fan for ball sets.
    ``source="clarke-numeric"`` accepts candidates from a covector grid
    filtered by the generalized-derivative membership test.
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
    owner, covectors, truncated = _graph_rows(
        f,
        pts,
        source,
        covector_half_width,
        covector_resolution,
        dir_resolution,
        scheme,
        delta_list,
        nbhd_resolution,
        tol,
    )
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

def epsilon_enlargement(
    g: GraphSample,
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    params: EnlargementParams,
) -> GraphSample:
    """Keep exactly the pairs (x, x*) of g with ||x - xbar|| <= eps,
    |f(x) - f(xbar)| <= eps, and <x*, x - xbar> <= eps."""
    xb = as_point(xbar, f.dim)
    fx = f.value(xb)
    if not math.isfinite(fx):
        raise DomainError("enlargement needs f(xbar) finite")
    eps = params.epsilon
    if len(g) == 0:
        return g
    diffs = g.points - xb[None, :]
    fvals = f.values(g.points)
    with np.errstate(invalid="ignore"):
        close_f = np.abs(fvals - fx) <= eps
    mask = (
        (np.linalg.norm(diffs, axis=1) <= eps)
        & np.where(np.isfinite(fvals), close_f, False)
        & (np.einsum("ij,ij->i", g.covectors, diffs) <= eps)
    )
    return g.filter(mask)


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


def _cdd_profiles(
    f: FunctionOracle,
    xbars: Array,
    dirs: Array,
    eps_list: Sequence[float],
    ring_resolution: int,
    source: str,
    scheme: LiminfScheme,
    covector_half_width: float,
    covector_resolution: int,
    tol: float,
) -> Iterator[list[Verdict]]:
    """The verdicts of :func:`cdd_profile` at each row of ``xbars``, in order.

    Base points go in blocks of about ``_CDD_BLOCK_POINTS`` stacked grid
    points. A block makes one oracle call on all of its (base, epsilon) local
    grids, one :func:`_graph_rows` call on their finite points and one
    :func:`lower_dini_values` call for all left-hand sides; the enlargement
    conditions of :func:`epsilon_enlargement` are applied row by row against
    the base and epsilon of the row's grid, and a segmented maximum gives
    each (base, epsilon) supremum. Every per-row operation is the one a
    single-base call makes, so each base gets the same floats as alone.
    """
    eps_sorted = sorted(eps_list, reverse=True)
    if not eps_sorted or eps_sorted[-1] <= 0:
        raise ValueError("eps_list must be a decreasing list of positive reals")
    source = _resolve_source(f, source)
    eps = np.asarray(eps_sorted)
    levels = eps.size
    grid_points = ring_resolution ** f.dim
    block = max(1, _CDD_BLOCK_POINTS // (levels * grid_points))
    for start in range(0, xbars.shape[0], block):
        xb = xbars[start : start + block]
        nb = xb.shape[0]
        # f(xbar) from the pointwise evaluator, as epsilon_enlargement takes it
        fx = np.array([f.value(x) for x in xb])
        if not np.all(np.isfinite(fx)):
            raise DomainError("the inequality check needs f(xbar) finite")

        # cell[i] = base * levels + level of stacked grid point i
        pts = _local_grids(xb, eps, ring_resolution).reshape(-1, f.dim)
        cell = np.repeat(np.arange(nb * levels), grid_points)
        fvals = f.values(pts)
        finite = np.isfinite(fvals)
        pts, fvals, cell = pts[finite], fvals[finite], cell[finite]
        owner, covectors, truncated = _graph_rows(
            f,
            pts,
            source,
            covector_half_width=covector_half_width,
            covector_resolution=covector_resolution,
            scheme=scheme,
        )

        # Duplicate rows change neither a supremum nor emptiness, so the rows
        # need no deduplication.
        row_cell = cell[owner]
        row_base = row_cell // levels
        eps_rows = eps[row_cell % levels]
        diffs = pts[owner] - xb[row_base]
        kept = (
            (np.linalg.norm(diffs, axis=1) <= eps_rows)
            & (np.abs(fvals[owner] - fx[row_base]) <= eps_rows)
            & (np.einsum("ij,ij->i", covectors, diffs) <= eps_rows)
        )
        pairings = covectors @ dirs.T
        sups = np.full((nb * levels, dirs.shape[0]), -math.inf)
        np.maximum.at(sups, row_cell[kept], pairings[kept])
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
            empty_eps = eps_sorted[int(np.argmax(empty[b]))] if empty[b].any() else None
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
            verdicts.append(
                Verdict(
                    ok=False,
                    residual=math.inf,
                    witness=empty_eps,
                    flags=flags + ("empty_enlargement",),
                    details=details,
                )
            )
            continue
        if lhs == math.inf:
            # A truncated covector grid cannot reach an infinite supremum;
            # with the truncation documented the check passes by convention.
            ok = truncated or rhs == math.inf
            residual = 0.0 if ok else math.inf
        else:
            residual = lhs - rhs
            ok = residual <= tol
        verdicts.append(
            Verdict(
                ok=ok,
                residual=residual,
                witness=None if ok else dirs[j],
                flags=flags,
                details=details,
            )
        )
    return verdicts


def cdd_profile(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    directions: Array,
    eps_list: Sequence[float] = EPS_LADDER,
    ring_resolution: int = 9,
    source: str = "auto",
    scheme: LiminfScheme = DEFAULT_SCHEME,
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    covector_resolution: int = 41,
    tol: float = 1e-3,
) -> list[Verdict]:
    """Check the inequality f'(xbar; d) <= inf_eps sup <enlargement, d> for
    several directions at once, sharing the per-epsilon samples.

    For each epsilon the graph is sampled on a local grid around xbar whose
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
    return next(
        _cdd_profiles(
            f,
            xb[None, :],
            dirs,
            eps_list,
            ring_resolution,
            source,
            scheme,
            covector_half_width,
            covector_resolution,
            tol,
        )
    )


def cdd_inequality_check(
    f: FunctionOracle,
    xbar: Sequence[float] | float | Array,
    d: Sequence[float] | float | Array,
    eps_list: Sequence[float] = EPS_LADDER,
    ring_resolution: int = 9,
    source: str = "auto",
    scheme: LiminfScheme = DEFAULT_SCHEME,
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH,
    covector_resolution: int = 41,
    tol: float = 1e-3,
) -> Verdict:
    """Single-direction form of :func:`cdd_profile`.

    The verdict is true iff the subderivative is bounded by the enlargement
    supremum within tolerance and every sampled enlargement is nonempty; an
    empty enlargement is reported with the offending epsilon as witness
    (it signals under-sampling, never a true counterexample).
    """
    dd = as_point(d, f.dim)
    return cdd_profile(
        f,
        xbar,
        dd[None, :],
        eps_list=eps_list,
        ring_resolution=ring_resolution,
        source=source,
        scheme=scheme,
        covector_half_width=covector_half_width,
        covector_resolution=covector_resolution,
        tol=tol,
    )[0]
