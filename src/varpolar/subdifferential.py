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
from typing import Sequence

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
) -> tuple[Array, Array, bool]:
    """Raw graph rows at an (N, dim) array of points where f is finite.

    Returns (owner, covectors, truncated): row r pairs pts[owner[r]] with
    covectors[r]. Rows come point by point in the order of ``pts``, each
    point's covectors in the order its construction lists them, and
    duplicates are kept. See :func:`sample_subdiff_graph` for the sources.
    """
    if source == "exact":
        reps, mask, trunc = f.subdifferential_representatives(pts, covector_half_width)
        truncated = bool(np.any(trunc))
    elif f.dim == 1:
        lo, hi = _clarke_intervals_1d(f, pts, scheme, delta_list, nbhd_resolution)
        cands = np.linspace(-covector_half_width, covector_half_width, covector_resolution)
        truncated = bool(np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)))
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
        truncated = False
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
        "truncated": truncated,
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
    flag on the verdict.
    """
    xb = as_point(xbar, f.dim)
    fx = f.value(xb)
    if not math.isfinite(fx):
        raise DomainError("the inequality check needs f(xbar) finite")
    eps_sorted = sorted(eps_list, reverse=True)
    if not eps_sorted or eps_sorted[-1] <= 0:
        raise ValueError("eps_list must be a decreasing list of positive reals")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    source = _resolve_source(f, source)

    # All local grids of the ladder in one stack; level[i] is the ladder index
    # of point i. The rows of every level's graph come out of one pass.
    grids = [
        Region.box([(float(c - eps), float(c + eps)) for c in xb]).sample(ring_resolution)
        for eps in eps_sorted
    ]
    level = np.repeat(np.arange(len(grids)), [g.shape[0] for g in grids])
    pts = np.vstack(grids)
    fvals = f.values(pts)
    finite = np.isfinite(fvals)
    pts, fvals, level = pts[finite], fvals[finite], level[finite]
    owner, covectors, truncated = _graph_rows(
        f,
        pts,
        source,
        covector_half_width=covector_half_width,
        covector_resolution=covector_resolution,
        scheme=scheme,
    )

    # The enlargement conditions of epsilon_enlargement, each row against the
    # epsilon of its level. Duplicate rows change neither a supremum nor
    # emptiness, so the rows need no deduplication.
    row_level = level[owner]
    eps_rows = np.asarray(eps_sorted)[row_level]
    diffs = pts[owner] - xb[None, :]
    kept = (
        (np.linalg.norm(diffs, axis=1) <= eps_rows)
        & (np.abs(fvals[owner] - fx) <= eps_rows)
        & (np.einsum("ij,ij->i", covectors, diffs) <= eps_rows)
    )
    hits = kept[:, None] & (row_level[:, None] == np.arange(len(eps_sorted))[None, :])
    sups = np.where(hits[:, :, None], (covectors @ dirs.T)[:, None, :], -math.inf).max(
        axis=0, initial=-math.inf
    )
    empty = ~hits.any(axis=0)
    empty_eps = eps_sorted[int(np.argmax(empty))] if np.any(empty) else None
    lhs_values = lower_dini_values(f, np.repeat(xb[None, :], dirs.shape[0], axis=0), dirs, scheme)

    verdicts = []
    for j in range(dirs.shape[0]):
        lhs = float(lhs_values[j])
        rhs = float(sups[:, j].min())
        flags = ("covector_truncated",) if truncated else ()
        if empty_eps is not None:
            verdicts.append(
                Verdict(
                    ok=False,
                    residual=math.inf,
                    witness=empty_eps,
                    flags=flags + ("empty_enlargement",),
                    details={"lhs": lhs, "rhs": rhs, "direction": dirs[j].tolist()},
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
                details={"lhs": lhs, "rhs": rhs, "direction": dirs[j].tolist()},
            )
        )
    return verdicts


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
