"""Regions, function oracles, covector set descriptions, and sampled operator graphs.

Everything in this package works in R^n (n <= 3 for grid quantifiers) with the
Euclidean dot product as the pairing. Function values live in (-inf, +inf]:
positive infinity is a first-class value used by indicator functions, never an
error condition. Negative infinity and NaN are rejected everywhere.

All container types are immutable after construction and every operation is a
pure function of its inputs, so concurrent evaluation from multiple threads is
safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

Array = np.ndarray

#: Comparison tolerance used whenever a computed real is compared against zero.
DEFAULT_TOL = 1e-6

#: Half-width of the box that truncates "full space" quantifiers and covector
#: sets. Reported alongside every verdict that depends on it.
DEFAULT_BOX_HALF_WIDTH = 10.0

#: Grid-based quantification is capped at this many dimensions (cost is
#: resolution**dim).
GRID_DIM_CAP = 3


class DimensionMismatchError(ValueError):
    """Inputs whose dimensions do not agree."""


class DomainError(ValueError):
    """A point violates a domain precondition (e.g. f(x) is not finite)."""


class UnusableSampleError(ValueError):
    """A graph sample carries no usable pairs for the requested operation."""


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------

def as_point(x: Sequence[float] | float | Array, dim: int | None = None) -> Array:
    """Validate and normalize a point of R^n to a float64 array.

    Scalars are promoted to 1-D points. All coordinates must be finite.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a flat coordinate list, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point coordinates must be finite, got {arr!r}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """A sampleable convex subset of R^n: a box, or the full space truncated
    to a box for sampling purposes.

    ``lower``/``upper`` always describe the sampling box. Membership is exact:
    boxes test componentwise interval membership, and the truncated full
    space contains every finite point (the box only bounds the sample and is
    reported with every verdict built on it).
    """

    kind: str  # "box" | "full"
    dim: int
    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        if self.kind not in ("box", "full"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        lo = as_point(self.lower, self.dim)
        hi = as_point(self.upper, self.dim)
        if np.any(lo > hi):
            raise ValueError("region bounds are empty: lower > upper on some axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    # -- constructors ------------------------------------------------------

    @classmethod
    def box(cls, bounds: Sequence[tuple[float, float]]) -> "Region":
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        return cls(kind="box", dim=len(bounds), lower=lo, upper=hi)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Region":
        return cls.box([(lo, hi)])

    @classmethod
    def full(cls, dim: int, half_width: float = DEFAULT_BOX_HALF_WIDTH) -> "Region":
        w = float(half_width)
        return cls(kind="full", dim=dim, lower=-w * np.ones(dim), upper=w * np.ones(dim))

    # -- membership --------------------------------------------------------

    def contains(self, x: Sequence[float] | float | Array) -> bool:
        p = as_point(x, self.dim)
        if self.kind == "full":
            return True
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))

    def contains_many(self, points: Array) -> Array:
        """Boolean membership mask for an (N, dim) array of points."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "full":
            return np.ones(pts.shape[0], dtype=bool)
        return np.all((pts >= self.lower[None, :]) & (pts <= self.upper[None, :]), axis=1)

    # -- sampling ----------------------------------------------------------

    def sample(self, resolution: int, interior: bool = False) -> Array:
        """Deterministic uniform grid of member points, shape (N, dim).

        The tensor grid over the sampling box has ``resolution`` points per
        axis (so N = resolution**dim) and includes the axis extremes. With
        ``interior=True`` the first and last grid index of every axis are
        dropped, which discretizes the open interior of a box.
        """
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.dim > GRID_DIM_CAP:
            raise ValueError(f"grid sampling is capped at dimension {GRID_DIM_CAP}")
        axes = [np.linspace(self.lower[i], self.upper[i], resolution) for i in range(self.dim)]
        if interior:
            if resolution < 3:
                raise ValueError("interior sampling needs resolution >= 3")
            axes = [a[1:-1] for a in axes]
        return tensor_grid(axes)

    def spacing(self, resolution: int) -> float:
        """Largest per-axis grid spacing at the given resolution."""
        return float(np.max((self.upper - self.lower) / (resolution - 1)))

    def shrink(self, delta: float) -> "Region":
        """Shrink the region by ``delta`` on every side (used to discretize
        the open interior of a closed region)."""
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        lo, hi = self.lower + delta, self.upper - delta
        if np.any(lo > hi):
            raise ValueError("shrinking by delta empties the region")
        return Region(kind=self.kind, dim=self.dim, lower=lo, upper=hi)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


def tensor_grid(axes: Sequence[Array]) -> Array:
    """All points of the tensor grid over the 1-D ``axes``, last axis varying
    fastest, shape (prod of the axis lengths, len(axes))."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


#: Entries of one row block of the blocked kernels: the rays kernel of
#: :mod:`~varpolar.minty` and the candidate × graph and graph × graph
#: reductions of :mod:`~varpolar.polar`. Bounds their peak memory (512 KB per
#: float temporary) and keeps their working set in cache.
_BLOCK_ENTRIES = 2**16


def _row_blocks(rows: int, cols: int):
    """Slices of ``range(rows)`` whose rows × cols blocks hold about
    :data:`_BLOCK_ENTRIES` entries (at least one row each)."""
    step = max(1, _BLOCK_ENTRIES // max(cols, 1))
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _pairings(u: Array, v: Array) -> Array:
    """<u, v> over the last axis of two broadcastable arrays, summed
    coordinate by coordinate in order, so an entry depends only on its two
    operands. A BLAS product gives it different last bits depending on where
    its kernel splits the matrix, which a row block would not reproduce."""
    out = u[..., 0] * v[..., 0]
    for k in range(1, u.shape[-1]):
        out += u[..., k] * v[..., k]
    return out


# ---------------------------------------------------------------------------
# Subdifferential set descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSet:
    """A 1-D covector interval [lo, hi]; lo may be -inf and hi may be +inf."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def contains(self, xstar: Array, tol: float = DEFAULT_TOL) -> bool:
        v = float(np.asarray(xstar).reshape(-1)[0])
        return self.lo - tol <= v <= self.hi + tol

    def representatives(self, half_width: float = DEFAULT_BOX_HALF_WIDTH) -> tuple[Array, bool]:
        """Representative covectors {low, mid, high} of the interval clipped
        to the covector box [-half_width, half_width]. Returns (reps,
        truncated); see :meth:`batch_representatives` for the rule."""
        _, reps, truncated = IntervalSet.batch_representatives(
            np.array([self.lo]), np.array([self.hi]), half_width
        )
        return reps, bool(truncated[0])

    @staticmethod
    def batch_representatives(
        lo: Array, hi: Array, half_width: float
    ) -> tuple[Array, Array, Array]:
        """Representatives of the intervals [lo[i], hi[i]] for (N,) bound
        arrays, in the graph-row layout of
        :meth:`FunctionOracle.subdifferential_representatives`: (R,) owners,
        (R, 1) covectors and (N,) truncation flags. A NaN bound marks an
        empty set, which has no row and is not truncated.

        Each interval is clipped to the box: lo_c = min(max(lo, -hw), hi) and
        hi_c = max(min(hi, hw), lo_c), so an interval that misses the box
        keeps only its endpoint nearest to it. The rows are lo_c, the
        midpoint and hi_c in increasing order, with repeated values dropped;
        ``truncated`` is set exactly when clipping moved an endpoint.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        lo_c = np.minimum(np.maximum(lo, -half_width), hi)
        hi_c = np.maximum(np.minimum(hi, half_width), lo_c)
        mid = 0.5 * (lo_c + hi_c)
        defined = ~np.isnan(lo_c)
        keep = np.stack([defined, defined & (mid != lo_c), defined & (hi_c != mid)], axis=1)
        flat = np.flatnonzero(keep)
        reps = np.take(np.stack([lo_c, mid, hi_c], axis=1), flat)
        truncated = (lo_c > lo) | (hi_c < hi)
        return flat // 3, reps[:, None], truncated


@dataclass(frozen=True)
class PolytopeSet:
    """Covector set given by finitely many vertices (a singleton, a segment,
    or a small polytope); membership is convex-hull membership."""

    vertices: Array

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ValueError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", v)

    def contains(self, xstar: Array, tol: float = DEFAULT_TOL) -> bool:
        x = np.asarray(xstar, dtype=float).reshape(-1)
        v = self.vertices
        if v.shape[0] == 1:
            return bool(np.linalg.norm(x - v[0]) <= tol)
        if v.shape[0] == 2:
            a, b = v[0], v[1]
            ab = b - a
            denom = float(np.dot(ab, ab))
            t = 0.0 if denom == 0.0 else float(np.clip(np.dot(x - a, ab) / denom, 0.0, 1.0))
            return bool(np.linalg.norm(a + t * ab - x) <= tol)
        return _hull_contains(v, x, tol)

    def representatives(self, half_width: float = DEFAULT_BOX_HALF_WIDTH) -> tuple[Array, bool]:
        """All vertices plus the vertex centroid."""
        if self.vertices.shape[0] == 1:
            return self.vertices, False
        return np.vstack([self.vertices, self.vertices.mean(axis=0, keepdims=True)]), False


#: Boundary points of the fan that represents a ball in 2-D and 3-D.
_BALL_FAN = 16


@dataclass(frozen=True)
class BallSet:
    """A Euclidean covector ball (e.g. the subdifferential of the norm at 0)."""

    center: Array
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        if not (self.radius > 0):
            raise ValueError("ball radius must be positive")

    def contains(self, xstar: Array, tol: float = DEFAULT_TOL) -> bool:
        x = np.asarray(xstar, dtype=float).reshape(-1)
        return bool(np.linalg.norm(x - self.center) <= self.radius + tol)

    def representatives(self, half_width: float = DEFAULT_BOX_HALF_WIDTH) -> tuple[Array, bool]:
        """The center plus a deterministic fan of boundary points."""
        dim = self.center.shape[0]
        if dim == 1:
            pts = np.array([[-self.radius], [0.0], [self.radius]]) + self.center
            return pts, False
        if dim == 2:
            ang = 2.0 * np.pi * np.arange(_BALL_FAN) / _BALL_FAN
            ring = self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            ring = self.radius * _fibonacci_sphere(_BALL_FAN)
        return np.vstack([self.center[None, :], self.center[None, :] + ring]), False


SubdiffSet = IntervalSet | PolytopeSet | BallSet


def _hull_contains(vertices: Array, x: Array, tol: float) -> bool:
    # Feasibility LP: x = V^T lam, lam >= 0, sum lam = 1. Tiny problems only.
    from scipy.optimize import linprog

    m, d = vertices.shape
    a_eq = np.vstack([vertices.T, np.ones((1, m))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * m, method="highs")
    if res.status == 0:
        return True
    # Retry with the tolerance folded in as an inequality band.
    res = linprog(
        np.zeros(m),
        A_ub=np.vstack([vertices.T, -vertices.T]),
        b_ub=np.concatenate([x + tol, tol - x]),
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=[(0, None)] * m,
        method="highs",
    )
    return res.status == 0


def _fibonacci_sphere(n: int) -> Array:
    k = np.arange(n, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


# ---------------------------------------------------------------------------
# Function oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionOracle:
    """An evaluable proper lower semicontinuous function on R^n.

    ``fn`` maps a point to a raw float where ``math.inf`` stands for +inf;
    ``value`` and ``values`` reject NaN and -inf. ``batch``, when present,
    evaluates an (N, dim) array of points in one call and is what makes grid
    quantifiers cheap. Lower semicontinuity and properness are taken on trust
    from the metadata; the curated library is spot-checked by the test suite.

    ``exact_subderivative(x, d)`` and ``exact_subdifferential(x)`` are
    optional analytic side-oracles. The former returns a raw float (inf
    allowed), the latter a :data:`SubdiffSet` description or None where the
    subdifferential is empty or unknown.

    ``exact_subdifferential_batch(points, half_width)`` is the optional
    batched form of the latter, used by graph sampling. It maps an (N, dim)
    array of points to the graph rows ``(owner, covectors, truncated)``: an
    (R,) nondecreasing integer array of point indices in [0, N), the (R, dim)
    covectors, and (N,) truncation flags. Row r pairs ``points[owner[r]]``
    with ``covectors[r]``. For every point i, ``covectors[owner == i]`` and
    ``truncated[i]`` must equal ``exact_subdifferential(x_i)
    .representatives(half_width)`` bitwise, rows in the same order; a point
    with an empty subdifferential (None) has no row and is not truncated.
    Without it, :meth:`subdifferential_representatives` loops over the
    per-point oracle.
    """

    name: str
    dim: int
    fn: Callable[[Array], float]
    batch: Callable[[Array], Array] | None = None
    is_convex: bool = False
    exact_subderivative: Callable[[Array, Array], float] | None = None
    exact_subdifferential: Callable[[Array], SubdiffSet | None] | None = None
    default_region: Region | None = None
    finite_point: Array | None = None
    exact_subdifferential_batch: (
        Callable[[Array, float], tuple[Array, Array, Array]] | None
    ) = None

    def __post_init__(self) -> None:
        if self.finite_point is not None:
            p = as_point(self.finite_point, self.dim)
            object.__setattr__(self, "finite_point", p)
            if not math.isfinite(self.fn(p)):
                raise ValueError(f"oracle {self.name!r} is not proper at its registered point")

    # -- evaluation --------------------------------------------------------

    def value(self, x: Sequence[float] | float | Array) -> float:
        """Raw float value; math.inf encodes +inf."""
        v = float(self.fn(as_point(x, self.dim)))
        if math.isnan(v) or v == -math.inf:
            raise ValueError(f"oracle {self.name!r} produced a value outside (-inf, +inf]")
        return v

    def values(self, points: Array) -> Array:
        """Vectorized evaluation of an (N, dim) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected (N, {self.dim}) points, got {pts.shape}")
        if self.batch is not None:
            v = np.asarray(self.batch(pts), dtype=float)
        else:
            v = np.array([self.fn(p) for p in pts], dtype=float)
        # one reduction catches both: a NaN minimum is not > -inf either
        if v.size and not v.min() > -math.inf:
            raise ValueError(f"oracle {self.name!r} produced a value outside (-inf, +inf]")
        return v

    def subdifferential_representatives(
        self, points: Array, half_width: float = DEFAULT_BOX_HALF_WIDTH
    ) -> tuple[Array, Array, Array]:
        """Representative covectors of the exact subdifferential at an
        (N, dim) array of points, as the graph rows ``(owner, covectors,
        truncated)`` of the ``exact_subdifferential_batch`` contract. Uses
        the batched side-oracle when present, after checking the shapes of
        its rows, and otherwise loops over ``exact_subdifferential``."""
        if self.exact_subdifferential is None:
            raise ValueError(f"oracle {self.name!r} has no exact subdifferential")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected (N, {self.dim}) points, got {pts.shape}")
        if self.exact_subdifferential_batch is None:
            return _representatives_by_point(self.exact_subdifferential, pts, half_width)
        rows = self.exact_subdifferential_batch(pts, half_width)
        problem = _graph_rows_problem(rows, *pts.shape)
        if problem:
            raise ValueError(f"oracle {self.name!r}: exact_subdifferential_batch {problem}")
        return rows

    # bench/tracer.py keys each suite call's wall time by str() of its first argument
    def __str__(self) -> str:
        return self.name

    # -- tilting -----------------------------------------------------------

    def shifted(self, xstar: Sequence[float] | float | Array) -> "FunctionOracle":
        """The tilted oracle x -> f(x) - <xstar, x>.

        Only the values are tilted: the tilted oracle carries no side-oracles.
        Both ``fn`` and ``batch`` form <xstar, x> with :func:`_pairings`, so a
        point's tilted value does not depend on its batch, and the tilted
        rays kernel (:func:`~varpolar.minty._tilted_iar_residuals`), which
        subtracts the same sums, gives this oracle's values bit for bit.
        """
        s = as_point(xstar, self.dim)
        base_fn, base_batch = self.fn, self.batch
        fn = lambda x: base_fn(x) - float(_pairings(x, s))  # noqa: E731
        batch = None if base_batch is None else (
            lambda pts: base_batch(pts) - _pairings(pts, s)
        )
        return replace(
            self,
            name=f"{self.name}-tilted",
            fn=fn,
            batch=batch,
            exact_subderivative=None,
            exact_subdifferential=None,
            exact_subdifferential_batch=None,
        )


def _representatives_by_point(
    sdiff: Callable[[Array], SubdiffSet | None], pts: Array, half_width: float
) -> tuple[Array, Array, Array]:
    """Graph rows ``(owner, covectors, truncated)`` from per-point calls of
    ``sdiff``."""
    n, dim = pts.shape
    per_point = [
        (np.zeros((0, dim)), False) if desc is None else desc.representatives(half_width)
        for desc in map(sdiff, pts)
    ]
    owner = np.repeat(np.arange(n), [len(r) for r, _ in per_point])
    covectors = np.concatenate([np.zeros((0, dim))] + [r for r, _ in per_point])
    return owner, covectors, np.array([t for _, t in per_point], dtype=bool)


def _graph_rows_problem(rows: Any, n: int, dim: int) -> str | None:
    """What is wrong with ``rows`` as the graph rows ``(owner, covectors,
    truncated)`` of n points in R^dim, or None when nothing is; O(rows)."""
    try:
        owner, covectors, truncated = (np.asarray(r) for r in rows)
    except (TypeError, ValueError):
        return "must return the triple (owner, covectors, truncated)"
    if owner.ndim != 1 or not np.issubdtype(owner.dtype, np.integer):
        return f"owner must be a 1-D integer array, got {owner.dtype} of shape {owner.shape}"
    if owner.size and (owner[0] < 0 or owner[-1] >= n or np.any(owner[1:] < owner[:-1])):
        return f"owner must be nondecreasing in [0, {n})"
    if covectors.shape != (owner.size, dim):
        return f"covectors must have shape {(owner.size, dim)}, got {covectors.shape}"
    if truncated.shape != (n,):
        return f"truncated must have shape {(n,)}, got {truncated.shape}"
    return None


# ---------------------------------------------------------------------------
# Sampled operator graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSample:
    """A finite sample of a set-valued operator T in R^n x R^n: a list of
    (point, covector) pairs with no duplicates.

    ``meta`` records how the sample was produced (function id, region,
    resolution, source, truncation flags) and does not take part in equality.
    """

    points: Array
    covectors: Array
    meta: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covectors, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, cov.shape[1] if cov.size else 1)
        if cov.size == 0:
            cov = cov.reshape(0, pts.shape[1])
        if pts.shape != cov.shape:
            raise DimensionMismatchError(
                f"points {pts.shape} and covectors {cov.shape} must align"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(cov))):
            raise ValueError("graph samples must have finite coordinates")
        if pts.shape[0] > 1:
            joined = np.hstack([pts, cov])
            _, idx = np.unique(joined, axis=0, return_index=True)
            keep = np.sort(idx)
            pts, cov = pts[keep], cov[keep]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "covectors", cov)

    @classmethod
    def empty(cls, dim: int) -> "GraphSample":
        return cls(np.zeros((0, dim)), np.zeros((0, dim)))

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[Sequence[float] | float, Sequence[float] | float]]
    ) -> "GraphSample":
        if not pairs:
            raise ValueError("from_pairs needs at least one pair; use GraphSample.empty")
        pts = np.vstack([as_point(p) for p, _ in pairs])
        cov = np.vstack([as_point(c) for _, c in pairs])
        return cls(pts, cov)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def pairs(self) -> Iterator[tuple[Array, Array]]:
        for i in range(len(self)):
            yield self.points[i], self.covectors[i]

    def filter(self, mask: Array) -> "GraphSample":
        return GraphSample(self.points[mask], self.covectors[mask], dict(self.meta))

    def restrict_points(self, region: Region) -> "GraphSample":
        return self.filter(region.contains_many(self.points))

    def to_rows(self) -> list[list[float]]:
        """CSV-ready rows: x_1..x_n, xstar_1..xstar_n."""
        return np.hstack([self.points, self.covectors]).tolist()

    def csv_header(self) -> list[str]:
        n = self.dim
        return [f"x_{i + 1}" for i in range(n)] + [f"xstar_{i + 1}" for i in range(n)]


# ---------------------------------------------------------------------------
# Generic verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of every check in the package: the boolean, the residual
    margin that decided it (for polar checks the minimum pairing product), a
    witness (point, pair, or parameter) explaining it, flags, and details
    such as the probe metadata."""

    ok: bool
    residual: float
    witness: Any = None
    flags: tuple[str, ...] = ()
    details: Mapping[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok
