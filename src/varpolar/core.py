"""Regions, function oracles, subdifferential graph rows, and sampled operator graphs.

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


def _candidate_rows(name: str, rows: Array, dim: int | None) -> Array:
    """``rows`` as a float (k, dim) array of finite coordinates (any number
    of columns with ``dim`` None), or :class:`ValueError` (a
    :class:`DimensionMismatchError` for a shape)."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
        raise DimensionMismatchError(f"{name} must have shape (k, {dim or 'n'}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite coordinates")
    return arr


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """A sampleable box in R^n, [lower, upper] per axis. Membership is
    exact: componentwise interval membership.
    """

    dim: int
    lower: Array
    upper: Array

    def __post_init__(self) -> None:
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
        return cls(dim=len(bounds), lower=lo, upper=hi)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Region":
        return cls.box([(lo, hi)])

    # -- membership --------------------------------------------------------

    def contains(self, x: Sequence[float] | float | Array) -> bool:
        p = as_point(x, self.dim)
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))

    def contains_many(self, points: Array) -> Array:
        """Boolean membership mask for an (N, dim) array of points."""
        pts = np.asarray(points, dtype=float)
        return np.all((pts >= self.lower[None, :]) & (pts <= self.upper[None, :]), axis=1)

    # -- sampling ----------------------------------------------------------

    def sample(self, resolution: int) -> Array:
        """Deterministic uniform grid of member points, shape (N, dim).

        The tensor grid over the box has ``resolution`` points per axis (so
        N = resolution**dim) and includes the axis extremes.
        """
        return tensor_grid(self.axes(resolution))

    def axes(self, resolution: int) -> list[Array]:
        """The per-axis coordinates of the :meth:`sample` grid: ``resolution``
        points on each axis of the box, the extremes included."""
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.dim > GRID_DIM_CAP:
            raise ValueError(f"grid sampling is capped at dimension {GRID_DIM_CAP}")
        return [np.linspace(self.lower[i], self.upper[i], resolution) for i in range(self.dim)]

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
        return Region(dim=self.dim, lower=lo, upper=hi)

    def describe(self) -> dict:
        return {
            "kind": "box",
            "dim": self.dim,
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


def tensor_grid(axes: Sequence[Array]) -> Array:
    """All points of the tensor grid over the 1-D ``axes``, last axis varying
    fastest, shape (prod of the axis lengths, len(axes))."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


#: Entries of one row block of the blocked kernels: the rays kernel of
#: :mod:`~varpolar.minty`, :func:`_min_products` and the graph × graph
#: reduction of :mod:`~varpolar.polar`. Bounds their peak memory (512 KB per
#: float temporary) and keeps their working set in cache.
_BLOCK_ENTRIES = 2**16


def _check_bound(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and >= 0, as
    every public ``tol``, ``band`` and ``covector_half_width`` must be."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _block_rows(cols: int) -> int:
    """Rows of a block of about :data:`_BLOCK_ENTRIES` entries over ``cols``
    columns (at least one)."""
    return max(1, _BLOCK_ENTRIES // max(cols, 1))


def _row_blocks(rows: int, cols: int):
    """Slices of ``range(rows)`` whose rows × cols blocks hold about
    :data:`_BLOCK_ENTRIES` entries (at least one row each)."""
    step = _block_rows(cols)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _pairing(us: Sequence, vs: Sequence, out: Array | None = None) -> Array:
    """The package's one pairing: sum_k us[k] * vs[k] over per-axis arrays
    that broadcast together, summed in axis order so an entry depends only
    on its operands (a BLAS product's last bits depend on where it splits
    the matrix); into ``out`` when given. A tilt <x*, p> pairs the
    coordinate arrays of the points p with the coordinates of x*."""
    if out is None:
        out = np.empty(np.broadcast(*us, *vs).shape)
    np.multiply(us[0], vs[0], out=out)
    for u, v in zip(us[1:], vs[1:]):
        out += u * v
    return out


def _pairings(u: Array, v: Array, out: Array | None = None) -> Array:
    """:func:`_pairing` over the last axis of two broadcastable arrays."""
    axes = range(u.shape[-1])
    return _pairing([u[..., k] for k in axes], [v[..., k] for k in axes], out)


def _split_fits(T: GraphSample, xs: Array, cs: Array) -> bool:
    """Whether no term or partial sum of the split pairing of
    :func:`_min_products` can overflow for T, points ``xs`` and covectors
    ``cs``: each is at most dim (|y*| + |x*|)(|y| + |x|) in the largest
    magnitudes of the operands, up to rounding, and that bound is kept below
    a quarter of the float range."""
    def top(a: Array) -> float:
        return float(np.abs(a).max(initial=0.0))

    bound = T.dim * (top(T.covectors) + top(cs)) * (top(T.points) + top(xs))
    return bool(bound <= np.finfo(float).max / 4)


def _min_products(
    T: GraphSample, xs: Array, cs: Array, argmin: bool = False, split: bool | None = None
) -> Array | tuple[Array, Array]:
    """Min over T of <y* - x*, y - x> for every point xs[i] and covector
    cs[j]: the (len(xs), len(cs)) array of minimum products, and with
    ``argmin`` also the index in T of each minimum's first occurrence.

    The pairing splits as (<y*, y> - <x, y*>) - <x*, y> + <x*, x>, so the
    minimum is a (min, +) product of A[x, y] = <y*, y> - <x, y*> and
    Q[x*, y] = <x*, y>, plus b[x, x*] = <x*, x> after the min: rounding is
    monotone, so min(z + b) = min(z) + b bit for bit, and each minimum is the
    value of one of the entries that attain it. A, Q and b are formed block
    by block, never whole: the blocks hold about :data:`_BLOCK_ENTRIES`
    (graph column, x row, covector) entries, and a running minimum gathers
    them. With ``argmin``, b is added inside the block, each minimum is the
    value of its first occurrence, and a later block replaces it only when
    strictly smaller. An empty T gives +inf everywhere (a vacuous
    quantifier) and index 0. At x* = 0 alone it is minus the subdifferential
    Minty residual max <y*, x - y>.

    The split terms can overflow where the product does not: with T =
    {(8, 1e308)}, x = -8 and x* = 1e308 they read inf - inf, where
    (y* - x*)(y - x) = 0. ``split`` says which form the call takes, for
    every entry alike; by default :func:`_split_fits` decides it once from
    the operands' magnitudes. Where it does not fit, each entry is the
    coordinate-wise sum of (y*_k - x*_k)(y_k - x_k) in axis order, in the
    same blocks. A caller that runs several products over parts of one
    problem passes one decision to all of them; :func:`_min_products_at`
    takes the same entries at chosen pairs only.
    """
    if split is None:
        split = _split_fits(T, xs, cs)
    a = _pairings(T.covectors, T.points) if split else None  # <y*, y>
    mins = np.full((len(xs), len(cs)), math.inf)
    args = np.zeros(mins.shape, dtype=np.intp)
    for cols in _row_blocks(len(T), len(cs)):
        v = _covector_terms(T, cols, cs, split)
        for rows in _row_blocks(len(xs), (cols.stop - cols.start) * len(cs)):
            u = _point_terms(T, cols, xs[rows], a)
            z = _entries(u[:, :, None], v[:, None], split)  # (w, r, nc)
            if split and argmin:
                z += _pairings(xs[rows, None], cs)  # b, inside the block
            if argmin:
                k = z.argmin(axis=0)
                block = np.take_along_axis(z, k[None], 0)[0]
                better = block < mins[rows]
                mins[rows] = np.where(better, block, mins[rows])
                args[rows] = np.where(better, k + cols.start, args[rows])
            else:
                np.minimum(mins[rows], z.min(axis=0), out=mins[rows])
    if split and not argmin:
        for rows in _row_blocks(len(xs), len(cs)):
            mins[rows] += _pairings(xs[rows, None], cs)  # b, after the min
    return (mins, args) if argmin else mins


def _min_products_at(T: GraphSample, xs: Array, cs: Array, i: Array, j: Array,
                     split: bool) -> Array:
    """The entries of :func:`_min_products` at the pairs (xs[i[p]], cs[j[p]])
    alone, in the form ``split`` names: the (len(i),) minima over T, bit for
    bit those of the full product.

    Per block of graph pairs, A (or y - x) is formed once per point that
    ``i`` names and Q (or y* - x*) once per covector that ``j`` names; both
    are gathered by pair, and in the split form b is added after the
    minimum. A block holds about :data:`_BLOCK_ENTRIES` entries of the two
    gathers: (graph pair, candidate pair), times dim in the whole form.
    """
    ui, pi = _distinct_indices(i, len(xs))
    uj, pj = _distinct_indices(j, len(cs))
    px, pc = xs[ui], cs[uj]
    a = _pairings(T.covectors, T.points) if split else None  # <y*, y>
    gathered = 2 if split else 2 * T.dim
    mins = np.full(len(i), math.inf)
    for cols in _row_blocks(len(T), gathered * len(i)):
        u = _point_terms(T, cols, px, a)
        v = _covector_terms(T, cols, pc, split)
        for pairs in _row_blocks(len(i), gathered * (cols.stop - cols.start)):
            # np.take keeps the gathers C-ordered, so the minimum runs over
            # whole rows; the fancy index u[:, pi] lays the pairs out first
            z = _entries(np.take(u, pi[pairs], axis=1), np.take(v, pj[pairs], axis=1), split)
            np.minimum(mins[pairs], z.min(axis=0), out=mins[pairs])
    if split:
        mins += _pairings(xs[i], cs[j])  # b, after the min
    return mins


def _distinct_indices(idx: Array, n: int) -> tuple[Array, Array]:
    """The distinct entries of the index array ``idx`` (each below n), in
    increasing order, and the position of each entry of ``idx`` among them:
    ``np.unique(idx, return_inverse=True)`` without its sort (and without
    the ``numpy.ma`` import that ``np.unique`` makes on 1-D arrays)."""
    held = np.zeros(n, dtype=bool)
    held[idx] = True
    return np.flatnonzero(held), np.cumsum(held)[idx] - 1


def _point_terms(T: GraphSample, cols: slice, xs: Array, a: Array | None) -> Array:
    """The terms of the graph pairs ``cols`` of T with the points ``xs``:
    A[y, x] = <y*, y> - <x, y*>, shape (w, len(xs)), in the split form,
    where ``a`` holds <y*, y> over T; y - x, shape (w, len(xs), dim), in the
    whole form (``a`` None)."""
    if a is None:
        return T.points[cols, None] - xs
    return a[cols, None] - _pairings(T.covectors[cols, None], xs)


def _covector_terms(T: GraphSample, cols: slice, cs: Array, split: bool) -> Array:
    """The terms of the graph pairs ``cols`` of T with the covectors ``cs``:
    Q[y, x*] = <x*, y>, shape (w, len(cs)), in the split form; y* - x*,
    shape (w, len(cs), dim), in the whole form."""
    if split:
        return _pairings(T.points[cols, None], cs)
    return T.covectors[cols, None] - cs


def _entries(u: Array, v: Array, split: bool) -> Array:
    """The entries of point terms ``u`` and covector terms ``v`` that
    broadcast together: A - Q, an entry less b, in the split form, and
    <y* - x*, y - x> in the whole form."""
    return u - v if split else _pairings(v, u)


# ---------------------------------------------------------------------------
# Subdifferential graph rows
# ---------------------------------------------------------------------------

def interval_rows(lo: Array, hi: Array, half_width: float) -> tuple[Array, Array, Array]:
    """Graph rows of the 1-D covector intervals [lo[i], hi[i]] for (N,)
    bound arrays (lo may be -inf and hi +inf), in the layout of
    :meth:`FunctionOracle.subdifferential_representatives`: (R,) owners,
    (R, 1) covectors and (N,) truncation flags. A NaN bound marks an empty
    set, which has no row and is not truncated.

    Each interval is clipped to the box: lo_c = min(max(lo, -hw), hi) and
    hi_c = max(min(hi, hw), lo_c), so an interval that misses the box keeps
    only its endpoint nearest to it. The rows are lo_c, the midpoint and
    hi_c in increasing order, with repeated values dropped; ``truncated`` is
    set exactly when clipping moved an endpoint.
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


#: Boundary points of the fan that represents the unit ball in 2-D.
_BALL_FAN = 16


def _ball_fan() -> Array:
    """Representatives of the closed unit ball of R^2: its center, then
    :data:`_BALL_FAN` points evenly spaced in angle on the circle."""
    ang = 2.0 * np.pi * np.arange(_BALL_FAN) / _BALL_FAN
    return np.vstack([np.zeros((1, 2)), np.stack([np.cos(ang), np.sin(ang)], axis=-1)])


def _beyond_box(covectors: Array, half_width: float) -> Array:
    """Per row of ``covectors``, whether it lies outside the covector box
    [-half_width, half_width]^dim. The exact route keeps such a row of a
    polytope or ball, uncut, and flags its point as truncated. Column by
    column: a reduce along a short last axis costs ten times as much."""
    beyond = np.abs(covectors[:, 0]) > half_width
    for k in range(1, covectors.shape[1]):
        beyond |= np.abs(covectors[:, k]) > half_width
    return beyond


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

    ``batch(*coords)`` is f's vectorized form: it takes one float array per
    coordinate, arrays that broadcast together, and returns f elementwise
    in their broadcast shape. A point's value may depend only on its own
    coordinates, never on the shape or the other entries of the arrays: the
    rays kernel hands ``batch`` the per-axis coordinates of a tensor grid,
    of shapes (T, b, 1, ...), (T, 1, n_1, ...) and so on, where ``values``
    hands it the columns of an (N, dim) array. ``fn``, optional, wraps a
    scalar function of one point for an oracle without ``batch``, and is
    then called point by point; an oracle needs one of the two, and
    ``batch``, when given, evaluates everything, ``value`` included.
    Values are raw floats where ``math.inf`` stands for +inf; ``value``,
    ``values`` and ``values_at`` reject NaN and -inf. Nothing outside this
    class reads ``fn`` or ``batch``. Lower semicontinuity and properness are
    taken on trust from the metadata; the curated library is spot-checked
    by the test suite.

    Two optional analytic side-oracles, each in one vectorized form:

    - ``exact_subderivative(xbars, ds)`` takes (N, dim) base points and
      directions, row by row as :func:`~varpolar.subderivative.lower_dini_values`
      does, and returns the (N,) raw floats df(xbars[i])(ds[i]) (inf
      allowed).
    - ``exact_subdifferential(points, half_width)`` maps an (N, dim) array
      of points to the graph rows ``(owner, covectors, truncated)`` of the
      subdifferential: an (R,) nondecreasing integer array of point indices
      in [0, N), the (R, dim) representative covectors, and (N,) flags, set
      where the covector box [-half_width, half_width]^dim cut the point's
      set or a representative lies outside it. Row r pairs
      ``points[owner[r]]`` with ``covectors[r]``; a point where the
      subdifferential is empty has no row and is not truncated. A point's
      rows depend only on the point. :func:`interval_rows` builds these
      rows for 1-D intervals.
    """

    name: str
    dim: int
    fn: Callable[[Array], float] | None = None
    batch: Callable[..., Array] | None = None
    is_convex: bool = False
    exact_subderivative: Callable[[Array, Array], Array] | None = None
    exact_subdifferential: Callable[[Array, float], tuple[Array, Array, Array]] | None = None
    default_region: Region | None = None
    finite_point: Array | None = None

    def __post_init__(self) -> None:
        if self.fn is None and self.batch is None:
            raise ValueError(f"oracle {self.name!r} needs fn or batch to evaluate f")
        if self.finite_point is not None:
            p = as_point(self.finite_point, self.dim)
            object.__setattr__(self, "finite_point", p)
            if not math.isfinite(self.value(p)):
                raise ValueError(f"oracle {self.name!r} is not proper at its registered point")

    # -- evaluation --------------------------------------------------------

    def value(self, x: Sequence[float] | float | Array) -> float:
        """Raw float value at one point; math.inf encodes +inf. Evaluated as
        a one-point batch, so it has the bits of ``values`` there."""
        p = as_point(x, self.dim)
        return float(self._evaluate(p[:, None], (1,))[0])

    def values(self, points: Array) -> Array:
        """Vectorized evaluation of an (N, dim) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected (N, {self.dim}) points, got {pts.shape}")
        return self._evaluate(pts.T, pts.shape[:1])

    def values_at(self, *coords: Array) -> Array:
        """f at the points whose k-th coordinates are the broadcast arrays
        ``coords[k]``, in their broadcast shape."""
        if len(coords) != self.dim:
            raise DimensionMismatchError(f"expected {self.dim} coordinate arrays, got {len(coords)}")
        return self._evaluate(coords, np.broadcast(*coords).shape)

    def _evaluate(self, coords: Sequence[Array], shape: tuple[int, ...]) -> Array:
        """The one evaluator behind ``value``, ``values`` and ``values_at``:
        f at the points with coordinate arrays ``coords``, of ``shape``."""
        if self.batch is not None:
            return self._checked(self.batch(*coords), shape)
        pts = np.stack(np.broadcast_arrays(*coords), axis=-1).reshape(-1, self.dim)
        return self._checked(np.reshape([self.fn(p) for p in pts], shape), shape)

    def _checked(self, raw: Any, shape: tuple[int, ...]) -> Array:
        """``raw`` values as a float array of ``shape`` (a constant broadcast
        to it), after checking that they lie in (-inf, +inf]."""
        v = np.asarray(raw, dtype=float)
        if v.shape != shape:
            v = np.broadcast_to(v, shape)
        # one reduction catches both: a NaN minimum is not > -inf either
        if v.size and not v.min() > -math.inf:
            raise ValueError(f"oracle {self.name!r} produced a value outside (-inf, +inf]")
        return v

    def subdifferential_representatives(
        self, points: Array, half_width: float = DEFAULT_BOX_HALF_WIDTH
    ) -> tuple[Array, Array, Array]:
        """The graph rows ``(owner, covectors, truncated)`` of the exact
        subdifferential at an (N, dim) array of points: the side-oracle's,
        after checking their shapes and the order of ``owner``."""
        if self.exact_subdifferential is None:
            raise ValueError(f"oracle {self.name!r} has no exact subdifferential")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected (N, {self.dim}) points, got {pts.shape}")
        rows = self.exact_subdifferential(pts, half_width)
        problem = _graph_rows_problem(rows, *pts.shape)
        if problem:
            raise ValueError(f"oracle {self.name!r}: exact_subdifferential {problem}")
        return rows

    # bench/tracer.py keys each suite call's wall time by str() of its first argument
    def __str__(self) -> str:
        return self.name

    # -- tilting -----------------------------------------------------------

    def shifted(self, xstar: Sequence[float] | float | Array) -> "FunctionOracle":
        """The tilted oracle x -> f(x) - <xstar, x>.

        Only the values are tilted: the tilted oracle carries no side-oracles.
        ``fn`` and ``batch``, where given, subtract the :func:`_pairing` of
        the coordinates with xstar, so a point's tilted value does not
        depend on its batch, and the tilted rays kernel
        (:func:`~varpolar.minty._tilted_iar_residuals`), which subtracts the
        same pairing from f's values, gives this oracle's values bit for bit.
        """
        s = as_point(xstar, self.dim)
        base_fn, base_batch = self.fn, self.batch
        fn = lambda x: base_fn(x) - float(_pairing(x, s))  # noqa: E731
        batch = lambda *x: base_batch(*x) - _pairing(x, s)  # noqa: E731
        return replace(
            self,
            name=f"{self.name}-tilted",
            fn=None if base_fn is None else fn,
            batch=None if base_batch is None else batch,
            exact_subderivative=None,
            exact_subdifferential=None,
        )


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
        # an empty (0, n) array keeps its n columns
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] or cov.shape[1] or 1)
        if cov.size == 0:
            cov = cov.reshape(0, cov.shape[1] or pts.shape[1])
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
        """The pairs that ``mask`` selects (a boolean mask, or indices without
        repeats), in order. Pairs of a sample are finite and distinct, so
        they are not checked or merged again."""
        sub = object.__new__(GraphSample)
        object.__setattr__(sub, "points", self.points[mask])
        object.__setattr__(sub, "covectors", self.covectors[mask])
        object.__setattr__(sub, "meta", dict(self.meta))
        return sub

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
