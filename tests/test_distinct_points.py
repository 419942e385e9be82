"""The cdd pass samples each bit-distinct point once: ``_graph_rows`` builds
the numeric rows of each bit-distinct point and gathers them back to every
repeat, and ``_near_points`` keeps the local grids as tensor axes. Both must
give, bit for bit, the floats of the plain stacked pass:
``_whole_grid_near_points`` materialises the (B, L, G**dim, dim) grids and
evaluates f on every stacked point, and ``_per_point_rows`` takes the graph
rows of every near point, repeats included."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from varpolar import core, subdifferential
from varpolar.core import FunctionOracle, Region, _pairings
from varpolar.library import get_function
from varpolar.subderivative import DEFAULT_SCHEME
from varpolar.subdifferential import (
    DEFAULT_CDD_TOL,
    _cdd_profiles,
    _graph_rows,
    sphere_directions,
)

from test_clarke_kernel import _MAX3D, _local_grids


def _twin(f):
    return dataclasses.replace(f, name=f"{f.name}_numeric", exact_subdifferential=None)


def _quad_rows(pts, half_width):
    """The gradient 2x of f(x) = ||x||^2, one row per point."""
    grads = 2.0 * pts
    return np.arange(len(pts)), grads, np.any(np.abs(grads) > half_width, axis=1)


#: A 3-D oracle with a side-oracle: no library entry is 3-D.
_QUAD3D = FunctionOracle(
    name="quad3d",
    dim=3,
    batch=lambda x1, x2, x3: x1 * x1 + x2 * x2 + x3 * x3,
    exact_subdifferential=_quad_rows,
    default_region=Region.box([(-1.0, 1.0)] * 3),
)


def _signed_edge(x):
    """5|x| - x^2 on x >= -5e-8 (+inf to the left), 1e-6 lower at -0.0. The
    domain edge keeps the gradient hull from every point near 0, and the
    support table's estimator reads f at the point itself, sign of zero
    included: the lower value at -0.0 changes which ring points are near."""
    f = 5.0 * np.abs(x) - x * x - 1e-6 * ((x == 0.0) & np.signbit(x))
    return np.where(x >= -5e-8, f, np.inf)


_SIGNED_EDGE = FunctionOracle(
    name="signed_edge",
    dim=1,
    batch=_signed_edge,
    default_region=Region.box([(0.0, 1.0)]),
)

#: Exact and numeric sources in 1-D, 2-D and 3-D. The 2-D numeric twin of
#: norm2d runs in no benchmark workload.
_SOURCES = [
    get_function("abs"),
    get_function("maxzero"),
    get_function("ind_halfline"),
    get_function("neg_abs"),
    get_function("twowell"),
    _twin(get_function("abs")),
    get_function("norm2d"),
    get_function("mixed2d"),
    _twin(get_function("norm2d")),
    _twin(get_function("mixed2d")),
    _QUAD3D,
    _MAX3D,
]

#: Base coordinates: free floats and signed zeros.
_COORD = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, -0.0]),
)

#: Resolutions of the base grids: dyadic spacings, and spacings that are not.
_GRID_RESOLUTIONS = [9, 17, 65, 7, 15, 63]


def _whole_grid_near_points(f, xb, fx, eps):
    """The near points of a block from its whole local grids: f on every
    stacked point, the point conditions on the (B, L, G**dim, dim)
    differences; a centre is the middle one of its grid's G**dim points."""
    grids = _local_grids(xb, eps, subdifferential._CDD_GRID)
    diffs = grids - xb[:, None, None, :]
    fvals = f.values(grids.reshape(-1, f.dim)).reshape(grids.shape[:3])
    with np.errstate(invalid="ignore"):
        close_f = np.abs(fvals - fx[:, None, None]) <= eps[:, None]
    near = np.flatnonzero((np.sqrt(_pairings(diffs, diffs)) <= eps[:, None]) & close_f)
    return (
        near // grids.shape[2],
        np.take(grids.reshape(-1, f.dim), near, axis=0),
        np.take(diffs.reshape(-1, f.dim), near, axis=0),
        near % grids.shape[2] == grids.shape[2] // 2,
    )


def _per_point_rows(f, pts, source, covector_half_width, scheme):
    """Graph rows of every point, repeats included: the hull at every point
    and the support table at every point the hull cannot take."""
    if source == "exact":
        return f.subdifferential_representatives(pts, covector_half_width)
    dirs = sphere_directions(f.dim, subdifferential._DIR_RESOLUTION)
    owner, covectors, hull = subdifferential._gradient_hulls(f, pts, dirs, covector_half_width)
    truncated = np.zeros(len(pts), dtype=bool)
    rest = np.flatnonzero(~hull)
    if rest.size:
        support = subdifferential._clarke_support(f, pts[rest], dirs, scheme)
        table_owner, table_covectors, truncated[rest] = subdifferential._clarke_polytopes(
            support, dirs, covector_half_width
        )
        owner = np.concatenate([owner, rest[table_owner]])
        order = np.argsort(owner, kind="stable")
        covectors = np.take(np.concatenate([covectors, table_covectors]), order, axis=0)
        owner = owner[order]
    return owner, covectors, truncated


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _profiles(f, xbars, budget, reference):
    eye = np.eye(f.dim)
    dirs = np.vstack([eye, -eye])
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(core, "_BLOCK_ENTRIES", budget)
        if reference:
            mp.setattr(subdifferential, "_near_points", _whole_grid_near_points)
            mp.setattr(subdifferential, "_graph_rows", _per_point_rows)
        return list(_cdd_profiles(f, xbars, dirs, DEFAULT_SCHEME, 10.0, DEFAULT_CDD_TOL))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    source=st.integers(0, len(_SOURCES) - 1),
    bases=st.integers(1, 3),
    budget=st.sampled_from([1, 7, None]),
    on_grid=st.booleans(),
    data=st.data(),
)
def test_cdd_pass_matches_the_whole_grid_per_point_reference(source, bases, budget, on_grid, data):
    f = _SOURCES[source]
    if f.dim == 3 and f.exact_subdifferential is None:
        # at a small budget a 3-D block holds one point per hull block, and
        # the reference's hulls of every near point take seconds per base
        bases, budget = 1, None
    if on_grid:  # consecutive points of a base grid
        grid = f.default_region.sample(data.draw(st.sampled_from(_GRID_RESOLUTIONS)))
        start = data.draw(st.integers(0, len(grid) - bases))
        xbars = grid[start : start + bases]
    else:
        coords = data.draw(st.lists(_COORD, min_size=bases * f.dim, max_size=bases * f.dim))
        xbars = np.array(coords).reshape(bases, f.dim)
    assume(np.all(np.isfinite(f.values(xbars))))
    got = _profiles(f, xbars, budget, reference=False)
    want = _profiles(f, xbars, budget, reference=True)
    assert len(got) == len(want)
    names = ("lhs", "rhs", "ok", "residual", "truncated", "empty_eps")
    for block, ref in zip(got, want):
        for name, a, b in zip(names, block, ref):
            assert _same_bits(a, b), (f.name, name)


def _rows_of(rows, i):
    owner, covectors, truncated = rows
    return covectors[owner == i], truncated[i]


#: Numeric sources whose rows the distinct-point step must not merge or
#: mix up: the hull, a 2-D and a 3-D hull, and the support table at a point
#: whose value depends on the sign of zero.
_NUMERIC = [get_function("neg_abs"), _twin(get_function("norm2d")), _MAX3D, _SIGNED_EDGE]


@settings(max_examples=30, deadline=None)
@given(
    source=st.integers(0, len(_NUMERIC) - 1),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
)
def test_graph_rows_of_repeated_and_signed_zero_points_are_the_per_point_rows(source, picks):
    f = _NUMERIC[source]
    pool = np.array([[0.0] * f.dim, [-0.0] * f.dim, [0.5] * f.dim, [-0.0] + [0.25] * (f.dim - 1),
                     [0.0] + [0.25] * (f.dim - 1), [1.0 / 3.0] * f.dim])
    pts = pool[picks]
    got = _graph_rows(f, pts, "clarke-numeric", 10.0, DEFAULT_SCHEME)
    assert np.all(np.diff(got[0]) >= 0)
    for i, p in enumerate(pts):
        alone = _graph_rows(f, p[None, :], "clarke-numeric", 10.0, DEFAULT_SCHEME)
        covectors, truncated = _rows_of(got, i)
        assert _same_bits(covectors, alone[1]) and truncated == alone[2][0], (f.name, i)


def test_signed_zeros_take_different_rows():
    # the check above means something at ±0.0 only where the rows differ
    pts = np.array([[0.0], [-0.0]])
    rows = [_graph_rows(_SIGNED_EDGE, p[None, :], "clarke-numeric", 10.0, DEFAULT_SCHEME)
            for p in pts]
    assert not _same_bits(rows[0][1], rows[1][1])


def test_a_cdd_pass_builds_numeric_rows_once_per_distinct_point(monkeypatch):
    # neg_abs at resolution 257 fits one cdd block: its local grids repeat
    # most of their near points across the epsilon ladder and neighbouring
    # bases, and the hull takes the bit-distinct ones alone
    hulls = []
    gradient_hulls = subdifferential._gradient_hulls

    def counting_hulls(f, pts, *args):
        hulls.append(len(pts))
        return gradient_hulls(f, pts, *args)

    monkeypatch.setattr(subdifferential, "_gradient_hulls", counting_hulls)
    near = []
    near_points = subdifferential._near_points

    def counting_near(*args):
        out = near_points(*args)
        near.append(len(out[0]))
        return out

    monkeypatch.setattr(subdifferential, "_near_points", counting_near)
    f = get_function("neg_abs")
    xbars = f.default_region.sample(257)
    assert len(list(_cdd_profiles(f, xbars, np.array([[1.0], [-1.0]]), DEFAULT_SCHEME, 10.0,
                                  DEFAULT_CDD_TOL))) == 1
    assert (hulls, near) == ([5_273], [25_443])
