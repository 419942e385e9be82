"""The shared rays kernel: parity with the per-xbar and per-pair
constructions it replaces, and pinned oracle-evaluation counts.

The references below build every ray point from scratch and evaluate the
tilted oracle ``f.shifted(x*)`` once per (x, x*) pair, as the suites did
before the kernel hoisted the ray starts and used tilt linearity. Every
comparison is exact (``==``)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from varpolar import (
    cross_validate,
    polar_contains,
    polar_membership_via_iar,
    subdifferential,
)
from varpolar import core, minty, polar, suites
from varpolar.core import FunctionOracle, GraphSample, Region, _row_blocks, tensor_grid
from varpolar.library import FUNCTION_IDS, get_function
from varpolar.minty import (
    DEFAULT_T_RESOLUTION,
    _ray_grid,
    _RayGrid,
    _subderivative_residuals,
    _tilted_iar_residuals,
)
from varpolar.polar import DEFAULT_RAY_RESOLUTION
from varpolar.subderivative import DEFAULT_SCHEME
from varpolar.subdifferential import sample_subdiff_graph
from varpolar.suites import SuiteParams, _candidate_grids, run_suites, thm3_suite
from test_clarke_kernel import _peak_mb

SMALL = SuiteParams(
    resolution=9, resolution_2d=5, t_resolution=8, thm3_candidates=5, thm3_candidates_2d=3
)


def _reference_rays(g, x, probe, probe_resolution, t_resolution):
    """max over finite probe y and t of g(y + t(x - y)) - g(y), with (y, t)."""
    return _reference_rays_at(g, x, probe.sample(probe_resolution), t_resolution)


def _reference_rays_at(g, x, ys, t_resolution):
    """max over the rows y of ``ys`` where g is finite and t of
    g(y + t(x - y)) - g(y), with the first maximizing (y, t) in y-major
    order: all ray points in one piece and one argmax. Every ray ends at
    x + 0.0, which differs from fl(y 0 + x) only in the sign of a zero."""
    gy = g.values(ys)
    finite = np.isfinite(gy)
    if not np.any(finite):
        return -math.inf, None
    ys, gy = ys[finite], gy[finite]
    ts = np.linspace(0.0, 1.0, t_resolution)
    pts = ys[:, None, :] * (1.0 - ts)[None, :, None] + x[None, None, :] * ts[None, :, None]
    pts[:, -1] = x + 0.0
    vals = g.values(pts.reshape(-1, g.dim)).reshape(ys.shape[0], ts.shape[0])
    with np.errstate(invalid="ignore"):
        diffs = vals - gy[:, None]
    i, j = np.unravel_index(int(np.argmax(diffs)), diffs.shape)
    return float(diffs[i, j]), (ys[i], float(ts[j]))


def _iar(f, xbar, region, resolution, t_resolution=DEFAULT_T_RESOLUTION):
    """The rays residual of f from xbar over ``region``'s grid at
    ``resolution``, exact, and its witness (y, t) or None: the x* = 0 entry
    of one rays-kernel call, as prop1's rays route takes it at xbar."""
    rays = _ray_grid(f, region, resolution, t_resolution)
    xb = np.asarray(xbar, dtype=float).reshape(1, f.dim)
    residuals, witnesses = _tilted_iar_residuals(f, xb, np.zeros((1, f.dim)), rays)
    return float(residuals[0, 0]), rays.witness(witnesses[0, 0])


def _reference_thm3(fid, params):
    f = get_function(fid)
    region = f.default_region
    xs, cs = _candidate_grids(f, params)
    cand_res = params.thm3_candidates if f.dim == 1 else params.thm3_candidates_2d
    dense_res = 4 * (cand_res - 1) + 1
    source = "exact" if f.exact_subdifferential is not None else "clarke-numeric"
    graph = sample_subdiff_graph(
        f, region, dense_res, source=source,
        covector_half_width=params.covector_half_width,
        scheme=params.scheme,
    )
    probe_res = params.probe_factor * (params.grid_resolution(f.dim) - 1) + 1
    counts = {"agree": 0, "indeterminate": 0, "hard": 0}
    disagreements = []
    for x in xs:
        for c in cs:
            pv = polar_contains(graph, x, c, tol=params.tol)
            residual, _ = _reference_rays(f.shifted(c), x, region, probe_res, 33)
            if pv.ok == (residual <= params.tol):
                counts["agree"] += 1
                continue
            # the residual of the side that claims the violation decides
            false_residual = residual if pv.ok else -pv.residual
            cls = "indeterminate" if abs(false_residual) <= params.polar_band else "hard"
            counts[cls] += 1
            disagreements.append({"x": x.tolist(), "xstar": c.tolist(),
                                  "min_product": pv.residual,
                                  "iar_residual": residual, "class": cls})
    return {
        "function": fid, "region": region.describe(), "candidates": len(xs) * len(cs),
        "graph_resolution": dense_res, "graph_size": len(graph), "graph_source": source,
        "covector_truncated": graph.meta["truncated"],
        "band": params.polar_band, **counts, "hard_count": counts["hard"],
        "disagreements": disagreements,
    }


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_cross_validate_rays_residuals_match_the_reference(fid):
    f = get_function(fid)
    resolution = SMALL.grid_resolution(f.dim)
    probe_res = SMALL.probe_resolution(f.dim)
    region = f.default_region
    interior = region.shrink(region.spacing(resolution))
    rep = cross_validate(f, resolution=resolution, t_resolution=SMALL.t_resolution)
    assert rep.rows
    for row in rep.rows:
        xb = np.array(row.xbar)
        r, (y, t) = _reference_rays(f, xb, region, probe_res, SMALL.t_resolution)
        assert row.residuals["iar"] == r, row
        if "iar_open" in row.residuals:
            r_u, _ = _reference_rays(f, xb, interior, probe_res, SMALL.t_resolution)
            assert row.residuals["iar_open"] == r_u, row
        r_x, (y_x, t_x) = _iar(f, xb, region, probe_res, SMALL.t_resolution)
        assert r_x == r and t_x == t and np.array_equal(y_x, y)


def _constant_2d():
    return FunctionOracle(
        "const2d", 2, batch=lambda x1, x2: np.ones(np.broadcast(x1, x2).shape)
    )


def _holed_2d():
    """|x|_1 on the plane, +inf on the open square hole max|x_i| < 0.3 (lower
    semicontinuous); rays between opposite sides of the hole cross it."""

    def batch(x1, x2):
        out = np.abs(x1) + np.abs(x2)
        return np.where(np.maximum(np.abs(x1), np.abs(x2)) < 0.3, math.inf, out)

    return FunctionOracle("holed2d", 2, batch=batch)


_BOX = Region.box([(-1.0, 1.0), (-1.0, 1.0)])


def _assert_rays_match_across_blocks(f, region, resolution, probe_factor, xbars, graph=None):
    """One rays-kernel call per xbar and cross_validate against the
    reference at a probe grid whose rays span at least three row blocks of
    the kernel; the kernel's (residual, witness) per xbar."""
    probe_res = probe_factor * (resolution - 1) + 1
    rows = len(list(_row_blocks(probe_res**f.dim, DEFAULT_T_RESOLUTION * f.dim)))
    assert rows >= 3
    interior = region.shrink(region.spacing(resolution))
    rep = cross_validate(f, region, resolution=resolution, probe_factor=probe_factor, graph=graph)
    residuals = {row.xbar: row.residuals for row in rep.rows}
    out = []
    for xb in xbars:
        xb = np.asarray(xb, dtype=float)
        r, (y, t) = _reference_rays(f, xb, region, probe_res, DEFAULT_T_RESOLUTION)
        v = _iar(f, xb, region, probe_res)
        assert v[0] == r and v[1][1] == t and np.array_equal(v[1][0], y)
        row = residuals[tuple(xb.tolist())]
        assert row["iar"] == r
        if "iar_open" in row:
            r_u, _ = _reference_rays(f, xb, interior, probe_res, DEFAULT_T_RESOLUTION)
            assert row["iar_open"] == r_u
        out.append(v)
    return out


def test_rays_kernel_blocks_match_the_reference_on_norm2d():
    f = get_function("norm2d")
    region = f.default_region
    xbars = region.sample(17)[[0, 40, 144, 200, 288]]
    entries = _assert_rays_match_across_blocks(f, region, 17, 2, xbars)
    # from the corner xbar the largest increase starts at y = 0, ray 544 of
    # 1,089, in the second block of 512 rays
    residual, (y, _) = entries[0]
    assert residual == math.sqrt(8.0) and y.tolist() == [0.0, 0.0]


def test_rays_kernel_ties_keep_the_first_ray_point():
    # every increase is 0: the witness is the first (y, t) in y-major order
    xbars = [(0.0, 0.0), (1.0, -1.0), (-0.5, 0.75)]
    graph = GraphSample([[0.5, 0.5]], [[0.0, 0.0]], meta={"source": "exact"})
    for residual, (y, t) in _assert_rays_match_across_blocks(_constant_2d(), _BOX, 9, 4, xbars,
                                                               graph):
        assert residual == 0.0 and t == 0.0 and y.tolist() == [-1.0, -1.0]


def test_rays_kernel_keeps_the_first_infinite_increase():
    # rays from the far side of the hole cross it in every block; the first
    # +inf in y-major order wins over the later ones
    xbars = [(0.5, 0.5), (1.0, 0.0), (-0.75, 1.0)]
    graph = GraphSample([[0.5, 0.5]], [[1.0, 1.0]], meta={"source": "exact"})
    for residual, _ in _assert_rays_match_across_blocks(_holed_2d(), _BOX, 9, 4, xbars, graph):
        assert residual == math.inf


def _total(terms):
    """The sum of ``terms`` left to right (no leading +0, which would turn a
    -0.0 into +0.0)."""
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def _wavy(*x):
    return _total([np.sin(3.0 * xk) for xk in x]) + 0.1 * _total([xk * xk for xk in x])


#: Oracles on any dimension, for the property test below: non-dyadic values;
#: the same sunk to -1e17 on part of the space, where an increase v - f(y)
#: rounds distinct ray values v to one float; a step function, whose
#: increases tie and whose zeros carry the sign of the first coordinate;
#: +inf on part of the space; and -|x_1| times a positive factor, -0.0
#: where the first coordinate is a zero of either sign, where a tilt by
#: x* = 0 would turn the value into +0.0 at a point with every coordinate
#: negative or -0.0.
_ANY_DIM_ORACLES = {
    "wavy": _wavy,
    "sunk": lambda *x: np.where(x[0] < -1.0, -1e17, _wavy(*x)),
    "steps": lambda *x: np.copysign(np.floor(2.0 * _total(x)) / 2.0, x[0]),
    "capped": lambda *x: np.where(x[0] > 0.5, math.inf, _total([np.abs(xk) for xk in x])),
    "negabs": lambda *x: -np.abs(x[0]) * np.exp(0.1 * _total(x)),
}


def _any_dim_oracle(name, dim):
    batch = _ANY_DIM_ORACLES[name]
    return FunctionOracle(name, dim, batch=batch)


@st.composite
def _rays_cases(draw, most_dim=3):
    """A random oracle, dimension, tensor probe grid, one to three points x,
    covectors, t grid and block budget; the per-axis coordinates (unsorted)
    and the rest are uniform draws, off every dyadic grid, but for the
    first coordinates of the first axis and of the first x, each sometimes a
    signed zero."""
    dim = draw(st.integers(1, most_dim))
    f = _any_dim_oracle(draw(st.sampled_from(sorted(_ANY_DIM_ORACLES))), dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    most = {1: 40, 2: 7, 3: 4}[dim]
    axes = [rng.uniform(-2.0, 2.0, draw(st.integers(1, most))) for _ in range(dim)]
    xs = rng.uniform(-2.0, 2.0, (draw(st.integers(1, 3)), dim))
    for first in (axes[0], xs[0]):
        zero = draw(st.sampled_from([None, 0.0, -0.0]))
        if zero is not None:
            first[0] = zero
    covectors = rng.uniform(-3.0, 3.0, (draw(st.integers(1, 3)), dim))
    t_resolution = draw(st.integers(2, 9))
    budget = draw(st.sampled_from([1, 61, 10**9]))
    return f, axes, xs, covectors, t_resolution, budget


def _same_float(a, b):
    """Equal, sign of zero included."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_same_rays(got, want):
    (r, witness), (r_want, witness_want) = got, want
    assert _same_float(r, r_want)
    if witness_want is None:
        assert witness is None
    else:
        assert np.array_equal(witness[0], witness_want[0]) and witness[1] == witness_want[1]


def _entries(rays, found):
    """The rays kernel's (residuals, witness indices) arrays as rows of
    (residual, (y, t) or None) entries."""
    return [[(float(r), rays.witness(w)) for r, w in zip(*row)] for row in zip(*found)]


def _with_zero(covectors):
    """``covectors`` after a first row x* = 0."""
    return np.vstack([np.zeros((1, covectors.shape[1])), covectors])


#: A case where f.shifted(0) reads differently from f: from y = (-0.0, -1)
#: toward x = (0, 1) every ray point has first coordinate +0.0, and -|x_1|
#: is -0.0 on the whole ray. Every increase of f is -0.0 - (-0.0) = +0.0,
#: but the tilt by x* = 0 turns f(y) into +0.0 (its pairing with y is
#: -0.0) and keeps the ray values, so the shifted oracle's residual is -0.0.
_ZERO_TILT_CASE = (_any_dim_oracle("negabs", 2), [np.array([-0.0]), np.array([-1.0])],
                   np.array([[0.0, 1.0]]), np.array([[1.0, 0.5]]), 3, 10**9)


@settings(max_examples=200, deadline=None)
@given(_rays_cases())
@example(_ZERO_TILT_CASE)
def test_rays_kernel_matches_the_reference_on_non_dyadic_data(case):
    # the kernel against all ray points in one piece and one argmax: its
    # x* = 0 column on f itself, the others on f.shifted(x*), residual bits
    # and first witness included, over one-row, odd and whole-grid blocks
    f, axes, xs, covectors, t_resolution, budget = case
    ys = tensor_grid(axes)
    covectors = _with_zero(covectors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        rays = _RayGrid(f, axes, t_resolution)
    for x, got in zip(xs, _entries(rays, _tilted_iar_residuals(f, xs, covectors, rays))):
        _assert_same_rays(got[0], _reference_rays_at(f, x, ys, t_resolution))
        for c, entry in zip(covectors[1:], got[1:]):
            _assert_same_rays(entry, _reference_rays_at(f.shifted(c), x, ys, t_resolution))


@st.composite
def _bound_cases(draw):
    """A 1-D or 2-D case of :func:`_rays_cases`, with the holed oracle among
    the 2-D ones, and the first x's first coordinate sometimes a signed
    zero, which the step and -|x_1| oracles and, drawn then,
    :func:`_signed` read: every ray ends at x + 0.0, so the bound and the
    walk must both read +0.0 there."""
    f, axes, xs, covectors, t_resolution, budget = draw(_rays_cases(most_dim=2))
    if f.dim == 2 and draw(st.booleans()):
        f = _holed_2d()
    if xs[0, 0] == 0.0 and draw(st.booleans()):
        f = FunctionOracle("signed", f.dim, batch=_signed)
    return f, axes, xs, covectors, t_resolution, budget


def _signed(*x):
    """The wavy oracle, 2 larger where the first coordinate is -0.0 than at
    +0.0: a bound that read xbar itself at t = 1, where the walk reads
    xbar + 0.0, would exceed the kernel's own t = 1 entries."""
    return _wavy(*x) - np.copysign(1.0, x[0])


def _stop_choices(bound, exact):
    """Stops on both sides of a bound and at it, where the bound must not
    settle (it settles only strictly above its stop)."""
    return [bound, np.nextafter(bound, -math.inf), exact, 0.0, 1e-6, -1.0, 2.5, math.inf]


@settings(max_examples=200, deadline=None)
@given(_bound_cases(), st.data())
def test_the_endpoint_bound_is_exact_below_the_residual(case, data):
    # a stop of -inf returns every bound. Each is at most the exact residual,
    # with witness t = 1, and a finite stop gives the bound exactly when it
    # exceeds the stop, else the exact residual and witness, bit for bit.
    # The endpoint blocks hold one x, some or all of them
    f, axes, xs, covectors, t_resolution, budget = case
    covectors = _with_zero(covectors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        rays = _RayGrid(f, axes, t_resolution)
        exact = _entries(rays, _tilted_iar_residuals(f, xs, covectors, rays))
        for x, got in zip(xs, exact):  # the x* = 0 column is f's own
            _assert_same_rays(got[0], _reference_rays_at(f, x, tensor_grid(axes), t_resolution))
        everything = np.full((len(xs), len(covectors)), -math.inf)
        bounds = _entries(rays, _tilted_iar_residuals(f, xs, covectors, rays, everything))
        stops = np.empty_like(everything)
        for i, k in np.ndindex(stops.shape):
            (b, witness), (r, _) = bounds[i][k], exact[i][k]
            assert b <= r
            assert witness is None or witness[1] == 1.0
            stops[i, k] = data.draw(st.sampled_from(_stop_choices(b, r)))
        got = _entries(rays, _tilted_iar_residuals(f, xs, covectors, rays, stops))
    for i, k in np.ndindex(stops.shape):
        b, e = bounds[i][k], exact[i][k]
        _assert_same_rays(got[i][k], b if b[0] > stops[i, k] else e)


@st.composite
def _signed_zero_cases(draw):
    """A case of :func:`_rays_cases` on the ``_signed`` or step oracle, both
    of which read the sign of a zero, with no -0.0 on the probe axes (no
    query or candidate grid holds one) and each coordinate of the x
    sometimes -0.0."""
    _, axes, xs, covectors, t_resolution, budget = draw(_rays_cases(most_dim=2))
    batch = draw(st.sampled_from([_signed, _ANY_DIM_ORACLES["steps"]]))
    zeros = draw(st.lists(st.booleans(), min_size=xs.size, max_size=xs.size))
    xs[np.reshape(zeros, xs.shape)] = -0.0
    f = FunctionOracle("signed zeros", len(axes), batch=batch)
    return f, [a + 0.0 for a in axes], xs, covectors, t_resolution, budget


@settings(max_examples=100, deadline=None)
@given(_signed_zero_cases())
def test_a_negative_zero_in_x_gives_the_kernel_results_of_x_plus_zero(case):
    # every ray ends at x + 0.0, and below t = 1 a coordinate x_k t = -0.0
    # adds to a start a_k (1 - t) that is not -0.0: the kernel's residuals
    # and witnesses at x and at x + 0.0 are the same bits, with and without
    # stops. Before, the t = 1 point of a ray from y with y_k < 0 kept the
    # -0.0, and the bound and the walk read f there
    f, axes, xs, covectors, t_resolution, budget = case
    covectors = _with_zero(covectors)
    shape = (len(xs), len(covectors))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        rays = _RayGrid(f, axes, t_resolution)
        for stops in (None, np.full(shape, -math.inf), np.zeros(shape), np.full(shape, 0.5)):
            (r, w), (r0, w0) = (_tilted_iar_residuals(f, x, covectors, rays, stops)
                                for x in (xs, xs + 0.0))
            assert np.array_equal(r.view(np.uint64), r0.view(np.uint64))
            assert np.array_equal(w, w0)


def _sliver(center, half_width, slope):
    """1-D, slope ``slope`` within ``half_width`` of ``center``, +inf
    elsewhere."""
    return FunctionOracle("sliver", 1, batch=lambda x: np.where(
        np.abs(x - center) <= half_width, slope * (x - center), math.inf))


@st.composite
def _equivalence_cases(draw):
    """An oracle of the property tests above in 1-D or 2-D on [-2, 2]^dim,
    the grid knobs, tolerances, and a random graph sample, so that the
    classes vary between agree, indeterminate and hard. 1-D resolutions
    reach 33, where the subderivative route's ladder has 3 levels; the 1-D
    sliver is finite only within 0.45 query cells of one query point off
    every coarser level, so each level but the query grid's is empty."""
    dim = draw(st.integers(1, 2))
    region = Region.box([(-2.0, 2.0)] * dim)
    resolution = draw(st.integers(3, 33 if dim == 1 else 5))
    name = draw(st.sampled_from(sorted(_ANY_DIM_ORACLES) + ["holed" if dim == 2 else "sliver"]))
    if name == "sliver":
        j = draw(st.integers(1, resolution - 2).filter(lambda j: j % 4))
        f = _sliver(region.sample(resolution)[j, 0], 0.45 * region.spacing(resolution),
                    draw(st.sampled_from([-1.0, 0.5, 3.0])))
    else:
        f = _holed_2d() if name == "holed" else _any_dim_oracle(name, dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    graph = GraphSample(rng.uniform(-2.0, 2.0, (n, dim)), rng.uniform(-3.0, 3.0, (n, dim)),
                        meta={"source": "exact"})
    knobs = {
        "resolution": resolution,
        "probe_factor": draw(st.integers(1, 3)),
        "t_resolution": draw(st.integers(2, 9)),
        "tol": draw(st.sampled_from([1e-6, 0.1, 1.0])),
        "band": draw(st.sampled_from([1e-3, 0.5])),
    }
    return f, region, graph, knobs


def _deepest_ladder_case(f):
    """A case of :func:`_equivalence_cases` at 1-D resolution 33."""
    knobs = {"resolution": 33, "probe_factor": 2, "t_resolution": 8, "tol": 1e-6, "band": 1e-3}
    graph = GraphSample([[0.5], [-1.0]], [[1.0], [-0.5]], meta={"source": "exact"})
    return f, Region.box([(-2.0, 2.0)]), graph, knobs


@settings(max_examples=100, deadline=None)
@given(_equivalence_cases())
@example(_deepest_ladder_case(_any_dim_oracle("wavy", 1)))
@example(_deepest_ladder_case(_sliver(-2.0 + 5 * 0.125, 0.45 * 0.125, 3.0)))
def test_equivalence_rows_with_stops_keep_verdicts_classes_and_printed_residuals(case):
    f, region, graph, knobs = case
    tol, band = knobs["tol"], knobs["band"]
    probes = minty._EquivalenceProbes(f, region, knobs["resolution"], knobs["probe_factor"],
                                      knobs["t_resolution"], graph, DEFAULT_SCHEME)
    xgrid = region.sample(knobs["resolution"])
    xbars = xgrid[np.isfinite(f.values(xgrid))]
    exact, fast = probes.rows(xbars, tol, band), probes.rows(xbars, tol, band, exact=False)
    assert len(fast) == len(exact) > 0
    for (row, witnesses), (got, got_witnesses) in zip(exact, fast):
        assert (got.verdicts, got.classes) == (row.verdicts, row.classes)
        assert got.residuals.keys() == row.residuals.keys()
        assert got.residuals.get("subdifferential") == row.residuals.get("subdifferential")
        # a row with a class other than agree is printed with all its
        # residuals: those stay exact. On an agreeing row, the subderivative
        # route and the rays routes may carry a lower bound above tol: the
        # subderivative's from a level of its probe ladder, the rays
        # routes' with witness t = 1
        printed = set(row.classes.values()) != {"agree"}
        if "subderivative" in row.residuals:
            got_pair = (got.residuals["subderivative"],
                        probes.witness("subderivative", got_witnesses["subderivative"]))
            want = (row.residuals["subderivative"],
                    probes.witness("subderivative", witnesses["subderivative"]))
            if not (_same_float(got_pair[0], want[0]) and np.array_equal(got_pair[1], want[1])):
                assert not printed and tol < got_pair[0] <= want[0]
        for route in {"iar", "iar_open"} & row.residuals.keys():
            got_pair = (got.residuals[route], probes.witness(route, got_witnesses[route]))
            want = (row.residuals[route], probes.witness(route, witnesses[route]))
            try:
                _assert_same_rays(got_pair, want)
            except AssertionError:
                assert not printed and tol < got_pair[0] <= want[0]
                assert got_pair[1][1] == 1.0


def _tents(x):
    """Two tents of height 0.05 on [-2, 2], each rising from a probe point:
    at -0.5, on the query grid of resolution 9, with slope 0.25; at 0.25,
    between query points, with slope 50."""
    def tent(start, width):
        return 0.05 * np.maximum(0.0, 1.0 - np.abs(x - start - width) / width)
    return tent(-0.5, 0.2) + tent(0.25, 1e-3)


def test_a_row_settled_on_the_query_grid_is_classed_by_its_exact_residual():
    # no ray rises by more than 0.05 <= tol, so the rays route holds at
    # every xbar. At -1 the subderivative route fails by 0.1875, inside the
    # band, from -0.25, between query points. At 0.5 it fails, and at the
    # query points alone its max, 0.25 from -0.5, lies inside the band; the
    # exact max, 12.5 from 0.25, makes the row hard, and so must the
    # settled run
    f = FunctionOracle("tents", 1, batch=_tents)
    probes = minty._EquivalenceProbes(f, Region.box([(-2.0, 2.0)]), 9, 2, 8, None,
                                      DEFAULT_SCHEME, ["subderivative_vs_iar"])
    xbars = np.array([[-1.0], [0.5]])
    exact, fast = probes.rows(xbars, 0.1, 0.5), probes.rows(xbars, 0.1, 0.5, exact=False)
    assert [row.classes["subderivative_vs_iar"] for row, _ in exact] == ["indeterminate", "hard"]
    for (row, witnesses), (got, got_witnesses) in zip(exact, fast):
        assert (got.verdicts, got.classes, got.residuals) == (row.verdicts, row.classes,
                                                              row.residuals)
        assert np.array_equal(got_witnesses["subderivative"], witnesses["subderivative"])
    assert fast[1][0].residuals["subderivative"] > 12.0


def _subderivative_entries(found, ys):
    """The subderivative route's (residuals, y indices) arrays as a list of
    (residual, y or None) entries."""
    return [(float(r), None if k < 0 else ys[k]) for r, k in zip(*found)]


#: Knobs at which the subderivative route's ladder has 3 levels in 1-D
#: (3, 9 and 33 probe points of 65) and 2 in 2-D (9 and 81 of 289).
LADDER = SuiteParams(resolution=33, resolution_2d=9)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_subderivative_rows_settled_on_the_query_grid_keep_its_max(fid):
    # the ladder's levels are nested, coarsest first, each 4 times coarser
    # per axis than the next, and the last is the query grid's points. A row
    # is the exact one, bit for bit, or the max over the first level whose
    # max exceeds the stop, with that level's first maximizing y, a lower
    # bound on the exact residual
    f = get_function(fid)
    region = f.default_region
    rays = _ray_grid(f, region, LADDER.probe_resolution(f.dim), LADDER.t_resolution)
    levels = rays.ladder(LADDER.probe_factor)
    steps = [32, 8, 2] if f.dim == 1 else [8, 2]
    assert len(levels) == len(steps)
    for level, step in zip(levels, steps):
        assert np.array_equal(level, rays.nested(step))
    for coarse, fine in zip(levels, levels[1:]):
        assert np.isin(coarse, fine).all()
    xbars = region.sample(LADDER.grid_resolution(f.dim))
    xbars = xbars[np.isfinite(f.values(xbars))]
    assert np.allclose(rays.ys[levels[-1]], xbars, rtol=0.0, atol=1e-12)
    exact = _subderivative_entries(
        _subderivative_residuals(f, xbars, rays.ys, rays.fy, DEFAULT_SCHEME), rays.ys)
    per_level = [_subderivative_entries(_subderivative_residuals(
        f, xbars, rays.ys[level], rays.fy[level], DEFAULT_SCHEME), rays.ys[level])
                 for level in levels]
    for stop in (1e-6, 0.5, -math.inf):
        got = _subderivative_entries(_subderivative_residuals(
            f, xbars, rays.ys, rays.fy, DEFAULT_SCHEME, stop, levels), rays.ys)
        for i, ((r, y), e) in enumerate(zip(got, exact)):
            want = next((found[i] for found in per_level if found[i][0] > stop), e)
            assert _same_float(r, want[0]) and np.array_equal(y, want[1])
            assert r <= e[0]


def test_a_ladder_level_without_a_finite_probe_point_is_skipped():
    # f is finite only on (0.03, 0.06): at the defaults that holds one probe
    # point, 1/32, and no query point, so every level of the ladder is
    # empty. The route divided by the empty subset's size
    # (ZeroDivisionError); the rows go over the whole probe grid instead
    sliver = FunctionOracle("sliver", 1, batch=lambda x: np.where((x > 0.03) & (x < 0.06), 0.0,
                                                                  math.inf),
                            default_region=Region.interval(-2, 2), finite_point=np.array([0.04]))
    params = SuiteParams()
    fast = run_suites([sliver], ["prop1"], params)
    exact = run_suites([sliver], ["prop1"], params, collect_rows=True)
    assert fast["suites"] == exact["suites"]
    assert exact["suites"]["prop1"]["functions"]["sliver"]["grid_points"] == 0
    rays = _ray_grid(sliver, sliver.default_region, params.probe_resolution(1), 8)
    levels = rays.ladder(params.probe_factor)
    assert rays.ys.tolist() == [[0.03125]] and [level.size for level in levels] == [0, 0, 0]
    xbars = sliver.default_region.sample(params.resolution)
    want = _subderivative_entries(
        _subderivative_residuals(sliver, xbars, rays.ys, rays.fy, DEFAULT_SCHEME), rays.ys)
    got = _subderivative_entries(_subderivative_residuals(
        sliver, xbars, rays.ys, rays.fy, DEFAULT_SCHEME, 1e-6, levels), rays.ys)
    assert len(got) == 65
    for (r, y), (e, w) in zip(got, want):
        assert _same_float(r, e) and np.array_equal(y, w)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_cross_validate_sections_do_not_depend_on_exact(fid):
    # at probe factor 1 the ladder's last level is the whole probe grid
    f = get_function(fid)
    for probe_factor in (1, 2, 3):
        knobs = {"resolution": SMALL.grid_resolution(f.dim), "probe_factor": probe_factor,
                 "t_resolution": SMALL.t_resolution}
        exact = cross_validate(f, **knobs)
        fast = cross_validate(f, **knobs, exact=False)
        for theorem in ("subderivative_vs_iar", "subdifferential_vs_iar"):
            assert fast.section(theorem) == exact.section(theorem), probe_factor
        graded = [[(r.verdicts, r.classes) for r in rep.rows] for rep in (fast, exact)]
        assert graded[0] == graded[1], probe_factor


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_thm3_suite_with_stops_equals_the_suite_without(monkeypatch, fid):
    # at the default knobs: the stops settle most pairs the graph route
    # rejects, and no printed figure moves
    f = get_function(fid)
    with_stops = thm3_suite(f, SuiteParams())
    tilted = suites._tilted_iar_residuals
    monkeypatch.setattr(suites, "_tilted_iar_residuals",
                        lambda f, xs, cs, rays, stops: tilted(f, xs, cs, rays))
    assert with_stops == thm3_suite(f, SuiteParams())


@pytest.mark.parametrize("name", ["wavy", "capped"])
def test_three_dimensional_iar_check_matches_the_reference(name):
    # 9^3 probe points in blocks of 4 axis-0 rows (65,536 / (64 x 81 x 3));
    # the capped oracle is +inf on the rows x1 = 0.75 and 1, which the
    # kernel skips
    f = _any_dim_oracle(name, 3)
    region = Region.box([(-1.0, 1.0)] * 3)
    for xbar in ([0.0, 0.0, 0.0], [0.25, -0.5, 1.0], [-1.0, 0.5, 0.75]):
        xb = np.array(xbar)
        want = _reference_rays(f, xb, region, 9, DEFAULT_T_RESOLUTION)
        _assert_same_rays(_iar(f, xb, region, 9), want)
    rays = _ray_grid(f, region, 9, DEFAULT_T_RESOLUTION)
    assert rays.ys.shape[0] == (81 * 7 if name == "capped" else 9**3)


def test_a_probe_grid_without_a_finite_point():
    # f = +inf everywhere: no ray starts, so every residual is -inf with no
    # witness
    f = FunctionOracle("nowhere", 2, batch=lambda x1, x2: math.inf)
    region = Region.box([(-1.0, 1.0)] * 2)
    rays = _ray_grid(f, region, 5, 8)
    assert rays.ys.shape == (0, 2) and rays.blocks == []
    covectors = np.vstack([np.zeros(2), np.ones((2, 2))])
    exact = _tilted_iar_residuals(f, np.zeros((2, 2)), covectors, rays)
    assert _entries(rays, exact) == [[(-math.inf, None)] * 3] * 2
    stopped = _tilted_iar_residuals(f, np.zeros((2, 2)), covectors, rays, np.zeros((2, 3)))
    assert _entries(rays, stopped) == [[(-math.inf, None)] * 3] * 2
    v = polar_membership_via_iar(f, [0.0, 0.0], [1.0, 1.0], region, probe_resolution=5)
    assert (v.ok, v.residual, v.witness) == (True, -math.inf, None)


@pytest.mark.parametrize("t_resolution", [1, 0])
def test_a_t_grid_of_fewer_than_two_points_is_rejected(monkeypatch, t_resolution):
    # t = 0 alone makes every increase f(y) - f(y) = 0: the rays route
    # passed -|x| at 0 (residual 0.0) and cross_validate found 9 hard prop1
    # rows; with no t the kernel failed on a reshape
    f, region = get_function("neg_abs"), Region.interval(-2.0, 2.0)
    with pytest.raises(ValueError, match="t_resolution must be >= 2"):
        _ray_grid(f, region, 9, t_resolution)
    with pytest.raises(ValueError, match="t_resolution must be >= 2"):
        cross_validate(f, region, resolution=9, t_resolution=t_resolution)
    monkeypatch.setattr(polar, "DEFAULT_RAY_RESOLUTION", t_resolution)
    with pytest.raises(ValueError, match="t_resolution must be >= 2"):
        polar_membership_via_iar(f, [0.0], [0.0], region, probe_resolution=9)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_thm3_suite_matches_the_per_pair_reference(fid):
    assert thm3_suite(get_function(fid), SMALL) == _reference_thm3(fid, SMALL)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_polar_membership_via_iar_matches_the_tilted_oracle(fid):
    f = get_function(fid)
    xs, cs = _candidate_grids(f, SMALL)
    probe_res = SMALL.probe_resolution(f.dim)
    for x in xs:
        for c in cs:
            v = polar_membership_via_iar(f, x, c, f.default_region, probe_resolution=probe_res)
            residual, witness = _reference_rays(
                f.shifted(c), x, f.default_region, probe_res, DEFAULT_RAY_RESOLUTION
            )
            assert v.residual == residual
            if witness is None:
                assert v.witness is None
            else:
                assert np.array_equal(v.witness[0], witness[0]) and v.witness[1] == witness[1]


@pytest.fixture
def counted(monkeypatch):
    """Points of every FunctionOracle.values and .values_at call, in call
    order: the rays kernel evaluates its blocks through ``values_at``."""
    sizes = []
    values, values_at = FunctionOracle.values, FunctionOracle.values_at

    def counting_values(self, points):
        sizes.append(len(points))
        return values(self, points)

    def counting_values_at(self, *coords):
        sizes.append(np.broadcast(*coords).size)
        return values_at(self, *coords)

    monkeypatch.setattr(FunctionOracle, "values", counting_values)
    monkeypatch.setattr(FunctionOracle, "values_at", counting_values_at)
    return sizes


def test_small_rays_run_oracle_evaluation_count(counted):
    result = run_suites(
        [get_function("abs"), get_function("norm2d")], ["prop1", "thm2", "thm3"], SMALL
    )
    assert result["hard_total"] == 0
    # A rays route whose partner route is false takes its endpoint bound
    # first, one point per probe point, and walks its (y, t) blocks only
    # where the bound does not exceed tol: walking every route made this
    # run 78 calls over 73,374 points. One evaluation per (x, x*) pair in
    # thm3 made it 340 calls over 286,116 points. The prop1 route reuses the
    # probe-grid values as the subderivative's base values; evaluating them
    # again per xbar made it 144 calls over 75,552 points. The subderivative
    # route takes its tail points for a block of xbar in one call; one call
    # per xbar made it 110 calls over the same 73,374. The subderivative
    # route settles a row on the query-grid probe points first and takes
    # the full probe grid only for the rows left open; taking it for every
    # row made this run 90 calls over 53,256 points
    # The rays routes of a probe grid take the t = 1 values of all their
    # xbar in blocks of about core._BLOCK_ENTRIES entries, one call each;
    # one endpoint call per xbar made this run 92 calls over the same 39,516.
    # The subderivative route settles rows on a ladder of nested probe
    # subsets, coarsest first (3 and 9 points in 1-D); the query grid's
    # points alone made this run 38 calls over 39,516 points
    # Every ray ends at x + 0.0, so the endpoint bound takes one point per
    # x, not one per (x, probe point): that made this run 39 calls over
    # 39,066 points. Each ladder level takes only the probe points the
    # levels before it did not hold; a row left open took every level's
    # points again, 39 calls over 35,482 points
    assert (len(counted), sum(counted)) == (39, 35_112)


def test_default_rays_cells_oracle_evaluation_count(counted):
    # the rays workload's cells: all 9 functions, prop1/thm2/thm3 at the
    # default knobs. Walking every rays route took 4,260 calls over
    # 86,102,347 points; the endpoint bound settles most of the routes whose
    # partner is false. Taking the subderivative route's full probe grid
    # for every row took 2,263 calls over 10,329,513 points; the query-grid
    # probe points settle most false rows first. One endpoint call per x
    # took 2,124 calls over the same 5,599,693 points; a block of x takes
    # one call. Settling the subderivative route's rows on the query grid's
    # probe points alone, before the ladder of coarser subsets, took 507
    # calls over 5,599,693 points. An endpoint bound of one point per (x,
    # probe point), in blocks of x, took 469 calls over 3,950,973 points;
    # every ray ends at x + 0.0, so it takes one point per x, in one call
    # per kernel call. A subderivative row left open by a ladder level took
    # that level's probe points again at the next level and in the full
    # pass: 360 calls over 2,698,813 points; each level now takes only the
    # points the levels before it did not hold
    result = run_suites([get_function(fid) for fid in FUNCTION_IDS],
                        ["prop1", "thm2", "thm3"], SuiteParams())
    assert result["hard_total"] == 0
    assert (len(counted), sum(counted)) == (360, 2_635_193)


def test_small_cdd_and_predicates_run_oracle_evaluation_count(counted):
    result = run_suites([get_function("abs"), get_function("norm2d")], ["cdd", "predicates"], SMALL)
    assert result["hard_total"] == 0
    # the cdd pass stacks the local grids of its base points, so a block of
    # them shares one call per oracle use, f at its base points included;
    # one pass per base point made this run 106 calls over 24,532 points,
    # f(xbar) not counted. Blocks of about core._BLOCK_ENTRIES (stacked
    # point, direction) entries took the calls from 36 to 16 over the same
    # 24,566 points (4,096 stacked points per block made 36). f at the base
    # points and their lhs (one call for f(xbar), one for the tail points)
    # now take one call each over the whole base grid, not per block:
    # norm2d's 25 base points fill two blocks (18 + 7), so 16 - 3 = 13.
    # The lhs took f at its base points again, one call per entry over one
    # point per (base, direction) row: abs 9 x 2 and norm2d 25 x 4, 118
    # points. It now takes f(xbar) from the first call: 13 - 2 = 11 calls
    # over 24,566 - 118 = 24,448 points.
    assert (len(counted), sum(counted)) == (11, 24_448)


def test_small_numeric_run_clarke_base_point_count(monkeypatch):
    # neg_abs and twowell are Lipschitz, so every point of the numeric route
    # takes the gradient hull and no base point reaches the support table's
    # generalized-derivative estimator. The hull takes the 369 bit-distinct
    # points among each cdd pass's 891 grid points, and each 9-point
    # predicates graph, in one call; the hulls of all 891, repeats included,
    # made this run 16 oracle calls over 13,032 points (counted at the one
    # evaluator behind value, values and values_at).
    sizes, hulls, counted = [], [], []
    estimator = subdifferential.clarke_directional_values
    gradient_hulls = subdifferential._gradient_hulls
    evaluate = FunctionOracle._evaluate

    def counting(f, xbars, *args, **kwargs):
        sizes.append(len(xbars))
        return estimator(f, xbars, *args, **kwargs)

    def counting_hulls(f, pts, *args):
        owner, covectors, usable = gradient_hulls(f, pts, *args)
        hulls.append((len(pts), int(usable.sum())))
        return owner, covectors, usable

    def counting_evaluate(self, coords, shape):
        counted.append(math.prod(shape))
        return evaluate(self, coords, shape)

    monkeypatch.setattr(subdifferential, "clarke_directional_values", counting)
    monkeypatch.setattr(subdifferential, "_gradient_hulls", counting_hulls)
    monkeypatch.setattr(FunctionOracle, "_evaluate", counting_evaluate)
    result = run_suites(
        [get_function("neg_abs"), get_function("twowell")], ["cdd", "predicates"], SMALL
    )
    assert result["hard_total"] == 0
    assert sizes == []
    assert hulls == [(369, 369), (369, 369), (9, 9), (9, 9)]
    # The lhs took f at the base points again, one call per entry over one
    # point per (base, direction) row, 9 x 2 each: 16 calls over 6,768
    # points until it took f(xbar) from the pass's first call
    assert (len(counted), sum(counted)) == (14, 6_732)


@pytest.mark.parametrize("fid", ["abs", "norm2d"])
def test_thm3_evaluates_the_ray_points_once_per_candidate_x(counted, fid):
    walked = {"abs": 3, "norm2d": 9}[fid]
    f = get_function(fid)
    xs, cs = _candidate_grids(f, SMALL)
    thm3_suite(f, SMALL)
    probe_points = SMALL.probe_resolution(f.dim) ** f.dim  # all finite for these two
    ray_calls = counted.count(probe_points * DEFAULT_RAY_RESOLUTION)
    # every x has a pair the graph route rejects, so the t = 1 values of all
    # the x take one endpoint call of one point per x, x + 0.0, where every
    # ray ends (one point per (x, probe point) before, and before that one
    # call per x: 5 and 9 calls of probe_points points); an x walks its ray
    # points only when one of its pairs is not settled by a bound (before:
    # all 5 and 9)
    assert ray_calls == walked <= len(xs) < len(xs) * len(cs)
    assert counted.count(len(xs)) == 1
    # besides those: one call for the graph grid and one for the probe grid,
    # both of probe_points points here
    assert counted.count(probe_points) == 2
    assert len(counted) == ray_calls + 3


def test_rays_kernel_memory_does_not_grow_with_the_probe_grid():
    # the kernel keeps per-axis ray starts, 2 x (64, 129) floats here, and
    # evaluates blocks of broadcast coordinates: the whole run peaks at
    # 1.4 MB, most of it the grid and its values. Starts kept per probe
    # point took 16.25 MB and a peak of 17.6 MB; building all ray points
    # in one piece took 33 MB besides them.
    f = get_function("norm2d")
    peak_mb = _peak_mb(lambda: _iar(f, [0.25, -0.5], f.default_region, 129, 64))
    assert peak_mb < 2.0


def test_rays_kernel_evaluates_the_rays_in_row_blocks(counted):
    # one call on the probe grid, then 33 axis-0 rows of 33 rays of 64
    # points, in blocks of 15 rows (65,536 / (64 x 33 x 2)); blocks of 512
    # scattered rays made this [1,089, 32,768, 32,768, 4,160], and all rays
    # in one call 2 calls
    f = get_function("norm2d")
    _iar(f, [0.25, -0.5], f.default_region, 33, 64)
    assert counted == [1_089, 15 * 33 * 64, 15 * 33 * 64, 3 * 33 * 64]
    assert sum(counted) == 70_785
