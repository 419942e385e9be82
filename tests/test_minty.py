"""Variational-inequality residuals and the three-way cross-validation."""

import inspect
import math

import numpy as np
import pytest

from varpolar import Region, cross_validate, sample_subdiff_graph
from varpolar import core, minty, subdifferential
from varpolar.core import DEFAULT_TOL, GraphSample
from varpolar.library import FUNCTION_IDS, get_function
from varpolar.minty import DEFAULT_T_RESOLUTION
from varpolar.subderivative import DEFAULT_SCHEME, LiminfScheme
from varpolar.suites import SuiteParams, suite_graph
from test_clarke_kernel import _MAX3D, _peak_mb
from test_rays_kernel import _iar, _probe_rows, _reference_rays_at, _rows
from test_subderivative import _reference_tail_quotients


BOX = Region.interval(-2.0, 2.0)


def _row(f, xbar, region=BOX, resolution=33, probe_factor=2, graph=None):
    """The exact row of ``cross_validate`` at the query-grid point xbar:
    prop1's and thm2's routes there, on probe grids of
    probe_factor (resolution - 1) + 1 points (65 by default, on BOX)."""
    rep = cross_validate(f, region, resolution=resolution, probe_factor=probe_factor, graph=graph)
    return next(r for r in _rows(rep) if r["xbar"] == [float(xbar)])


# -- increase along rays ----------------------------------------------------------

def test_iar_square_at_minimizer():
    residual, _ = _iar(get_function("square"), 0.0, BOX, 65)
    assert residual <= 0.0 + 1e-12


def test_iar_neg_abs_fails_with_documented_witness():
    residual, (y, t) = _iar(get_function("neg_abs"), 0.0, BOX, 65)
    assert residual > DEFAULT_TOL
    assert residual == pytest.approx(2.0)  # f(0) - f(2) = 0 - (-2)
    assert abs(y[0]) == pytest.approx(2.0) and t == 1.0


def test_iar_twowell_sees_the_second_well():
    residual, (y, t) = _iar(get_function("twowell"), 0.0, Region.interval(-1.0, 3.0), 65)
    # moving from the shallow well toward 0 climbs the barrier: the residual
    # approaches f(1.5) - f(2) = 0.5 up to t-grid quantization
    assert residual >= 0.45
    assert y[0] == pytest.approx(2.0, abs=0.2)
    assert t == pytest.approx(0.25, abs=0.05)


def test_empty_finite_grid_is_vacuously_solved():
    # an even-resolution grid on [-2, 2] misses the only domain point of the
    # one-point indicator; the quantifiers are then vacuous: both routes
    # read -inf, a solution, with no witness
    f = get_function("ind_origin")
    rays = minty._ray_grid(f, BOX, 64, DEFAULT_T_RESOLUTION)
    assert rays.ys.shape[0] == 0
    assert _iar(f, 0.0, BOX, 64) == (-math.inf, None)
    residuals, witnesses = minty._subderivative_residuals(f, np.zeros((1, 1)), rays.ys, rays.fy,
                                                          DEFAULT_SCHEME)
    assert (residuals.tolist(), witnesses.tolist()) == ([-math.inf], [-1])


def test_iar_monotone_in_region_growth():
    f = get_function("twowell")
    small, _ = _iar(f, 0.0, Region.interval(-0.5, 0.5), 65)
    large, _ = _iar(f, 0.0, Region.interval(-1.0, 3.0), 65)
    assert small <= DEFAULT_TOL < large


# -- subderivative route ------------------------------------------------------------

def test_minty_subderivative_square():
    row = _row(get_function("square"), 0.0)
    assert row["verdicts"]["subderivative"]
    assert abs(row["residuals"]["subderivative"]) <= 1e-4


def test_minty_subderivative_neg_abs_witness():
    row = _row(get_function("neg_abs"), 0.0)
    assert not row["verdicts"]["subderivative"]
    # at y = 1 the subderivative toward 0 is +1
    assert row["residuals"]["subderivative"] >= 1.0 - 1e-9


def test_minty_subderivative_abs():
    assert _row(get_function("abs"), 0.0)["verdicts"]["subderivative"]


def test_degenerate_direction_contributes_zero():
    # the probe grid contains xbar itself; its row is exactly 0
    row = _row(get_function("abs"), 0.0, resolution=5, probe_factor=1)
    assert row["residuals"]["subderivative"] >= 0.0
    assert row["residuals"]["iar"] >= 0.0


# -- subdifferential route ------------------------------------------------------------

def _exact_graph(fid, resolution=65):
    f = get_function(fid)
    return sample_subdiff_graph(f, f.default_region, resolution, source="exact")


def test_minty_subdifferential_square():
    row = _row(get_function("square"), 0.0, graph=_exact_graph("square"))
    assert row["verdicts"]["subdifferential"]
    # pairs (y, 2y) give -2y^2, and (0, 0) gives 0
    assert row["residuals"]["subdifferential"] == 0.0


def test_minty_subdifferential_neg_abs():
    f = get_function("neg_abs")
    row = _row(f, 0.0, graph=sample_subdiff_graph(f, BOX, 65, source="clarke-numeric"))
    assert not row["verdicts"]["subdifferential"]
    # the pair (1, -1) pairs to <-1, 0-1> = 1
    assert row["residuals"]["subdifferential"] >= 1.0 - 1e-9


def test_minty_subdifferential_abs():
    row = _row(get_function("abs"), 0.0, graph=_exact_graph("abs"))
    assert row["verdicts"]["subdifferential"] and row["residuals"]["subdifferential"] == 0.0


def test_minty_subdifferential_needs_usable_sample():
    # without a graph pair inside the open interior, thm2's routes are not
    # run: no row carries them or a thm2 class
    f = get_function("square")
    graph = _exact_graph("square")
    rep = cross_validate(f, Region.interval(0.05, 0.11), resolution=5,
                         graph=graph.filter(np.zeros(len(graph), dtype=bool)))
    assert len(rep.xbars) == 5 and set(rep.graded) == {"subderivative_vs_iar"}
    for row in _rows(rep):
        assert set(row["residuals"]) == {"subderivative", "iar"}
        assert set(row["classes"]) == {"subderivative_vs_iar"}


@pytest.mark.parametrize("fid", [fid for fid in FUNCTION_IDS
                                 if get_function(fid).exact_subdifferential is not None])
def test_subdifferential_route_is_the_max_pairing_over_the_graph(fid):
    # the route is the polar kernel at x* = 0, negated; here it meets a loop
    # over the graph's pairs of <y*, xbar - y>, summed coordinate by
    # coordinate, with the first maximizing pair as the witness
    f, params = get_function(fid), SuiteParams()
    region = f.default_region
    probes = minty._EquivalenceProbes(
        f, region, params.grid_resolution(f.dim), params.probe_factor, params.t_resolution,
        suite_graph(f, params, params.probe_resolution(f.dim)), params.scheme,
        comparisons=["subdifferential_vs_iar"],
    )
    assert probes.rays_c is None
    xgrid = region.sample(params.grid_resolution(f.dim))
    xbars = xgrid[np.isfinite(f.values(xgrid))]
    _, graded = probes.rows(xbars, params.tol, params.band)
    at, residuals, witnesses, _ = graded["subdifferential_vs_iar"]
    assert at.size
    xs = xbars[at]
    graph = probes.graph_inside
    best, first = np.full(len(xs), -math.inf), np.zeros(len(xs), dtype=int)
    for k, (y, ystar) in enumerate(graph.pairs()):
        vals = sum(ystar[i] * (xs[:, i] - y[i]) for i in range(f.dim))
        better = vals > best
        best[better], first[better] = vals[better], k
    for xb, r, w, value, k in zip(xs, residuals["subdifferential"].tolist(),
                                  witnesses["subdifferential"], best.tolist(), first):
        assert r == value, xb
        y, ystar = probes.witness("subdifferential", w)
        assert np.array_equal(y, graph.points[k]) and np.array_equal(ystar, graph.covectors[k])


# -- cross-validation -------------------------------------------------------------------

def test_cross_validate_square_solutions_exactly_at_zero():
    rep = cross_validate(get_function("square"), resolution=33)
    for row in _rows(rep):
        expected = row["xbar"] == [0.0]
        assert row["verdicts"]["subderivative"] == expected, row
        assert row["verdicts"]["iar"] == expected, row
        if "subdifferential" in row["verdicts"]:
            assert row["verdicts"]["subdifferential"] == expected, row
    assert rep.counts("subderivative_vs_iar")["hard"] == 0


def test_cross_validate_abs_solutions_exactly_at_zero():
    rep = cross_validate(get_function("abs"), resolution=33)
    sols = [r["xbar"] for r in _rows(rep) if r["verdicts"]["iar"]]
    assert sols == [[0.0]]
    assert all(r["classes"]["subderivative_vs_iar"] == "agree" for r in _rows(rep))


def test_cross_validate_neg_abs_has_no_solutions():
    rep = cross_validate(get_function("neg_abs"), resolution=33)
    for row in _rows(rep):
        assert not row["verdicts"]["subderivative"]
        assert not row["verdicts"]["iar"]
        if "subdifferential" in row["verdicts"]:
            assert not row["verdicts"]["subdifferential"]


def test_cross_validate_coercive_convex_contains_minimizer():
    for fid in ("square", "abs", "norm2d", "mixed2d"):
        f = get_function(fid)
        rep = cross_validate(f, resolution=17 if f.dim == 1 else 9)
        sols = {tuple(r["xbar"]) for r in _rows(rep) if r["verdicts"]["iar"]}
        assert tuple([0.0] * f.dim) in sols, fid


def test_cross_validate_rows_cover_dom_f_only():
    rep = cross_validate(get_function("ind_halfline"), resolution=17)
    assert all(r["xbar"][0] >= 0 for r in _rows(rep))
    assert len(rep.xbars) == 9  # the grid points of [0, 2]


def test_cross_validate_samples_its_own_graph_with_its_scheme(monkeypatch):
    # neg_abs has no exact side-oracle, so the fallback graph takes the
    # numeric route, whose estimator reads the scheme
    real = subdifferential._graph_rows
    signature = inspect.signature(real)
    seen = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["scheme"])
        return real(*args, **kwargs)

    monkeypatch.setattr(subdifferential, "_graph_rows", spy)
    scheme = LiminfScheme(t0=0.05)
    cross_validate(get_function("neg_abs"), resolution=9, scheme=scheme)
    assert seen == [scheme]


def test_cross_validate_report_dict_shape():
    rep = cross_validate(get_function("abs"), resolution=9)
    d = rep.section("subderivative_vs_iar")
    assert d["function"] == "abs"
    assert d["grid_points"] == len(rep.xbars) == 9
    assert set(d) >= {"agree", "indeterminate", "hard", "disagreements", "hard_count"}
    assert d["hard_count"] == d["hard"]


# -- the equivalence rows over a block of xbar ---------------------------------------

def _reference_row(probes, xb, tol, band):
    """One xbar's row as evaluated one xbar at a time: one tail-quotient call
    over the probe grid per xbar, with the tail points broadcast over all
    coordinates, the graph pairs masked by the interior per xbar, and the
    rays routes from every ray point built from scratch in one piece."""
    f, ys, fy = probes.f, probes.rays_c.ys, probes.rays_c.fy
    if ys.shape[0] == 0:
        r_sd, w_sd = -math.inf, None
    else:
        vals = _reference_tail_quotients(f, ys, xb[None, :] - ys, probes.scheme, fy).min(axis=1)
        i = int(np.argmax(vals))
        r_sd, w_sd = float(vals[i]), ys[i]
    t_resolution = probes.rays_c.ts.shape[0]
    r_iar, w_iar = _reference_rays_at(f, xb, probes.rays_c.ys, t_resolution)
    residuals = {"subderivative": r_sd, "iar": r_iar}
    witnesses = {"subderivative": w_sd, "iar": w_iar}
    classes = {"subderivative_vs_iar": minty.classify(r_sd <= tol, r_sd, r_iar <= tol, r_iar, band)}
    interior = bool(probes.interior_region.contains(xb))
    if interior and len(probes.graph_inside) > 0:
        graph = probes.graph_inside
        inside = probes.interior_region.contains_many(graph.points)
        pts, cov = graph.points[inside], graph.covectors[inside]
        # the polar kernel at x* = 0 for this xbar alone; its value against
        # a loop over the pairs is checked on the library graphs below
        mins, args = core._min_products(GraphSample(pts, cov), xb[None, :],
                                        np.zeros((1, f.dim)), argmin=True)
        i = int(args[0, 0])
        r_sdiff, w_sdiff = 0.0 - float(mins[0, 0]), (pts[i], cov[i])
        r_iar_u, w_iar_u = _reference_rays_at(f, xb, probes.rays_u.ys, t_resolution)
        residuals.update({"subdifferential": r_sdiff, "iar_open": r_iar_u})
        witnesses.update({"subdifferential": w_sdiff, "iar_open": w_iar_u})
        classes["subdifferential_vs_iar"] = minty.classify(
            r_sdiff <= tol, r_sdiff, r_iar_u <= tol, r_iar_u, band
        )
    return interior, residuals, witnesses, classes


def _same_bits(a, b):
    """Bitwise equality of floats, arrays, None and tuples of them."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_bits, a, b))
    if a is None or b is None:
        return a is b
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                          np.asarray(b, dtype=float).view(np.uint64))


def _max3d_graph():
    pts = Region.box([(-1.0, 1.0)] * 3).sample(5)
    cov = np.where(pts >= 0.0, 1.0, -0.5)
    return GraphSample(pts, cov, meta={"source": "exact"})


@pytest.mark.parametrize(("f", "resolution", "graph"), [
    (get_function("neg_abs"), 9, None),
    (get_function("ind_halfline"), 9, None),
    (get_function("norm2d"), 5, None),
    (_MAX3D, 3, _max3d_graph()),
], ids=["neg_abs", "ind_halfline", "norm2d", "max3d"])
def test_rows_over_blocks_of_xbar_match_the_per_xbar_reference(monkeypatch, f, resolution, graph):
    region = f.default_region
    probes = minty._EquivalenceProbes(
        f, region, resolution, minty.DEFAULT_PROBE_FACTOR, 8, graph, DEFAULT_SCHEME
    )
    xgrid = region.sample(resolution)
    xbars = xgrid[np.isfinite(f.values(xgrid))]
    # two xbar per block: several blocks and a partial last one
    cols = len(probes.rays_c.ys) * DEFAULT_SCHEME.tail_count * f.dim
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 2 * cols + 1)
    assert len(xbars) % 2 == 1 and len(xbars) >= 5
    rows = _probe_rows(probes, xbars, 1e-9, 1e-3)
    assert len(rows) == len(xbars)
    for xb, (row, witnesses) in zip(xbars, rows):
        interior, residuals, ref_witnesses, classes = _reference_row(probes, xb, 1e-9, 1e-3)
        assert row["xbar"] == xb.tolist() and row["interior"] == interior
        assert row["residuals"].keys() == residuals.keys() == witnesses.keys()
        for route, r in residuals.items():
            assert _same_bits(row["residuals"][route], r), (xb, route)
            assert _same_bits(probes.witness(route, witnesses[route]), ref_witnesses[route]), (
                xb, route)
        assert row["classes"] == classes
    if f.name == "neg_abs":
        # f(0) = -0.0 is among the base values of the subderivative route
        fy = probes.rays_c.fy
        assert np.any((fy == 0.0) & np.signbit(fy))
    if f.name == "ind_halfline":
        # the xbar and probe points where f = +inf are dropped
        assert len(xbars) < len(xgrid) and len(probes.rays_c.ys) < len(region.sample(17))


def test_subderivative_route_without_probe_points_has_no_witness():
    f = get_function("abs")
    residuals, witnesses = minty._subderivative_residuals(
        f, np.zeros((3, 1)), np.empty((0, 1)), np.empty(0), DEFAULT_SCHEME
    )
    assert residuals.tolist() == [-math.inf] * 3 and witnesses.tolist() == [-1] * 3


def test_cross_validate_takes_the_tail_quotients_in_blocks_of_xbar(monkeypatch):
    calls = []
    real = minty._tail_quotients

    def counting(f, xb, *args):
        calls.append(len(xb))
        return real(f, xb, *args)

    monkeypatch.setattr(minty, "_tail_quotients", counting)
    # 81 xbar over 289 probe points: blocks of 11 xbar (65,536 // 5,780
    # tail-point coordinates); one call per xbar made this 81 calls
    rep = cross_validate(get_function("norm2d"), resolution=9)
    assert len(rep.xbars) == 81
    assert calls == [11 * 289] * 7 + [4 * 289]


def test_subderivative_route_memory_is_one_block_of_xbar():
    # 289 xbar over 1,089 probe points: their tail points in one piece would
    # take 289 * 1,089 * 10 * 2 floats (48 MB); a block holds 3 xbar
    f = get_function("norm2d")
    region = f.default_region
    probes = minty._ray_grid(f, region, 33, DEFAULT_T_RESOLUTION)
    ys, fy = probes.ys, probes.fy
    xbars = region.sample(17)
    peak_mb = _peak_mb(
        lambda: minty._subderivative_residuals(f, xbars, ys, fy, DEFAULT_SCHEME)
    )
    assert peak_mb < 4.0
