"""The shared rays kernel: parity with the per-xbar and per-pair
constructions it replaces, and pinned oracle-evaluation counts.

The references below build every ray point from scratch and evaluate the
tilted oracle ``f.shifted(x*)`` once per (x, x*) pair, as the suites did
before the kernel hoisted the ray starts and used tilt linearity. Every
comparison is exact (``==``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpolar import (
    cross_validate,
    iar_check,
    polar_contains,
    polar_membership_via_iar,
    subdifferential,
)
from varpolar import core
from varpolar.core import FunctionOracle, GraphSample, Region, _row_blocks
from varpolar.library import FUNCTION_IDS, get_function
from varpolar.minty import DEFAULT_T_RESOLUTION, _iar_residual, _RayGrid, _tilted_iar_residuals
from varpolar.polar import DEFAULT_RAY_RESOLUTION
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
    order: all ray points in one piece and one argmax."""
    gy = g.values(ys)
    finite = np.isfinite(gy)
    if not np.any(finite):
        return -math.inf, None
    ys, gy = ys[finite], gy[finite]
    ts = np.linspace(0.0, 1.0, t_resolution)
    pts = ys[:, None, :] * (1.0 - ts)[None, :, None] + x[None, None, :] * ts[None, :, None]
    vals = g.values(pts.reshape(-1, g.dim)).reshape(ys.shape[0], ts.shape[0])
    with np.errstate(invalid="ignore"):
        diffs = vals - gy[:, None]
    i, j = np.unravel_index(int(np.argmax(diffs)), diffs.shape)
    return float(diffs[i, j]), (ys[i], float(ts[j]))


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
            cls = "indeterminate" if abs(pv.residual) <= params.polar_band else "hard"
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
        rep_x = iar_check(f, xb, region, resolution=probe_res, t_resolution=SMALL.t_resolution)
        assert float(rep_x.residual) == r and rep_x.witness[1] == t
        assert np.array_equal(rep_x.witness[0], y)


def _constant_2d():
    return FunctionOracle("const2d", 2, fn=lambda p: 1.0, batch=lambda p: np.ones(len(p)))


def _holed_2d():
    """|x|_1 on the plane, +inf on the open square hole max|x_i| < 0.3 (lower
    semicontinuous); rays between opposite sides of the hole cross it."""

    def batch(p):
        out = np.abs(p[:, 0]) + np.abs(p[:, 1])
        return np.where(np.max(np.abs(p), axis=1) < 0.3, math.inf, out)

    return FunctionOracle("holed2d", 2, fn=lambda p: float(batch(p[None, :])[0]), batch=batch)


_BOX = Region.box([(-1.0, 1.0), (-1.0, 1.0)])


def _assert_rays_match_across_blocks(f, region, resolution, probe_factor, xbars, graph=None):
    """iar_check and cross_validate against the reference at a probe grid
    whose rays span at least three row blocks of the kernel."""
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
        v = iar_check(f, xb, region, resolution=probe_res)
        assert float(v.residual) == r and v.witness[1] == t
        assert np.array_equal(v.witness[0], y)
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
    verdicts = _assert_rays_match_across_blocks(f, region, 17, 2, xbars)
    # from the corner xbar the largest increase starts at y = 0, ray 544 of
    # 1,089, in the second block of 512 rays
    assert verdicts[0].residual == math.sqrt(8.0)
    assert verdicts[0].witness[0].tolist() == [0.0, 0.0]


def test_rays_kernel_ties_keep_the_first_ray_point():
    # every increase is 0: the witness is the first (y, t) in y-major order
    xbars = [(0.0, 0.0), (1.0, -1.0), (-0.5, 0.75)]
    graph = GraphSample([[0.5, 0.5]], [[0.0, 0.0]], meta={"source": "exact"})
    for v in _assert_rays_match_across_blocks(_constant_2d(), _BOX, 9, 4, xbars, graph):
        assert v.residual == 0.0 and v.witness[1] == 0.0
        assert v.witness[0].tolist() == [-1.0, -1.0]


def test_rays_kernel_keeps_the_first_infinite_increase():
    # rays from the far side of the hole cross it in every block; the first
    # +inf in y-major order wins over the later ones
    xbars = [(0.5, 0.5), (1.0, 0.0), (-0.75, 1.0)]
    graph = GraphSample([[0.5, 0.5]], [[1.0, 1.0]], meta={"source": "exact"})
    for v in _assert_rays_match_across_blocks(_holed_2d(), _BOX, 9, 4, xbars, graph):
        assert v.residual == math.inf


def _wavy(p):
    return np.sin(3.0 * p).sum(axis=1) + 0.1 * (p * p).sum(axis=1)


#: Oracles on any dimension, for the property test below: non-dyadic values;
#: the same sunk to -1e17 on part of the space, where an increase v - f(y)
#: rounds distinct ray values v to one float; a step function, whose
#: increases tie and whose zeros carry the sign of the first coordinate; and
#: +inf on part of the space.
_ANY_DIM_ORACLES = {
    "wavy": _wavy,
    "sunk": lambda p: np.where(p[:, 0] < -1.0, -1e17, _wavy(p)),
    "steps": lambda p: np.copysign(np.floor(2.0 * p.sum(axis=1)) / 2.0, p[:, 0]),
    "capped": lambda p: np.where(p[:, 0] > 0.5, math.inf, np.abs(p).sum(axis=1)),
}


@st.composite
def _rays_cases(draw):
    """A random oracle, dimension, probe rows, xbar, covectors, t grid and
    block budget; the coordinates are uniform draws, off every dyadic grid."""
    dim = draw(st.integers(1, 3))
    name = draw(st.sampled_from(sorted(_ANY_DIM_ORACLES)))
    batch = _ANY_DIM_ORACLES[name]
    f = FunctionOracle(name, dim, fn=lambda x: float(batch(x[None, :])[0]), batch=batch)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ys = rng.uniform(-2.0, 2.0, (draw(st.integers(1, 40)), dim))
    xbar = rng.uniform(-2.0, 2.0, dim)
    covectors = rng.uniform(-3.0, 3.0, (draw(st.integers(1, 3)), dim))
    t_resolution = draw(st.integers(2, 9))
    budget = draw(st.sampled_from([1, 61, 10**9]))
    return f, ys, xbar, covectors, t_resolution, budget


def _assert_same_rays(got, want):
    (r, witness), (r_want, witness_want) = got, want
    assert r == r_want and math.copysign(1.0, r) == math.copysign(1.0, r_want)
    if witness_want is None:
        assert witness is None
    else:
        assert np.array_equal(witness[0], witness_want[0]) and witness[1] == witness_want[1]


@settings(max_examples=200, deadline=None)
@given(_rays_cases())
def test_rays_kernel_matches_the_reference_on_non_dyadic_data(case):
    # both kernels against all ray points in one piece and one argmax: the
    # plain one on f, the tilted one on f.shifted(x*), residual bits and
    # first witness included, over one-row, odd and whole-grid blocks
    f, ys, xbar, covectors, t_resolution, budget = case
    fy = f.values(ys)
    finite = np.isfinite(fy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        rays = _RayGrid(ys[finite], fy[finite], t_resolution)
    plain = _iar_residual(f, xbar, rays)
    [tilted] = _tilted_iar_residuals(f, xbar[None, :], covectors, rays)
    _assert_same_rays(plain, _reference_rays_at(f, xbar, ys, t_resolution))
    for c, got in zip(covectors, tilted):
        _assert_same_rays(got, _reference_rays_at(f.shifted(c), xbar, ys, t_resolution))


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
    """Sizes of every FunctionOracle.values call, in call order."""
    sizes = []
    values = FunctionOracle.values

    def counting_values(self, points):
        sizes.append(len(points))
        return values(self, points)

    monkeypatch.setattr(FunctionOracle, "values", counting_values)
    return sizes


def test_small_rays_run_oracle_evaluation_count(counted):
    result = run_suites(
        [get_function("abs"), get_function("norm2d")], ["prop1", "thm2", "thm3"], SMALL
    )
    assert result["hard_total"] == 0
    # thm3 takes 7 calls on abs (graph grid, probe grid, 5 candidate x) and
    # 11 on norm2d (the same with 9 candidate x); one evaluation per
    # (x, x*) pair made this run 340 calls over 286,116 points. The prop1
    # route reuses the probe-grid values as the subderivative's base values;
    # evaluating them again per xbar made it 144 calls over 75,552 points.
    # The subderivative route takes its tail points for a block of xbar in
    # one call; one call per xbar made it 110 calls over the same 73,374
    assert (len(counted), sum(counted)) == (78, 73_374)


def test_small_cdd_and_predicates_run_oracle_evaluation_count(counted):
    result = run_suites([get_function("abs"), get_function("norm2d")], ["cdd", "predicates"], SMALL)
    assert result["hard_total"] == 0
    # the cdd pass stacks the local grids of its base points, so a block of
    # them shares one call per oracle use; one pass per base point made this
    # run 106 calls over the same 24,532 points
    assert (len(counted), sum(counted)) == (28, 24_532)


def test_small_numeric_run_clarke_base_point_count(monkeypatch):
    # neg_abs and twowell are Lipschitz, so every point of the numeric route
    # takes the gradient hull and no base point reaches the generalized-
    # derivative estimator. With the support table at every point, this run
    # sent 1,800 base points in 8 calls (3,600 before the table was keyed by
    # distinct point). The hull takes each cdd pass's 891 grid points and
    # each 9-point predicates graph in one call.
    sizes, hulls = [], []
    estimator = subdifferential.clarke_directional_values
    gradient_hulls = subdifferential._gradient_hulls

    def counting(f, xbars, *args, **kwargs):
        sizes.append(len(xbars))
        return estimator(f, xbars, *args, **kwargs)

    def counting_hulls(f, pts, *args):
        owner, covectors, usable = gradient_hulls(f, pts, *args)
        hulls.append((len(pts), int(usable.sum())))
        return owner, covectors, usable

    monkeypatch.setattr(subdifferential, "clarke_directional_values", counting)
    monkeypatch.setattr(subdifferential, "_gradient_hulls", counting_hulls)
    result = run_suites(
        [get_function("neg_abs"), get_function("twowell")], ["cdd", "predicates"], SMALL
    )
    assert result["hard_total"] == 0
    assert sizes == []
    assert hulls == [(891, 891), (891, 891), (9, 9), (9, 9)]


@pytest.mark.parametrize("fid", ["abs", "norm2d"])
def test_thm3_evaluates_the_ray_points_once_per_candidate_x(counted, fid):
    f = get_function(fid)
    xs, cs = _candidate_grids(f, SMALL)
    thm3_suite(f, SMALL)
    probe_points = SMALL.probe_resolution(f.dim) ** f.dim  # all finite for these two
    ray_calls = counted.count(probe_points * DEFAULT_RAY_RESOLUTION)
    assert ray_calls == len(xs) < len(xs) * len(cs)
    # besides those: one call for the graph grid and one for the probe grid
    assert len(counted) == ray_calls + 2


def test_rays_kernel_memory_does_not_grow_with_the_probe_grid():
    # the ray starts y(1 - t) are the one array that grows with the probe
    # grid (16.25 MB here); building all ray points in one piece peaked at
    # 32.9 MB besides them
    f = get_function("norm2d")
    resolution, t_resolution = 129, 64
    starts_mb = resolution**2 * t_resolution * f.dim * 8 / 2**20
    peak_mb = _peak_mb(
        lambda: iar_check(f, [0.25, -0.5], f.default_region, resolution, t_resolution)
    )
    assert peak_mb - starts_mb < 4.0


def test_rays_kernel_evaluates_the_rays_in_row_blocks(counted):
    # one call on the probe grid, then 1,089 rays of 64 points in row blocks
    # of 512 rays; all rays in one call made this 2 calls
    f = get_function("norm2d")
    iar_check(f, [0.25, -0.5], f.default_region, resolution=33, t_resolution=64)
    assert counted == [1_089, 512 * 64, 512 * 64, 65 * 64]
    assert sum(counted) == 70_785
