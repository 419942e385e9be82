"""Membership through the suites' kernels, graph sampling, the enlargement
filter, and the subderivative/enlargement inequality, plus the
calculus-level invariants: the inclusion chain, the tilt rule, and the
separation smoke test.

Convex membership x* in df(x) is read through thm3's rays route at
(x, x*): for convex f it holds exactly when f - x* increases along the rays
from x, and for any f the route's residual bounds the global support
inequality's violation from above (its t = 1 entries are that violation).
Generalized membership is read off the numeric route's support table
f°(x; d) over its sphere directions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpolar import (
    FunctionOracle,
    GraphSample,
    Region,
    epsilon_enlargement,
    lower_dini,
    polar_membership_via_iar,
    sample_subdiff_graph,
)
from varpolar import subdifferential
from varpolar.core import DEFAULT_TOL, interval_rows
from varpolar.library import get_function, test_library as library_oracles
from varpolar.subderivative import DEFAULT_SCHEME, clarke_directional_values
from varpolar.subdifferential import EPS_LADDER, cdd_profile, sphere_directions


# -- convex membership: thm3's rays route at (x, x*) ---------------------------

def test_abs_contains_interior_subgradient():
    v = polar_membership_via_iar(get_function("abs"), 0.0, 0.5, Region.full(1))
    assert v.ok and v.residual <= 1e-6


def test_abs_rejects_steep_covector():
    # brute maximization of 2y - |y| over the probe grid peaks at the box
    # edge, where the ray from y reaches x = 0 at t = 1
    f = get_function("abs")
    v = polar_membership_via_iar(f, 0.0, 2.0, Region.full(1))
    assert not v.ok
    grid = Region.full(1).sample(65)[:, 0]
    brute = max(2.0 * y - abs(y) for y in grid)
    assert v.residual == pytest.approx(brute)
    assert v.residual >= 1.0  # e.g. y = 1 already violates by 1


def test_square_gradient_is_member():
    assert polar_membership_via_iar(get_function("square"), 1.0, 2.0, Region.full(1)).ok


# -- generalized membership: the numeric route's support table -------------------

def _support(f, x):
    """The numeric route's sphere directions and its support table
    f°(x; d) over them at the one point x."""
    dirs = sphere_directions(f.dim, subdifferential._DIR_RESOLUTION)
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    return dirs, subdifferential._clarke_support(f, xb, dirs, DEFAULT_SCHEME)[0]


def _margin(table, xstar):
    """The largest margin <x*, d> - f°(x; d) over a ``_support`` table
    (-inf where f°(x; d) = +inf) and the first direction that attains it:
    x* lies in the numeric Clarke set at x when it is at most tol."""
    dirs, support = table
    margins = np.sum(dirs * np.asarray(xstar, dtype=float), axis=1) - support
    j = int(np.argmax(margins))
    return float(margins[j]), dirs[j]


def test_neg_abs_generalized_interval_at_kink():
    table = _support(get_function("neg_abs"), 0.0)
    assert _margin(table, 1.0)[0] <= DEFAULT_TOL
    residual, witness = _margin(table, 2.0)
    assert residual > DEFAULT_TOL
    assert witness[0] == 1.0  # violated along d = +1
    assert residual == pytest.approx(1.0, abs=1e-3)  # <2,1> - 1


def test_square_generalized_membership_smooth():
    assert _margin(_support(get_function("square"), 0.0), 0.0)[0] <= DEFAULT_TOL


def test_generalized_membership_2d():
    table = _support(get_function("norm2d"), [0.0, 0.0])
    assert _margin(table, [0.6, 0.6])[0] <= DEFAULT_TOL
    assert _margin(table, [1.2, 0.0])[0] > DEFAULT_TOL


# -- graph sampling ---------------------------------------------------------------

def test_exact_graph_of_abs_has_kink_fan():
    g = sample_subdiff_graph(get_function("abs"), Region.interval(-1, 1), 3, source="exact")
    pairs = {(p[0], c[0]) for p, c in g.pairs()}
    assert {(-1.0, -1.0), (1.0, 1.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0)} <= pairs


def test_exact_graph_of_square_is_gradient_graph():
    g = sample_subdiff_graph(get_function("square"), Region.interval(-1, 1), 3, source="exact")
    pairs = {(p[0], c[0]) for p, c in g.pairs()}
    assert pairs == {(-1.0, -2.0), (0.0, 0.0), (1.0, 2.0)}


def test_numeric_graph_of_neg_abs_matches_sign_flip():
    g = sample_subdiff_graph(
        get_function("neg_abs"), Region.interval(-1, 1), 3, source="clarke-numeric"
    )
    # the Clarke interval at 0 is [-1, 1], read off estimated support values:
    # its endpoints and the smooth slopes are +-1 up to the estimator's noise
    slopes = {p[0]: [] for p in g.points}
    for p, c in g.pairs():
        slopes[p[0]].append(c[0])
    assert sorted(slopes) == [-1.0, 0.0, 1.0]
    assert len(slopes[-1.0]) == 1 and abs(slopes[-1.0][0] - 1.0) <= 1e-9
    assert len(slopes[1.0]) == 1 and abs(slopes[1.0][0] + 1.0) <= 1e-9
    fan = sorted(slopes[0.0])
    assert len(fan) == 3
    assert abs(fan[0] + 1.0) <= 1e-9 and abs(fan[-1] - 1.0) <= 1e-9
    assert fan[1] == 0.5 * (fan[0] + fan[-1])


def test_exact_graph_requires_oracle():
    with pytest.raises(ValueError):
        sample_subdiff_graph(get_function("neg_abs"), Region.interval(-1, 1), 3, source="exact")


def test_unbounded_subdifferential_sets_truncation_flag():
    g = sample_subdiff_graph(
        get_function("ind_halfline"), Region.interval(-1, 1), 5, source="exact"
    )
    assert g.meta["truncated"] is True
    assert all(abs(c[0]) <= 10.0 for _, c in g.pairs())
    # the numeric route flags the normal cone of a half-space in every
    # dimension: f_up(0; d) = +inf for d pointing out of the domain
    for dim in (1, 2):
        half_space = FunctionOracle(
            name=f"ind_half_space_{dim}d",
            dim=dim,
            batch=lambda *x: np.where(x[0] >= 0, 0.0, math.inf),
        )
        region = Region.box([(-1.0, 1.0)] * dim)
        g = sample_subdiff_graph(half_space, region, 3, source="clarke-numeric")
        assert g.meta["truncated"] is True, dim


def _clarke_polytope_by_point(support, dirs, half_width):
    """Vertices (merged within DEFAULT_TOL, in subset order) and centroid of
    {x* : <x*, d_j> <= support[j]} cut by the box, one linear solve per
    dim-subset of the halfspaces; an infinite support value is the box's."""
    dim = dirs.shape[1]
    normals = np.vstack([dirs, np.eye(dim), -np.eye(dim)])
    support = np.minimum(support, half_width * np.abs(dirs).sum(axis=1))
    bounds = np.concatenate([support, np.full(2 * dim, half_width)])
    candidates = []
    for subset in itertools.combinations(range(len(normals)), dim):
        a = normals[list(subset)]
        if abs(np.linalg.det(a)) <= 1e-9:
            continue
        v = np.linalg.solve(a, bounds[list(subset)])
        if np.all(normals @ v <= bounds + DEFAULT_TOL):
            candidates.append(v)
    return _merged_by_point(candidates)


def _merged_by_point(rows):
    """The rows with each one within DEFAULT_TOL of an earlier row dropped,
    then their centroid when two or more remain."""
    kept = [
        v for k, v in enumerate(rows)
        if all(np.linalg.norm(v - w) > DEFAULT_TOL for w in rows[:k])
    ]
    return kept + ([np.mean(kept, axis=0)] if len(kept) > 1 else [])


def _gradient_hull_by_point(f, x, dirs, half_width):
    """The merged gradients at x + R u for u in {0} and ``dirs``, each axis
    difference divided by its realised step, or None where a value is not
    finite or a gradient leaves the box."""
    grads = []
    for u in np.vstack([np.zeros(len(x)), dirs]):
        y = x + subdifferential._HULL_RADIUS * u
        g = []
        for k in range(len(x)):
            hi, lo = y.copy(), y.copy()
            hi[k] += subdifferential._HULL_STEP
            lo[k] -= subdifferential._HULL_STEP
            f_hi, f_lo = f.values(np.array([hi, lo]))
            if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
                return None
            g.append((f_hi - f_lo) / (hi[k] - lo[k]))
        if max(abs(c) for c in g) > half_width:
            return None
        grads.append(np.array(g))
    return _merged_by_point(grads)


def test_numeric_graph_2d_matches_per_point_loop():
    # -||x|| on the half-plane x1 >= -0.5: the gradient hull at the interior
    # points and the support-table polytope on the domain's edge
    f = FunctionOracle(
        name="neg_norm2d_half",
        dim=2,
        batch=lambda x1, x2: np.where(x1 >= -0.5, -np.sqrt(x1 * x1 + x2 * x2), math.inf),
    )
    region = Region.box([(-1.0, 1.0), (-1.0, 1.0)])
    g = sample_subdiff_graph(f, region, 9, source="clarke-numeric")
    # Reference: per point, the gradient hull built on its own where it is
    # usable, and otherwise one generalized-derivative call per direction
    # and the polytope built on its own.
    dirs = sphere_directions(2, 16)
    assert len(g) > 0 and g.meta["truncated"] is True
    routes = []
    for x in region.sample(9):
        if not math.isfinite(f.value(x)):
            assert not np.any(np.all(g.points == x, axis=1))
            continue
        ref = _gradient_hull_by_point(f, x, dirs, 10.0)
        routes.append(ref is not None)
        if ref is None:
            ups = np.array([clarke_directional_values(f, x[None, :], d)[0][0] for d in dirs])
            ref = _clarke_polytope_by_point(ups, dirs, 10.0)
        got = g.covectors[np.all(g.points == x, axis=1)]
        assert len(ref) == len(got) >= 1
        gap = np.linalg.norm(got[:, None, :] - np.asarray(ref)[None, :, :], axis=2)
        assert gap.min(axis=0).max() <= 1e-9 and gap.min(axis=1).max() <= 1e-9
    # 54 interior points and the 9 on the edge x1 = -0.5
    assert (routes.count(True), routes.count(False)) == (54, 9)


def test_exact_graph_uses_the_batched_side_oracle():
    # one call of the side-oracle for the whole grid, whose rows become the
    # graph's pairs (distinct pairs, in row order)
    for f in library_oracles():
        if f.exact_subdifferential is None:
            continue
        calls = []

        def spy(points, half_width, f=f):
            calls.append(len(points))
            return f.exact_subdifferential(points, half_width)

        res = 17 if f.dim == 1 else 9
        g = sample_subdiff_graph(
            dataclasses.replace(f, exact_subdifferential=spy), f.default_region, res
        )
        pts = f.default_region.sample(res)
        pts = pts[np.isfinite(f.values(pts))]
        assert calls == [len(pts)], f.name
        owner, covectors, truncated = f.subdifferential_representatives(pts)
        want = GraphSample(pts[owner], covectors)
        assert g.points.tobytes() == want.points.tobytes(), f.name
        assert g.covectors.tobytes() == want.covectors.tobytes(), f.name
        assert g.meta["truncated"] == bool(truncated.any()), f.name


# -- enlargement -------------------------------------------------------------------

def _abs_exact_graph(resolution=9):
    return sample_subdiff_graph(
        get_function("abs"), Region.interval(-1, 1), resolution, source="exact"
    )


def test_enlargement_keeps_documented_pairs():
    f = get_function("abs")
    g = _abs_exact_graph()
    kept = epsilon_enlargement(g, f, 0.0, 0.5)
    pairs = {(p[0], c[0]) for p, c in kept.pairs()}
    assert (0.25, 1.0) in pairs
    assert (1.0, 1.0) not in pairs
    assert all(abs(p[0]) <= 0.5 for p, _ in kept.pairs())
    assert all(c[0] * p[0] <= 0.5 for p, c in kept.pairs())


def test_enlargement_is_subset():
    f = get_function("abs")
    g = _abs_exact_graph()
    kept = epsilon_enlargement(g, f, 0.0, 0.3)
    all_pairs = {(p[0], c[0]) for p, c in g.pairs()}
    assert {(p[0], c[0]) for p, c in kept.pairs()} <= all_pairs


def test_enlargement_tiny_epsilon_pins_the_point():
    f = get_function("square")
    g = sample_subdiff_graph(f, Region.interval(-1, 1), 513, source="exact")
    kept = epsilon_enlargement(g, f, 0.0, 1e-9)
    assert len(kept) >= 1
    assert all(abs(p[0]) <= 1e-9 for p, _ in kept.pairs())
    assert all(abs(c[0]) <= 2e-9 for _, c in kept.pairs())
    with pytest.raises(ValueError, match="epsilon must be positive"):
        epsilon_enlargement(g, f, 0.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    e1=st.floats(min_value=1e-4, max_value=1.0),
    e2=st.floats(min_value=1e-4, max_value=1.0),
)
def test_enlargement_monotone_in_epsilon(e1, e2):
    lo, hi = sorted((e1, e2))
    f = get_function("abs")
    g = _abs_exact_graph()
    small = epsilon_enlargement(g, f, 0.0, lo)
    large = epsilon_enlargement(g, f, 0.0, hi)
    small_pairs = {(p[0], c[0]) for p, c in small.pairs()}
    large_pairs = {(p[0], c[0]) for p, c in large.pairs()}
    assert small_pairs <= large_pairs


def test_pair_at_the_base_point_survives_every_epsilon():
    f = get_function("abs")
    g = _abs_exact_graph()
    for eps in (1.0, 1e-3, 1e-9):
        kept = epsilon_enlargement(g, f, 0.0, eps)
        assert any(p[0] == 0.0 for p, _ in kept.pairs())


# -- subderivative / enlargement inequality -------------------------------------

def test_cdd_smooth_case():
    v = cdd_profile(get_function("square"), 0.0, [1.0])[0]
    assert v.ok
    assert v.details["lhs"] == pytest.approx(0.0, abs=1e-4)
    assert v.details["rhs"] == pytest.approx(0.0, abs=1e-2)


def test_cdd_kink_keeps_the_surviving_pair():
    v = cdd_profile(get_function("abs"), 0.0, [1.0])[0]
    assert v.ok
    assert v.details["lhs"] == pytest.approx(1.0, abs=1e-6)
    assert v.details["rhs"] == pytest.approx(1.0, abs=1e-6)


def test_cdd_unbounded_subdifferential_passes_under_truncation():
    v = cdd_profile(get_function("ind_origin"), 0.0, [1.0])[0]
    assert v.ok
    assert "covector_truncated" in v.flags
    assert v.details["lhs"] == math.inf
    assert v.details["rhs"] == pytest.approx(10.0)  # the truncated grid maximum


def _ramp_side_oracle(points, half_width):
    x = points[:, 0]
    lo = np.where(x > 0, 10.0, np.where(x == 0, -math.inf, math.nan))
    return interval_rows(lo, np.where(x >= 0, 10.0, math.nan), half_width)


#: f(x) = 10x on [0, inf), +inf elsewhere: the only unbounded set is the
#: exact (-inf, 10] at 0.
_RAMP = FunctionOracle(
    name="ramp",
    dim=1,
    batch=lambda x: np.where(x >= 0, 10.0 * x, math.inf),
    is_convex=True,
    exact_subdifferential=_ramp_side_oracle,
    default_region=Region.interval(0.0, 2.0),
)


def test_cdd_truncation_flag_comes_from_points_that_can_enter_the_supremum():
    # The local grids of xbar = 0.25, 0.5, 0.75 and 1.0 reach the point 0,
    # whose set the box cuts, but 0 fails |f(0) - f(xbar)| <= eps at every
    # level that reaches it (f(xbar) >= 2.5 > eps), so its rows never enter
    # the supremum. Sampling every grid point's rows flagged those four as
    # well; lhs, rhs and ok were the same.
    xbars = _RAMP.default_region.sample(9)
    flagged = []
    for xb in xbars:
        verdicts = cdd_profile(_RAMP, xb, [[1.0], [-1.0]])
        assert all(v.ok for v in verdicts)
        rhs = [v.details["rhs"] for v in verdicts]
        assert rhs == ([10.0, 10.0] if xb[0] == 0 else [10.0, -10.0])
        if "covector_truncated" in verdicts[0].flags:
            flagged.append(float(xb[0]))
    assert flagged == [0.0]


def test_cdd_flags_an_empty_enlargement():
    # a side-oracle with no rows leaves every epsilon's enlargement empty:
    # the verdict fails at the first rung of the ladder, whatever the lhs
    f = dataclasses.replace(
        get_function("abs"),
        name="abs_no_rows",
        exact_subdifferential=lambda points, half_width: interval_rows(
            np.full(len(points), math.nan), np.full(len(points), math.nan), half_width
        ),
    )
    verdicts = cdd_profile(f, 0.0, [[1.0], [-1.0]])
    assert [(v.ok, v.residual, v.witness, v.flags) for v in verdicts] == [
        (False, math.inf, 1.0, ("empty_enlargement",))
    ] * 2
    assert [v.details["rhs"] for v in verdicts] == [-math.inf] * 2


def test_cdd_passes_across_library_spot_checks():
    for fid in ("neg_abs", "twowell", "maxzero", "ind_halfline"):
        f = get_function(fid)
        for x in (0.0, 0.5):
            if not math.isfinite(f.value([x])):
                continue
            for d in (1.0, -1.0):
                assert cdd_profile(f, x, [d])[0].ok, (fid, x, d)


def _cdd_per_epsilon(f, xbar, dirs):
    """(lhs, rhs) of the inequality from one deduplicated graph and one
    enlargement per ladder step, and one lower_dini call per direction. A
    pairing <x*, d> is the coordinate sum in axis order, the package's one
    pairing, not a BLAS product, whose last bits depend on its split."""
    source = "exact" if f.exact_subdifferential is not None else "clarke-numeric"
    sups = np.full((len(EPS_LADDER), len(dirs)), -math.inf)
    for k, eps in enumerate(sorted(EPS_LADDER, reverse=True)):
        local = Region.box([(float(c - eps), float(c + eps)) for c in xbar])
        g = sample_subdiff_graph(f, local, 9, source=source)
        kept = epsilon_enlargement(g, f, xbar, eps)
        if len(kept) > 0:
            pairings = kept.covectors[:, None, 0] * dirs[:, 0]
            for i in range(1, f.dim):
                pairings = pairings + kept.covectors[:, None, i] * dirs[:, i]
            sups[k] = pairings.max(axis=0)
    lhs = [lower_dini(f, xbar, d).value for d in dirs]
    return lhs, sups.min(axis=0).tolist()


def test_cdd_profile_matches_per_epsilon_graphs():
    for f in library_oracles():
        eye = np.eye(f.dim)
        dirs = np.vstack([eye, -eye, np.full((1, f.dim), 0.6)])
        xbars = f.default_region.sample(5 if f.dim == 1 else 3)
        for xbar in xbars[np.isfinite(f.values(xbars))]:
            verdicts = cdd_profile(f, xbar, dirs)
            lhs, rhs = _cdd_per_epsilon(f, xbar, dirs)
            assert [v.details["lhs"] for v in verdicts] == lhs, (f.name, xbar)
            assert [v.details["rhs"] for v in verdicts] == rhs, (f.name, xbar)


def test_cell_suprema_match_the_scatter_bit_for_bit():
    # a block of 2 bases x 11 epsilon levels in 2-D (4 directions), with
    # rows of +0.0 and -0.0 pairings in both orders within a cell, cells
    # without rows, and -inf pairings
    rng = np.random.default_rng(11)
    levels, n = len(EPS_LADDER), 2 * len(EPS_LADDER)
    cells = np.sort(rng.integers(0, n, size=120))
    cells = cells[(cells != 3) & (cells != n - 1)]
    values = rng.choice([0.0, -0.0, -1.0, 0.25, -math.inf], size=(cells.size, 4))
    values[:2] = [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]]
    cells[:2] = cells[0]
    reference = np.full((n, 4), -math.inf)
    np.maximum.at(reference, cells, values)
    sups = subdifferential._cell_suprema(cells, values, n)
    assert sups.tobytes() == reference.tobytes()
    rhs = sups.reshape(2, levels, -1).min(axis=1)
    assert rhs.tobytes() == reference.reshape(2, levels, -1).min(axis=1).tobytes()
    assert np.signbit(sups[sups == 0.0]).any() and not np.signbit(sups[sups == 0.0]).all()


#: Oracle calls and points of one cdd_profile call: the base point, then
#: the grids.
#: The numeric route (neg_abs) takes the gradient hull at each of the 49
#: bit-distinct points among the 99 finite grid points: the two sides of a
#: difference at x and at x +- R, 6 points each. With the support table of
#: generalized derivatives at every distinct grid point, neg_abs took 25
#: calls over 68,819 points; with the hull at every grid point, repeats
#: included, 5 calls over 716 points. The lhs took f at the base point
#: again, once per direction (4 points in 2-D, 2 in 1-D): 936, 122 and 416
#: points; it now takes the value the pass has already evaluated.
CDD_PROFILE_COUNTS = {"norm2d": (3, 932), "abs": (3, 120), "neg_abs": (4, 414)}


@pytest.mark.parametrize("name", list(CDD_PROFILE_COUNTS))
def test_cdd_profile_oracle_evaluation_count(monkeypatch, name):
    # One evaluation of the base point, one of the stacked epsilon grids,
    # one for the lhs tail points of all directions at once, and on the
    # numeric route (neg_abs) one for the gradient hulls of all distinct grid
    # points. The lhs made a second call, for f at the base point, until it
    # took f(xbar) from the first: (4, 4, 5) calls.
    # Counted at the one evaluator behind value, values and values_at.
    counted = []
    evaluate = FunctionOracle._evaluate

    def counting_evaluate(self, coords, shape):
        counted.append(math.prod(shape))
        return evaluate(self, coords, shape)

    monkeypatch.setattr(FunctionOracle, "_evaluate", counting_evaluate)
    f = get_function(name)
    eye = np.eye(f.dim)
    verdicts = cdd_profile(f, np.zeros(f.dim), np.vstack([eye, -eye]))
    assert all(v.ok for v in verdicts)
    assert (len(counted), sum(counted)) == CDD_PROFILE_COUNTS[name]


# -- inclusion chain and tilt rule -------------------------------------------------

def test_convex_membership_implies_generalized_membership():
    covectors = np.linspace(-2.0, 2.0, 9)
    for f in library_oracles():
        if f.dim != 1:
            continue
        for x in (0.0, 0.5, 1.0):
            if not math.isfinite(f.value([x])):
                continue
            table = _support(f, [x])
            for c in covectors:
                if polar_membership_via_iar(f, [x], [c], f.default_region).ok:
                    residual, _ = _margin(table, [c])
                    assert residual <= 1e-6 + 1e-6, (f.name, x, c, residual)


def test_tilt_rule_at_membership_level():
    # membership in the subdifferential of f - s at covector c - s must match
    # membership in the subdifferential of f at c
    for fid in ("abs", "square", "maxzero"):
        f = get_function(fid)
        for s in (-1.0, 0.5):
            g = f.shifted([s])
            for x in (0.0, 0.5):
                for c in (-1.5, 0.0, 0.5, 1.0, 2.0):
                    direct = polar_membership_via_iar(f, [x], [c], f.default_region)
                    tilted = polar_membership_via_iar(g, [x], [c - s], f.default_region)
                    assert direct.ok == tilted.ok, (fid, s, x, c)
                    assert direct.residual == pytest.approx(tilted.residual, abs=1e-9)


def test_tilt_rule_for_generalized_membership():
    f = get_function("neg_abs")
    table = _support(f, [0.0])
    for s in (-0.5, 1.0):
        shifted = _support(f.shifted([s]), [0.0])
        for c in (-1.0, 0.0, 1.0, 2.0):
            direct, _ = _margin(table, [c])
            tilted, _ = _margin(shifted, [c - s])
            assert (direct <= DEFAULT_TOL) == (tilted <= DEFAULT_TOL), (s, c)


# -- separation smoke test -----------------------------------------------------------

def _interior_grid_local_minima(h, region, resolution):
    """Interior grid points that remain local minima on a 100x refinement.

    Plain neighbor comparison misreports smooth minima that fall between grid
    points (two equal-valued neighbors of the true dip both look minimal);
    the refinement pass rejects those.
    """
    grid = region.sample(resolution)[:, 0]
    step = grid[1] - grid[0]
    vals = np.array([h(x) for x in grid])
    out = []
    for i in range(1, len(grid) - 1):
        if not (
            math.isfinite(vals[i])
            and vals[i] <= vals[i - 1] + 1e-12
            and vals[i] <= vals[i + 1] + 1e-12
        ):
            continue
        fine = np.array([h(x) for x in np.linspace(grid[i] - step, grid[i] + step, 201)])
        fine = fine[np.isfinite(fine)]
        if vals[i] <= fine.min() + 1e-12:
            out.append(grid[i])
    return out


def test_separation_principle_smoke():
    # for f + phi with a grid-verified interior local minimum at xbar there
    # must exist opposite subgradients from the two subdifferentials
    affine = [(0.5, 0.0), (-0.5, 0.0), (0.25, 1.0)]
    anchors = [0.0, 1.0]
    checked = 0
    for f in library_oracles():
        if f.dim != 1:
            continue
        smooth_phis = [("affine", a, b) for a, b in affine]
        norm_phis = [("dist", a, None) for a in anchors]
        for kind, a, b in smooth_phis + norm_phis:
            if kind == "affine":
                phi = lambda x, a=a, b=b: a * x + b
                phi_subdiff = lambda x, a=a: (a, a)
            else:
                phi = lambda x, a=a: abs(x - a)
                phi_subdiff = lambda x, a=a: (
                    (-1.0, 1.0) if x == a else (math.copysign(1.0, x - a),) * 2
                )
            total = lambda x, phi=phi: f.value([x]) + phi(x)
            for xbar in _interior_grid_local_minima(total, f.default_region, 17):
                lo, hi = phi_subdiff(xbar)
                table = _support(f, [xbar])
                found = False
                for s in np.linspace(lo, hi, 41):
                    if _margin(table, [-s])[0] <= DEFAULT_TOL:
                        found = True
                        break
                assert found, (f.name, kind, a, b, xbar)
                checked += 1
    assert checked >= 10
