"""Curated library content and its stated invariants: positive homogeneity of
the exact subderivatives, midpoint convexity of the convex entries, and
consistency of the side-oracles with plain evaluation: the subgradient
inequality on the graph rows, difference quotients for the subderivatives,
and hand-checked points."""

import math

import numpy as np
import pytest

from varpolar import Region
from varpolar.library import FUNCTION_IDS, get_function, test_library as library_oracles
from varpolar.subdifferential import EPS_LADDER
from varpolar.suites import SuiteParams


REQUIRED_IDS = {
    "abs", "square", "neg_abs", "ind_halfline", "ind_origin",
    "maxzero", "twowell", "norm2d", "mixed2d",
}


def test_library_ids_cover_required_set():
    assert REQUIRED_IDS <= set(FUNCTION_IDS)
    assert [f.name for f in library_oracles()] == list(FUNCTION_IDS)


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        get_function("bogus")


def test_abs_subdifferential_at_zero_is_unit_interval():
    owner, covectors, truncated = get_function("abs").exact_subdifferential(
        np.array([[0.0]]), 10.0
    )
    assert owner.tolist() == [0, 0, 0] and truncated.tolist() == [False]
    assert covectors[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_neg_abs_flagged_nonconvex():
    f = get_function("neg_abs")
    assert f.is_convex is False
    assert f.exact_subdifferential is None
    assert f.exact_subderivative is not None


def test_indicator_values():
    ind = get_function("ind_halfline")
    assert ind.value([-1.0]) == math.inf
    assert ind.value([0.0]) == 0.0
    org = get_function("ind_origin")
    assert org.value([0.0]) == 0.0 and org.value([1e-9]) == math.inf


def test_twowell_has_two_wells():
    tw = get_function("twowell")
    assert tw.value([0.0]) == 0.0
    assert tw.value([2.0]) == 1.0
    assert tw.value([1.5]) == 1.5  # the barrier between the wells


def test_every_entry_has_exact_subderivative_and_convex_entries_have_subdifferential():
    for f in library_oracles():
        # one vectorized form per oracle: batch evaluates, no scalar fn
        assert f.fn is None and f.batch is not None, f.name
        assert f.exact_subderivative is not None, f.name
        if f.is_convex:
            assert f.exact_subdifferential is not None, f.name


def _bases_and_directions(f, resolution=5):
    """Every finite point of f's default grid paired with the axis
    directions, their negatives and the all-ones direction, row by row."""
    pts = f.default_region.sample(resolution)
    pts = pts[np.isfinite(f.values(pts))]
    dirs = np.vstack([np.eye(f.dim), -np.eye(f.dim), np.ones((1, f.dim))])
    return np.repeat(pts, len(dirs), axis=0), np.tile(dirs, (len(pts), 1))


@pytest.mark.parametrize("tau", [0.5, 2.0, 10.0])
def test_exact_subderivative_positively_homogeneous(tau):
    for f in library_oracles():
        xs, ds = _bases_and_directions(f)
        base = f.exact_subderivative(xs, ds)
        scaled = f.exact_subderivative(xs, tau * ds)
        assert base.shape == scaled.shape == (len(xs),), f.name
        assert np.array_equal(np.isinf(base), np.isinf(scaled)), f.name
        finite = np.isfinite(base)
        assert np.allclose(scaled[finite], tau * base[finite], rtol=1e-12, atol=1e-12), f.name


def test_convex_entries_are_midpoint_convex_on_grid():
    for f in library_oracles():
        if not f.is_convex:
            continue
        pts = f.default_region.sample(9 if f.dim == 1 else 5)
        vals = f.values(pts)
        finite = np.isfinite(vals)
        pts, vals = pts[finite], vals[finite]
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                mid = f.value(0.5 * (pts[i] + pts[j]))
                assert mid <= 0.5 * (vals[i] + vals[j]) + 1e-12, (f.name, pts[i], pts[j])


def test_exact_subdifferential_consistent_with_eval_on_grid():
    # every graph row (x, x*) must satisfy the subgradient inequality
    # f(y) >= f(x) + <x*, y - x> against every finite grid value f(y)
    for f in library_oracles():
        if f.exact_subdifferential is None or not f.is_convex:
            continue
        pts = f.default_region.sample(9 if f.dim == 1 else 5)
        vals = f.values(pts)
        finite = np.isfinite(vals)
        ys, fy = pts[finite], vals[finite]
        owner, covectors, _ = f.subdifferential_representatives(ys)
        assert len(owner) >= len(ys), f.name  # no finite point of a convex f has an empty set
        margins = (ys[None, :, :] - ys[owner, None, :]) @ covectors[:, :, None]
        margins = margins[:, :, 0] + fy[owner, None] - fy[None, :]
        assert margins.max() <= 1e-9, f.name


def test_exact_subderivative_matches_difference_quotients_spot_check():
    # at every finite grid point and at the registered point, along the axes
    # and the diagonal: the one-sided quotient at t = 1e-7 (exact for these
    # piecewise linear or quadratic entries up to O(t))
    t = 1e-7
    for f in library_oracles():
        xs, ds = _bases_and_directions(f, 9 if f.dim == 1 else 5)
        xs, ds = np.vstack([xs, np.repeat(f.finite_point[None], len(ds), 0)]), np.vstack([ds, ds])
        exact = f.exact_subderivative(xs, ds)
        quotient = (f.values(xs + t * ds) - f.values(xs)) / t
        assert np.array_equal(np.isinf(exact), np.isinf(quotient)), f.name
        finite = np.isfinite(exact)
        assert np.allclose(quotient[finite], exact[finite], rtol=0.0, atol=1e-5), f.name


def test_exact_subderivative_at_hand_checked_points():
    # hand-checked values: the kinks, the indicators' edges and a smooth point
    cases = [
        ("abs", [0.0], [-2.0], 2.0),
        ("neg_abs", [0.0], [3.0], -3.0),
        ("square", [1.5], [-1.0], -3.0),
        ("ind_halfline", [0.0], [-1.0], math.inf),
        ("ind_halfline", [0.0], [1.0], 0.0),
        ("ind_origin", [0.0], [0.0], 0.0),
        ("ind_origin", [0.0], [1.0], math.inf),
        ("maxzero", [0.0], [-1.0], 0.0),
        ("twowell", [1.5], [1.0], -1.0),
        ("twowell", [1.5], [-1.0], -1.0),
        ("twowell", [2.0], [-0.5], 0.5),
        ("norm2d", [0.0, 0.0], [3.0, 4.0], 5.0),
        ("norm2d", [3.0, 4.0], [1.0, 0.0], 0.6),
        ("mixed2d", [1.0, 0.0], [1.0, -1.0], 3.0),
    ]
    for fid, x, d, want in cases:
        got = get_function(fid).exact_subderivative(np.array([x]), np.array([d]))
        assert got.shape == (1,) and got[0] == pytest.approx(want, abs=1e-15), (fid, x, d)


def test_exact_subdifferential_at_hand_checked_points():
    # (point, half-width) -> the covectors of its rows and its flag
    cases = [
        ("maxzero", [0.0], 10.0, [[0.0], [0.5], [1.0]], False),
        ("ind_halfline", [0.0], 10.0, [[-10.0], [-5.0], [0.0]], True),
        ("ind_halfline", [-1.0], 10.0, np.zeros((0, 1)), False),
        ("ind_origin", [0.0], 2.0, [[-2.0], [0.0], [2.0]], True),
        ("square", [1.5], 10.0, [[3.0]], False),
        ("square", [1.5], 2.0, [[3.0]], False),  # a singleton outside the box stays
        ("norm2d", [3.0, -4.0], 10.0, [[0.6, -0.8]], False),
        ("mixed2d", [-1.0, 2.0], 10.0, [[-2.0, 1.0]], False),
        ("mixed2d", [-1.0, 2.0], 1.5, [[-2.0, 1.0]], True),
    ]
    for fid, x, half_width, rows, flag in cases:
        owner, covectors, truncated = get_function(fid).subdifferential_representatives(
            np.array([x]), half_width
        )
        assert np.allclose(covectors, np.array(rows, dtype=float).reshape(-1, len(x))), (fid, x)
        assert owner.tolist() == [0] * len(covectors) and truncated.tolist() == [flag], (fid, x)


@pytest.mark.parametrize("half_width", [10.0, 0.5, 2.0])
def test_batched_side_oracle_matches_per_point_representatives(half_width):
    # Default grids, the cdd local grids of the epsilon ladder around the
    # kink at the origin, and random points whose coordinates are not dyadic:
    # a point's rows in a batch are its rows alone, one row per point off
    # the kinks, and every row satisfies the subgradient inequality against
    # the values at x +- 1e-3 e_k; half_width 0.5 clips most covector sets,
    # and 2.0 flags mixed2d's sets only where |2 x1| > 2.
    rng = np.random.default_rng(0)
    for f in library_oracles():
        if f.exact_subdifferential is None:
            continue
        steps = 1e-3 * np.vstack([np.eye(f.dim), -np.eye(f.dim)])
        grids = [f.default_region.sample(65 if f.dim == 1 else 17)]
        grids += [Region.box([(-eps, eps)] * f.dim).sample(9) for eps in EPS_LADDER]
        grids.append(rng.uniform(-2.0, 2.0, size=(500, f.dim)))
        for pts in grids:
            owner, covectors, truncated = f.subdifferential_representatives(pts, half_width)
            for i, x in enumerate(pts):
                alone = f.subdifferential_representatives(x[None, :], half_width)
                assert alone[1].tobytes() == covectors[owner == i].tobytes(), (f.name, x)
                assert alone[2].tolist() == [truncated[i]], (f.name, x)
            finite = np.isfinite(f.values(pts))
            assert np.array_equal(np.unique(owner), np.flatnonzero(finite)), f.name
            ys = pts[owner, None, :] + steps[None]
            fy = f.values(ys.reshape(-1, f.dim)).reshape(ys.shape[:2])
            pairing = (steps[None] @ covectors[:, :, None])[:, :, 0]
            gap = fy - f.values(pts)[owner, None] - pairing
            assert gap.size == 0 or gap.min() >= -1e-9, f.name


def test_norm2d_batch_matches_linalg_norm_bitwise():
    f = get_function("norm2d")
    region = f.default_region
    params = SuiteParams()
    grid = region.sample(params.grid_resolution(2))
    rng = np.random.default_rng(0)
    magnitudes = 10.0 ** rng.uniform(-150.0, 150.0, size=(10_000, 2))
    spread = magnitudes * rng.choice([-1.0, 1.0], size=(10_000, 2))
    for pts in (grid, spread):
        assert np.array_equal(f.values(pts), np.linalg.norm(pts, axis=1))
    # the equivalence ray points: probe grid toward each query-grid xbar
    ys = region.sample(params.probe_resolution(2))
    ts = np.linspace(0.0, 1.0, params.t_resolution)
    starts = ys[:, None, :] * (1.0 - ts)[None, :, None]
    for xbar in grid:
        pts = (starts + xbar[None, None, :] * ts[None, :, None]).reshape(-1, 2)
        assert np.array_equal(f.values(pts), np.linalg.norm(pts, axis=1))
