"""Curated library content and its stated invariants: positive homogeneity of
the exact subderivatives, midpoint convexity of the convex entries, and
consistency of the side-oracles with plain evaluation."""

import dataclasses
import math

import numpy as np
import pytest

from varpolar import IntervalSet, Region
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
    desc = get_function("abs").exact_subdifferential(np.array([0.0]))
    assert isinstance(desc, IntervalSet)
    assert (desc.lo, desc.hi) == (-1.0, 1.0)


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
        assert f.exact_subderivative is not None, f.name
        if f.is_convex:
            assert f.exact_subdifferential is not None, f.name


def test_batch_matches_scalar_evaluation():
    # fn takes batch's IEEE operations: the same bits, sign of zero included
    # (the negated grid holds -0.0), on the grid and on random points
    rng = np.random.default_rng(5)
    for f in library_oracles():
        grid = f.default_region.sample(9)
        pts = np.vstack([grid, -grid, rng.uniform(-3.0, 3.0, size=(2_000, f.dim))])
        batch = f.values(pts)
        scalar = np.array([f.fn(p) for p in pts])
        assert batch.tobytes() == scalar.tobytes(), f.name


@pytest.mark.parametrize("tau", [0.5, 2.0, 10.0])
def test_exact_subderivative_positively_homogeneous(tau):
    for f in library_oracles():
        pts = f.default_region.sample(5)
        dirs = np.vstack([np.eye(f.dim), -np.eye(f.dim), np.ones((1, f.dim))])
        for x in pts:
            if not math.isfinite(f.value(x)):
                continue
            for d in dirs:
                base = f.exact_subderivative(x, d)
                scaled = f.exact_subderivative(x, tau * d)
                if math.isinf(base):
                    assert math.isinf(scaled), (f.name, x, d)
                else:
                    assert scaled == pytest.approx(tau * base, rel=1e-12, abs=1e-12), (
                        f.name, x, d,
                    )


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
    # every represented covector must satisfy the local support inequality
    # against nearby grid values
    for f in library_oracles():
        if f.exact_subdifferential is None or not f.is_convex:
            continue
        pts = f.default_region.sample(9 if f.dim == 1 else 5)
        vals = f.values(pts)
        finite = np.isfinite(vals)
        for x, fx in zip(pts[finite], vals[finite]):
            desc = f.exact_subdifferential(x)
            if desc is None:
                continue
            reps, _ = desc.representatives()
            for c in reps:
                margins = (pts[finite] - x) @ c + fx - vals[finite]
                assert margins.max() <= 1e-9, (f.name, x, c)


def test_exact_subderivative_matches_difference_quotients_spot_check():
    for f in library_oracles():
        x = f.finite_point
        for d in np.vstack([np.eye(f.dim), -np.eye(f.dim)]):
            exact = f.exact_subderivative(x, d)
            t = 1e-7
            quotient = (f.value(x + t * d) - f.value(x)) / t
            if math.isinf(exact):
                assert math.isinf(quotient)
            else:
                assert quotient == pytest.approx(exact, abs=1e-5), (f.name, d)


def _assert_batched_matches_per_point(f, points, half_width):
    owner, covectors, truncated = f.subdifferential_representatives(points, half_width)
    assert covectors.shape == (len(owner), f.dim) and truncated.shape == (len(points),)
    assert np.all(np.diff(owner) >= 0)
    for i, x in enumerate(points):
        desc = f.exact_subdifferential(x)
        if desc is None:
            assert not np.any(owner == i) and not truncated[i], (f.name, x)
            continue
        want, want_truncated = desc.representatives(half_width)
        got = covectors[owner == i]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (f.name, x)
        assert bool(truncated[i]) == want_truncated, (f.name, x)


@pytest.mark.parametrize("half_width", [10.0, 0.5, 2.0])
def test_batched_side_oracle_matches_per_point_representatives(half_width):
    # Default grids, the cdd local grids of the epsilon ladder around the
    # kink at the origin, random points whose coordinates are not dyadic (so
    # that rounding differences show), and a copy without the batched form
    # that takes the generic per-point route; half_width 0.5 clips most
    # covector sets, and 2.0 flags mixed2d's sets only where |2 x1| > 2.
    rng = np.random.default_rng(0)
    for f in library_oracles():
        if f.exact_subdifferential is None:
            continue
        assert f.exact_subdifferential_batch is not None, f.name
        grids = [f.default_region.sample(65 if f.dim == 1 else 17)]
        grids += [Region.box([(-eps, eps)] * f.dim).sample(9) for eps in EPS_LADDER]
        grids.append(rng.uniform(-2.0, 2.0, size=(500, f.dim)))
        for pts in grids:
            _assert_batched_matches_per_point(f, pts, half_width)
        looped = dataclasses.replace(f, exact_subdifferential_batch=None)
        for pts in grids[:2]:
            _assert_batched_matches_per_point(looped, pts, half_width)


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
