"""Directional derivative estimators and the mean value witness search.

Derived expectations are frozen from the brute-force evaluator below, which
discretizes the sup/limsup/inf with plain exhaustive grids (uniform direction
ball, uniform small-step window) and shares no code with the estimator under
test.
"""

import math

import numpy as np
import pytest

from varpolar import (
    DomainError,
    LiminfScheme,
    SubderivEstimate,
    WitnessNotFoundError,
    lower_dini,
    mean_value_witness,
)
from varpolar.library import get_function, test_library as library_oracles
from varpolar.subderivative import (
    DEFAULT_SCHEME,
    _tail_quotients,
    clarke_directional_values,
    lower_dini_values,
)


def brute_generalized_derivative(f, xbar, d, delta=1e-3, nt=12, nx=13, nd=21):
    """Exhaustive 3-level grid evaluation of sup_delta limsup inf_d'.

    Uses one small delta (the sup over a decreasing ladder is attained at the
    smallest), a uniform window of small steps t, base points x in a ball of
    radius 10 t around xbar filtered by |f(x) - f(xbar)| <= 10 t, and a
    uniform grid on the interval [d - delta, d + delta]. 1-D only.
    """
    fx = f.value([xbar])
    dprimes = d + delta * np.linspace(-1.0, 1.0, nd)
    best = -math.inf
    for t in np.linspace(1e-6, 1e-5, nt):
        radius = 10.0 * t
        for u in np.linspace(-1.0, 1.0, nx):
            x = xbar + radius * u
            fv = f.value([x])
            if not math.isfinite(fv) or abs(fv - fx) > radius:
                continue
            quotient = min((f.value([x + t * dp]) - fv) / t for dp in dprimes)
            best = max(best, quotient)
    return best


# -- lower Dini subderivative --------------------------------------------------

def test_lower_dini_abs_at_kink():
    est = lower_dini(get_function("abs"), 0.0, 1.0)
    assert est.value == 1.0
    assert est.bracket[0] == est.value <= est.bracket[1]


def test_lower_dini_smooth_matches_classical_derivative():
    est = lower_dini(get_function("square"), 3.0, 1.0)
    assert est.value == pytest.approx(6.0, abs=1e-4)


def test_lower_dini_indicator_blocked_direction_is_infinite():
    est = lower_dini(get_function("ind_halfline"), 0.0, -1.0)
    assert est.value == math.inf


def test_lower_dini_neg_abs():
    assert lower_dini(get_function("neg_abs"), 0.0, 1.0).value == -1.0


def test_lower_dini_zero_direction_is_zero():
    assert lower_dini(get_function("square"), 1.0, 0.0).value == 0.0


def test_lower_dini_outside_domain_raises():
    with pytest.raises(DomainError):
        lower_dini(get_function("ind_halfline"), -1.0, 1.0)


def test_lower_dini_dimension_mismatch():
    from varpolar import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        lower_dini(get_function("norm2d"), [0.0, 0.0], [1.0])


@pytest.mark.parametrize("value, bracket", [
    (math.nan, (math.nan, math.nan)),
    (-math.inf, (-math.inf, -math.inf)),
    (0.0, (-math.inf, 1.0)),
    (0.0, (0.0, math.nan)),
], ids=["nan", "minus-inf", "low-minus-inf", "high-nan"])
def test_estimates_live_in_the_extended_reals(value, bracket):
    # values live in (-inf, +inf]; a -inf bracket passes the bracket check
    with pytest.raises(ValueError, match="NaN and -inf are rejected"):
        SubderivEstimate(value, bracket)
    assert SubderivEstimate(math.inf, (1.0, math.inf)).value == math.inf


def test_scheme_validation():
    with pytest.raises(ValueError):
        LiminfScheme(ratio=1.5)
    with pytest.raises(ValueError):
        LiminfScheme(t0=1e-3, ratio=0.1, steps=40)  # bottoms out below the step floor
    with pytest.raises(ValueError):
        LiminfScheme(tail_fraction=0.0)


# -- generalized directional derivative -----------------------------------------

def _generalized(f, x, d):
    """f°(x; d) at one base point x: the value of
    clarke_directional_values' one-row batch."""
    return float(clarke_directional_values(f, np.atleast_2d(np.asarray(x, dtype=float)), d)[0][0])


def test_generalized_smooth_case_near_zero():
    est = _generalized(get_function("square"), 0.0, 1.0)
    assert abs(est) <= 1e-3


def test_generalized_abs_matches_brute_force():
    # convex kink: generalized derivative equals the subderivative
    expected = 1.0  # frozen from brute_generalized_derivative(abs, 0, 1)
    brute = brute_generalized_derivative(get_function("abs"), 0.0, 1.0)
    assert brute == pytest.approx(expected, abs=1e-3)
    est = _generalized(get_function("abs"), 0.0, 1.0)
    assert est == pytest.approx(expected, abs=1e-3)


def test_generalized_neg_abs_sees_the_upper_slope():
    # approach from x < 0 carries quotient +1 through the limsup
    expected = 1.0  # frozen from brute_generalized_derivative(neg_abs, 0, 1)
    brute = brute_generalized_derivative(get_function("neg_abs"), 0.0, 1.0)
    assert brute == pytest.approx(expected, abs=1e-3)
    est = _generalized(get_function("neg_abs"), 0.0, 1.0)
    assert est == pytest.approx(expected, abs=1e-3)


def test_generalized_concave_kink_of_twowell():
    expected = 1.0  # frozen from brute_generalized_derivative(twowell, 1.5, +-1)
    for d in (1.0, -1.0):
        brute = brute_generalized_derivative(get_function("twowell"), 1.5, d)
        assert brute == pytest.approx(expected, abs=1e-3)
        est = _generalized(get_function("twowell"), 1.5, d)
        assert est == pytest.approx(expected, abs=1e-3)


def test_generalized_indicator_blocked_direction():
    assert _generalized(get_function("ind_halfline"), 0.0, -1.0) == math.inf
    assert abs(_generalized(get_function("ind_halfline"), 0.0, 1.0)) <= 1e-6


# -- properties over the library -------------------------------------------------

def _finite_grid_points(f, resolution):
    pts = f.default_region.sample(resolution)
    return pts[np.isfinite(f.values(pts))]


def test_positive_homogeneity_of_estimates():
    for f in library_oracles():
        pts = _finite_grid_points(f, 7 if f.dim == 1 else 5)
        dirs = np.vstack([np.eye(f.dim), -np.eye(f.dim)])
        for x in pts:
            for d in dirs:
                base = lower_dini(f, x, d).value
                for tau in (0.5, 2.0):
                    scaled = lower_dini(f, x, tau * d).value
                    if math.isinf(base):
                        assert math.isinf(scaled)
                    else:
                        assert abs(scaled - tau * base) <= 1e-8 * (1.0 + abs(scaled)), (
                            f.name, x, d, tau,
                        )


def test_estimates_dominated_by_generalized_derivative():
    for f in library_oracles():
        pts = _finite_grid_points(f, 7 if f.dim == 1 else 4)
        dirs = np.vstack([np.eye(f.dim), -np.eye(f.dim)])
        for x in pts:
            for d in dirs:
                lo = lower_dini(f, x, d).value
                hi = _generalized(f, x, d)
                assert lo <= hi + 1e-6, (f.name, x, d, lo, hi)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fid", ["abs", "twowell", "mixed2d"])
def test_generalized_derivative_is_positively_homogeneous(fid):
    # f°(x; .) is positively homogeneous. The quotient carried |d| twice:
    # f°(0; 2) on abs read 4.000000000000002 and f°(0; 0.5)
    # 0.25, below lower_dini's 2 and 0.5, and |d| = 1e200 overflowed to +inf
    f = get_function(fid)
    tol = 1e-6
    for x in _finite_grid_points(f, 5):
        for u in np.vstack([np.eye(f.dim), -np.eye(f.dim)]):
            base = _generalized(f, x, u)
            for s in (0.5, 2.0, 1e200):
                est = _generalized(f, x, s * u)
                assert est == s * base, (fid, x, u, s)
                assert est >= lower_dini(f, x, s * u).value - s * tol, (fid, x, u, s)


@pytest.mark.parametrize(("fid", "x"), [("square", 1.0), ("abs", 0.5), ("twowell", 1.0)])
def test_generalized_derivative_is_zero_along_the_zero_direction(fid, x):
    # f°(x; 0) = 0 by positive homogeneity; the ball around d = 0 read
    # -2.2e-09, 5.0e-10 and 5.7e-10 here
    f = get_function(fid)
    est = _generalized(f, [x], [0.0])
    assert est == 0.0 and not math.copysign(1.0, est) < 0
    values, per_delta = clarke_directional_values(f, np.array([[x], [0.0]]), [0.0])
    assert values.tolist() == [0.0, 0.0] and per_delta.tolist() == [[0.0] * 4] * 2
    assert not np.any(np.signbit(values)) and not np.any(np.signbit(per_delta))
    # a nonzero direction whose squares underflow still has its length
    assert _generalized(f, [x], [1e-200]) == pytest.approx(
        1e-200 * _generalized(f, [x], [1.0]), rel=1e-12
    )


@pytest.mark.parametrize("e", [1e-302, 1e-316, 1e-320])
def test_tiny_directions_keep_their_digits(e):
    # the product (f - f0)|d| went subnormal before the division by t, so
    # these read 0.99999999999999, 0.93 and 0.0 times e
    f = get_function("abs")
    origin = np.zeros((2, 1))
    got = lower_dini_values(f, origin, [[e], [1.0]])
    assert got[0] / e == pytest.approx(1.0, rel=2**-50, abs=0.0)
    assert lower_dini(f, [0.0], [e]).value == got[0]
    # the ordinary row keeps the bits of the product-first quotient
    want = _reference_tail_quotients(f, origin[:1], np.ones((1, 1)), DEFAULT_SCHEME, np.zeros(1))
    assert _same_bits(got[1:], want.min(axis=1))


def test_estimates_agree_with_exact_oracle():
    checked = 0
    for f in library_oracles():
        pts = _finite_grid_points(f, 11 if f.dim == 1 else 5)
        dirs = np.vstack(
            [np.eye(f.dim), -np.eye(f.dim), 2.5 * np.eye(f.dim),
             np.ones((1, f.dim)), -0.5 * np.ones((1, f.dim))]
        )
        xs, ds = np.repeat(pts, len(dirs), axis=0), np.tile(dirs, (len(pts), 1))
        for x, d, exact in zip(xs, ds, f.exact_subderivative(xs, ds)):
            est = lower_dini(f, x, d).value
            if math.isinf(exact):
                assert math.isinf(est), (f.name, x, d)
            else:
                assert est == pytest.approx(exact, abs=1e-4), (f.name, x, d)
            checked += 1
    assert checked >= 500


def test_batch_estimates_match_single_calls():
    f = get_function("twowell")
    pts = _finite_grid_points(f, 9)
    ds = np.ones_like(pts)
    batch = lower_dini_values(f, pts, ds)
    singles = [lower_dini(f, x, [1.0]).value for x in pts]
    assert np.allclose(batch, singles)


def _reference_tail_quotients(f, xb, dd, scheme, f0):
    """The tail quotients with |d| from ``np.linalg.norm`` and the tail
    points broadcast over all coordinates at once."""
    ts = scheme.tail_grid()
    norms = np.linalg.norm(dd, axis=1)
    units = dd / np.where(norms > 0.0, norms, 1.0)[:, None]
    pts = xb[:, None, :] + ts[None, :, None] * units[:, None, :]
    vals = f.values(pts.reshape(-1, xb.shape[1])).reshape(xb.shape[0], ts.shape[0])
    with np.errstate(invalid="ignore"):
        quot = (vals - f0[:, None]) * norms[:, None] / ts[None, :]
    return np.where(norms[:, None] > 0.0, quot, 0.0)


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_tail_points_coordinate_by_coordinate_match_the_broadcast():
    for f in library_oracles():
        pts = _finite_grid_points(f, 9 if f.dim == 1 else 5)
        dirs = np.vstack([np.eye(f.dim), -0.3 * np.eye(f.dim), np.zeros((1, f.dim)),
                          -np.zeros((1, f.dim)), np.full((1, f.dim), 1.7), pts[:1] - pts[-1:]])
        xb = np.repeat(pts, len(dirs), axis=0)
        dd = np.tile(dirs, (len(pts), 1))
        f0 = f.values(xb)
        got = _tail_quotients(f, xb, dd, DEFAULT_SCHEME, f0)
        want = _reference_tail_quotients(f, xb, dd, DEFAULT_SCHEME, f0)
        assert _same_bits(got, want), f.name


@pytest.mark.parametrize(("fid", "d", "norm"), [
    ("abs", [1e-300], 1e-300),
    ("abs", [-1e-300], 1e-300),
    ("abs", [1e200], 1e200),
    ("norm2d", [3e-300, -4e-300], 5e-300),
    ("norm2d", [3e200, 4e200], 5e200),
], ids=["tiny", "tiny_negative", "huge", "tiny_2d", "huge_2d"])
def test_directions_whose_squares_leave_the_float_range_keep_their_length(fid, d, norm):
    # np.linalg.norm squares the coordinates: the tiny rows read |d| = 0 and
    # gave 0 as the zero direction, the huge rows |d| = inf and gave nan
    f = get_function(fid)
    origin = np.zeros((1, f.dim))
    ordinary = np.ones((1, f.dim))
    dd = np.vstack([d, ordinary])
    got = lower_dini_values(f, np.vstack([origin, origin]), dd)
    assert got[0] == pytest.approx(norm, rel=1e-12, abs=0.0)
    assert lower_dini(f, origin[0], d).value == got[0]
    # the other rows keep the bits of np.linalg.norm
    f0 = f.values(origin)
    want = _reference_tail_quotients(f, origin, ordinary, DEFAULT_SCHEME, f0).min(axis=1)
    assert _same_bits(got[1:], want)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_directions_are_the_callers_error(bad):
    f = get_function("abs")
    with pytest.raises(ValueError, match="direction ds"):
        lower_dini_values(f, [[0.0], [1.0]], [[1.0], [bad]])
    with pytest.raises(ValueError, match="direction d "):
        lower_dini(f, [0.0], [bad])
    with pytest.raises(ValueError, match="direction d "):
        clarke_directional_values(f, [[0.0]], [bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "estimator", [lower_dini_values, lower_dini, clarke_directional_values],
    ids=lambda e: e.__name__,
)
def test_directions_whose_length_overflows_are_rejected(estimator):
    # each coordinate is finite but |d| is not: the lower Dini rows read nan
    # and the generalized derivative +inf, each with an overflow warning
    d = [1.5e308, 1.5e308]
    xbar = [[0.0, 0.0]] if estimator.__name__.endswith("_values") else [0.0, 0.0]
    with pytest.raises(ValueError, match="length overflows"):
        estimator(get_function("norm2d"), xbar, [d] if estimator is lower_dini_values else d)


# -- mean value witness -----------------------------------------------------------

def test_witness_affine_case_everywhere():
    # f(x) = x is realized by tilting maxzero's flat side; use square's
    # gradient structure instead: any x0 with slope >= lambda qualifies
    f = get_function("abs")
    w = mean_value_witness(f, [-1.0], [1.0], 0.0)
    assert -1.0 <= w[0] < 1.0
    assert lower_dini(f, w, [2.0]).value >= -1e-6


def test_witness_for_square_threshold():
    # slope 4 x0 >= 4 requires x0 >= 1 on the segment [0, 2)
    w = mean_value_witness(get_function("square"), [0.0], [2.0], 4.0)
    assert 1.0 - 1e-6 <= w[0] < 2.0


def test_witness_respects_ray_sign_structure():
    # frozen by scanning the segment: on [-1, 0) the subderivative toward +1
    # is -2, so any witness for lambda=0 must sit in [0, 1)
    w = mean_value_witness(get_function("abs"), [-1.0], [1.0], 0.0)
    assert 0.0 <= w[0] < 1.0


def test_witness_with_infinite_gap_lands_on_domain_boundary():
    w = mean_value_witness(get_function("ind_origin"), [0.0], [1.0], 5.0)
    assert w[0] == 0.0
    w2 = mean_value_witness(get_function("ind_halfline"), [0.5], [-2.0], 7.0)
    assert abs(w2[0]) <= 1e-9


def test_witness_precondition_violations():
    sq = get_function("square")
    with pytest.raises(ValueError):
        mean_value_witness(sq, [1.0], [1.0], 0.0)  # empty segment
    with pytest.raises(ValueError):
        mean_value_witness(sq, [0.0], [1.0], 2.0)  # lambda above the gap
    with pytest.raises(DomainError):
        mean_value_witness(get_function("ind_origin"), [1.0], [0.0], 0.0)


def test_witness_search_diagnoses_non_lsc_oracles():
    # f = 0 on [0, 1) with an upward jump at 1 is not lsc there; the witness
    # guaranteed for lsc functions does not exist and the search must say so,
    # carrying its best candidate
    from varpolar import FunctionOracle, Region

    jump = FunctionOracle(
        name="usc-jump",
        dim=1,
        fn=lambda x: 1.0 if x[0] >= 1.0 else 0.0,
        default_region=Region.interval(0.0, 1.0),
        finite_point=np.array([0.0]),
    )
    with pytest.raises(WitnessNotFoundError) as exc:
        mean_value_witness(jump, [0.0], [1.0], 1.0)
    assert exc.value.best_value <= 1e-6
    assert 0.0 <= exc.value.best_point[0] < 1.0


def test_witness_found_for_all_qualifying_grid_triples():
    found = 0
    for f in library_oracles():
        if f.dim != 1:
            continue
        grid = f.default_region.sample(9)[:, 0]
        for x in grid:
            fx = f.value([x])
            if not math.isfinite(fx):
                continue
            for xb in grid:
                if xb == x:
                    continue
                gap = f.value([xb]) - fx
                lams = []
                if math.isfinite(gap):
                    lams.append(gap)
                    if gap >= 0:
                        lams.append(gap / 2.0)
                for lam in lams:
                    w = mean_value_witness(f, [x], [xb], lam)
                    assert lower_dini(f, w, [xb - x]).value >= lam - 1e-5
                    found += 1
    assert found >= 100
