"""Regions, oracle evaluation, graph samples, and the graph rows of covector
sets (intervals, segments and balls)."""

import dataclasses
import math

import numpy as np
import pytest

from varpolar import (
    DimensionMismatchError,
    GraphSample,
    Region,
    cross_validate,
    interval_rows,
    mean_value_witness,
    polar_membership_via_iar,
    sample_subdiff_graph,
)
from varpolar.core import FunctionOracle, tensor_grid
from varpolar.library import get_function
from varpolar.minty import classify
from varpolar.subdifferential import cdd_profile


# -- regions ----------------------------------------------------------------

def test_box_grid_includes_extremes():
    r = Region.interval(0.0, 1.0)
    pts = r.sample(3)[:, 0]
    assert np.allclose(pts, [0.0, 0.5, 1.0])


def test_square_box_resolution_two_gives_corners():
    r = Region.box([(-1.0, 1.0), (-1.0, 1.0)])
    pts = r.sample(2)
    assert pts.shape == (4, 2)
    assert {tuple(p) for p in pts.tolist()} == {(-1, -1), (-1, 1), (1, -1), (1, 1)}


def test_sampling_cardinality_bound():
    r = Region.box([(-1.0, 1.0), (-1.0, 1.0)])
    assert r.sample(4).shape[0] <= 4**2


def test_resolution_below_two_rejected():
    with pytest.raises(ValueError):
        Region.interval(0, 1).sample(1)


def test_shrink_box():
    r = Region.interval(-2.0, 2.0).shrink(0.5)
    assert r.contains([1.5]) and not r.contains([1.75])


# -- tilted evaluation --------------------------------------------------------

def test_eval_shifted_zero_shift_is_identity():
    sq = get_function("square")
    assert sq.shifted([0.0]).value([3.0]) == 9.0


def test_eval_shifted_direct_arithmetic():
    sq = get_function("square")
    assert sq.shifted([2.0]).value([1.0]) == -1.0


def test_eval_shifted_preserves_infinity():
    ind = get_function("ind_origin")
    assert ind.shifted([5.0]).value([1.0]) == math.inf


def test_eval_shifted_dimension_mismatch():
    sq = get_function("square")
    with pytest.raises(DimensionMismatchError):
        sq.shifted([1.0, 2.0]).value([1.0])


def test_shifted_oracle_matches_pointwise():
    f = get_function("abs")
    g = f.shifted([0.5])
    for x in (-1.0, 0.0, 2.0):
        assert g.value([x]) == pytest.approx(abs(x) - 0.5 * x)
    # only the values are tilted
    assert g.exact_subderivative is None and g.exact_subdifferential is None


# -- values outside (-inf, +inf] ------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "minus-inf"])
def test_values_rejects_nan_and_minus_infinity_on_both_routes(bad):
    # a NaN that passed through would read as +inf downstream: the rays
    # kernel would drop that probe point and pass over the 4 others
    f = dataclasses.replace(
        get_function("abs"), batch=lambda x: np.where(x == 0.5, bad, np.abs(x))
    )
    looped = dataclasses.replace(
        f, batch=None, fn=lambda x: bad if x[0] == 0.5 else abs(float(x[0]))
    )
    pts = np.array([[0.0], [0.5]])
    for oracle in (f, looped):
        with pytest.raises(ValueError, match="outside"):
            oracle.values(pts)
        with pytest.raises(ValueError, match="outside"):
            oracle.values_at(pts)
        with pytest.raises(ValueError, match="outside"):
            polar_membership_via_iar(oracle, [0.0], [0.0], Region.interval(-1.0, 1.0), 5)
    assert f.values(np.zeros((0, 1))).shape == (0,)


def test_values_at_evaluates_broadcast_coordinates_on_both_routes():
    # (3, 1) and (1, 4) coordinate arrays: the 12 points of a tensor grid,
    # with the bits of values() on them, from batch and from fn alone
    f = get_function("norm2d")
    looped = dataclasses.replace(f, batch=None, fn=lambda x: math.sqrt(x[0] * x[0] + x[1] * x[1]))
    a1, a2 = np.array([-1.5, 0.0, 0.3]), np.array([-2.0, -0.1, 0.7, 1.9])
    want = f.values(tensor_grid([a1, a2])).reshape(3, 4)
    for oracle in (f, looped):
        got = oracle.values_at(a1[:, None], a2[None, :])
        assert got.shape == (3, 4) and np.array_equal(got, want)
    # a constant batch is broadcast to the coordinates' shape
    const = FunctionOracle("const", 2, batch=lambda x1, x2: 1.0)
    assert np.array_equal(const.values_at(a1[:, None], a2), np.ones((3, 4)))
    assert np.array_equal(const.values(np.zeros((5, 2))), np.ones(5))
    with pytest.raises(DimensionMismatchError):
        f.values_at(a1)


# -- graph samples ------------------------------------------------------------

def test_graph_sample_dedupes_pairs():
    g = GraphSample(np.array([[0.0], [0.0], [1.0]]), np.array([[1.0], [1.0], [2.0]]))
    assert len(g) == 2


def test_graph_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        GraphSample(np.array([[math.inf]]), np.array([[0.0]]))


def test_graph_sample_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        GraphSample(np.zeros((2, 1)), np.zeros((3, 1)))


def test_graph_sample_restrict_and_rows():
    g = GraphSample(np.array([[-2.0], [0.0], [2.0]]), np.array([[1.0], [0.0], [1.0]]))
    inner = g.restrict_points(Region.interval(-1.0, 1.0))
    assert len(inner) == 1
    assert g.csv_header() == ["x_1", "xstar_1"]
    assert g.to_rows()[0] == [-2.0, 1.0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_empty_graph_sample_keeps_its_dimension(dim):
    g = GraphSample.empty(dim)
    assert g.dim == dim and len(g) == 0
    assert g.points.shape == g.covectors.shape == (0, dim)
    assert g.csv_header() == [f"x_{i + 1}" for i in range(dim)] + [
        f"xstar_{i + 1}" for i in range(dim)
    ]
    # so does a filter that keeps no pair
    full = GraphSample(np.eye(2, dim), np.zeros((2, dim)))
    assert len(full) == 2 and full.filter(np.zeros(2, dtype=bool)).dim == dim


# -- graph rows of covector sets -----------------------------------------------

def _interval(lo, hi, half_width=10.0):
    """The rows and the flag of the one interval [lo, hi]."""
    owner, covectors, truncated = interval_rows(np.array([lo]), np.array([hi]), half_width)
    assert owner.tolist() == [0] * len(owner)
    return covectors, bool(truncated[0])


def test_interval_set_truncation_flags():
    reps, truncated = _interval(-math.inf, 0.0)
    assert truncated
    assert np.allclose(reps[:, 0], [-10.0, -5.0, 0.0])
    reps2, truncated2 = _interval(-1.0, 1.0)
    assert not truncated2
    assert np.allclose(reps2[:, 0], [-1.0, 0.0, 1.0])


def test_interval_set_representatives_outside_the_box_stay_members():
    reps, truncated = _interval(12.0, 12.0)
    assert reps[:, 0].tolist() == [12.0] and not truncated
    reps, truncated = _interval(-math.inf, -12.0)
    assert reps[:, 0].tolist() == [-12.0] and truncated
    reps, truncated = _interval(-1.0, 1.0)
    assert reps[:, 0].tolist() == [-1.0, 0.0, 1.0] and not truncated


def test_interval_rows_of_several_points():
    # an empty set (NaN) has no row and no flag; a singleton one row
    lo = np.array([0.0, math.nan, -math.inf, 2.0])
    hi = np.array([1.0, math.nan, math.inf, 2.0])
    owner, covectors, truncated = interval_rows(lo, hi, 4.0)
    assert owner.tolist() == [0, 0, 0, 2, 2, 2, 3]
    assert covectors[:, 0].tolist() == [0.0, 0.5, 1.0, -4.0, 0.0, 4.0, 2.0]
    assert truncated.tolist() == [False, False, True, False]


def test_polytope_segment_membership():
    # mixed2d on its kink line x2 = 0: the segment from (2 x1, -1) to
    # (2 x1, 1), represented by its vertices and its midpoint
    owner, reps, truncated = get_function("mixed2d").subdifferential_representatives(
        np.array([[1.0, 0.0]])
    )
    assert owner.tolist() == [0, 0, 0] and not truncated[0]
    assert reps.tolist() == [[2.0, -1.0], [2.0, 1.0], [2.0, 0.0]]


def test_a_polytope_outside_the_covector_box_is_flagged_not_cut():
    f, x = get_function("mixed2d"), np.array([[1.0, 0.0]])
    inside, flagged = f.subdifferential_representatives(x, 2.0), f.subdifferential_representatives(x, 1.5)
    assert inside[2].tolist() == [False] and flagged[2].tolist() == [True]
    assert np.array_equal(inside[1], flagged[1]) and inside[1].shape == (3, 2)


def test_ball_set_membership_is_exact_on_the_sphere():
    # norm2d's rows at the kink are members of the unit ball: its center
    # and a fan on the sphere; the box cuts them only in the flag
    f = get_function("norm2d")
    owner, reps, truncated = f.subdifferential_representatives(np.zeros((1, 2)))
    assert owner.tolist() == [0] * 17 and not truncated[0]
    norms = np.linalg.norm(reps, axis=1)
    assert norms.max() <= 1.0 + 1e-12
    assert norms[0] == 0.0 and np.allclose(norms[1:], 1.0)
    assert len({tuple(r) for r in reps.tolist()}) == 17
    _, cut, truncated = f.subdifferential_representatives(np.zeros((1, 2)), 0.5)
    assert np.array_equal(cut, reps) and truncated[0]


# -- tolerances, bands and covector boxes -----------------------------------

def _bound_calls():
    """(knob, call of one bound value) for every public function with a
    ``tol``, ``band`` or ``covector_half_width`` parameter."""
    f = get_function("abs")
    region = f.default_region
    return [
        ("tol", lambda v: cross_validate(f, resolution=9, tol=v)),
        ("band", lambda v: cross_validate(f, resolution=9, band=v)),
        ("band", lambda v: classify(True, 0.0, False, 1.0, v)),
        ("tol", lambda v: polar_membership_via_iar(f, [0.5], [1.0], region, tol=v)),
        ("tol", lambda v: cdd_profile(f, [0.5], [[1.0]], tol=v)),
        ("covector_half_width", lambda v: cdd_profile(f, [0.5], [[1.0]], covector_half_width=v)),
        ("covector_half_width", lambda v: sample_subdiff_graph(f, region, 9, covector_half_width=v)),
        ("tol", lambda v: mean_value_witness(f, [0.0], [1.0], 0.5, tol=v)),
    ]


def test_a_vacuous_bound_of_the_library_api_raises_before_any_work(monkeypatch):
    # SuiteParams rejected these values, but the library functions took
    # them: cross_validate(abs_flipped, band=inf) called the sign-flip
    # mutant's thm2 violation indeterminate (hard 1 -> 0) and with tol=inf
    # 63 agree; the rays route of neg_abs at (0.5, 0) passed with tol=inf; and
    # sample_subdiff_graph(abs, ..., covector_half_width=nan) returned 0
    # pairs, not flagged as truncated
    from test_negative_controls import FLIPPED

    assert cross_validate(FLIPPED).section("subdifferential_vs_iar")["hard"] == 1
    assert not polar_membership_via_iar(get_function("neg_abs"), [0.5], [0.0],
                                        Region.interval(-2.0, 2.0)).ok

    def no_work(*args, **kwargs):
        raise AssertionError("f was evaluated")

    monkeypatch.setattr(FunctionOracle, "_evaluate", no_work)
    for knob, call in _bound_calls():
        for bad in (math.nan, math.inf, -math.inf, -1e-6):
            with pytest.raises(ValueError, match=f"^{knob} must be finite and nonnegative"):
                call(bad)
