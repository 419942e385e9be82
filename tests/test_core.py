"""Regions, oracle evaluation, graph samples, and covector set descriptions."""

import dataclasses
import math

import numpy as np
import pytest

from varpolar import (
    BallSet,
    DimensionMismatchError,
    GraphSample,
    IntervalSet,
    PolytopeSet,
    Region,
    iar_check,
)
from varpolar.library import get_function


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


def test_full_region_contains_everything_but_samples_its_box():
    r = Region.full(1, half_width=10.0)
    assert r.contains([123.0])
    pts = r.sample(5)[:, 0]
    assert pts.min() == -10.0 and pts.max() == 10.0


def test_interior_sampling_drops_boundary():
    r = Region.interval(-1.0, 1.0)
    pts = r.sample(5, interior=True)[:, 0]
    assert np.allclose(pts, [-0.5, 0.0, 0.5])


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
    # a NaN that passed through would read as +inf downstream: iar_check
    # would drop that probe point and pass over the 4 others
    f = dataclasses.replace(
        get_function("abs"), batch=lambda p: np.where(p[:, 0] == 0.5, bad, np.abs(p[:, 0]))
    )
    looped = dataclasses.replace(
        f, batch=None, fn=lambda x: bad if x[0] == 0.5 else abs(float(x[0]))
    )
    pts = np.array([[0.0], [0.5]])
    for oracle in (f, looped):
        with pytest.raises(ValueError, match="outside"):
            oracle.values(pts)
        with pytest.raises(ValueError, match="outside"):
            iar_check(oracle, [0.0], Region.interval(-1.0, 1.0), resolution=5)
    assert f.values(np.zeros((0, 1))).shape == (0,)


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


# -- covector set descriptions -------------------------------------------------

def test_interval_set_truncation_flags():
    reps, truncated = IntervalSet(-math.inf, 0.0).representatives(half_width=10.0)
    assert truncated
    assert np.allclose(reps[:, 0], [-10.0, -5.0, 0.0])
    reps2, truncated2 = IntervalSet(-1.0, 1.0).representatives(half_width=10.0)
    assert not truncated2
    assert np.allclose(reps2[:, 0], [-1.0, 0.0, 1.0])


def test_interval_set_representatives_outside_the_box_stay_members():
    reps, truncated = IntervalSet(12.0, 12.0).representatives(half_width=10.0)
    assert reps[:, 0].tolist() == [12.0] and not truncated
    reps, truncated = IntervalSet(-math.inf, -12.0).representatives(half_width=10.0)
    assert reps[:, 0].tolist() == [-12.0] and truncated
    reps, truncated = IntervalSet(-1.0, 1.0).representatives(half_width=10.0)
    assert reps[:, 0].tolist() == [-1.0, 0.0, 1.0] and not truncated


def test_interval_set_membership():
    s = IntervalSet(-1.0, 1.0)
    assert s.contains(np.array([0.3]))
    assert not s.contains(np.array([1.5]))


def test_polytope_segment_membership():
    seg = PolytopeSet(np.array([[2.0, -1.0], [2.0, 1.0]]))
    assert seg.contains(np.array([2.0, 0.25]))
    assert not seg.contains(np.array([2.1, 0.25]))
    reps, _ = seg.representatives()
    assert any(np.allclose(r, [2.0, 0.0]) for r in reps)


def test_polytope_triangle_membership_uses_hull():
    tri = PolytopeSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert tri.contains(np.array([0.25, 0.25]))
    assert not tri.contains(np.array([0.75, 0.75]))


def test_ball_set_membership_is_exact_on_the_sphere():
    ball = BallSet(np.zeros(2), 1.0)
    assert ball.contains(np.array([0.6, 0.8]))
    assert not ball.contains(np.array([0.8, 0.8]))
    reps, _ = ball.representatives()
    norms = np.linalg.norm(reps, axis=1)
    assert norms.max() <= 1.0 + 1e-12
