"""Variational-inequality residuals and the three-way cross-validation."""

import inspect

import numpy as np
import pytest

from varpolar import (
    Region,
    UnusableSampleError,
    cross_validate,
    iar_check,
    minty_subderivative,
    minty_subdifferential,
    sample_subdiff_graph,
)
from varpolar import subdifferential
from varpolar.library import get_function
from varpolar.subderivative import LiminfScheme


BOX = Region.interval(-2.0, 2.0)


# -- increase along rays ----------------------------------------------------------

def test_iar_square_at_minimizer():
    rep = iar_check(get_function("square"), 0.0, BOX)
    assert rep.ok and float(rep.residual) <= 0.0 + 1e-12


def test_iar_neg_abs_fails_with_documented_witness():
    rep = iar_check(get_function("neg_abs"), 0.0, BOX)
    assert not rep.ok
    assert float(rep.residual) == pytest.approx(2.0)  # f(0) - f(2) = 0 - (-2)
    y, t = rep.witness
    assert abs(y[0]) == pytest.approx(2.0) and t == 1.0


def test_iar_twowell_sees_the_second_well():
    rep = iar_check(get_function("twowell"), 0.0, Region.interval(-1.0, 3.0))
    assert not rep.ok
    # moving from the shallow well toward 0 climbs the barrier: the residual
    # approaches f(1.5) - f(2) = 0.5 up to t-grid quantization
    assert float(rep.residual) >= 0.45
    y, t = rep.witness
    assert y[0] == pytest.approx(2.0, abs=0.2)
    assert t == pytest.approx(0.25, abs=0.05)


def test_iar_requires_xbar_in_region():
    with pytest.raises(ValueError):
        iar_check(get_function("square"), 5.0, BOX)


def test_empty_finite_grid_is_vacuously_solved():
    # an even-resolution grid on [-2, 2] misses the only domain point of the
    # one-point indicator; the quantifier is then vacuous
    rep = iar_check(get_function("ind_origin"), 0.0, BOX, resolution=64)
    assert rep.ok and rep.details["finite_grid_points"] == 0
    rep2 = minty_subderivative(get_function("ind_origin"), 0.0, BOX, resolution=64)
    assert rep2.ok and rep2.details["finite_grid_points"] == 0


def test_iar_monotone_in_region_growth():
    f = get_function("twowell")
    small = iar_check(f, 0.0, Region.interval(-0.5, 0.5))
    large = iar_check(f, 0.0, Region.interval(-1.0, 3.0))
    assert small.ok and not large.ok


# -- subderivative route ------------------------------------------------------------

def test_minty_subderivative_square():
    rep = minty_subderivative(get_function("square"), 0.0, BOX)
    assert rep.ok
    assert abs(float(rep.residual)) <= 1e-4


def test_minty_subderivative_neg_abs_witness():
    rep = minty_subderivative(get_function("neg_abs"), 0.0, BOX)
    assert not rep.ok
    # at y = 1 the subderivative toward 0 is +1
    assert float(rep.residual) >= 1.0 - 1e-9


def test_minty_subderivative_abs():
    rep = minty_subderivative(get_function("abs"), 0.0, BOX)
    assert rep.ok


def test_degenerate_direction_contributes_zero():
    # the probe grid contains xbar itself; its row is exactly 0
    rep = minty_subderivative(get_function("abs"), 0.0, BOX, resolution=5)
    assert float(rep.residual) >= 0.0
    rep2 = iar_check(get_function("abs"), 0.0, BOX, resolution=5)
    assert float(rep2.residual) >= 0.0


# -- subdifferential route ------------------------------------------------------------

def _exact_graph(fid, resolution=65):
    f = get_function(fid)
    return sample_subdiff_graph(f, f.default_region, resolution, source="exact")


def test_minty_subdifferential_square():
    f = get_function("square")
    rep = minty_subdifferential(f, 0.0, BOX, _exact_graph("square"))
    assert rep.ok
    assert float(rep.residual) == 0.0  # pairs (y, 2y) give -2y^2, and (0,0) gives 0


def test_minty_subdifferential_neg_abs():
    f = get_function("neg_abs")
    graph = sample_subdiff_graph(f, BOX, 65, source="clarke-numeric")
    rep = minty_subdifferential(f, 0.0, BOX, graph)
    assert not rep.ok
    # the pair (1, -1) pairs to <-1, 0-1> = 1
    assert float(rep.residual) >= 1.0 - 1e-9


def test_minty_subdifferential_abs():
    f = get_function("abs")
    rep = minty_subdifferential(f, 0.0, BOX, _exact_graph("abs"))
    assert rep.ok and float(rep.residual) == 0.0


def test_minty_subdifferential_needs_usable_sample():
    f = get_function("square")
    graph = _exact_graph("square")
    with pytest.raises(UnusableSampleError):
        minty_subdifferential(f, 0.1, Region.interval(0.05, 0.11), graph.filter(
            np.zeros(len(graph), dtype=bool)))


# -- cross-validation -------------------------------------------------------------------

def test_cross_validate_square_solutions_exactly_at_zero():
    rep = cross_validate(get_function("square"), resolution=33)
    for row in rep.rows:
        expected = row.xbar == (0.0,)
        assert row.verdicts["subderivative"] == expected, row
        assert row.verdicts["iar"] == expected, row
        if "subdifferential" in row.verdicts:
            assert row.verdicts["subdifferential"] == expected, row
    assert rep.counts("subderivative_vs_iar")["hard"] == 0


def test_cross_validate_abs_solutions_exactly_at_zero():
    rep = cross_validate(get_function("abs"), resolution=33)
    sols = [r.xbar for r in rep.rows if r.verdicts["iar"]]
    assert sols == [(0.0,)]
    assert all(r.classes["subderivative_vs_iar"] == "agree" for r in rep.rows)


def test_cross_validate_neg_abs_has_no_solutions():
    rep = cross_validate(get_function("neg_abs"), resolution=33)
    for row in rep.rows:
        assert not row.verdicts["subderivative"]
        assert not row.verdicts["iar"]
        if "subdifferential" in row.verdicts:
            assert not row.verdicts["subdifferential"]


def test_cross_validate_coercive_convex_contains_minimizer():
    for fid in ("square", "abs", "norm2d", "mixed2d"):
        f = get_function(fid)
        rep = cross_validate(f, resolution=17 if f.dim == 1 else 9)
        sols = {r.xbar for r in rep.rows if r.verdicts["iar"]}
        assert tuple([0.0] * f.dim) in sols, fid


def test_cross_validate_rows_cover_dom_f_only():
    rep = cross_validate(get_function("ind_halfline"), resolution=17)
    assert all(r.xbar[0] >= 0 for r in rep.rows)
    assert len(rep.rows) == 9  # the grid points of [0, 2]


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
    assert d["grid_points"] == len(rep.rows) == 9
    assert set(d) >= {"agree", "indeterminate", "hard", "disagreements", "hard_count"}
    assert d["hard_count"] == d["hard"]
