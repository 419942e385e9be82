"""The numeric (`clarke-numeric`) graph route on twins: library entries with
their side-oracles removed, so the suites sample the same function through
the numeric Clarke sets (the sampled-gradient hull at Lipschitz points, the
support-table polytope elsewhere) instead of the exact subdifferential."""

import dataclasses
import math
import time

import numpy as np
import pytest

from varpolar import FunctionOracle, Region, sample_subdiff_graph, subdifferential
from varpolar.library import get_function
from varpolar.subderivative import DEFAULT_SCHEME
from varpolar.subdifferential import _gradient_hulls, _graph_rows, cdd_profile, sphere_directions
from varpolar.suites import SuiteParams, equivalence_report, run_suites, thm3_suite
from test_clarke_kernel import _MAX3D

# an inf - inf or 0/0 in the polytope construction must not slip through
pytestmark = pytest.mark.filterwarnings("error")

TWINS_1D = ("square", "abs", "maxzero", "ind_halfline", "ind_origin")


def _twin(fid):
    return dataclasses.replace(get_function(fid), name=f"{fid}_numeric", exact_subdifferential=None)


def test_one_dimensional_twins_pass_every_suite():
    result = run_suites([_twin(fid) for fid in TWINS_1D], ["all"], SuiteParams())
    suites = result["suites"]
    for name in ("prop1", "thm2", "thm3", "cdd"):
        assert suites[name]["hard_count"] == 0, name
    for section in suites["thm3"]["functions"].values():
        assert section["graph_source"] == "clarke-numeric"
    # Without a side-oracle the absorbing check attributes a candidate to the
    # hull of the graph's covectors at its point; falling back only on
    # exact_subdifferential, the twins of the kinked entries had 1 hard row
    # each, at the kink.
    predicates = {fid: sec["hard_count"] for fid, sec in suites["predicates"]["functions"].items()}
    assert predicates == {f"{fid}_numeric": 0 for fid in TWINS_1D}
    assert result["truncation_flags"] == ["ind_halfline_numeric", "ind_origin_numeric"]


def test_norm2d_twin_thm3_has_no_hard_rows():
    # 40 hard rows with the old covector grid, which missed most gradients
    section = thm3_suite(_twin("norm2d"), SuiteParams())
    assert section["graph_source"] == "clarke-numeric"
    assert section["hard"] == 0


def test_norm2d_twin_cdd_profile_at_a_smooth_point():
    # the gradient (2, 1)/sqrt(5) lies off any grid, so a grid left every
    # enlargement empty here
    eye = np.eye(2)
    verdicts = cdd_profile(_twin("norm2d"), (1.0, 0.5), np.vstack([eye, -eye]))
    assert [v.ok for v in verdicts] == [True] * 4
    assert all("empty_enlargement" not in v.flags for v in verdicts)


def test_mixed2d_twin_thm2_has_no_hard_rows():
    report = equivalence_report(_twin("mixed2d"), SuiteParams())
    assert report.section("subdifferential_vs_iar")["hard"] == 0


def test_three_dimensional_kink_gives_merged_vertices():
    # f = |x1| + <(0.3, 0.7, -0.2), x>: one covector where x1 != 0 (18
    # points), and the segment [-0.7, 1.3] x {(0.7, -0.2)} at the 9 kink
    # points, as its two endpoints and its midpoint
    slope = np.array([0.3, 0.7, -0.2])
    f = FunctionOracle(
        name="kink3d",
        dim=3,
        batch=lambda *x: np.abs(x[0]) + np.stack(np.broadcast_arrays(*x), axis=-1) @ slope,
    )
    # (the hull's gradient at x itself, then its two ends, then the centroid:
    # 4 rows at each kink point, where the support-table polytope had 3)
    g = sample_subdiff_graph(f, Region.box([(-1.0, 1.0)] * 3), 3, source="clarke-numeric")
    assert len(g) == 18 + 9 * 4 == 54
    at_origin = g.covectors[np.all(g.points == 0.0, axis=1)]
    expected = [[0.3, 0.7, -0.2], [1.3, 0.7, -0.2], [-0.7, 0.7, -0.2], [0.3, 0.7, -0.2]]
    assert np.allclose(at_origin, expected, atol=1e-9)


@pytest.mark.parametrize("fid", ["norm2d", "mixed2d"])
def test_two_dimensional_twins_pass_every_suite_within_budget(fid):
    # with the support table at every graph point, cdd alone took 176 s on
    # the norm2d twin and 156 s on the mixed2d twin; both now take ~3 s
    start = time.perf_counter()
    result = run_suites([_twin(fid)], ["all"], SuiteParams())
    assert time.perf_counter() - start <= 20.0
    assert {name: s["hard_count"] for name, s in result["suites"].items()} == {
        "prop1": 0, "thm2": 0, "thm3": 0, "cdd": 0, "predicates": 0
    }
    assert result["truncation_flags"] == []


def test_a_set_outside_the_covector_box_is_flagged_truncated():
    # f(x) = 20x: the Clarke set {20} lies outside the default box [-10, 10],
    # so no point keeps a row. Unflagged, the empty graph would relate every
    # thm3 candidate (a vacuous polar quantifier) without a word.
    f = FunctionOracle(
        name="steep",
        dim=1,
        batch=lambda x: 20.0 * x,
        default_region=Region.interval(-1.0, 1.0),
    )
    g = sample_subdiff_graph(f, Region.interval(-1.0, 1.0), 5, source="clarke-numeric")
    assert len(g) == 0 and g.meta["truncated"] is True
    assert run_suites([f], ["thm3"], SuiteParams())["truncation_flags"] == ["steep"]


def test_a_set_the_box_cuts_at_a_jump_is_flagged_truncated():
    # jump_up is lsc with the regular subdifferential [0, +inf) at 0. Its
    # support table there reads about 1.1e7 along +1, above the box's own
    # support 10, and the polytope {10, 0, 5} was clipped to the box with
    # the flag False; the points off the jump keep their sets unflagged
    def batch(x):
        return np.where(x > 0.0, 1.0 + x, 0.0)

    f = FunctionOracle("jump_up", 1, batch=batch,
                       default_region=Region.interval(-2.0, 2.0))
    pts = np.array([[-1.0], [0.0], [1.0]])
    owner, covectors, truncated = _graph_rows(f, pts, "clarke-numeric", 10.0, DEFAULT_SCHEME)
    assert truncated.tolist() == [False, True, False]
    assert covectors[owner == 1].max() == 10.0
    g = sample_subdiff_graph(f, f.default_region, 5, source="clarke-numeric")
    assert g.meta["truncated"] is True


@pytest.fixture
def table_calls(monkeypatch):
    """The points of every support-table call, in call order."""
    calls = []
    support = subdifferential._clarke_support

    def spy(f, pts, *args):
        calls.append(pts.tolist())
        return support(f, pts, *args)

    monkeypatch.setattr(subdifferential, "_clarke_support", spy)
    return calls


def test_indicator_twins_take_the_support_table_on_the_domain_edge(table_calls):
    # indicators are not Lipschitz at the edge of their domain: the hull's
    # samples there leave the domain, so those points take the table, which
    # flags the unbounded normal cone as truncated
    twins = [_twin("ind_halfline"), _twin("ind_origin")]
    result = run_suites(twins, ["thm3", "cdd"], SuiteParams())
    assert result["suites"]["thm3"]["hard_count"] == result["suites"]["cdd"]["hard_count"] == 0
    assert result["truncation_flags"] == ["ind_halfline_numeric", "ind_origin_numeric"]
    assert table_calls and {tuple(p) for call in table_calls for p in call} == {(0.0,)}


def test_three_dimensional_cdd_profile_at_the_kink(monkeypatch):
    # max(x1, x2, x3, -x1 - x2 - x3) has f'(0; +-e_i) = 1, and its Clarke set
    # at 0, the simplex with vertices e1, e2, e3 and -(1, 1, 1), has support
    # 1 along +-e_i. With the support table at every grid point this profile
    # took 209 s.
    counted = []
    evaluate = FunctionOracle._evaluate

    def counting_evaluate(self, coords, shape):
        counted.append(math.prod(shape))
        return evaluate(self, coords, shape)

    # counted at the one evaluator behind value, values and values_at
    monkeypatch.setattr(FunctionOracle, "_evaluate", counting_evaluate)
    eye = np.eye(3)
    start = time.perf_counter()
    verdicts = cdd_profile(_MAX3D, np.zeros(3), np.vstack([eye, -eye]))
    assert time.perf_counter() - start < 5.0
    assert [v.ok for v in verdicts] == [True] * 6
    assert [v.details["rhs"] for v in verdicts] == [1.0] * 6
    # the base point, 8,019 stacked grid points, the hulls (23 samples x 3
    # axes x 2 sides each) of the 2,298 bit-distinct points among the 2,618
    # that meet the point conditions, in 89 blocks of at most 26 points, and
    # the lhs in 1 call. With the hulls of all 8,019 points this took 55
    # calls over 1,114,708 points. Over 369,370 points, hull blocks that
    # count only the sides' coordinates (158 points) make 21 calls, and four
    # entries per side coordinate (39 points) 72. The hulls of all 2,618
    # near points, repeats included, took 101 blocks: 105 calls over 369,370.
    # The lhs took f at the base point again, once per direction: 2 calls
    # over 66 points, 93 calls over 325,210 in all; it now takes f(xbar)
    # from the first call, and its one call evaluates the 60 tail points.
    assert len(counted) == 1 + 1 + 89 + 1
    assert sum(counted) == 1 + 8_019 + 2_298 * 23 * 3 * 2 + 60 == 325_204


def test_boundary_points_take_the_table_and_interior_kinks_the_hull(table_calls):
    # |x| on [-0.5, inf): a kink inside the domain and the domain's edge
    f = FunctionOracle(
        name="kinked_halfline",
        dim=1,
        batch=lambda x: np.where(x >= -0.5, np.abs(x), math.inf),
    )
    pts = np.array([[-0.5], [0.0], [0.5]])
    dirs = sphere_directions(1, subdifferential._DIR_RESOLUTION)
    assert _gradient_hulls(f, pts, dirs, 10.0)[2].tolist() == [False, True, True]
    owner, covectors, truncated = _graph_rows(f, pts, "clarke-numeric", 10.0, DEFAULT_SCHEME)
    assert table_calls == [[[-0.5]]]
    assert truncated.tolist() == [True, False, False]
    # at the kink: the gradient at 0 itself (a difference across the kink),
    # the slopes +1 and -1 of the two sides, then the centroid; the realised
    # steps make them exact
    assert covectors[owner == 1, 0].tolist() == [0.0, 1.0, -1.0, 0.0]
    assert covectors[owner == 2, 0].tolist() == [1.0]
    # on the edge: the table's interval, cut by the box below
    edge = covectors[owner == 0, 0]
    assert edge.min() == -10.0 and edge.max() == pytest.approx(-1.0, abs=1e-6)
