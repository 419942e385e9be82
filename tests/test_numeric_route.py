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
    return dataclasses.replace(
        get_function(fid),
        name=f"{fid}_numeric",
        exact_subdifferential=None,
        exact_subdifferential_batch=None,
    )


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
        fn=lambda x: abs(x[0]) + float(slope @ x),
        batch=lambda p: np.abs(p[:, 0]) + p @ slope,
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
    values = FunctionOracle.values

    def counting_values(self, points):
        counted.append(len(points))
        return values(self, points)

    monkeypatch.setattr(FunctionOracle, "values", counting_values)
    eye = np.eye(3)
    start = time.perf_counter()
    verdicts = cdd_profile(_MAX3D, np.zeros(3), np.vstack([eye, -eye]))
    assert time.perf_counter() - start < 5.0
    assert [v.ok for v in verdicts] == [True] * 6
    assert [v.details["rhs"] for v in verdicts] == [1.0] * 6
    # 8,019 stacked grid points, their hulls (23 samples x 3 axes x 2 sides
    # each) in 51 blocks of at most 158 points, and the lhs in 2 calls
    assert len(counted) == 1 + 51 + 2
    assert sum(counted) == 8_019 * (1 + 23 * 3 * 2) + 66 == 1_114_707


def test_boundary_points_take_the_table_and_interior_kinks_the_hull(table_calls):
    # |x| on [-0.5, inf): a kink inside the domain and the domain's edge
    f = FunctionOracle(
        name="kinked_halfline",
        dim=1,
        fn=lambda x: abs(float(x[0])) if x[0] >= -0.5 else math.inf,
        batch=lambda p: np.where(p[:, 0] >= -0.5, np.abs(p[:, 0]), math.inf),
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
