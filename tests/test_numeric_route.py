"""The numeric (`clarke-numeric`) graph route on twins: library entries with
their side-oracles removed, so the suites sample the same function through
the support-table polytope instead of the exact subdifferential."""

import dataclasses

import numpy as np
import pytest

from varpolar import FunctionOracle, Region, sample_subdiff_graph
from varpolar.library import get_function
from varpolar.subdifferential import cdd_profile
from varpolar.suites import SuiteParams, equivalence_report, run_suites, thm3_suite

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
    # The absorbing check falls back only on exact_subdifferential, so the
    # twins of the kinked entries fail it at the kink.
    predicates = {fid: sec["hard_count"] for fid, sec in suites["predicates"]["functions"].items()}
    assert predicates == {
        "square_numeric": 0,
        "abs_numeric": 1,
        "maxzero_numeric": 1,
        "ind_halfline_numeric": 1,
        "ind_origin_numeric": 1,
    }
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
    g = sample_subdiff_graph(f, Region.box([(-1.0, 1.0)] * 3), 3, source="clarke-numeric")
    assert len(g) == 45
    at_origin = g.covectors[np.all(g.points == 0.0, axis=1)]
    expected = [[1.3, 0.7, -0.2], [-0.7, 0.7, -0.2], [0.3, 0.7, -0.2]]
    assert np.allclose(sorted(at_origin.tolist()), sorted(expected), atol=1e-9)
