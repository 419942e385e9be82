"""The cdd suite settles a base point on the rows at its local grids' centres.

Each centre that meets its enlargement's conditions lies in it, so the
minimum over the epsilon ladder of its rows' suprema bounds the exact rhs
from below, and the decision rule is monotone in rhs: a base whose checks
all pass on the bound passes them exactly. ``cdd_suite`` runs the stacked
pass with that bound; the same pass without it computes every supremum.
Their reports must be equal, and the bound's arrays must agree with the
exact ones wherever the report reads them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varpolar import subdifferential, suites
from varpolar.library import FUNCTION_IDS, get_function
from varpolar.subderivative import DEFAULT_SCHEME
from varpolar.subdifferential import EPS_LADDER, _cdd_profiles
from varpolar.suites import SuiteParams, cdd_suite
from test_negative_controls import FLIPPED
from test_numeric_route import _twin

#: The library, its side-oracle-free twins (the numeric graph route) and
#: the sign-flip control, which fails cdd checks.
ORACLES = ([get_function(fid) for fid in FUNCTION_IDS]
           + [_twin(fid) for fid in FUNCTION_IDS] + [FLIPPED])


def _exact_suite(monkeypatch, f, params):
    """``cdd_suite``'s report from its stacked pass run without the bound."""
    profiles = suites._cdd_profiles
    with monkeypatch.context() as mp:
        mp.setattr(suites, "_cdd_profiles", lambda *args, bound: profiles(*args))
        return cdd_suite(f, params)


def _bits(a):
    return np.asarray(a).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from(ORACLES),
    log_tol=st.floats(-12.0, 0.0),
    resolution=st.sampled_from([3, 5, 9, 17]),
    resolution_2d=st.sampled_from([3, 4, 5]),
)
def test_the_bound_keeps_every_report(f, log_tol, resolution, resolution_2d):
    params = SuiteParams(resolution=resolution, resolution_2d=resolution_2d,
                         cdd_tol=10.0**log_tol)
    with pytest.MonkeyPatch.context() as mp:
        assert cdd_suite(f, params) == _exact_suite(mp, f, params)
    # array by array: everything but rhs and the residual is exact, and the
    # bound is at most the exact rhs
    grid = f.default_region.sample(params.grid_resolution(f.dim))
    xbars = grid[np.isfinite(f.values(grid))]
    eye = np.eye(f.dim)
    dirs = np.vstack([eye, -eye])
    args = (f, xbars, dirs, DEFAULT_SCHEME, params.covector_half_width, params.cdd_tol)
    names = ("lhs", "rhs", "ok", "residual", "truncated", "empty_eps")
    for bounded, exact in zip(_cdd_profiles(*args, bound=True), _cdd_profiles(*args)):
        got, want = dict(zip(names, bounded)), dict(zip(names, exact))
        for name in ("lhs", "ok", "truncated", "empty_eps"):
            assert _bits(got[name]) == _bits(want[name]), name
        assert np.all(got["rhs"] <= want["rhs"])
        # a base with a failing check takes the exact pass
        reached = ~got["ok"].all(axis=1)
        for name in ("rhs", "residual"):
            assert _bits(got[name][reached]) == _bits(want[name][reached]), name


def _reached(monkeypatch, f, params):
    """The grid indices of the base points whose rows enter the exact
    supremum pass of ``cdd_suite``: in each block, the centre bound is the
    first call of ``_enlargement_minima`` and the exact pass the second."""
    levels = len(EPS_LADDER)
    near_points, minima = subdifferential._near_points, subdifferential._enlargement_minima
    blocks, reached = [], []

    def new_block(f, xb, *args):
        blocks.append({"start": sum(b["size"] for b in blocks), "size": len(xb), "calls": 0})
        return near_points(f, xb, *args)

    def counted(rows, cell, owner, *args):
        block = blocks[-1]
        block["calls"] += 1
        if block["calls"] > 1:
            bases = np.unique(cell[owner[rows]] // levels)
            reached.extend((block["start"] + bases).tolist())
        return minima(rows, cell, owner, *args)

    with monkeypatch.context() as mp:
        mp.setattr(subdifferential, "_near_points", new_block)
        mp.setattr(subdifferential, "_enlargement_minima", counted)
        report = cdd_suite(f, params)
    assert all(b["calls"] in (1, 2) for b in blocks)
    return report, reached


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_no_base_point_of_the_library_reaches_the_supremum_pass(monkeypatch, fid):
    # every base point of every entry is settled by its centres at the
    # default config: the pass computes no enlargement supremum there
    report, reached = _reached(monkeypatch, get_function(fid), SuiteParams())
    assert report["fail"] == 0 and reached == []


def test_the_control_sends_exactly_its_failing_points_to_the_supremum_pass(monkeypatch):
    # the flipped side-oracle fails 64 checks at 64 base points, one
    # direction each; those points, and only those, take the exact pass
    params = SuiteParams()
    report, reached = _reached(monkeypatch, FLIPPED, params)
    grid = FLIPPED.default_region.sample(params.resolution)
    failing = sorted({int(np.flatnonzero(grid[:, 0] == row["xbar"][0])[0])
                      for row in report["failures"]})
    assert (report["fail"], len(reached)) == (64, 64)
    assert reached == failing
