"""``varpolar explain`` prints the suites' own rows.

On a small config over the whole library, every line that ``explain``
prints at a suite's grid point or candidate pair equals that suite's row
there: the prop1/thm2 routes and classes of ``equivalence_report(...,
exact=True)``, the cdd checks of ``cdd_suite`` (the verdict arrays of its
pass without the centre bound, read back bit for bit, and its failure
entries, on the sign-flip control too),
and on two entries thm3's two routes and class at every candidate pair."""

import re
import struct

import numpy as np
import pytest

from varpolar import cli, suites
from varpolar.cli import load_config, main
from varpolar.library import FUNCTION_IDS, get_function
from varpolar.subderivative import lower_dini
from varpolar.subdifferential import _cdd_flags
from varpolar.suites import EQUIVALENCE_THEOREMS, cdd_suite, equivalence_report, thm3_suite
from test_negative_controls import FLIPPED

#: cdd_suite's failure count on the sign-flipped abs at CONFIG.
FLIPPED_CDD_FAILURES = 8

CONFIG = "[run]\nresolution = 9\nresolution_2d = 5\nthm3_candidates = 5\nthm3_candidates_2d = 3\n"

ROUTES = (("minty (subderivative)", "subderivative"),
          ("minty (subdifferential)", "subdifferential"),
          ("increase-along-rays", "iar"),
          ("increase-along-rays (interior)", "iar_open"))

DIRECTION = re.compile(
    r"  direction (\[.*?\]): lhs=(\S+) \(subderivative, bracket (\S+?)\.\.(\S+)\) rhs=(\S+) "
    r"residual=(\S+) pass=(True|False) flags=(\[.*?\]) generalized=(\S+)$"
)


def _bits(value):
    return struct.pack("<d", float(value))


#: The cdd knobs away from their defaults: at cdd_tol 1e-9 square and
#: mixed2d fail 2 checks each, and the box of half-width 5 cuts
#: ind_halfline's sets.
CDD_KNOBS = "cdd_tol = 1e-9\ncovector_half_width = 5\n"


def _config(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("explain") / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path), load_config(str(path), {})


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return _config(tmp_path_factory, CONFIG)


@pytest.fixture(scope="module")
def cdd_config(tmp_path_factory):
    return _config(tmp_path_factory, CONFIG + CDD_KNOBS)


def _explain(capsys, path, fid, x, xstar=None):
    """The lines ``explain`` prints at x (and x*), each coordinate passed as
    its repr, so the query point is the suite's point bit for bit."""
    args = ["explain", "--config", path, "--function", fid,
            "--x=" + ",".join(repr(float(c)) for c in x)]
    if xstar is not None:
        args.append("--xstar=" + ",".join(repr(float(c)) for c in xstar))
    assert main(args) == 0
    return capsys.readouterr().out.splitlines()


def _cdd_arrays(monkeypatch, f, params):
    """``cdd_suite``'s report of f and the verdict arrays (lhs, rhs, ok,
    residual, truncated, empty_eps) over its grid points of the suite's
    stacked pass run without the centre bound, block by block: every rhs
    exact, as explain prints it. That pass's report is the suite's."""
    report = cdd_suite(f, params)
    blocks = []
    profiles = suites._cdd_profiles
    # the suite runs the pass with the bound; this one runs it without
    monkeypatch.setattr(suites, "_cdd_profiles",
                        lambda *args, bound: (blocks.append(b) or b for b in profiles(*args)))
    assert cdd_suite(f, params) == report
    monkeypatch.setattr(suites, "_cdd_profiles", profiles)
    return report, [np.concatenate(field) for field in zip(*blocks)]


def _check_cdd_lines(f, params, x, lines, arrays, b):
    """The direction lines at grid point ``b`` are its entries of the
    suite's verdict arrays; returns their failure entries."""
    lhs, rhs, ok, residual, truncated, empty_eps = arrays
    eye = np.eye(f.dim)
    dirs = np.vstack([eye, -eye])
    found = [DIRECTION.match(line) for line in lines if line.startswith("  direction ")]
    assert len(found) == len(dirs) and all(found), lines
    failures = []
    for j, (d, m) in enumerate(zip(dirs, found)):
        assert m[1] == str(d.tolist())
        got = {"lhs": float(m[2]), "rhs": float(m[5]), "residual": float(m[6])}
        want = {"lhs": lhs[b, j], "rhs": rhs[b, j], "residual": residual[b, j]}
        assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}
        assert (m[7] == "True") == bool(ok[b, j])
        flags = list(_cdd_flags(truncated[b], empty_eps[b]))
        assert m[8] == str(flags)
        # the bracket is lower_dini's, and its low end is the suite's lhs
        estimate = lower_dini(f, x, d, params.scheme)
        assert (_bits(m[3]), _bits(m[4])) == tuple(_bits(v) for v in estimate.bracket)
        assert _bits(m[3]) == _bits(estimate.value) == _bits(lhs[b, j])
        if m[7] == "False":
            failures.append({"xbar": x.tolist(), "direction": d.tolist(), **got, "flags": flags})
    return failures


def _check_equivalence_lines(row, lines):
    for label, route in ROUTES:
        (line,) = [ln for ln in lines if ln.startswith(f"  {label}: ")]
        if route in row.residuals:
            assert line.startswith(f"  {label}: solution={row.verdicts[route]} "
                                   f"residual={row.residuals[route]:.6g} witness="), line
        else:
            assert "not evaluated" in line
    classes = " ".join(f"{suite}={row.classes[key]}"
                       for suite, key in EQUIVALENCE_THEOREMS.items() if key in row.classes)
    assert lines[-1] == f"  suite classes: {classes}"


def _check_rows(monkeypatch, capsys, config, f, fid=None):
    """Every line of ``explain --function fid`` (f's name by default) at
    each of the suites' grid points of f against the equivalence and cdd
    rows there; returns the cdd report."""
    path, params = config
    rows = equivalence_report(f, params, exact=True).rows
    report, arrays = _cdd_arrays(monkeypatch, f, params)
    assert len(rows) == arrays[0].shape[0] > 0
    failures = []
    for b, row in enumerate(rows):
        x = np.array(row.xbar)
        lines = _explain(capsys, path, fid or f.name, x)
        _check_equivalence_lines(row, lines)
        failures += _check_cdd_lines(f, params, x, lines, arrays, b)
    assert failures == report["failures"]
    assert report["checks"] - report["pass"] == len(failures)
    return report


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_explain_prints_the_equivalence_and_cdd_rows(monkeypatch, capsys, config, fid):
    _check_rows(monkeypatch, capsys, config, get_function(fid))


@pytest.mark.parametrize("fid", ["square", "ind_halfline", "mixed2d"])
def test_explain_reads_the_cdd_knobs(monkeypatch, capsys, cdd_config, fid):
    report = _check_rows(monkeypatch, capsys, cdd_config, get_function(fid))
    assert (report["fail"], report["covector_truncated"]) == {
        "square": (2, False), "ind_halfline": (0, True), "mixed2d": (2, False)}[fid]


def test_explain_prints_the_failure_entries_of_the_sign_flip_control(monkeypatch, capsys, config):
    # the sign-flipped abs fails cdd checks; explain, reading the control
    # through the library id, prints them as the suite's failure entries
    monkeypatch.setattr(cli, "get_function", lambda fid: FLIPPED)
    report = _check_rows(monkeypatch, capsys, config, FLIPPED, "abs")
    assert report["fail"] == FLIPPED_CDD_FAILURES


@pytest.mark.parametrize("fid", ["neg_abs", "norm2d"])
def test_explain_prints_thm3s_row_at_every_candidate_pair(monkeypatch, capsys, config, fid):
    # the suite's arrays with the rays kernel run without stops: exact
    # residuals, as explain prints them, and the same report
    path, params = config
    f = get_function(fid)
    stopped = thm3_suite(f, params)
    seen = {}
    for name in ("_min_products", "classify"):
        real = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda *a, real=real, name=name: seen.setdefault(
            name, real(*a)))
    rays = suites._tilted_iar_residuals
    monkeypatch.setattr(suites, "_tilted_iar_residuals",
                        lambda f, xs, cs, grid, stops: seen.setdefault("rays", rays(f, xs, cs, grid)))
    assert thm3_suite(f, params) == stopped
    monkeypatch.undo()
    min_products, (residuals, _), classes = seen["_min_products"], seen["rays"], seen["classify"]
    xs, cs = suites._candidate_grids(f, params)
    for i, x in enumerate(xs):
        for k, c in enumerate(cs):
            lines = _explain(capsys, path, fid, x, c)
            mp, r = min_products[i, k], residuals[i, k]
            (graph,) = [ln for ln in lines if ln.startswith("  polar (graph route): ")]
            assert graph.startswith(f"  polar (graph route): related={mp >= -params.tol} "
                                    f"min_product={mp:.6g} witness="), graph
            (ray,) = [ln for ln in lines if ln.startswith("  polar (rays route): ")]
            assert ray.startswith(f"  polar (rays route): member={r <= params.tol} "
                                  f"residual={r:.6g} witness="), ray
            assert lines[-1] == f"  suite class: thm3={classes[i, k]}"
