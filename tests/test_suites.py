"""Suite orchestration: result-tree invariants and the exit-status contract
of the suite verb."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varpolar
import varpolar.cli as cli
import varpolar.suites as suites_module
from varpolar import FunctionOracle, Region, minty, subdifferential
from varpolar.library import FUNCTION_IDS, _interval_side_oracle, get_function
from varpolar.subderivative import LiminfScheme
from varpolar.suites import SuiteParams, predicates_suite, run_suites, thm3_suite

SMALL = SuiteParams(
    resolution=17, resolution_2d=5, thm3_candidates=7, thm3_candidates_2d=3
)


def test_verdict_counts_sum_to_grid_cardinality():
    result = run_suites(
        [get_function("abs"), get_function("ind_halfline")], ["prop1", "thm2"], SMALL
    )
    prop1 = result["suites"]["prop1"]["functions"]
    assert prop1["abs"]["agree"] + prop1["abs"]["indeterminate"] + prop1["abs"]["hard"] == 17
    # only the 9 grid points of [0, 2] carry finite values
    assert prop1["ind_halfline"]["grid_points"] == 9


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"t_resolution": 1}, "t_resolution must be >= 2"),
        ({"resolution_2d": 2}, "resolution_2d must be >= 3"),
        ({"probe_factor": 0}, "probe_factor must be >= 1"),
        ({"cdd_tol": 0.0}, "cdd_tol must be finite and positive"),
        # NaN and +inf tolerances make both sides of a comparison agree
        ({"tol": math.nan}, "tol must be finite and positive"),
        ({"band": math.inf}, "band must be finite and positive"),
        ({"polar_band": math.nan}, "polar_band must be finite and positive"),
        ({"covector_half_width": -1.0}, "covector_half_width must be finite and positive"),
    ],
)
def test_suite_params_reject_vacuous_knob_values(knobs, message):
    # the library API refuses the same values as the CLI config
    with pytest.raises(ValueError, match=message):
        SuiteParams(**knobs)


def test_unknown_suite_name_rejected():
    with pytest.raises(ValueError):
        run_suites([get_function("abs")], ["prop99"], SMALL)


def test_oracles_that_share_a_name_are_rejected():
    # the names key the result tree, so one section would overwrite the other
    twin = dataclasses.replace(get_function("square"), name="abs")
    with pytest.raises(ValueError, match="share the name 'abs'"):
        run_suites([get_function("abs"), twin], ["cdd"], SMALL)


def test_all_expands_to_every_suite():
    result = run_suites([get_function("abs")], ["all"], SMALL)
    assert set(result["suites"]) == {"prop1", "thm2", "thm3", "cdd", "predicates"}
    assert result["hard_total"] == 0


def test_truncation_flags_propagate():
    result = run_suites([get_function("ind_origin")], ["cdd"], SMALL)
    assert result["truncation_flags"] == ["ind_origin"]


def test_thm3_and_predicates_flag_truncated_graphs():
    fs = [get_function("ind_origin"), get_function("ind_halfline"), get_function("abs")]
    result = run_suites(fs, ["thm3", "predicates"], SuiteParams())
    assert result["truncation_flags"] == ["ind_halfline", "ind_origin"]
    for name in ("thm3", "predicates"):
        flags = {fid: sec["covector_truncated"] for fid, sec in result["suites"][name]["functions"].items()}
        assert flags == {"abs": False, "ind_halfline": True, "ind_origin": True}, name


def test_thm2_lists_its_truncated_graphs():
    # the thm2 section has no covector_truncated key, but its subdifferential
    # route pairs over a graph whose sets the covector box cut
    fs = [get_function("ind_halfline"), get_function("ind_origin"), get_function("abs")]
    result = run_suites(fs, ["thm2"], SuiteParams(resolution=17))
    assert result["truncation_flags"] == ["ind_halfline", "ind_origin"]
    assert all("covector_truncated" not in sec
               for sec in result["suites"]["thm2"]["functions"].values())
    # prop1 pairs over no graph
    assert run_suites(fs, ["prop1"], SuiteParams(resolution=17))["truncation_flags"] == []


def _singletons(slope):
    """A 1-D side-oracle whose set at x is {slope(x)}, for (N,) arrays x."""
    return _interval_side_oracle(lambda x: (slope(x), slope(x)))


def _flat_with_side_oracle(slope: float) -> FunctionOracle:
    """f = 0 on [-2, 2] with the side-oracle {slope} everywhere: wrong for
    slope != 0, so the graph route and the rays route of thm3 part ways."""
    return FunctionOracle(
        name="flat", dim=1, batch=lambda x: np.zeros_like(x), is_convex=True,
        exact_subdifferential=_singletons(lambda x: np.full_like(x, slope)),
        default_region=Region.interval(-2.0, 2.0),
    )


def test_thm3_classes_a_disagreement_inside_the_band_indeterminate():
    # at x* = 0 the tilt of f = 0 is flat, so every x is a rays member, but
    # the graph pairs (y, 1e-3) give x a min product -1e-3 (x + 2) < -tol
    params = SuiteParams(thm3_candidates=5)
    section = thm3_suite(_flat_with_side_oracle(1e-3), params)
    assert section["hard"] == 0 and section["indeterminate"] > 0
    rows = section["disagreements"]
    assert len(rows) == section["indeterminate"]
    for row in rows:
        assert row["class"] == "indeterminate"
        assert -params.polar_band <= row["min_product"] < -params.tol
        assert row["iar_residual"] <= params.tol
    # beyond the band the same disagreement is hard
    assert thm3_suite(_flat_with_side_oracle(1.0), params)["hard"] > 0


def test_thm3_classes_by_the_residual_of_the_side_claiming_the_violation():
    # |x| with the side-oracle {0} everywhere: the graph relates (x, 0) for
    # every x (min product 0), while the rays route sees |x| rise toward the
    # kink by |x|, far beyond the band: the false side is the rays route
    f = dataclasses.replace(
        get_function("abs"),
        name="abs_flat_side",
        exact_subdifferential=_singletons(np.zeros_like),
    )
    section = thm3_suite(f, SuiteParams(thm3_candidates=5))
    assert (section["agree"], section["indeterminate"], section["hard"]) == (21, 0, 4)
    assert section["disagreements"] == [
        {"x": [x], "xstar": [0.0], "min_product": 0.0, "iar_residual": abs(x), "class": "hard"}
        for x in (-2.0, -1.0, 1.0, 2.0)
    ]


def _route_calls(monkeypatch, suites):
    """Run the library's prop1/thm2 selection ``suites`` at the defaults and
    count the graph samplings, subderivative-route calls, polar-kernel calls
    (the subdifferential route) and rays grids the run makes."""
    calls = {"graph": 0, "subderivative": 0, "subdifferential": 0, "rays_grid": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(minty, "sample_subdiff_graph", counting("graph", minty.sample_subdiff_graph))
    monkeypatch.setattr(suites_module, "suite_graph", counting("graph", suites_module.suite_graph))
    monkeypatch.setattr(minty, "_subderivative_residuals",
                        counting("subderivative", minty._subderivative_residuals))
    monkeypatch.setattr(minty, "_min_products", counting("subdifferential", minty._min_products))
    monkeypatch.setattr(minty, "_ray_grid", counting("rays_grid", minty._ray_grid))
    result = run_suites([get_function(fid) for fid in FUNCTION_IDS], suites, SuiteParams())
    monkeypatch.undo()
    return calls, result["suites"]


def test_a_run_evaluates_only_the_routes_its_suites_read(monkeypatch):
    n = len(FUNCTION_IDS)
    prop1_calls, prop1 = _route_calls(monkeypatch, ["prop1"])
    # no graph, no subdifferential route, and only the closed-region rays grid
    assert prop1_calls == {"graph": 0, "subderivative": n, "subdifferential": 0, "rays_grid": n}
    thm2_calls, thm2 = _route_calls(monkeypatch, ["thm2"])
    # one graph and one polar-kernel call per function, and only the interior rays grid
    assert thm2_calls == {"graph": n, "subderivative": 0, "subdifferential": n, "rays_grid": n}
    both_calls, both = _route_calls(monkeypatch, ["prop1", "thm2"])
    assert both_calls == {"graph": n, "subderivative": n, "subdifferential": n, "rays_grid": 2 * n}
    assert (prop1["prop1"], thm2["thm2"]) == (both["prop1"], both["thm2"])


def test_exact_covectors_outside_the_box_flag_their_function():
    # mixed2d's exact polytopes reach (4, 1): the box at half-width 0.5
    # keeps them whole, and flags them, as it flags the numeric route's cut
    params = SuiteParams(covector_half_width=0.5, resolution_2d=9)
    result = run_suites([get_function("mixed2d")], ["thm3", "cdd", "predicates"], params)
    assert result["truncation_flags"] == ["mixed2d"]


def test_predicates_report_the_absorbing_witness():
    # |x| with the side-oracle {0} at the kink: a candidate (x, x*) near 0
    # with |x*| < 1 can be related to the graph, but the covectors sampled
    # within the match radius of x are single values, with no chord to span it
    f = dataclasses.replace(
        get_function("abs"),
        name="abs_thin_kink",
        exact_subdifferential=_singletons(np.sign),
    )
    result = predicates_suite(f, SuiteParams())
    assert result["monotone"] and not result["absorbing"]
    assert result["hard_count"] == 1 and result["absorbing_unattributed"] > 0
    (x,), (xstar,) = result["absorbing_witness"]
    assert abs(x) <= result["absorbing_match_radius"] and -1.0 < xstar < 1.0


def test_an_oracle_without_a_default_region_is_rejected_up_front(monkeypatch):
    ran = []
    monkeypatch.setattr(
        "varpolar.suites.cdd_suite", lambda f, params: ran.append(f.name) or {"hard_count": 0}
    )
    bare = FunctionOracle(name="bare", dim=1, fn=lambda x: abs(float(x[0])))
    with pytest.raises(ValueError, match="'bare' has no default_region"):
        run_suites([get_function("abs"), bare], ["cdd"], SMALL)
    assert ran == []


def test_cdd_and_predicates_call_each_entrys_side_oracle():
    # The benchmark's trace mode counts library.exact_subdifferential.calls
    # by wrapping each entry's exact_subdifferential attribute. That key
    # reads real work only while graph sampling calls that attribute, as the
    # batched side-oracle; a per-point form that nothing calls read 0.
    calls = []

    def counted(f):
        def side_oracle(points, half_width):
            calls.append((f.name, len(points)))
            return f.exact_subdifferential(points, half_width)

        return dataclasses.replace(f, exact_subdifferential=side_oracle)

    fs = [counted(get_function(fid)) for fid in ("abs", "norm2d")]
    run_suites(fs, ["cdd", "predicates"], SMALL)
    assert {name for name, _ in calls} == {"abs", "norm2d"}
    assert len(calls) > 0 and sum(n for _, n in calls) > 0


def test_every_suite_graph_is_sampled_with_the_run_knobs(monkeypatch):
    # neg_abs takes the numeric route and abs the exact one; every graph of
    # every suite, prop1/thm2's included, must see the run's covector box
    # and scheme
    real = subdifferential._graph_rows
    signature = inspect.signature(real)
    seen = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        knobs = ("covector_half_width", "scheme")
        seen.append(tuple(bound.arguments[k] for k in knobs))
        return real(*args, **kwargs)

    monkeypatch.setattr(subdifferential, "_graph_rows", spy)
    scheme = LiminfScheme(t0=0.05)
    params = dataclasses.replace(SMALL, covector_half_width=3.0, scheme=scheme)
    run_suites([get_function("neg_abs"), get_function("abs")], ["all"], params)
    assert len(seen) >= 8  # two functions, four graph-sampling suites
    assert set(seen) == {(3.0, scheme)}


def test_hard_disagreements_drive_exit_one(tmp_path, monkeypatch, capsys):
    def fake_run_suites(functions, suites, params, collect_rows=False):
        return {
            "suites": {"prop1": {"functions": {}, "hard_count": 1}},
            "hard_total": 1,
            "truncation_flags": [],
        }

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code = cli.main(["suite", "--suite", "prop1", "--function", "abs"])
    assert code == 1


# A suite run over the library and its twins (entries with their
# side-oracles removed), in a fresh interpreter; prints the lazily imported
# modules that a fresh process would pay for on every run.
_IMPORT_PROBE = """
import dataclasses, sys
from varpolar.library import test_library
from varpolar.suites import SuiteParams, run_suites
fs = test_library()
twins = [
    dataclasses.replace(f, name=f.name + "_numeric", exact_subdifferential=None)
    for f in fs
]
run_suites(fs + twins, ["all"], SuiteParams(resolution=9, resolution_2d=5))
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.split(".")[0] == "scipy"))
"""


def test_a_suite_run_imports_neither_numpy_ma_nor_scipy_optimize():
    # np.unique on a 1-D array imports numpy.ma, about 10 ms of every fresh
    # process that meets it (numpy 2.4, 2-core VM, warm file cache); scipy
    # is no dependency of the package, and no module of it may load, even
    # where it is installed
    src = str(Path(varpolar.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
