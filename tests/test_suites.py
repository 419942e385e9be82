"""Suite orchestration: result-tree invariants and the exit-status contract
of the suite verb."""

import dataclasses
import inspect
import math

import pytest

import varpolar.cli as cli
from varpolar import subdifferential
from varpolar.subderivative import LiminfScheme
from varpolar.suites import SuiteParams, run_suites

SMALL = SuiteParams(
    resolution=17, resolution_2d=5, thm3_candidates=7, thm3_candidates_2d=3
)


def test_verdict_counts_sum_to_grid_cardinality():
    result = run_suites(["abs", "ind_halfline"], ["prop1", "thm2"], SMALL)
    prop1 = result["suites"]["prop1"]["functions"]
    assert prop1["abs"]["agree"] + prop1["abs"]["indeterminate"] + prop1["abs"]["hard"] == 17
    # only the 9 grid points of [0, 2] carry finite values
    assert prop1["ind_halfline"]["grid_points"] == 9


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"t_resolution": 1}, "t_resolution must be >= 2"),
        ({"covector_resolution": 1}, "covector_resolution must be >= 2"),
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
        run_suites(["abs"], ["prop99"], SMALL)


def test_all_expands_to_every_suite():
    result = run_suites(["abs"], ["all"], SMALL)
    assert set(result["suites"]) == {"prop1", "thm2", "thm3", "cdd", "predicates"}
    assert result["hard_total"] == 0


def test_truncation_flags_propagate():
    result = run_suites(["ind_origin"], ["cdd"], SMALL)
    assert result["truncation_flags"] == ["ind_origin"]


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
        knobs = ("covector_half_width", "covector_resolution", "scheme")
        seen.append(tuple(bound.arguments[k] for k in knobs))
        return real(*args, **kwargs)

    monkeypatch.setattr(subdifferential, "_graph_rows", spy)
    scheme = LiminfScheme(t0=0.05)
    params = dataclasses.replace(
        SMALL, covector_half_width=3.0, covector_resolution=7, scheme=scheme
    )
    run_suites(["neg_abs", "abs"], ["all"], params)
    assert len(seen) >= 8  # two functions, four graph-sampling suites
    assert set(seen) == {(3.0, 7, scheme)}


def test_hard_disagreements_drive_exit_one(tmp_path, monkeypatch, capsys):
    def fake_run_suites(function_ids, suites, params, collect_rows=False):
        return {
            "suites": {"prop1": {"functions": {}, "hard_count": 1}},
            "hard_total": 1,
            "truncation_flags": [],
        }

    monkeypatch.setattr(cli, "run_suites", fake_run_suites)
    code = cli.main(["suite", "--suite", "prop1", "--function", "abs"])
    assert code == 1
