"""CLI behavior: exit-status contract, config handling, report artifacts, and
report determinism."""

import argparse
import json
from dataclasses import fields
from pathlib import Path

import pytest

import numpy as np

from varpolar import cli, minty
from varpolar.cli import build_parser, main, load_config, ConfigError, report_json, _write_csv
from varpolar.library import get_function
from varpolar.subderivative import LiminfScheme
from varpolar.suites import SuiteParams, equivalence_report, suite_graph, thm3_suite


def test_unknown_function_id_is_a_usage_error(capsys):
    code = main(["suite", "--function", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err


def test_repeated_function_id_is_a_usage_error(tmp_path, capsys):
    # the ids key the report's sections: the second run of abs would
    # overwrite the first, and the config echo would list abs twice
    assert main(["suite", "--function", "abs", "--function", "abs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: function ids repeat: abs, abs\n"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nfunctions = abs, square, abs\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="repeat"):
        load_config(str(cfg_path), {})


def test_unknown_suite_rejected():
    # argparse rejects the choice with the usage exit status
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_text_format_flag_is_rejected(capsys):
    # the text summary goes to stdout under every format, so `text` would
    # write the same files as `json`
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--function", "abs", "--format", "text"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "invalid choice: 'text'" in errors[0]


def test_text_format_key_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[run]\nformat = text\nout = {tmp_path / 'report'}\n", encoding="utf-8")
    assert main(["suite", "--config", str(cfg_path), "--function", "abs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown format 'text'\n"
    assert not (tmp_path / "report").exists()


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    code = main(["suite", "--config", str(tmp_path / "missing.ini")])
    assert code == 2


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[run]\nfunctions = abs, square\nsuites = predicates\nresolution = 17\n"
        "[scheme]\nratio = 0.7\n[tolerances]\ntol = 1e-6\n",
        encoding="utf-8",
    )
    cfg = load_config(str(cfg_path), {})
    assert cfg.functions == ["abs", "square"]
    assert cfg.suites == ["predicates"]
    assert cfg.resolution == 17


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (b"functions = abs\n", "File contains no section headers"),
        (b"[run]\nfunctions = abs\nfunctions = square\n", "option 'functions'"),
        (b"[run]\nfunctions = abs\nout = caf\xe9\n", "codec can't decode"),
    ],
    ids=["no_section_header", "duplicate_key", "not_utf8"],
)
def test_a_config_file_that_does_not_parse_is_a_usage_error(tmp_path, capsys, text, message):
    # these raised out of main, a traceback and exit status 1, the status
    # of a hard disagreement
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_bytes(text)
    assert main(["suite", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse config file") and message in captured.err


def test_config_values_are_taken_literally(tmp_path):
    # '%' interpolation made `out = 100%x` raise out of load_config
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nout = 100%x\n", encoding="utf-8")
    assert load_config(str(cfg_path), {}).out == "100%x"


@pytest.mark.parametrize("key", ["functions", "suites"])
def test_an_empty_selection_is_a_usage_error(tmp_path, capsys, key):
    # an empty list ran nothing, printed "total hard disagreements: 0" and
    # exited 0
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[run]\n{key} =\n", encoding="utf-8")
    assert main(["suite", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must name at least one entry\n"


@pytest.mark.parametrize(
    ("argv", "config", "key"),
    [
        (["suite", "--resolution", "2"], None, "resolution"),
        (["explain", "--function", "abs", "--x", "0", "--resolution", "2"], None, "resolution"),
        (["suite"], "resolution_2d = 2\nsuites = prop1\n", "resolution_2d"),
    ],
    ids=["suite", "explain", "config_prop1"],
)
def test_a_query_grid_of_two_points_per_axis_is_a_usage_error(tmp_path, capsys, argv, config,
                                                                key):
    # shrinking the region by one query cell emptied it: a traceback and
    # exit status 1, the status of a hard disagreement, even for a prop1 run,
    # which never reads the interior
    if config is not None:
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(f"[run]\n{config}", encoding="utf-8")
        argv = argv + ["--config", str(cfg_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {key} must be >= 3: the equivalence suites shrink the "
                            "region by one query cell\n")


def test_an_internal_key_error_is_not_a_usage_error(monkeypatch):
    # every function id is checked before get_function runs, so a KeyError
    # out of a verb is a fault of the program, not of the usage: it must not
    # read as exit status 2
    def broken(cfg):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_suite", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["suite", "--function", "abs"])


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "run.ini"
    for line in ("bogus_knob = 3", "covector_resolution = 41"):
        cfg_path.write_text(f"[run]\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(cfg_path), {})


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        ("bogus = 1", "unknown config key 'bogus' in section [DEFAULT]"),
        ("resolution = abc", "bad value for 'resolution' in section [DEFAULT]"),
        ("out = report", "config key 'out' in section [DEFAULT] is not read by this verb"),
    ],
    ids=["unknown_key", "bad_value", "unread_key"],
)
def test_the_default_section_is_checked_like_any_other(tmp_path, capsys, lines, message):
    # configparser keeps [DEFAULT] out of sections(), and a file holding
    # only [DEFAULT] loaded as the default config: explain exited 0
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[DEFAULT]\n{lines}\n", encoding="utf-8")
    assert main(["explain", "--config", str(cfg_path), "--function", "abs", "--x", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_default_section_keys_are_read(tmp_path):
    # alone, and under a [run] section that sets a key of its own
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[DEFAULT]\nresolution = 9\n", encoding="utf-8")
    assert load_config(str(cfg_path), {}).resolution == 9
    cfg_path.write_text("[DEFAULT]\nresolution = 9\nfunctions = abs\n[run]\nfunctions = square\n",
                        encoding="utf-8")
    cfg = load_config(str(cfg_path), {})
    assert (cfg.resolution, cfg.functions) == (9, ["square"])


def test_suite_writes_report_and_exits_zero(tmp_path, capsys):
    code = main(
        [
            "suite",
            "--suite", "predicates",
            "--function", "abs",
            "--resolution", "17",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["hard_total"] == 0
    assert report["suites"]["predicates"]["functions"]["abs"]["monotone"] is True
    # the config echo holds every knob once: the suites' knobs with the
    # scheme's fields flattened in, plus the run's own keys
    knobs = {f.name for f in fields(SuiteParams)} - {"scheme"}
    scheme = {f.name for f in fields(LiminfScheme)}
    assert set(report["config"]) == knobs | scheme | {"functions", "suites", "out", "format"}
    out = capsys.readouterr().out
    assert "predicates" in out


def test_csv_format_writes_table(tmp_path):
    code = main(
        [
            "suite",
            "--suite", "predicates",
            "--function", "square",
            "--resolution", "9",
            "--out", str(tmp_path),
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("suite,function,metric")
    assert any("square" in line for line in lines[1:])


def test_csv_format_exports_per_point_equivalence_rows(tmp_path):
    code = main(
        [
            "suite",
            "--suite", "prop1",
            "--function", "abs",
            "--resolution", "9",
            "--out", str(tmp_path),
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = (tmp_path / "equivalence_abs.csv").read_text().strip().splitlines()
    assert lines[0].startswith("xbar_1,")
    assert len(lines) == 1 + 9  # header plus one row per grid point


def test_csv_equivalence_rows_are_those_of_the_exact_cross_validate(tmp_path):
    # the suite settles most rays routes of agreeing rows by an endpoint
    # bound, which the CSV prints: with format = csv its rows are the exact
    # ones, byte for byte. On neg_abs the bound would have printed other
    # figures; norm2d's minimizer is a probe point, so there every bound
    # equals the exact residual
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[run]\nfunctions = neg_abs, norm2d\nsuites = prop1, thm2\nresolution = 9\n"
        f"resolution_2d = 5\nout = {tmp_path}\nformat = csv\n",
        encoding="utf-8",
    )
    assert main(["suite", "--config", str(cfg_path)]) == 0
    params = load_config(str(cfg_path), {})
    differs = {}
    for fid in ("neg_abs", "norm2d"):
        rep = equivalence_report(get_function(fid), params)
        want = tmp_path / f"exact_{fid}.csv"
        _write_csv(*rep.rows_table(), want)
        assert (tmp_path / f"equivalence_{fid}.csv").read_bytes() == want.read_bytes()
        bounded = equivalence_report(get_function(fid), params, exact=False)
        differs[fid] = bounded.rows_table() != rep.rows_table()
    assert differs == {"neg_abs": True, "norm2d": False}


def test_reports_are_deterministic(tmp_path):
    # identical configuration (including the output path) twice over
    argv = [
        "suite",
        "--suite", "all",
        "--function", "abs",
        "--function", "neg_abs",
        "--resolution", "17",
        "--out", str(tmp_path),
    ]
    blobs = []
    for _ in range(2):
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        report.pop("timing", None)
        blobs.append(report_json(report, include_timing=False))
    assert blobs[0] == blobs[1]


def test_graph_dump_contains_header_and_meta(tmp_path, capsys):
    code = main(
        ["graph", "--function", "abs", "--resolution", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x_1,xstar_1"
    assert len(out) > 3
    meta = json.loads((tmp_path / "graph_abs.meta.json").read_text())
    assert meta["function"] == "abs"
    assert meta["source"] == "exact"
    assert meta["truncated"] is False


@pytest.mark.parametrize("fid", ["neg_abs", "twowell"])
def test_exact_graph_without_a_side_oracle_is_a_usage_error(capsys, fid):
    assert main(["graph", "--function", fid, "--source", "exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "exact subdifferential" in captured.err


@pytest.mark.parametrize(
    "verb_args",
    [["suite", "--suite", "cdd"], ["graph"]],
    ids=["suite", "graph"],
)
def test_out_that_cannot_be_created_fails_before_any_work(tmp_path, capsys, verb_args):
    # a regular file as the parent directory: the error comes before any
    # suite or graph output
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = verb_args + ["--function", "abs", "--out", str(blocker / "x")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


COMMON_FLAGS = {"--config", "--function", "--resolution", "--tol"}


@pytest.mark.parametrize(
    "verb, own_flags",
    [
        ("suite", {"--out", "--format", "--suite"}),
        ("explain", {"--x", "--xstar"}),
        ("graph", {"--source", "--out"}),
        ("polar", set()),
    ],
)
def test_each_verb_registers_exactly_the_flags_it_reads(verb, own_flags):
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(verbs.choices) == {"suite", "explain", "graph", "polar"}
    registered = {
        opt for action in verbs.choices[verb]._actions for opt in action.option_strings
    } - {"-h", "--help"}
    assert registered == COMMON_FLAGS | own_flags


def test_polar_rejects_out_and_creates_nothing(tmp_path, capsys):
    target = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        main(["polar", "--function", "abs", "--out", str(target)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize(
    "verb_args, key",
    [
        (["polar"], "out"),
        (["polar"], "format"),
        (["explain", "--x", "0"], "out"),
        (["explain", "--x", "0"], "format"),
        (["graph"], "format"),
    ],
    ids=["polar-out", "polar-format", "explain-out", "explain-format", "graph-format"],
)
def test_config_key_the_verb_does_not_read_is_a_usage_error(tmp_path, capsys, verb_args, key):
    # the config-file twin of the flags these verbs do not register
    target = tmp_path / "cfgout"
    value = {"out": target, "format": "csv"}[key]
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[run]\n{key} = {value}\n", encoding="utf-8")
    assert main(verb_args + ["--config", str(cfg_path), "--function", "abs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {key!r} in section [run] is not read by this verb\n"
    assert not target.exists()


def test_graph_reads_out_from_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[run]\nout = {tmp_path / 'cfgout'}\nresolution = 3\n", encoding="utf-8")
    assert main(["graph", "--config", str(cfg_path), "--function", "abs"]) == 0
    assert (tmp_path / "cfgout" / "graph_abs.csv").exists()


def test_polar_dump(capsys):
    code = main(["polar", "--function", "square", "--resolution", "9"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x_1,xstar_1"


@pytest.mark.parametrize("fid", ["abs", "norm2d", "twowell"])
def test_polar_output_at_the_default_config_matches_the_stored_bytes(capsys, fid):
    # the report does not cover the `polar` verb; the abs and norm2d rows
    # were taken when the polar kernel still formed the candidate product
    # row by row, and the twowell rows (a Clarke-numeric graph) when it
    # still ran one pass over the whole graph
    assert main(["polar", "--function", fid]) == 0
    stored = Path(__file__).parent / "data" / f"polar_{fid}.csv"
    assert capsys.readouterr().out.encode() == stored.read_bytes()


def test_polar_samples_the_graph_with_the_covector_knobs(tmp_path, capsys):
    # ind_halfline's normal cone at 0 is cut at -covector_half_width: `graph`
    # prints (0, -3), and `polar` relates a point x < 0 only to the candidate
    # covectors x* <= -3 (to none at the default half-width 10)
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nresolution = 5\ncovector_half_width = 3\n", encoding="utf-8")
    assert main(["graph", "--config", str(cfg_path), "--function", "ind_halfline"]) == 0
    graph = capsys.readouterr().out.strip().splitlines()
    assert min(float(row.split(",")[1]) for row in graph[1:]) == -3.0
    assert "0.0,-3.0" in graph
    assert main(["polar", "--config", str(cfg_path), "--function", "ind_halfline"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x_1,xstar_1"
    left = [[float(v) for v in row.split(",")] for row in out[1:] if row.startswith("-")]
    assert len(left) == 14 and all(xstar <= -3.0 for _, xstar in left)


def test_explain_point_query(capsys):
    code = main(["explain", "--function", "square", "--x", "0", "--xstar", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "related=True" in out
    assert "member=True" in out


def test_explain_minty_query(capsys):
    code = main(["explain", "--function", "abs", "--x", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "solution=True" in out


def test_explain_prints_no_suite_classes_where_f_is_infinite(capsys):
    # the suites grade only points where f is finite; explain printed
    # "suite classes: prop1=agree thm2=agree" at x = 1 on ind_origin
    assert main(["explain", "--function", "ind_origin", "--x", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "f([1.0]) = inf"
    assert out[-1] == ("  suite classes: none (f(x) = +inf: the suites grade only points "
                       "where f is finite)")
    assert main(["explain", "--function", "ind_origin", "--x", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  suite classes: prop1=agree thm2=agree"


@pytest.mark.parametrize(
    "line",
    [
        # a one-point t grid leaves only t = 0: every rays check passes vacuously
        "t_resolution = 1",
        "resolution_2d = 1",
        "thm3_candidates = 1",
        "thm3_candidates_2d = 1",
        "probe_factor = 0",
        # a NaN or infinite tolerance makes both sides of a comparison agree
        "tol = nan",
        "cdd_tol = inf",
        "band = nan",
        "covector_half_width = -1",
        # values that cannot be coerced to the knob's type
        "resolution = 1.5",
        "steps = abc",
    ],
)
def test_bad_knob_values_are_usage_errors(tmp_path, capsys, line):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[run]\nfunctions = abs\n{line}\n", encoding="utf-8")
    code = main(["suite", "--config", str(cfg_path)])
    assert code == 2
    assert line.split(" = ")[0] in capsys.readouterr().err


def test_explain_rays_route_uses_the_thm3_grid(tmp_path, capsys):
    # thm3 probes at probe_factor times the grid resolution (9 points here);
    # at the 5-point grid resolution this pair's residual would read 0.
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nresolution = 5\nthm3_candidates = 9\ntol = 0.2\n", encoding="utf-8")
    params = load_config(str(cfg_path), {})
    row = next(
        r for r in thm3_suite(get_function("square"), params)["disagreements"]
        if r["x"] == [1.0] and r["xstar"] == [3.0]
    )
    code = main(["explain", "--config", str(cfg_path), "--function", "square",
                 "--x", "1", "--xstar", "3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    rays = next(line for line in out if "polar (rays route)" in line)
    assert f"residual={row['iar_residual']:.6g} " in rays
    assert row["iar_residual"] == 0.25
    # the class line comes from the same rule and band as the suite row
    assert [line for line in out if "suite class" in line] == [f"  suite class: thm3={row['class']}"]


def _explain_line(capsys, cfg_path, route):
    code = main(["explain", "--config", str(cfg_path), "--function", "square",
                 "--x", "1", "--xstar", "3"])
    assert code == 0
    return next(line for line in capsys.readouterr().out.splitlines() if route in line)


def test_explain_graph_route_uses_the_thm3_graph(tmp_path, capsys):
    # a graph sampled at the probe resolution instead of thm3's read 0 here
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nresolution = 5\nthm3_candidates = 9\ntol = 0.2\n", encoding="utf-8")
    row = next(
        r for r in thm3_suite(get_function("square"), load_config(str(cfg_path), {}))["disagreements"]
        if r["x"] == [1.0] and r["xstar"] == [3.0]
    )
    assert row["min_product"] == -0.125
    graph = _explain_line(capsys, cfg_path, "polar (graph route)")
    assert f"min_product={row['min_product']:.6g} " in graph


def test_explain_convex_membership_probes_the_default_region(tmp_path, capsys):
    # df(1) = {2} for the square; a 5-point probe of [-10, 10] only sees
    # y in {-10, -5, 0, 5, 10} and reported contains=True residual=-2
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nresolution = 5\n", encoding="utf-8")
    conv = _explain_line(capsys, cfg_path, "convex membership")
    assert "contains=False residual=0.25 " in conv


def test_explain_minty_routes_match_the_suite_row(tmp_path, capsys):
    # prop1/thm2 probe at probe_factor times the grid resolution (9 points
    # here); at the 5-point grid explain missed y = -0.5 and printed
    # solution=True residual=9.09544e-08 for the subderivative route
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nresolution = 5\n", encoding="utf-8")
    params = load_config(str(cfg_path), {})
    row = next(r for r in equivalence_report(get_function("square"), params).rows if r.xbar == (-1.0,))
    assert row.residuals["subderivative"] == pytest.approx(0.5, abs=1e-6)
    assert not row.verdicts["subderivative"]
    code = main(["explain", "--config", str(cfg_path), "--function", "square", "--x", "-1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    for label, route in (("minty (subderivative)", "subderivative"),
                         ("minty (subdifferential)", "subdifferential"),
                         ("increase-along-rays", "iar"),
                         ("increase-along-rays (interior)", "iar_open")):
        line = next(ln for ln in lines if ln.startswith(f"  {label}: "))
        assert (f"solution={row.verdicts[route]} "
                f"residual={row.residuals[route]:.6g} ") in line
    assert "  suite classes: prop1=agree thm2=agree" in lines


@pytest.mark.parametrize(
    "fid, point, lines",
    [
        ("norm2d", [1.0, 1.0], [
            "  increase-along-rays: solution=False residual=1.41421 "
            "witness=(array([0., 0.]), 1.0)",
            "  increase-along-rays (interior): solution=False residual=1.41421 "
            "witness=(array([0., 0.]), 1.0)",
        ]),
        ("neg_abs", [1.0], [
            "  increase-along-rays: solution=False residual=2 "
            "witness=(array([-2.]), 0.6666666666666666)",
            "  increase-along-rays (interior): solution=False residual=1.91667 "
            "witness=(array([-1.9375]), 0.6666666666666666)",
        ]),
    ],
)
def test_explain_prints_exact_rays_residuals_where_the_bound_settles(
    monkeypatch, capsys, fid, point, lines
):
    # both partner routes are false at these points, so a suite row there
    # takes the endpoint bound and walks no ray (on neg_abs it reads 1 and
    # 0.9375 with t = 1); explain walks both rays grids and prints the
    # exact residuals and witnesses
    walks = []
    walk = minty._RayGrid.walk
    monkeypatch.setattr(minty._RayGrid, "walk",
                        lambda self, xbar: walks.append(xbar) or walk(self, xbar))
    f, params = get_function(fid), SuiteParams()
    probes = minty._EquivalenceProbes(
        f, f.default_region, params.grid_resolution(f.dim), params.probe_factor,
        params.t_resolution, suite_graph(f, params, params.probe_resolution(f.dim)), params.scheme,
    )
    ((row, _),) = probes.rows(np.array([point]), params.tol, params.band, exact=False)
    assert walks == [] and set(row.classes.values()) == {"agree"}
    arg = ",".join(str(c) for c in point)
    assert main(["explain", "--function", fid, "--x", arg]) == 0
    assert len(walks) == 2
    out = capsys.readouterr().out.splitlines()
    assert [ln for ln in out if ln.startswith("  increase-along-rays")] == lines


def test_explain_outside_the_region_is_a_usage_error(capsys):
    assert main(["explain", "--function", "abs", "--x", "3"]) == 2
    captured = capsys.readouterr()
    assert "outside the region" in captured.err
    # the region is checked before anything is printed
    assert captured.out == ""


@pytest.mark.parametrize(
    "point_args", [["--x", "nan"], ["--x", "0", "--xstar", "inf"]], ids=["x-nan", "xstar-inf"]
)
def test_explain_non_finite_point_is_a_usage_error(capsys, point_args):
    assert main(["explain", "--function", "abs", *point_args]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
    # both points are parsed before anything is printed
    assert captured.out == ""


@pytest.mark.parametrize("xstar", ["1e308", "-1e308"])
def test_explain_tilt_that_overflows_is_a_usage_error(capsys, xstar):
    # the rays route printed member=False residual=nan and exited 0
    assert main(["explain", "--function", "abs", "--x", "0", f"--xstar={xstar}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the tilt by x* = [{float(xstar)!r}] overflows on the probe region\n"


def _assert_report_matches_the_stored_bytes(config: str, stored: str) -> None:
    """The timing-free report of the ``[run]`` section ``config`` (run in
    the current directory, with ``out = report``), byte for byte, as stored
    in tests/data (a change that keeps behaviour keeps these bytes)."""
    Path("run.ini").write_text(f"[run]\n{config}out = report\n", encoding="utf-8")
    assert main(["suite", "--config", "run.ini"]) == 0
    report = json.loads(Path("report/report.json").read_text(encoding="utf-8"))
    fresh = report_json(report, include_timing=False) + "\n"
    assert fresh.encode() == (Path(__file__).parent / "data" / stored).read_bytes()


def test_determinism_config_report_matches_the_stored_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_report_matches_the_stored_bytes(
        "suites = all\nresolution = 33\nresolution_2d = 9\n"
        "thm3_candidates = 9\nthm3_candidates_2d = 3\n",
        "determinism_report.json",
    )


def test_default_config_report_matches_the_stored_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_report_matches_the_stored_bytes("", "default_report.json")
