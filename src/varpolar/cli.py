"""Command-line frontend: configure runs, execute verification suites, and
emit machine-readable (JSON), tabular (CSV), and human-readable reports.

Exit status: 0 when every selected suite passes, 1 on hard disagreements,
2 on configuration or usage errors. Reports are deterministic: identical
configurations produce byte-identical JSON apart from the ``timing`` block.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Collection, Iterable

import numpy as np

from .library import FUNCTION_IDS, get_function
from .minty import _EquivalenceProbes, classify
from .polar import _check_tilt, polar_contains, polar_membership_via_iar, polar_of_sample
from .subderivative import LiminfScheme, clarke_directional, lower_dini
from .subdifferential import clarke_subdiff_contains, convex_subdiff_contains
from .suites import (
    EQUIVALENCE_THEOREMS,
    SUITE_NAMES,
    SuiteParams,
    _candidate_grids,
    run_suites,
    suite_graph,
    thm3_graph,
)


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig(SuiteParams):
    """Declarative run description: the suites' knobs plus function ids, suite
    selection, and output destinations."""

    functions: list[str] = field(default_factory=lambda: list(FUNCTION_IDS))
    suites: list[str] = field(default_factory=lambda: ["all"])
    out: str | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        super().__post_init__()
        for fid in self.functions:
            if fid not in FUNCTION_IDS:
                raise ConfigError(f"unknown function id {fid!r}; known: {', '.join(FUNCTION_IDS)}")
        if len(set(self.functions)) != len(self.functions):
            raise ConfigError(f"function ids repeat: {', '.join(self.functions)}")
        for s in self.suites:
            if s != "all" and s not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {s!r}; choose from {SUITE_NAMES} or 'all'")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        for key in ("functions", "suites"):  # an empty one would run nothing and pass
            if not getattr(self, key):
                raise ConfigError(f"{key} must name at least one entry")

    def echo(self) -> dict:
        """Every config key with its value, the scheme's fields flattened in."""
        d = asdict(self)
        d.update(d.pop("scheme"))
        d["functions"] = sorted(self.functions)
        return d


_SCHEME_KEYS = {f.name for f in fields(LiminfScheme)}


def _coerce(raw: str, default):
    if isinstance(default, list):
        return [p.strip() for p in raw.replace(",", " ").split() if p.strip()]
    if isinstance(default, (int, float)):
        return type(default)(raw)
    return raw


def load_config(path: str | None, overrides: dict, unread: Collection[str] = ()) -> RunConfig:
    """Build a RunConfig from an INI-style file plus flag overrides. The keys
    are the RunConfig fields with the scheme's fields in place of ``scheme``;
    each value takes the type of its default. A file key in ``unread``, one
    the calling verb would ignore, is a usage error, as is a file that does
    not parse as UTF-8 INI with literal values and inline ``;``/``#`` comments.
    Every section is checked, ``[DEFAULT]`` included (``sections()`` omits it)."""
    defaults = RunConfig().echo()
    values = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file {path!r} not found or unreadable")
        for section in (parser.default_section, *parser.sections()):
            for key, raw in parser.items(section):
                if key not in defaults:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                if key in unread:
                    raise ConfigError(
                        f"config key {key!r} in section [{section}] is not read by this verb"
                    )
                try:
                    values[key] = _coerce(raw, defaults[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r} in section [{section}]: {exc}") from exc
    values.update((key, value) for key, value in overrides.items() if value is not None)
    scheme = {key: values.pop(key) for key in _SCHEME_KEYS & values.keys()}
    try:
        return RunConfig(scheme=LiminfScheme(**scheme), **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def report_json(report: dict, include_timing: bool = True) -> str:
    payload = dict(report)
    if not include_timing:
        payload.pop("timing", None)
    return json.dumps(payload, sort_keys=True, indent=2)


def _suite_rows(report: dict) -> list[list]:
    rows: list[list] = []
    for suite in sorted(report["suites"]):
        sec = report["suites"][suite]
        for fid in sorted(sec.get("functions", {})):
            fn_sec = sec["functions"][fid]
            for key in sorted(fn_sec):
                val = fn_sec[key]
                if isinstance(val, (int, float, bool, str)):
                    rows.append([suite, fid, key, val])
    return rows


def _write_csv(header: list, rows: Iterable[list], path: Path | None = None) -> None:
    """Write a CSV table to ``path``, or to stdout without one."""
    with path.open("w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(out: str | None) -> Path | None:
    """Create the output directory, if any, before any work: a path that
    cannot be created is a usage error, not a failure after the run."""
    if not out:
        return None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    return Path(out)


def write_reports(report: dict, out_dir: str | Path, fmt: str) -> list[Path]:
    """Write ``report.json``, and ``report.csv`` for the csv format, into
    the existing directory ``out_dir``; returns the paths written."""
    out = Path(out_dir)
    written = []
    jpath = out / "report.json"
    jpath.write_text(report_json(report) + "\n", encoding="utf-8")
    written.append(jpath)
    if fmt == "csv":
        cpath = out / "report.csv"
        _write_csv(["suite", "function", "metric", "value"], _suite_rows(report), cpath)
        written.append(cpath)
    return written


def render_text(report: dict) -> str:
    lines = []
    for suite in sorted(report["suites"]):
        sec = report["suites"][suite]
        lines.append(f"[{suite}] hard disagreements: {sec['hard_count']}")
        for fid in sorted(sec.get("functions", {})):
            fn_sec = sec["functions"][fid]
            bits = []
            for key in ("agree", "indeterminate", "hard", "pass", "fail", "checks",
                        "monotone", "absorbing", "candidates"):
                if key in fn_sec:
                    bits.append(f"{key}={fn_sec[key]}")
            lines.append(f"  {fid:13s} " + " ".join(bits))
    lines.append(f"total hard disagreements: {report['hard_total']}")
    if report.get("truncation_flags"):
        lines.append("covector truncation flagged for: " + ", ".join(report["truncation_flags"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_suite(cfg: RunConfig) -> int:
    out = _out_dir(cfg.out)
    t_start = time.time()
    want_rows = bool(cfg.out) and cfg.format == "csv"
    functions = [get_function(fid) for fid in cfg.functions]
    result = run_suites(functions, cfg.suites, cfg, collect_rows=want_rows)
    report = {
        "config": cfg.echo(),
        "suites": result["suites"],
        "hard_total": result["hard_total"],
        "truncation_flags": result["truncation_flags"],
        "timing": {"seconds_total": round(time.time() - t_start, 3)},
    }
    print(render_text(report))
    if out:
        for path in write_reports(report, out, cfg.format):
            print(f"wrote {path}")
        for fid, (header, rows) in result.get("equivalence_rows", {}).items():
            rpath = out / f"equivalence_{fid}.csv"
            _write_csv(header, rows, rpath)
            print(f"wrote {rpath}")
    return 0 if report["hard_total"] == 0 else 1


def _parse_point(raw: str, dim: int) -> np.ndarray:
    try:
        vals = [float(p) for p in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse point {raw!r}: {exc}") from exc
    if len(vals) != dim:
        raise ConfigError(f"point {raw!r} has {len(vals)} coordinates, expected {dim}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"point {raw!r} has a non-finite coordinate")
    return np.asarray(vals)


def cmd_explain(cfg: RunConfig, function_id: str, x_raw: str, xstar_raw: str | None) -> int:
    f = get_function(function_id)
    region = f.default_region
    # every usage error comes before the first line of output
    x = _parse_point(x_raw, f.dim)
    xstar = None if xstar_raw is None else _parse_point(xstar_raw, f.dim)
    if xstar is None and not region.contains(x):  # the prop1/thm2 row probes the region
        raise ConfigError(f"x = {x.tolist()} lies outside the region of {function_id}")
    if xstar is not None:
        try:
            _check_tilt(region, x, xstar)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    print(f"function {function_id} on {region.describe()}")
    fx = f.value(x)
    print(f"f({x.tolist()}) = {fx}")

    if math.isfinite(fx):
        eye = np.eye(f.dim)
        for d in np.vstack([eye, -eye]):
            sd = lower_dini(f, x, d, cfg.scheme)
            up = clarke_directional(f, x, d, cfg.scheme)
            print(
                f"  direction {d.tolist()}: subderivative {sd.value:.6g} "
                f"(bracket {sd.bracket[0]:.6g}..{sd.bracket[1]:.6g}), "
                f"generalized {up.value:.6g}"
            )

    if xstar is None:
        # the routes of the prop1/thm2 row at x, on the suites' probe grids
        graph = suite_graph(f, cfg, cfg.probe_resolution(f.dim))
        probes = _EquivalenceProbes(f, region, cfg.grid_resolution(f.dim), cfg.probe_factor,
                                    cfg.t_resolution, graph, cfg.scheme)
        ((row, witnesses),) = probes.rows(x[None, :], cfg.tol, cfg.band)
        for label, route in (
            ("minty (subderivative)", "subderivative"),
            ("minty (subdifferential)", "subdifferential"),
            ("increase-along-rays", "iar"),
            ("increase-along-rays (interior)", "iar_open"),
        ):
            if route in row.residuals:
                witness = probes.witness(route, witnesses[route])
                print(f"  {label}: solution={row.verdicts[route]} "
                      f"residual={row.residuals[route]:.6g} witness={witness}")
            else:
                print(f"  {label}: not evaluated (x is not an interior point with graph pairs)")
        classes = " ".join(f"{suite}={row.classes[key]}"
                           for suite, key in EQUIVALENCE_THEOREMS.items() if key in row.classes)
        if not math.isfinite(fx):
            classes = "none (f(x) = +inf: the suites grade only points where f is finite)"
        print(f"  suite classes: {classes}")
        return 0

    probe_res = cfg.probe_resolution(f.dim)
    if math.isfinite(fx):
        conv = convex_subdiff_contains(f, x, xstar, probe=region, resolution=probe_res, tol=cfg.tol)
        print(f"  convex membership: contains={conv.ok} residual={conv.residual:.6g} witness={None if conv.witness is None else conv.witness.tolist()}")
        clk = clarke_subdiff_contains(f, x, xstar, scheme=cfg.scheme, tol=cfg.tol)
        print(f"  generalized membership: contains={clk.ok} residual={clk.residual:.6g} witness={None if clk.witness is None else clk.witness.tolist()}")
    pv = polar_contains(thm3_graph(f, cfg), x, xstar, tol=cfg.tol)
    print(f"  polar (graph route): related={pv.ok} min_product={pv.residual:.6g} witness={pv.witness}")
    iv = polar_membership_via_iar(f, x, xstar, region, probe_resolution=probe_res, tol=cfg.tol)
    print(f"  polar (rays route): member={iv.ok} residual={iv.residual:.6g} witness={iv.witness}")
    print(f"  suite class: thm3={classify(pv.ok, -pv.residual, iv.ok, iv.residual, cfg.polar_band)}")
    return 0


def cmd_graph(cfg: RunConfig, function_id: str, source: str) -> int:
    f = get_function(function_id)
    if source == "exact" and f.exact_subdifferential is None:
        raise ConfigError(f"function {function_id!r} has no exact subdifferential; "
                          "use --source clarke-numeric or auto")
    out = _out_dir(cfg.out)
    graph = suite_graph(f, cfg, cfg.grid_resolution(f.dim), source)
    _write_csv(graph.csv_header(), graph.to_rows())
    if out:
        cpath = out / f"graph_{function_id}.csv"
        _write_csv(graph.csv_header(), graph.to_rows(), cpath)
        (out / f"graph_{function_id}.meta.json").write_text(
            json.dumps(dict(graph.meta), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {cpath}", file=sys.stderr)
    return 0


def cmd_polar(cfg: RunConfig, function_id: str) -> int:
    f = get_function(function_id)
    graph = suite_graph(f, cfg, cfg.grid_resolution(f.dim))
    related = polar_of_sample(graph, *_candidate_grids(f, cfg), tol=cfg.tol)
    _write_csv(related.csv_header(), related.to_rows())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varpolar",
        description="Numerical verification of subderivative, subdifferential, "
        "variational-inequality, and monotone-polar identities on a curated "
        "test-function library.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="INI-style config file")
        p.add_argument("--function", action="append", dest="functions",
                       metavar="ID", help="restrict to this function id (repeatable)")
        p.add_argument("--resolution", type=int, default=None, help="1-D grid resolution")
        p.add_argument("--tol", type=float, default=None, help="comparison tolerance")

    p_suite = sub.add_parser("suite", help="run configured verification suites")
    add_common(p_suite)
    p_suite.add_argument("--out", default=None, help="output directory for reports")
    p_suite.add_argument("--format", choices=("json", "csv"), default=None)
    p_suite.add_argument("--suite", action="append", dest="suites",
                         choices=SUITE_NAMES + ("all",), help="suite to run (repeatable)")

    p_explain = sub.add_parser("explain", help="single-point drill-down across all routes")
    add_common(p_explain)
    p_explain.add_argument("--x", required=True, help="query point, comma-separated coordinates")
    p_explain.add_argument("--xstar", default=None, help="optional covector for membership/polar routes")

    p_graph = sub.add_parser("graph", help="dump a sampled subdifferential graph as CSV")
    add_common(p_graph)
    p_graph.add_argument("--source", choices=("exact", "clarke-numeric", "auto"), default="auto")
    p_graph.add_argument("--out", default=None, help="output directory for the graph files")

    p_polar = sub.add_parser("polar", help="dump monotonically related candidate pairs as CSV")
    add_common(p_polar)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # a verb reads the output keys it has flags for, and rejects the others
    unread = [key for key in ("out", "format") if not hasattr(args, key)]
    overrides = {
        "functions": args.functions,
        "resolution": args.resolution,
        "tol": args.tol,
        "out": getattr(args, "out", None),
        "format": getattr(args, "format", None),
    }
    if getattr(args, "suites", None):
        overrides["suites"] = args.suites
    return load_config(args.config, overrides, unread)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.verb == "suite":
            return cmd_suite(cfg)
        if len(cfg.functions) != 1:
            raise ConfigError(f"{args.verb} needs exactly one --function")
        if args.verb == "explain":
            return cmd_explain(cfg, cfg.functions[0], args.x, args.xstar)
        if args.verb == "graph":
            return cmd_graph(cfg, cfg.functions[0], args.source)
        return cmd_polar(cfg, cfg.functions[0])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
