"""Acceptance gate: one test per acceptance criterion, each at its stated
tolerance, printing a PASS/FAIL line (run with ``pytest -s`` to see them all).

Resolutions follow the defaults: 65 in 1-D, 17 per axis in 2-D. The
determinism criterion drives the real CLI entry point twice on a reduced-
resolution configuration (the criterion constrains reproducibility, not grid
size)."""

import json
import math
import time

import numpy as np

from varpolar import (
    cross_validate,
    is_monotone,
    lower_dini,
    mean_value_witness,
    sample_subdiff_graph,
)
from varpolar.cli import main, report_json
from varpolar.library import get_function, test_library as library_oracles
from varpolar.subderivative import clarke_directional_values
from varpolar.suites import SuiteParams, cdd_suite, predicates_suite, thm3_suite

BAND = 1e-3
PARAMS = SuiteParams()


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))


def _indeterminate_fraction(counts: dict) -> float:
    total = counts["agree"] + counts["indeterminate"] + counts["hard"]
    return counts["indeterminate"] / total if total else 0.0


def test_prop1_equivalence_suite():
    """Subderivative-Minty verdicts equal rays verdicts at every grid point,
    zero hard disagreements, indeterminate fraction <= 2%, within 30 s."""
    t0 = time.time()
    worst_frac, hard_total = 0.0, 0
    for f in library_oracles():
        rep = cross_validate(f, resolution=65 if f.dim == 1 else 17, band=BAND)
        counts = rep.counts("subderivative_vs_iar")
        hard_total += counts["hard"]
        worst_frac = max(worst_frac, _indeterminate_fraction(counts))
    elapsed = time.time() - t0
    ok = hard_total == 0 and worst_frac <= 0.02 and elapsed <= 30.0
    _report(
        "prop1 equivalence suite",
        ok,
        f"hard={hard_total}, worst indeterminate fraction={worst_frac:.4f}, "
        f"runtime={elapsed:.1f}s",
    )
    assert hard_total == 0
    assert worst_frac <= 0.02
    assert elapsed <= 30.0


def test_thm2_equivalence_suite():
    """Subdifferential-Minty verdicts equal rays verdicts on the open-interior
    grid, exact graphs for convex entries and numeric graphs for the
    nonconvex ones, same band and budget."""
    t0 = time.time()
    worst_frac, hard_total = 0.0, 0
    sources = {}
    for f in library_oracles():
        rep = cross_validate(f, resolution=65 if f.dim == 1 else 17, band=BAND)
        counts = rep.counts("subdifferential_vs_iar")
        hard_total += counts["hard"]
        worst_frac = max(worst_frac, _indeterminate_fraction(counts))
        sources[f.name] = rep.probe_meta["graph_source"]
    elapsed = time.time() - t0
    assert sources["neg_abs"] == "clarke-numeric"
    assert sources["twowell"] == "clarke-numeric"
    assert all(src == "exact" for fid, src in sources.items() if get_function(fid).is_convex)
    ok = hard_total == 0 and worst_frac <= 0.02 and elapsed <= 30.0
    _report(
        "thm2 equivalence suite",
        ok,
        f"hard={hard_total}, worst indeterminate fraction={worst_frac:.4f}, "
        f"runtime={elapsed:.1f}s",
    )
    assert hard_total == 0
    assert worst_frac <= 0.02
    assert elapsed <= 30.0


def test_thm3_dual_route_suite():
    """Sampled-polar membership against a 4x-dense graph equals the tilted
    rays route on >= 200 candidate pairs per function, with zero hard
    disagreements outside the band."""
    hard_total, min_candidates = 0, math.inf
    for f in library_oracles():
        sec = thm3_suite(f, PARAMS)
        hard_total += sec["hard"]
        min_candidates = min(min_candidates, sec["candidates"])
        assert sec["graph_resolution"] >= 4 * (PARAMS.thm3_candidates_2d - 1) + 1
    ok = hard_total == 0 and min_candidates >= 200
    _report(
        "thm3 dual-route suite",
        ok,
        f"hard={hard_total}, min candidates={min_candidates}",
    )
    assert min_candidates >= 200
    assert hard_total == 0


def test_formula2_suite():
    """Subderivative / enlargement inequality holds (lhs <= rhs + 1e-3, all
    sampled enlargements nonempty) at every finite grid point along +-e_i;
    unbounded subdifferentials pass under the documented covector truncation
    with the flag set."""
    fail_total = 0
    truncated_fns = set()
    for f in library_oracles():
        sec = cdd_suite(f, PARAMS)
        fail_total += sec["fail"]
        if sec["covector_truncated"]:
            truncated_fns.add(f.name)
    ok = fail_total == 0 and {"ind_halfline", "ind_origin"} <= truncated_fns
    _report(
        "cdd enlargement-inequality suite",
        ok,
        f"failures={fail_total}, truncation flagged for {sorted(truncated_fns)}",
    )
    assert fail_total == 0
    assert {"ind_halfline", "ind_origin"} <= truncated_fns


def test_predicate_suite():
    """Monotone for every convex exact graph, non-monotone for the numeric
    graph of -|x| with an explicit violating pair, absorbing at match radius
    twice the spacing for every dense graph."""
    failures = []
    for f in library_oracles():
        sec = predicates_suite(f, PARAMS)
        if sec["hard_count"]:
            failures.append(f.name)
    # the explicit violating pair for -|x|
    na = get_function("neg_abs")
    g = sample_subdiff_graph(na, na.default_region, 65, source="clarke-numeric")
    v = is_monotone(g)
    pair_ok = (not v.ok) and v.witness is not None
    if pair_ok:
        (p1, c1), (p2, c2) = v.witness
        product = float(np.dot(c2 - c1, p2 - p1))
        pair_ok = product < -1e-6
    ok = not failures and pair_ok
    _report(
        "Predicate suite",
        ok,
        f"failing functions={failures}, neg_abs violating pair product={v.residual:.3g}",
    )
    assert not failures
    assert pair_ok


def test_mean_value_inequality_suite():
    """A witness exists for every qualifying (x, xbar, lambda) triple drawn
    from a 9-point grid per 1-D function with lambda in {gap, gap/2};
    at least 100 witnesses, zero failures."""
    found, failures = 0, 0
    for f in library_oracles():
        if f.dim != 1:
            continue
        grid = f.default_region.sample(9)[:, 0]
        for x in grid:
            fx = f.value([x])
            if not math.isfinite(fx):
                continue
            for xb in grid:
                if xb == x:
                    continue
                gap = f.value([xb]) - fx
                lams = []
                if math.isfinite(gap):
                    lams.append(gap)
                    if gap >= 0:
                        lams.append(gap / 2.0)
                for lam in lams:
                    try:
                        w = mean_value_witness(f, [x], [xb], lam)
                    except Exception:
                        failures += 1
                        continue
                    if lower_dini(f, w, [xb - x]).value >= lam - 1e-5:
                        found += 1
                    else:
                        failures += 1
    ok = found >= 100 and failures == 0
    _report("Mean Value Inequality suite", ok, f"witnesses={found}, failures={failures}")
    assert found >= 100
    assert failures == 0


def test_numerical_sanity():
    """Estimator agrees with the exact subderivative within 1e-4 (or both
    +inf) on >= 500 sampled cases; positive homogeneity within 1e-8 relative;
    dominance by the generalized derivative within 1e-6."""
    checked = 0
    homogeneity_ok = dominance_ok = True
    for f in library_oracles():
        pts = f.default_region.sample(11 if f.dim == 1 else 5)
        pts = pts[np.isfinite(f.values(pts))]
        dirs = np.vstack(
            [np.eye(f.dim), -np.eye(f.dim), 2.5 * np.eye(f.dim),
             np.ones((1, f.dim)), -0.5 * np.ones((1, f.dim))]
        )
        xs, ds = np.repeat(pts, len(dirs), axis=0), np.tile(dirs, (len(pts), 1))
        for x, d, exact in zip(xs, ds, f.exact_subderivative(xs, ds)):
            est = lower_dini(f, x, d).value
            if math.isinf(exact):
                assert math.isinf(est), (f.name, x, d)
            else:
                assert abs(est - exact) <= 1e-4, (f.name, x, d, est, exact)
            checked += 1
        for x in pts[:: max(1, len(pts) // 4)]:
            for d in np.vstack([np.eye(f.dim), -np.eye(f.dim)]):
                base = lower_dini(f, x, d).value
                for tau in (0.5, 2.0):
                    scaled = lower_dini(f, x, tau * d).value
                    if math.isinf(base):
                        homogeneity_ok &= math.isinf(scaled)
                    else:
                        homogeneity_ok &= abs(scaled - tau * base) <= 1e-8 * (1 + abs(scaled))
                up = clarke_directional_values(f, x[None, :], d)[0][0]
                dominance_ok &= base <= up + 1e-6
    ok = checked >= 500 and homogeneity_ok and dominance_ok
    _report(
        "Numerical sanity",
        ok,
        f"cases={checked}, homogeneity={homogeneity_ok}, dominance={dominance_ok}",
    )
    assert checked >= 500
    assert homogeneity_ok
    assert dominance_ok


def test_determinism(tmp_path):
    """Two CLI runs of `suite --suite all` over the whole library produce
    byte-identical JSON reports once the timing block is removed."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nsuites = all\nresolution = 33\nresolution_2d = 9\n"
        "thm3_candidates = 9\nthm3_candidates_2d = 3\n"
        f"out = {tmp_path / 'report'}\n",
        encoding="utf-8",
    )
    blobs = []
    for _ in range(2):
        code = main(["suite", "--config", str(cfg)])
        assert code == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        report.pop("timing", None)
        blobs.append(report_json(report, include_timing=False).encode())
    ok = blobs[0] == blobs[1]
    _report("Determinism", ok, f"{len(blobs[0])} bytes compared")
    assert ok
