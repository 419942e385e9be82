"""Verification suites: reusable, JSON-ready runs of the equivalence checks,
the dual-route polar comparison, the subderivative/enlargement inequality, and
the monotonicity predicates, for any function oracle.

Each suite function returns a plain dict with a ``hard_count`` entry; the CLI
sums these for its exit status. All constructions are deterministic, so two
runs with the same parameters produce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DEFAULT_BOX_HALF_WIDTH, DEFAULT_TOL, FunctionOracle, GraphSample, Region
from .core import _min_products, tensor_grid
from .minty import DEFAULT_BAND, DEFAULT_PROBE_FACTOR, DEFAULT_T_RESOLUTION, classify
from .minty import _ray_grid, _stops, _tilted_iar_residuals, cross_validate
from .polar import DEFAULT_RAY_RESOLUTION, EXACT_TOL, is_absorbing, is_monotone
from .subderivative import DEFAULT_SCHEME, LiminfScheme
from .subdifferential import DEFAULT_CDD_TOL, _cdd_flags, _cdd_profiles, sample_subdiff_graph


@dataclass(frozen=True)
class SuiteParams:
    """Knobs shared by the suites and the CLI configuration. Values that would
    make a grid quantifier vacuous raise :class:`ValueError`."""

    resolution: int = 65
    resolution_2d: int = 17
    probe_factor: int = DEFAULT_PROBE_FACTOR
    t_resolution: int = DEFAULT_T_RESOLUTION
    band: float = DEFAULT_BAND
    polar_band: float = 1e-2
    tol: float = DEFAULT_TOL
    cdd_tol: float = DEFAULT_CDD_TOL
    covector_half_width: float = DEFAULT_BOX_HALF_WIDTH
    thm3_candidates: int = 15
    thm3_candidates_2d: int = 5
    scheme: LiminfScheme = DEFAULT_SCHEME

    def __post_init__(self) -> None:
        # the equivalence suites shrink the region by one query cell, which
        # empties it at 2 points per axis
        for key in ("resolution", "resolution_2d"):
            if getattr(self, key) < 3:
                raise ValueError(f"{key} must be >= 3: the equivalence suites shrink "
                                 "the region by one query cell")
        # a grid of one point collapses its quantifier (t_resolution = 1
        # leaves only t = 0, so every rays check passes vacuously)
        for key in ("t_resolution", "thm3_candidates", "thm3_candidates_2d"):
            if getattr(self, key) < 2:
                raise ValueError(f"{key} must be >= 2")
        if self.probe_factor < 1:
            raise ValueError("probe_factor must be >= 1")
        # a NaN or infinite tolerance makes both sides of a suite's
        # comparison read the same; a nonpositive half-width leaves no
        # covector box
        for key in ("tol", "band", "polar_band", "cdd_tol", "covector_half_width"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive")

    def grid_resolution(self, dim: int) -> int:
        return self.resolution if dim == 1 else self.resolution_2d

    def candidate_resolution(self, dim: int) -> int:
        """Points per axis of thm3's candidate points and covectors."""
        return self.thm3_candidates if dim == 1 else self.thm3_candidates_2d

    def probe_resolution(self, dim: int) -> int:
        """Resolution of the y-probe grids: ``probe_factor`` times finer than
        the query grid, nested in it."""
        return self.probe_factor * (self.grid_resolution(dim) - 1) + 1


# ---------------------------------------------------------------------------
# Equivalence suites (subderivative-Minty and subdifferential-Minty vs rays)
# ---------------------------------------------------------------------------

#: The comparison of :class:`~varpolar.minty.EquivalenceReport` behind each
#: equivalence suite.
EQUIVALENCE_THEOREMS = {"prop1": "subderivative_vs_iar", "thm2": "subdifferential_vs_iar"}


def equivalence_report(f: FunctionOracle, params: SuiteParams, exact: bool = True,
                       suites: Sequence[str] = tuple(EQUIVALENCE_THEOREMS)):
    """The comparisons of the equivalence suites among ``suites`` (prop1 and
    thm2 by default), with thm2's graph from :func:`suite_graph` at the probe
    resolution; ``exact`` as in :func:`~varpolar.minty.cross_validate`."""
    return cross_validate(
        f,
        resolution=params.grid_resolution(f.dim),
        probe_factor=params.probe_factor,
        t_resolution=params.t_resolution,
        band=params.band,
        scheme=params.scheme,
        graph=suite_graph(f, params, params.probe_resolution(f.dim)) if "thm2" in suites else None,
        tol=params.tol,
        exact=exact,
        comparisons=[key for name, key in EQUIVALENCE_THEOREMS.items() if name in suites],
    )


# ---------------------------------------------------------------------------
# Dual-route polar suite
# ---------------------------------------------------------------------------

def _candidate_grids(f, params: SuiteParams) -> tuple[np.ndarray, np.ndarray]:
    n = params.candidate_resolution(f.dim)
    bound = 4.0 if f.dim == 1 else 2.0
    return f.default_region.sample(n), tensor_grid([np.linspace(-bound, bound, n)] * f.dim)


def suite_graph(f, params: SuiteParams, resolution: int, source: str = "auto") -> GraphSample:
    """The subdifferential graph of f over its default region at
    ``resolution``, sampled with the covector knobs and the scheme of
    ``params``; ``source="auto"`` takes the exact side-oracle when f has
    one."""
    return sample_subdiff_graph(
        f,
        f.default_region,
        resolution,
        source=source,
        covector_half_width=params.covector_half_width,
        scheme=params.scheme,
    )


def thm3_graph(f, params: SuiteParams) -> GraphSample:
    """The graph of thm3's polar route: sampled four times denser than the
    candidate points, from the exact side-oracle when there is one."""
    return suite_graph(f, params, 4 * (params.candidate_resolution(f.dim) - 1) + 1)


def thm3_suite(f: FunctionOracle, params: SuiteParams) -> dict:
    """Compare sampled-polar membership against the tilted increase-along-rays
    route on a candidate grid, with the graph of :func:`thm3_graph`.

    :func:`~varpolar.minty.classify` classes each pair, as for prop1 and
    thm2, in ``polar_band``: the graph route reads related when the min
    product is >= -tol, and its residual is -min product.

    Where the graph route already says "not related" (min product < -tol),
    the rays route stops at tol (:func:`~varpolar.minty._stops`, the stop
    rule of prop1 and thm2 too): the pair agrees whatever its exact
    residual, which the suite prints only on disagreement rows. The pairs
    are graded as (x, x*) arrays, counted with numpy, and only the
    disagreement rows become dicts."""
    region = f.default_region
    xs, cs = _candidate_grids(f, params)
    graph = thm3_graph(f, params)
    min_products = _min_products(graph, xs, cs)
    grid = _ray_grid(f, region, params.probe_resolution(f.dim), DEFAULT_RAY_RESOLUTION)
    stops = _stops(min_products >= -params.tol, params.tol)
    rays, _ = _tilted_iar_residuals(f, xs, cs, grid, stops)
    classes = classify(min_products >= -params.tol, -min_products,
                       rays <= params.tol, rays, params.polar_band)
    counts = {c: int(np.count_nonzero(classes == c)) for c in ("agree", "indeterminate", "hard")}
    disagreements = [
        {"x": xs[i].tolist(), "xstar": cs[k].tolist(), "class": str(classes[i, k]),
         "min_product": float(min_products[i, k]), "iar_residual": float(rays[i, k])}
        for i, k in zip(*np.nonzero(classes != "agree"))
    ]
    return {
        "function": f.name,
        "region": region.describe(),
        "candidates": int(xs.shape[0] * cs.shape[0]),
        "graph_resolution": graph.meta["resolution"],
        "graph_size": len(graph),
        "graph_source": graph.meta["source"],
        "covector_truncated": graph.meta["truncated"],
        "band": params.polar_band,
        **counts,
        "hard_count": counts["hard"],
        "disagreements": disagreements,
    }


# ---------------------------------------------------------------------------
# Subderivative / enlargement inequality suite
# ---------------------------------------------------------------------------

def cdd_suite(f: FunctionOracle, params: SuiteParams) -> dict:
    """Check the inequality at every finite grid point along +-e_i.

    The grid points go through the stacked pass of
    :func:`~varpolar.subdifferential.cdd_profile` in blocks, so each block of
    base points shares its oracle and graph calls; every point keeps its own
    verdicts and truncation flag, as a per-point ``cdd_profile`` call gives
    them. Passes are counted on each block's verdict arrays, and only a
    failing check becomes a failure entry.

    The pass runs with the centre bound (the ``bound`` argument of
    ``_cdd_profiles``, as thm3's rays kernel takes its stops): a base point
    whose checks all pass on the lower bound from its local grids' centres
    is settled without its enlargement suprema, since a check that passes
    on the bound passes on the exact rhs. A failing check's point takes the
    exact pass, so every failure entry, ``rhs`` included, is that of the
    pass without the bound, and so is the report.
    """
    region = f.default_region
    grid = region.sample(params.grid_resolution(f.dim))
    xbars = grid[np.isfinite(f.values(grid))]
    eye = np.eye(f.dim)
    dirs = np.vstack([eye, -eye])
    checks = passes = 0
    truncated = False
    failures = []
    profiles = _cdd_profiles(
        f, xbars, dirs, params.scheme, params.covector_half_width, params.cdd_tol, bound=True
    )
    start = 0
    for lhs, rhs, ok, residual, base_truncated, empty_eps in profiles:
        checks += ok.size
        passes += int(np.count_nonzero(ok))
        truncated = truncated or bool(base_truncated.any())
        for b, j in zip(*np.nonzero(~ok)):
            failures.append(
                {
                    "xbar": xbars[start + b].tolist(),
                    "direction": dirs[j].tolist(),
                    "lhs": float(lhs[b, j]),
                    "rhs": float(rhs[b, j]),
                    "residual": float(residual[b, j]),
                    "flags": list(_cdd_flags(base_truncated[b], empty_eps[b])),
                }
            )
        start += ok.shape[0]
    return {
        "function": f.name,
        "region": region.describe(),
        "checks": checks,
        "pass": passes,
        "fail": len(failures),
        "hard_count": len(failures),
        "covector_truncated": truncated,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Predicate suite
# ---------------------------------------------------------------------------

def _absorbing_candidates(f, region: Region, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior points and a covector ladder at twice the grid spacing, whose
    product is the absorbing predicate's candidate set (boundary cells
    dropped: polar constraints are one-sided there, a truncation artifact,
    not a property of the operator)."""
    h = region.spacing(resolution)
    if f.dim == 1:
        xs = region.sample(resolution)[1:-1]
        axis = np.arange(-4.5, 4.5 + 1e-9, 2 * h)
    else:
        coarse = max(3, (resolution + 1) // 2)
        xs = region.sample(coarse, interior=True)
        axis = np.arange(-4.0, 4.0 + 1e-9, 2 * h)
    return xs, tensor_grid([axis] * f.dim)


def predicates_suite(f: FunctionOracle, params: SuiteParams) -> dict:
    """Monotonicity of exact graphs (convex entries must pass, the sign-flip
    graph of -|x| must fail with a witness) and monotone absorption of every
    function's dense graph at match radius twice the sampling spacing."""
    region = f.default_region
    resolution = params.grid_resolution(f.dim)
    graph = suite_graph(f, params, resolution)
    source = graph.meta["source"]
    mono_tol = EXACT_TOL if source == "exact" else params.tol
    mono = is_monotone(graph, tol=mono_tol)
    mono_expected = bool(f.is_convex)
    mono_ok = mono.ok == mono_expected

    h = region.spacing(resolution)
    xs, cs = _absorbing_candidates(f, region, resolution)
    absorb = is_absorbing(graph, xs, cs, match_radius=2 * h, tol=params.tol)

    failures = int(not mono_ok) + int(not absorb.ok)
    result = {
        "function": f.name,
        "graph_source": source,
        "graph_size": len(graph),
        "covector_truncated": graph.meta["truncated"],
        "monotone": mono.ok,
        "monotone_expected": mono_expected,
        "monotone_min_product": mono.residual,
        "absorbing": absorb.ok,
        "absorbing_match_radius": 2 * h,
        "absorbing_related": absorb.details.get("related"),
        "absorbing_unattributed": absorb.details.get("unattributed"),
        "hard_count": failures,
    }
    if not mono.ok and mono.witness is not None:
        (p1, c1), (p2, c2) = mono.witness
        result["monotone_witness"] = {
            "first": [p1.tolist(), c1.tolist()],
            "second": [p2.tolist(), c2.tolist()],
        }
    if not absorb.ok and absorb.witness is not None:
        p, c = absorb.witness
        result["absorbing_witness"] = [p.tolist(), c.tolist()]
    return result


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------

SUITE_NAMES = ("prop1", "thm2", "thm3", "cdd", "predicates")


def run_suites(
    functions: list[FunctionOracle],
    suites: list[str],
    params: SuiteParams,
    collect_rows: bool = False,
) -> dict:
    """Run the selected suites over the function oracles and assemble an
    order-stable result tree (sorted by suite, then function name). The
    names key the tree, so two oracles may not share one.

    With ``collect_rows`` the result also carries per-xbar equivalence rows
    under ``equivalence_rows`` (a {function: (header, rows)} map) for CSV
    export; these are not part of the report tree itself.
    """
    selected = list(SUITE_NAMES) if "all" in suites else list(dict.fromkeys(suites))
    for name in selected:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
    fs = sorted(functions, key=lambda f: f.name)
    for a, b in zip(fs, fs[1:]):
        if a.name == b.name:
            raise ValueError(f"two function oracles share the name {a.name!r}")
    for f in fs:
        if f.default_region is None:
            raise ValueError(f"function oracle {f.name!r} has no default_region to sample")

    # every suite takes the oracle positionally: bench/tracer.py keys its
    # per-cell wall times by the first positional argument
    per_suite: dict[str, dict[str, dict]] = {}
    reports = {}
    if "prop1" in selected or "thm2" in selected:
        # only the CSV rows print the residuals of agreeing rows
        reports = {f.name: equivalence_report(f, params, collect_rows, selected) for f in fs}
        for name, theorem in EQUIVALENCE_THEOREMS.items():
            if name in selected:
                per_suite[name] = {fid: rep.section(theorem) for fid, rep in reports.items()}
    for name, suite in (("thm3", thm3_suite), ("cdd", cdd_suite), ("predicates", predicates_suite)):
        if name in selected:
            per_suite[name] = {f.name: suite(f, params) for f in fs}
    out = {
        name: {
            "functions": per_fn,
            "hard_count": sum(s["hard_count"] for s in per_fn.values()),
        }
        for name, per_fn in per_suite.items()
    }

    truncation = {fid for sec in out.values() for fid, fn_sec in sec["functions"].items()
                  if fn_sec.get("covector_truncated")}
    # thm2's section has no flag, but its route pairs over a graph (none without thm2)
    truncation |= {fid for fid, rep in reports.items() if rep.probe_meta.get("graph_truncated")}
    result = {
        "suites": out,
        "hard_total": sum(sec["hard_count"] for sec in out.values()),
        "truncation_flags": sorted(truncation),
    }
    if collect_rows and reports:
        result["equivalence_rows"] = {fid: rep.rows_table() for fid, rep in reports.items()}
    return result
