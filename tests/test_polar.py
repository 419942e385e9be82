"""Monotone polar operations, monotonicity predicates, absorption, and the
rays route to polar membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpolar import (
    GraphSample,
    Region,
    is_absorbing,
    is_monotone,
    polar_contains,
    polar_membership_via_iar,
    polar_of_sample,
    sample_subdiff_graph,
)
from varpolar import core, polar
from varpolar.library import get_function, test_library as library_oracles
from varpolar.polar import DEFAULT_RAY_RESOLUTION
from varpolar.suites import SuiteParams, predicates_suite
from test_clarke_kernel import _peak_mb


def _graph(pairs):
    return GraphSample.from_pairs([(np.array([p]), np.array([c])) for p, c in pairs])


# -- polar_contains ---------------------------------------------------------------

def test_single_pair_related():
    v = polar_contains(_graph([(0.0, 0.0)]), [1.0], [1.0])
    assert v.ok and v.residual == pytest.approx(1.0)


def test_single_pair_unrelated_with_witness():
    v = polar_contains(_graph([(0.0, 0.0)]), [1.0], [-1.0])
    assert not v.ok
    assert v.residual == pytest.approx(-1.0)
    assert v.witness[0][0] == 0.0 and v.witness[1][0] == 0.0


def test_sign_graph_brute_force():
    T = _graph([(-1.0, -1.0), (1.0, 1.0)])
    v = polar_contains(T, [0.0], [0.5])
    # brute force over the two pairs: (-1-0.5)(-1-0)=1.5 and (1-0.5)(1-0)=0.5
    assert v.ok and v.residual == pytest.approx(0.5)


def test_empty_graph_relates_everything():
    empty = GraphSample.empty(1)
    v = polar_contains(empty, [3.0], [-7.0])
    assert v.ok and v.residual == math.inf and v.witness is None


# -- is_monotone --------------------------------------------------------------------

def test_gradient_graph_of_square_is_monotone():
    g = sample_subdiff_graph(get_function("square"), Region.interval(-2, 2), 65, source="exact")
    assert is_monotone(g, tol=1e-9).ok


def test_two_point_swap_is_not_monotone():
    v = is_monotone(_graph([(0.0, 1.0), (1.0, 0.0)]))
    assert not v.ok
    assert v.residual == pytest.approx(-1.0)


def test_clarke_graph_of_neg_abs_is_not_monotone():
    f = get_function("neg_abs")
    g = sample_subdiff_graph(f, Region.interval(-1, 1), 3, source="clarke-numeric")
    v = is_monotone(g)
    assert not v.ok
    # brute force: the worst unordered pair is (-1, 1) against (1, -1)
    assert v.residual == pytest.approx(-4.0)
    assert v.witness is not None


def test_every_convex_exact_graph_is_monotone():
    for f in library_oracles():
        if not f.is_convex:
            continue
        res = 65 if f.dim == 1 else 17
        g = sample_subdiff_graph(f, f.default_region, res, source="exact")
        assert is_monotone(g, tol=1e-9).ok, f.name


# -- polar_of_sample -----------------------------------------------------------------

def test_polar_of_empty_graph_is_full_candidate_set():
    cands = _graph([(0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)])
    out = polar_of_sample(GraphSample.empty(1), cands)
    assert len(out) == len(cands)


def test_polar_of_origin_pair_is_sign_condition():
    T = _graph([(0.0, 0.0)])
    xs = np.linspace(-1, 1, 9)
    cands = GraphSample(
        np.repeat(xs, 9)[:, None], np.tile(np.linspace(-1, 1, 9), 9)[:, None]
    )
    out = polar_of_sample(T, cands)
    assert all(p[0] * c[0] >= -1e-6 for p, c in out.pairs())
    expected = sum(1 for x in xs for c in np.linspace(-1, 1, 9) if x * c >= -1e-6)
    assert len(out) == expected


def test_polar_of_abs_graph_hugs_the_sign_map():
    f = get_function("abs")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    xs = np.linspace(-1.5, 1.5, 13)
    cs = np.linspace(-2.0, 2.0, 17)
    cands = GraphSample(
        np.repeat(xs, len(cs))[:, None], np.tile(cs, len(xs))[:, None]
    )
    out = polar_of_sample(T, cands)
    assert len(out) > 0
    for p, c in out.pairs():
        assert f.exact_subdifferential(p).contains(c, tol=0.1), (p, c)
    # the vertical segment at the kink is retained
    kept_at_zero = sorted(c[0] for p, c in out.pairs() if p[0] == 0.0)
    assert kept_at_zero[0] == -1.0 and kept_at_zero[-1] == 1.0


@settings(max_examples=25, deadline=None)
@given(split=st.integers(min_value=1, max_value=60))
def test_polar_antitone_in_the_graph(split):
    f = get_function("square")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    sub = T.filter(np.arange(len(T)) < split)
    xs = np.linspace(-2, 2, 7)
    cs = np.linspace(-4, 4, 7)
    cands = GraphSample(np.repeat(xs, 7)[:, None], np.tile(cs, 7)[:, None])
    small = {(p[0], c[0]) for p, c in polar_of_sample(T, cands).pairs()}
    large = {(p[0], c[0]) for p, c in polar_of_sample(sub, cands).pairs()}
    assert small <= large


# -- is_absorbing --------------------------------------------------------------------

def test_dense_gradient_graph_absorbs():
    f = get_function("square")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    h = Region.interval(-2, 2).spacing(65)
    xs = Region.interval(-2, 2).sample(65)[1:-1, 0]
    cs = np.arange(-4.5, 4.5 + 1e-9, 2 * h)
    cands = GraphSample(np.repeat(xs, len(cs))[:, None], np.tile(cs, len(xs))[:, None])
    assert is_absorbing(T, cands, match_radius=2 * h, oracle=f).ok


def test_single_point_graph_absorbs_nothing():
    T = _graph([(0.0, 0.0)])
    cands = _graph([(1.0, 1.0), (0.5, 0.25)])
    v = is_absorbing(T, cands, match_radius=0.1)
    assert not v.ok
    assert v.witness is not None


def test_sign_map_graph_absorbs():
    f = get_function("abs")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    h = Region.interval(-2, 2).spacing(65)
    xs = Region.interval(-2, 2).sample(65)[1:-1, 0]
    cs = np.arange(-1.5, 1.5 + 1e-9, 2 * h)
    cands = GraphSample(np.repeat(xs, len(cs))[:, None], np.tile(cs, len(xs))[:, None])
    assert is_absorbing(T, cands, match_radius=2 * h, oracle=f).ok


def test_without_a_side_oracle_the_hull_at_the_point_attributes():
    # a sampled set at one point (numeric Clarke sets come as vertices and
    # centroid): a candidate there is attributed when its covector lies in
    # the hull of the set, however far it is from the sampled covectors
    T = _graph([(0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (2.0, 5.0)])
    cands = _graph([(0.0, 0.5), (0.0, -0.5), (0.0, 3.0), (1.0, 2.0)])
    v = is_absorbing(T, cands, match_radius=0.1)
    assert v.details == {"related": 4, "unattributed": 2}
    assert v.witness[1].tolist() == [3.0] and v.residual == pytest.approx(1.9)
    # in 2-D the hull is a polytope: the unit square's vertices at the origin
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    T = GraphSample(np.zeros((4, 2)), square)
    cands = GraphSample(np.zeros((3, 2)), np.array([[0.5, 0.5], [0.0, -1.0], [1.5, 0.0]]))
    v = is_absorbing(T, cands, match_radius=0.1)
    assert v.details == {"related": 3, "unattributed": 1}
    assert v.witness[1].tolist() == [1.5, 0.0]


# -- row blocks of the polar kernels -------------------------------------------------

def _noisy_gradient_graph(rng, n, dim):
    # a monotone linear map plus noise: some candidates are related, some
    # unattributed, and some pairs of the graph are not monotone
    a = rng.normal(size=(dim, dim))
    pts = rng.normal(size=(n, dim))
    return GraphSample(pts, pts @ (a @ a.T + np.eye(dim)) + 0.3 * rng.normal(size=(n, dim)))


def _tied_graph():
    # small integers, so every product is exact; the pairs (0, 1), (0, 3)
    # and (2, 3) of this graph all reach its minimum product -2
    return _graph([(0.0, 2.0), (1.0, 0.0), (1.0, 3.0), (2.0, 1.0)])


def _block_cases():
    rng = np.random.default_rng(7)
    cases = {}
    for dim in (1, 2, 3):
        T = _noisy_gradient_graph(rng, 23, dim)
        cands = _noisy_gradient_graph(rng, 50, dim)
        cases[f"random-{dim}d"] = (T, cands)
    grid = np.arange(-2.0, 2.5, 1.0)
    cases["ties"] = (_tied_graph(), GraphSample(np.repeat(grid, 5)[:, None], np.tile(grid, 5)[:, None]))
    cases["no-candidates"] = (cases["random-2d"][0], GraphSample.empty(2))
    cases["empty-graph"] = (GraphSample.empty(2), cases["random-2d"][1])
    cases["one-pair"] = (_graph([(0.5, -0.25)]), cases["random-1d"][1])
    return cases


def _bits(v):
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def _kernel_outputs(T, cands):
    related = polar_of_sample(T, cands)
    absorbing = is_absorbing(T, cands, match_radius=0.2)
    monotone = is_monotone(T)
    out = {
        "polar": (_bits(related.points), _bits(related.covectors)),
        "absorbing": (absorbing.ok, _bits(absorbing.residual), _bits(absorbing.witness),
                      absorbing.details),
        "monotone": (monotone.ok, _bits(monotone.residual), _bits(monotone.witness)),
    }
    if len(T):
        mins, args = polar._min_products(T, cands.points, cands.covectors)
        out["min_products"] = (_bits(mins), args.tolist())
    return out


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_row_blocks_keep_every_bit(monkeypatch, case):
    T, cands = _block_cases()[case]
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 10**9)
    whole = _kernel_outputs(T, cands)
    # one row per block, and three rows per block, which divides neither the
    # 50 candidate rows nor the 22 pair rows of the random graphs
    for budget in (1, 3 * len(T) + 1):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", budget)
        assert _kernel_outputs(T, cands) == whole


def _brute_min_products(T, cands):
    return [
        min(
            (float(np.dot(y_star - x_star, y - x)), k)
            for k, (y, y_star) in enumerate(T.pairs())
        )
        for x, x_star in cands.pairs()
    ]


def test_tied_products_report_the_first_occurrence(monkeypatch):
    T, cands = _block_cases()["ties"]
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    mins, args = polar._min_products(T, cands.points, cands.covectors)
    assert list(zip(mins.tolist(), args.tolist())) == _brute_min_products(T, cands)
    # the first of the tied pairs in row-major order over i < j
    v = is_monotone(T)
    assert v.residual == -2.0
    assert np.asarray(v.witness).tolist() == [[[0.0], [2.0]], [[1.0], [0.0]]]


def test_predicates_memory_stays_bounded_at_high_resolution():
    params = SuiteParams(resolution=257)
    assert _peak_mb(lambda: predicates_suite(get_function("twowell"), params)) < 32.0


def test_is_monotone_memory_stays_bounded():
    T = _noisy_gradient_graph(np.random.default_rng(3), 2000, 2)
    assert _peak_mb(lambda: is_monotone(T)) < 16.0


def test_is_absorbing_memory_stays_bounded():
    # every candidate lies on the identity graph, so all 20,000 are related
    # and reach the distance tensors
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(300, 2))
    T = GraphSample(pts, pts)
    xs = rng.normal(size=(20000, 2))
    cands = GraphSample(xs, xs)
    v = is_absorbing(T, cands, match_radius=0.05)
    assert v.details["related"] == 20000 and not v.ok
    assert _peak_mb(lambda: is_absorbing(T, cands, match_radius=0.05)) < 16.0


# -- rays route to polar membership ----------------------------------------------------

def test_rays_route_accepts_the_zero_tilt_at_the_minimizer():
    v = polar_membership_via_iar(get_function("square"), [0.0], [0.0], Region.interval(-2, 2))
    assert v.ok and v.residual <= 1e-9


def test_rays_route_accepts_gradient_tilt():
    # x^2 - 2x = (x-1)^2 - 1 is increasing along rays from its minimizer 1
    v = polar_membership_via_iar(get_function("square"), [1.0], [2.0], Region.interval(-2, 2))
    assert v.ok


def test_rays_route_rejects_offset_tilt_with_witness():
    v = polar_membership_via_iar(get_function("square"), [0.0], [1.0], Region.interval(-2, 2))
    assert not v.ok
    # brute scan: the tilted function x^2 - x drops from 0 at y=0.5, t=1
    assert v.residual == pytest.approx(0.25, abs=1e-9)
    y, t = v.witness
    assert y[0] == pytest.approx(0.5, abs=0.05) and t == 1.0


def test_rays_route_matches_brute_force_scan():
    f = get_function("twowell")
    region = f.default_region
    ys = region.sample(65)[:, 0]
    ts = np.linspace(0.0, 1.0, DEFAULT_RAY_RESOLUTION)
    for x, c in ((0.0, -1.0), (-0.5, -1.0), (1.0, 0.5)):
        g = lambda v: f.value([v]) - c * v
        brute = max(
            g(y + t * (x - y)) - g(y) for y in ys for t in ts if math.isfinite(g(y))
        )
        v = polar_membership_via_iar(f, [x], [c], region, probe_resolution=65)
        assert v.residual == pytest.approx(brute, abs=1e-12)
        assert v.ok == (brute <= 1e-6)
