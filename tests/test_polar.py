"""Monotone polar operations, monotonicity predicates, absorption, and the
rays route to polar membership."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from varpolar.core import _pairings
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


def test_a_graph_whose_split_terms_overflow_is_paired_whole():
    # <x*, x> = 8e308 overflows, and the expanded product read inf - inf:
    # a warning, then residual nan and not ok. The product
    # (1e308 - 1e308)(-8 - 8) is 0, so the graph is monotone. Its whole
    # form still finds a negative product: (9e307 - 1e308)(9 + 8)
    T = GraphSample([[8.0], [-8.0]], [[1e308], [1e308]])
    assert not core._split_fits(T, T.points, T.covectors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = is_monotone(T)
        w = is_monotone(GraphSample([[8.0], [-8.0], [9.0]], [[1e308], [1e308], [9e307]]))
    assert (v.ok, v.residual) == (True, 0.0)
    assert not w.ok and w.residual == (9e307 - 1e308) * 17.0
    assert np.asarray(w.witness).tolist() == [[[-8.0], [1e308]], [[9.0], [9e307]]]


# -- polar_of_sample -----------------------------------------------------------------

def _column(values):
    return np.asarray(values, dtype=float)[:, None]


def test_polar_of_empty_graph_is_full_candidate_set():
    xs, cs = _column([0.0, 1.0, -1.0]), _column([0.0, -1.0, 1.0])
    out = polar_of_sample(GraphSample.empty(1), xs, cs)
    assert len(out) == len(xs) * len(cs)
    assert np.isposinf(polar._min_products(GraphSample.empty(1), xs, cs)).all()


def test_polar_of_origin_pair_is_sign_condition():
    T = _graph([(0.0, 0.0)])
    xs = np.linspace(-1, 1, 9)
    out = polar_of_sample(T, xs[:, None], _column(np.linspace(-1, 1, 9)))
    assert all(p[0] * c[0] >= -1e-6 for p, c in out.pairs())
    expected = sum(1 for x in xs for c in np.linspace(-1, 1, 9) if x * c >= -1e-6)
    assert len(out) == expected


def test_polar_of_abs_graph_hugs_the_sign_map():
    f = get_function("abs")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    xs = np.linspace(-1.5, 1.5, 13)
    cs = np.linspace(-2.0, 2.0, 17)
    out = polar_of_sample(T, xs[:, None], cs[:, None])
    assert len(out) > 0
    # within 0.1 of the sign map: {sign x}, and [-1, 1] at the kink
    for p, c in out.pairs():
        lo, hi = (-1.0, 1.0) if p[0] == 0.0 else (np.sign(p[0]),) * 2
        assert lo - 0.1 <= c[0] <= hi + 0.1, (p, c)
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
    small = {(p[0], c[0]) for p, c in polar_of_sample(T, xs[:, None], cs[:, None]).pairs()}
    large = {(p[0], c[0]) for p, c in polar_of_sample(sub, xs[:, None], cs[:, None]).pairs()}
    assert small <= large


# -- is_absorbing --------------------------------------------------------------------

def test_dense_gradient_graph_absorbs():
    f = get_function("square")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    h = Region.interval(-2, 2).spacing(65)
    xs = Region.interval(-2, 2).sample(65)[1:-1, 0]
    cs = np.arange(-4.5, 4.5 + 1e-9, 2 * h)
    assert is_absorbing(T, xs[:, None], cs[:, None], match_radius=2 * h).ok


def test_single_point_graph_absorbs_nothing():
    # every candidate pair is related to the pair at the origin (x x* >= 0)
    # and lies at least 0.25 from it
    T = _graph([(0.0, 0.0)])
    v = is_absorbing(T, _column([1.0, 0.5]), _column([1.0, 0.25]), match_radius=0.1)
    assert not v.ok
    assert v.details == {"related": 4, "unattributed": 4}
    assert v.witness is not None


def test_sign_map_graph_absorbs():
    f = get_function("abs")
    T = sample_subdiff_graph(f, Region.interval(-2, 2), 65, source="exact")
    h = Region.interval(-2, 2).spacing(65)
    xs = Region.interval(-2, 2).sample(65)[1:-1, 0]
    cs = np.arange(-1.5, 1.5 + 1e-9, 2 * h)
    assert is_absorbing(T, xs[:, None], cs[:, None], match_radius=2 * h).ok


def test_without_a_side_oracle_the_hull_at_the_point_attributes():
    # a sampled set at one point (numeric Clarke sets come as vertices and
    # centroid): a candidate there is attributed when its covector lies
    # within the radius of a chord between two covectors sampled at the
    # point, however far it is from the covectors themselves. In 1-D the
    # chords at the origin cover [-1, 1] and attribute (0, 0.5) and
    # (0, -0.5); of the other six candidate pairs, (1, -0.5) and (1, 0.5)
    # are unrelated and the rest lie 1 or 2 from T
    T = _graph([(0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (2.0, 5.0)])
    v = is_absorbing(T, _column([0.0, 1.0]), _column([0.5, -0.5, 3.0, 2.0]), match_radius=0.1)
    assert v.details == {"related": 6, "unattributed": 4}
    assert np.asarray(v.witness).tolist() == [[0.0], [3.0]] and v.residual == pytest.approx(1.9)
    # in 2-D the hull is a polytope: the unit square's vertices at the origin
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    T = GraphSample(np.zeros((4, 2)), square)
    cs = np.array([[0.5, 0.5], [0.0, -1.0], [1.5, 0.0]])
    v = is_absorbing(T, np.zeros((1, 2)), cs, match_radius=0.1)
    assert v.details == {"related": 3, "unattributed": 1}
    assert v.witness[1].tolist() == [1.5, 0.0]
    # one chord in 2-D, [(-1, 0), (1, 0)] at the origin: (0.5, 0.05) lies
    # 0.05 from it and about 0.5 from both its ends, and (0.5, 0.3) lies 0.3
    # from it, which is the residual's distance
    T = GraphSample(np.zeros((2, 2)), np.array([[-1.0, 0.0], [1.0, 0.0]]))
    v = is_absorbing(T, np.zeros((1, 2)), np.array([[0.5, 0.05]]), match_radius=0.1)
    assert v.ok and v.details == {"related": 1, "unattributed": 0}
    v = is_absorbing(T, np.zeros((1, 2)), np.array([[0.5, 0.05], [0.5, 0.3]]), match_radius=0.1)
    assert v.details == {"related": 2, "unattributed": 1}
    assert v.witness[1].tolist() == [0.5, 0.3] and v.residual == pytest.approx(0.3 - 0.1)


@pytest.mark.xfail(strict=True, reason="a covector inside the hull of three or more covectors "
                   "sampled at one point is attributed only within the radius of a chord")
def test_a_covector_inside_the_hull_at_the_point_is_attributed():
    # (0.5, 0.2) lies inside the unit square spanned by the four covectors
    # at the origin, but 0.2 from its nearest chord, the edge from (0, 0)
    # to (1, 0): today it is unattributed (residual 0.1). A fix of the
    # attribution rule turns this test into a pass, which strict xfail
    # reports
    T = GraphSample(np.zeros((4, 2)), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    v = is_absorbing(T, np.zeros((1, 2)), np.array([[0.5, 0.2]]), match_radius=0.1)
    assert v.ok, (v.residual, v.details)


_LADDER = [
    *((fid, r) for fid in ("mixed2d", "norm2d") for r in (17, 25, 33)),
    *(("abs", r) for r in (65, 129, 257)),
]


@pytest.mark.parametrize("source", ["exact", "numeric"])
@pytest.mark.parametrize("fid, resolution", _LADDER)
def test_absorbing_holds_as_the_grid_is_refined(fid, resolution, source):
    # the match radius shrinks with the grid, while the covectors sampled at
    # a kink (x2* in {-1, 0, 1} on mixed2d's line x2 = 0) stay 1 apart: only
    # the chords between them attribute the related candidates in between.
    # Graph distance, with the exact set or the hull at the same point as
    # fallback, left 60 of mixed2d's candidates unattributed at
    # resolution_2d = 33, and 6 of its twin's at 25
    f = get_function(fid)
    if source == "numeric":
        f = dataclasses.replace(f, name=f"{fid}_numeric", exact_subdifferential=None)
    knob = "resolution" if f.dim == 1 else "resolution_2d"
    section = predicates_suite(f, SuiteParams(**{knob: resolution}))
    assert section["graph_source"] == ("exact" if source == "exact" else "clarke-numeric")
    assert section["absorbing_related"] > 0
    assert (section["absorbing_unattributed"], section["hard_count"]) == (0, 0)


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
    # each case is (T, xs, cs): a graph and the points and covectors whose
    # product is the candidate set
    rng = np.random.default_rng(7)
    cases = {}
    for dim in (1, 2, 3):
        T = _noisy_gradient_graph(rng, 23, dim)
        cands = _noisy_gradient_graph(rng, 10, dim)
        cases[f"random-{dim}d"] = (T, cands.points, cands.covectors[:5])
    grid = _column(np.arange(-2.0, 2.5, 1.0))
    cases["ties"] = (_tied_graph(), grid, grid)
    cases["no-candidates"] = (cases["random-2d"][0], np.zeros((0, 2)), cases["random-2d"][2])
    cases["empty-graph"] = (GraphSample.empty(2), *cases["random-2d"][1:])
    cases["one-pair"] = (_graph([(0.5, -0.25)]), *cases["random-1d"][1:])
    return cases


def _bits(v):
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def _kernel_outputs(T, xs, cs):
    related = polar_of_sample(T, xs, cs)
    absorbing = is_absorbing(T, xs, cs, match_radius=0.2)
    monotone = is_monotone(T)
    mins, args = polar._min_products(T, xs, cs, argmin=True)
    return {
        "polar": (_bits(related.points), _bits(related.covectors)),
        "absorbing": (absorbing.ok, _bits(absorbing.residual), _bits(absorbing.witness),
                      absorbing.details),
        "monotone": (monotone.ok, _bits(monotone.residual), _bits(monotone.witness)),
        "min_products": _bits(polar._min_products(T, xs, cs)),
        "argmin": (_bits(mins), args.tolist()),
    }


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_row_blocks_keep_every_bit(monkeypatch, case):
    T, xs, cs = _block_cases()[case]
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 10**9)
    whole = _kernel_outputs(T, xs, cs)
    # one entry per block; three graph rows per block of is_monotone and 14
    # graph columns per block of the product, neither of which divides the
    # 23 pairs of the random graphs; and 8 of their 10 x rows per block
    for budget in (1, 3 * len(T) + 1, 977):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", budget)
        assert _kernel_outputs(T, xs, cs) == whole


def _brute_min_products(T, xs, cs):
    return [
        min(
            (float(np.dot(y_star - x_star, y - x)), k)
            for k, (y, y_star) in enumerate(T.pairs())
        )
        for x in xs
        for x_star in cs
    ]


def test_tied_products_report_the_first_occurrence(monkeypatch):
    T, xs, cs = _block_cases()["ties"]
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    mins, args = polar._min_products(T, xs, cs, argmin=True)
    brute = _brute_min_products(T, xs, cs)
    assert list(zip(mins.ravel().tolist(), args.ravel().tolist())) == brute
    assert polar._min_products(T, xs, cs).ravel().tolist() == [m for m, _ in brute]
    # the first of the tied pairs in row-major order over i < j
    v = is_monotone(T)
    assert v.residual == -2.0
    assert np.asarray(v.witness).tolist() == [[[0.0], [2.0]], [[1.0], [0.0]]]


def _pairwise_products(T, x, x_star):
    """((<y*, y> - <x, y*>) - <x*, y>) + <x*, x> for each pair of T, one
    pair at a time."""
    return [
        float(((_pairings(y_star, y) - _pairings(x, y_star)) - _pairings(x_star, y))
              + _pairings(x_star, x))
        for y, y_star in T.pairs()
    ]


def _float_rows(dim, min_size, max_size, special=(0.0, -0.0, 1.0, -1.0, 0.5)):
    # small values, zeros of both signs and repeats, so that products tie
    value = st.one_of(st.sampled_from(special), st.floats(-8.0, 8.0))
    return st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=min_size,
                    max_size=max_size).map(lambda rows: np.array(rows, dtype=float).reshape(-1, dim))


@st.composite
def _product_cases(draw):
    dim = draw(st.integers(1, 3))
    points = draw(_float_rows(dim, 1, 6))
    T = GraphSample(points, draw(_float_rows(dim, len(points), len(points))))
    return T, draw(_float_rows(dim, 0, 5)), draw(_float_rows(dim, 0, 4))


@settings(max_examples=200, deadline=None)
@given(case=_product_cases(), budget=st.sampled_from([1, 7, 10**9]))
def test_every_min_product_is_a_pairwise_product_bit_for_bit(case, budget):
    T, xs, cs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        mins = polar._min_products(T, xs, cs)
        first_mins, args = polar._min_products(T, xs, cs, argmin=True)
    assert mins.shape == first_mins.shape == (len(xs), len(cs))
    for i, x in enumerate(xs):
        for j, x_star in enumerate(cs):
            products = _pairwise_products(T, x, x_star)
            least = min(products)
            # the minimum is the value of one of the products that attain it
            # (a tie of +0.0 and -0.0 may take either sign) ...
            assert _bits(mins[i, j]) in {_bits(p) for p in products if p == least}
            # ... and with argmin, that of the first one
            k = products.index(least)
            assert args[i, j] == k and _bits(first_mins[i, j]) == _bits(products[k])


def _coordinate_products(T, x, x_star):
    """sum_k (y*_k - x*_k)(y_k - x_k) in axis order for each pair of T."""
    products = []
    for y, y_star in T.pairs():
        product = (y_star[0] - x_star[0]) * (y[0] - x[0])
        for k in range(1, len(y)):
            product += (y_star[k] - x_star[k]) * (y[k] - x[k])
        products.append(float(product))
    return products


@settings(max_examples=100, deadline=None)
@given(case=_product_cases(), budget=st.sampled_from([1, 7, 10**9]))
def test_the_unsplit_form_takes_each_coordinate_product(case, budget):
    # the form the kernel takes where the split terms could overflow,
    # forced here on small operands: each minimum is the value of one of the
    # coordinate-wise products, and with argmin that of the first one
    T, xs, cs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        mins = polar._min_products(T, xs, cs, split=False)
        first_mins, args = polar._min_products(T, xs, cs, argmin=True, split=False)
    for i, x in enumerate(xs):
        for j, x_star in enumerate(cs):
            products = _coordinate_products(T, x, x_star)
            least = min(products)
            assert _bits(mins[i, j]) in {_bits(p) for p in products if p == least}
            k = products.index(least)
            assert args[i, j] == k and _bits(first_mins[i, j]) == _bits(products[k])


@settings(max_examples=200, deadline=None)
@given(case=_product_cases(), budget=st.sampled_from([1, 7, 10**9]), split=st.booleans(),
       data=st.data())
def test_the_per_pair_form_takes_the_least_product_of_each_pair(case, budget, split, data):
    # the form of the ladder's finer levels: at pairs (xs[i], cs[j]) in any
    # order, repeats included, each minimum is the value of one of the
    # products of its pair that attain it, in the form that split names
    T, xs, cs = case
    pairs = st.tuples(st.integers(0, len(xs) - 1), st.integers(0, len(cs) - 1))
    drawn = data.draw(st.lists(pairs, max_size=12)) if len(xs) and len(cs) else []
    i = np.array([p for p, _ in drawn], dtype=np.intp)
    j = np.array([q for _, q in drawn], dtype=np.intp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        mins = core._min_products_at(T, xs, cs, i, j, split)
    assert mins.shape == (len(drawn),)
    products = _pairwise_products if split else _coordinate_products
    for m, p, q in zip(mins, i, j):
        values = products(T, xs[p], cs[q])
        assert _bits(m) in {_bits(v) for v in values if v == min(values)}


def test_a_product_whose_split_terms_overflow_is_formed_whole():
    # <y*, y> = 8e308 and <x*, y> = 8e308 overflow, and the split form read
    # inf - inf; the product (y* - x*)(y - x) = 0 * 16 is 0. A sample whose
    # magnitudes fit keeps the split form.
    T = GraphSample([[8.0]], [[1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = polar_contains(T, [-8.0], [1e308])
        related = polar_of_sample(T, np.array([[-8.0], [0.0]]), np.array([[1e308]]))
    assert (v.ok, v.residual) == (True, 0.0)
    assert related.points.tolist() == [[-8.0], [0.0]]
    assert not core._split_fits(T, np.array([[-8.0]]), np.array([[1e308]]))
    assert not core._split_fits(T, np.array([[-8.0]]), np.array([[1.0]]))
    small = GraphSample([[8.0]], [[1e150]])
    assert core._split_fits(small, np.array([[-8.0]]), np.array([[1e150]]))


def test_both_passes_of_polar_of_sample_take_the_form_of_all_of_T():
    # the products with x = (0.548, -0.921), x* = (0.3, -0.7) are 7e199 for
    # the pair with 1e200, -0.0 for the next one formed whole (the split form
    # reads -1.1e-16), and t^2 for the pairs (x + t e1, x* + t e1). The
    # ladder of these 9 pairs has two levels: the coarsest takes pairs 0, 4
    # and 8, and the finer one the others, which alone fit the split form;
    # the finer pass must still form them whole, as one pass over all of T
    # does (pair 0 does not fit), so at tol 0 the candidate is related
    x, x_star = np.array([[0.548, -0.921]]), np.array([[0.3, -0.7]])
    t = np.array([[1.0], [-1.0], [2.0], [-2.0], [3.0], [-3.0], [4.0]]) * [1.0, 0.0]
    T = GraphSample(np.concatenate([[[0.548, 1e200], [0.548, -1.836]], x + t]),
                    np.concatenate([[[1e200, 0.0], [0.1, -0.7]], x_star + t]))
    coarsest, finer = polar._graph_ladder(len(T))
    assert coarsest.tolist() == [0, 4, 8] and 1 in finer
    assert core._split_fits(T.filter(finer), x, x_star)
    assert polar._min_products(T.filter([1]), x, x_star)[0, 0] < 0.0
    assert polar._min_products(T, x, x_star)[0, 0] == 0.0
    related = polar_of_sample(T, x, x_star, tol=0.0)
    assert related.points.tolist() == x.tolist()


def _huge_rows(dim, min_size, max_size):
    # finite rows with ±1e308 among the small values: their products
    # overflow to ±inf, and where two such infinities meet, to NaN
    return _float_rows(dim, min_size, max_size, special=(0.0, -0.0, 1.0, -1.0, 1e308, -1e308))


@st.composite
def _polar_cases(draw):
    # a graph of up to 80 pairs, so that the ladder takes three levels from
    # 33 pairs on. Random pairs close almost every candidate at the coarsest
    # level, so the covectors of most pairs lie on the line y* = s y, with
    # some candidates on it too: those stay open through the finer levels
    # until a pair off the line closes them. Half the cases draw ±1e308
    # among the values, which takes the whole form of the pairing, and half
    # draw small values, which take the split form
    dim = draw(st.integers(1, 3))
    rows = draw(st.sampled_from([_float_rows, _huge_rows]))
    n = draw(st.one_of(st.integers(0, 12), st.integers(33, 80)))
    slope = draw(st.sampled_from([0.0, 0.5, 1.0]))
    points = draw(rows(dim, n, n))
    covectors = slope * points
    off = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    covectors[off] = draw(rows(dim, n, n))[off]
    xs = draw(rows(dim, 0, 5))
    on_line = slope * xs[: draw(st.integers(0, len(xs)))]
    cs = np.concatenate([on_line, draw(rows(dim, 0, 3))])
    return GraphSample(points, covectors), xs, cs


@settings(max_examples=300, deadline=None)
@given(case=_polar_cases(), budget=st.sampled_from([1, 7, 10**9]),
       tol=st.sampled_from([0.0, 1e-6, 0.5]))
def test_polar_of_sample_relates_what_one_full_product_relates(case, budget, tol):
    # the ladder's coarsest rectangle and its finer levels on the open
    # pairs relate exactly the pairs whose minimum over all of T is >= -tol,
    # NaN products included
    T, xs, cs = case
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        out = polar_of_sample(T, xs, cs, tol)
        i, j = np.nonzero(polar._min_products(T, xs, cs) >= -tol)
    one_pass = GraphSample(xs[i], cs[j])
    assert (_bits(out.points), _bits(out.covectors)) == (_bits(one_pass.points),
                                                         _bits(one_pass.covectors))


@st.composite
def _monotone_cases(draw):
    # up to 12 pairs, the covectors scaled by 1e306 or 1e307 in two cases of
    # three: those mostly take the whole form, with most products finite
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    scale = draw(st.sampled_from([1.0, 1e306, 1e307]))
    return GraphSample(draw(_float_rows(dim, n, n)), scale * draw(_float_rows(dim, n, n)))


@settings(max_examples=200, deadline=None)
@given(T=_monotone_cases(), budget=st.sampled_from([1, 7, 10**9]))
def test_is_monotone_takes_the_least_product_in_the_form_of_T(T, budget):
    # over the pairs i < j of T, row by row, each product in the form that
    # _split_fits picks for T: expanded, ((<x*_i, x_i> + <x*_j, x_j>) -
    # <x*_i, x_j>) - <x*_j, x_i>, or whole, coordinate by coordinate. Where
    # every product is finite, none of them warns, the residual is the least
    # and the witness its first pair
    p, c = T.points, T.covectors
    split = core._split_fits(T, p, c)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _pairings(c, p)
        products = [
            (float(((d[i] + d[j]) - _pairings(c[i], p[j])) - _pairings(c[j], p[i])) if split
             else _coordinate_products(T.filter(np.arange(len(T)) == j), p[i], c[i])[0], i, j)
            for i in range(len(T)) for j in range(i + 1, len(T))
        ]
    assume(products and all(math.isfinite(v) for v, _, _ in products))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(core, "_BLOCK_ENTRIES", budget)
        v = is_monotone(T)
    least = min(value for value, _, _ in products)
    assert _bits(v.residual) in {_bits(value) for value, _, _ in products if value == least}
    _, i, j = next(entry for entry in products if entry[0] == least)
    assert _bits(v.witness) == _bits(((p[i], c[i]), (p[j], c[j])))


def test_the_graph_ladder_puts_every_pair_in_one_level():
    # every 4**k-th pair, coarsest first, the last pair in the coarsest
    # level; a stride joins while it takes at least 3 pairs
    assert [len(polar._graph_ladder(n)) for n in (0, 1, 8, 9, 32, 33, 128, 129)] == [
        1, 1, 1, 2, 2, 3, 3, 4]
    levels = polar._graph_ladder(80)
    assert levels[0].tolist() == [0, 16, 32, 48, 64, 79]
    assert levels[1].tolist() == [k for k in range(0, 80, 4) if k % 16]
    assert np.sort(np.concatenate(levels)).tolist() == list(range(80))


@pytest.mark.parametrize("budget", [1, 7, 10**9])
def test_every_level_of_the_ladder_closes_pairs_on_its_new_rows_alone(monkeypatch, budget):
    # 80 pairs on y* = y in 2-D, with pair 4 (level 2 of the ladder) and
    # pair 1 (level 3) moved off the line, and candidates x* in {x_0, ...,
    # x_4, (9, 9)} at 5 points x; x_0 is the candidate that only pair 4
    # closes, x_1 the one that only pair 1 closes. 11 of the 30 pairs stay
    # open through the coarsest level. Level 2 runs its 15 new pairs of T on
    # those 11 and leaves 8, (x_1, x_1) among them; level 3 runs the other 59
    # on those 8 and closes it. The related set is that of one full product
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 2.0, (80, 2))
    covectors = points.copy()
    covectors[4], covectors[1] = points[4] + [-3.0, 0.0], points[1] + [0.0, -3.0]
    T = GraphSample(points, covectors)
    xs = rng.uniform(-2.0, 2.0, (5, 2))
    xs[0], xs[1] = points[4] - [1.0, 0.0], points[1] - [0.0, 1.0]
    cs = np.concatenate([xs, [[9.0, 9.0]]])
    runs = []

    def counted(T, xs, cs, i, j, split):
        runs.append((len(T), len(i), (0, 0) in zip(i, j), (1, 1) in zip(i, j)))
        return core._min_products_at(T, xs, cs, i, j, split)

    monkeypatch.setattr(polar, "_min_products_at", counted)
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", budget)
    out = polar_of_sample(T, xs, cs)
    i, j = np.nonzero(polar._min_products(T, xs, cs) >= -1e-6)
    assert (_bits(out.points), _bits(out.covectors)) == (_bits(xs[i]), _bits(cs[j]))
    assert runs == [(15, 11, True, True), (59, 8, False, True)]
    assert list(zip(i, j)) == [(2, 2), (3, 3)]


def test_predicates_runs_the_full_product_only_on_open_pairs(monkeypatch):
    # (min, +) entries per level of the graph ladder: rows x len(xs) x
    # len(cs) at the coarsest level, rows x open pairs at each finer one.
    # One pass over the whole graph made 259 x 255 x 289 (neg_abs) and 263 x
    # 255 x 289 (twowell) at resolution 257, about 19.1 M each. A strided
    # first pass over every 16th pair and the last, and the full graph on
    # the open rectangle after it, made [1326510, 0] and [1326510, 69432];
    # norm2d and mixed2d at the default config made 1,793,449 and 4,160,835
    # in all, of which the open rectangle was 1,524,390 and 3,877,615. The
    # ladder's coarsest level takes every 64th pair and the last (6 pairs
    # of 259 or 263; 7 of 323 for mixed2d, 6 of 305 for norm2d); neg_abs
    # leaves no pair open there, so no finer level runs
    counts = []

    def rectangle(T, xs, cs, argmin=False, split=None):
        counts.append(len(T) * len(xs) * len(cs))
        return core._min_products(T, xs, cs, argmin, split)

    def pairs(T, xs, cs, i, j, split):
        counts.append(len(T) * len(i))
        return core._min_products_at(T, xs, cs, i, j, split)

    monkeypatch.setattr(polar, "_min_products", rectangle)
    monkeypatch.setattr(polar, "_min_products_at", pairs)
    fine = SuiteParams(resolution=257)
    for fid, params, entries in (
        ("neg_abs", fine, [442170]),
        ("twowell", fine, [442170, 1584, 6468, 25088]),
        ("norm2d", SuiteParams(), [84966, 11536, 17955, 5700]),
        ("mixed2d", SuiteParams(), [99127, 48435, 54300, 66034]),
    ):
        counts.clear()
        predicates_suite(get_function(fid), params)
        assert counts == entries, fid


def test_a_vacuous_tolerance_or_match_radius_raises_before_any_work(monkeypatch):
    # a NaN tolerance failed every comparison, so is_absorbing related
    # nothing and passed; -inf did the same, and is_monotone passed a
    # non-monotone graph at tol = inf
    T = GraphSample([[0.0]], [[0.0]])
    xs = cs = _column([0.25, 0.5, 0.75, 1.0])
    v = is_absorbing(T, xs, cs, match_radius=0.1, tol=1e-6)
    assert not v.ok and v.details == {"related": 16, "unattributed": 16}
    swap = _graph([(0.0, 1.0), (1.0, 0.0)])

    def no_work(*args, **kwargs):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(polar, "_min_products", no_work)
    monkeypatch.setattr(polar, "_pairings", no_work)
    for bad in (math.nan, math.inf, -math.inf, -1e-6):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            is_absorbing(T, xs, cs, match_radius=0.1, tol=bad)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            polar_of_sample(T, xs, cs, tol=bad)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            polar_contains(T, [1.0], [1.0], tol=bad)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            is_monotone(swap, tol=bad)
        with pytest.raises(ValueError, match="match_radius must be finite and nonnegative"):
            is_absorbing(T, xs, cs, match_radius=bad)


def test_candidate_rows_are_checked_before_any_work(monkeypatch):
    # a (3, 2) xs against a 1-D graph raised IndexError, a flat xs a
    # broadcast error, and a 2-D cs was paired on its first axis alone
    def no_work(*args, **kwargs):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(polar, "_min_products", no_work)
    T = _graph([(0.0, 0.0), (1.0, 1.0)])
    column = _column([0.0, 1.0])
    for xs, cs in ((np.zeros((3, 2)), column), (np.zeros(3), column), (column, np.ones((2, 2))),
                   (np.zeros((1, 2, 1)), column)):
        for call in (lambda: polar_of_sample(T, xs, cs),
                     lambda: is_absorbing(T, xs, cs, match_radius=0.1)):
            with pytest.raises(core.DimensionMismatchError, match="must have shape"):
                call()
    # without a sample, xs sets the dimension and cs must follow it
    with pytest.raises(core.DimensionMismatchError, match=r"cs must have shape \(k, 2\)"):
        polar_of_sample(GraphSample.empty(2), np.zeros((1, 2)), column)
    for xs, cs in ((_column([0.0, math.nan]), column), (column, _column([math.inf]))):
        with pytest.raises(ValueError, match="must have finite coordinates"):
            polar_of_sample(T, xs, cs)


def test_predicates_memory_stays_bounded_at_high_resolution():
    params = SuiteParams(resolution=257)
    assert _peak_mb(lambda: predicates_suite(get_function("twowell"), params)) < 32.0


def test_is_monotone_memory_stays_bounded():
    T = _noisy_gradient_graph(np.random.default_rng(3), 2000, 2)
    assert _peak_mb(lambda: is_monotone(T)) < 16.0


def test_predicates_memory_stays_bounded_at_high_2d_resolution():
    # 225 points x 1,089 covectors against a graph of 1,155 pairs; the
    # product's rows alone would take 7.5 MB
    params = SuiteParams(resolution_2d=33)
    assert _peak_mb(lambda: predicates_suite(get_function("mixed2d"), params)) < 16.0


def test_is_absorbing_memory_stays_bounded():
    # the graph lies on the identity far from the 200 x 100 candidate pairs,
    # so all 20,000 are related and reach the distance tensors
    rng = np.random.default_rng(4)
    pts = 100.0 + rng.normal(size=(300, 2))
    T = GraphSample(pts, pts)
    xs, cs = rng.normal(size=(200, 2)), rng.normal(size=(100, 2))
    v = is_absorbing(T, xs, cs, match_radius=0.05)
    assert v.details["related"] == 20000 and not v.ok
    assert _peak_mb(lambda: is_absorbing(T, xs, cs, match_radius=0.05)) < 16.0


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


def test_rays_route_rejects_a_tilt_that_overflows():
    # <x*, y> = 1e308 y overflows on [-2, 2], so f - x* leaves (-inf, +inf]
    # there, which f.shifted(x*) rejects. The route read residual nan, with
    # two RuntimeWarnings out of the rays kernel's fold; now it raises
    # before the kernel runs, for an x* that overflows at the grid or at x
    f = get_function("abs")
    region = f.default_region
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="outside"):
        f.shifted([1e308]).values(region.sample(5))
    for x, c in ((0.0, 1e308), (0.0, -1e308), (1e300, 1e10)):
        with pytest.raises(ValueError, match="overflows on the probe region"):
            polar_membership_via_iar(f, [x], [c], region)
    g = get_function("norm2d")
    with pytest.raises(ValueError, match="overflows on the probe region"):
        polar_membership_via_iar(g, [0.0, 0.0], [0.0, 1e308], g.default_region)
    # the largest thm3 candidates are far from the float range
    assert polar_membership_via_iar(f, [0.0], [4.0], region).residual == 6.0


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
