"""The graph-row layout ``(owner, covectors, truncated)`` that every
subdifferential construction emits: the library side-oracles against their
per-point sets, ``_graph_rows`` against a reference of the padded route it
replaced, the column norms, the row count of a ``norm2d`` block, and the
check that rejects a malformed batch."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varpolar import subdifferential
from varpolar.core import _row_blocks, _pairings
from varpolar.library import get_function, test_library as library_oracles
from varpolar.subderivative import DEFAULT_SCHEME, _direction_norms
from varpolar.subdifferential import (
    DEFAULT_TOL,
    EPS_LADDER,
    _clarke_support,
    _compact,
    _enlargement_mask,
    _graph_rows,
    _local_grids,
    sphere_directions,
)

EXACT = [f for f in library_oracles() if f.exact_subdifferential is not None]

#: Points where a library side-oracle switches pieces: the kinks of the 1-D
#: entries, the domain edges of the indicators, the origin of norm2d and
#: the line x2 = 0 of mixed2d (signed zeros included).
_KINKS = {
    1: [[0.0], [-0.0], [1.5], [2.0]],
    2: [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.7, 0.0], [-1.3, -0.0], [0.0, 0.4]],
}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _twin(f):
    return dataclasses.replace(
        f, name=f"{f.name}_numeric", exact_subdifferential=None, exact_subdifferential_batch=None
    )


def _points(f):
    """Finite points of f: its default grid, cdd local grids around its
    registered point, non-dyadic random points and the kink points."""
    rng = np.random.default_rng(0)
    pts = np.vstack([
        f.default_region.sample(65 if f.dim == 1 else 17),
        _local_grids(f.finite_point[None, :], np.asarray(EPS_LADDER[::5]), 9).reshape(-1, f.dim),
        rng.uniform(-2.0, 2.0, size=(200, f.dim)),
        _KINKS[f.dim],
    ])
    return pts[np.isfinite(f.values(pts))]


# -- (a) the side-oracles against the per-point sets ---------------------------

_COORDS = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, 1.5, 2.0, -1.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from(EXACT),
    half_width=st.sampled_from([10.0, 0.5]),
    data=st.data(),
)
def test_side_oracle_rows_equal_the_per_point_representatives(f, half_width, data):
    flat = data.draw(st.lists(_COORDS, max_size=24 * f.dim))
    drawn = np.array(flat[: len(flat) // f.dim * f.dim], dtype=float).reshape(-1, f.dim)
    pts = np.vstack([drawn, _KINKS[f.dim]])
    pts = pts[data.draw(st.permutations(range(len(pts))))]
    want = [f.exact_subdifferential(x) for x in pts]
    want = [(np.zeros((0, f.dim)), False) if w is None else w.representatives(half_width)
            for w in want]
    looped = dataclasses.replace(f, exact_subdifferential_batch=None)
    for oracle in (f, looped):
        owner, covectors, truncated = oracle.subdifferential_representatives(pts, half_width)
        assert np.issubdtype(owner.dtype, np.integer) and np.all(np.diff(owner) >= 0)
        assert truncated.tolist() == [t for _, t in want]
        for i, (rows, _) in enumerate(want):
            got = covectors[owner == i]
            assert _same_bits(got, rows.astype(float)), (oracle.name, pts[i])


# -- (b) _graph_rows against the padded route it replaced -----------------------

def _padded(pieces, n, dim):
    """One (n, R, dim) layout (reps and mask) from pieces (rows, reps, mask)."""
    width = max((r.shape[1] for _, r, _ in pieces), default=0)
    reps, mask = np.zeros((n, width, dim)), np.zeros((n, width), dtype=bool)
    for rows, r, m in pieces:
        reps[rows, : r.shape[1]], mask[rows, : m.shape[1]] = r, m
    return reps, mask


def _padded_merge(rows, valid):
    """The merge of ``subdifferential._merged_rows``, returned padded."""
    dim = rows.shape[2]
    rows, valid = _compact(rows, valid)
    merged = np.zeros_like(valid)
    width = rows.shape[1]
    for r in _row_blocks(width, len(rows) * width):
        gap = sum((rows[:, r, None, k] - rows[:, None, :, k]) ** 2 for k in range(dim))
        earlier = np.arange(width) < np.arange(r.start, r.stop)[:, None]
        merged[:, r] = np.any((gap <= DEFAULT_TOL**2) & earlier & valid[:, None, :], axis=2)
    rows, keep = _compact(rows, valid & ~merged)
    count = keep.sum(axis=1, keepdims=True)
    centroid = (rows * keep[..., None]).sum(axis=1) / np.maximum(count, 1)
    return np.hstack([rows, centroid[:, None]]), np.hstack([keep, count > 1])


def _padded_hulls(f, pts, dirs, half_width):
    n, dim = pts.shape
    offsets = subdifferential._HULL_RADIUS * np.vstack([np.zeros((1, dim)), dirs])
    axis = np.arange(dim)
    usable, pieces = np.zeros(n, dtype=bool), []
    for rows in _row_blocks(n, 2 * len(offsets) * dim * dim):
        y = pts[rows, None, :] + offsets[None, :, :]
        sides = np.repeat(y[None, :, :, None, :], 2, axis=0).repeat(dim, axis=3)
        sides[0][..., axis, axis] += subdifferential._HULL_STEP
        sides[1][..., axis, axis] -= subdifferential._HULL_STEP
        vals = f.values(sides.reshape(-1, dim)).reshape(sides.shape[:-1])
        step = sides[0][..., axis, axis] - sides[1][..., axis, axis]
        with np.errstate(invalid="ignore", divide="ignore"):
            grads = (vals[0] - vals[1]) / step
        ok = np.all(np.isfinite(vals), axis=(0, 2, 3)) & np.all(
            np.abs(grads) <= half_width, axis=(1, 2)
        )
        usable[rows] = ok
        grads[~ok] = 0.0
        pieces.append((rows, *_padded_merge(grads, np.repeat(ok[:, None], len(offsets), 1))))
    return *_padded(pieces, n, dim), usable


def _padded_polytopes(support, dirs, half_width):
    n, dim = support.shape[0], dirs.shape[1]
    normals = np.vstack([dirs, np.eye(dim), -np.eye(dim)])
    subsets = np.array(list(itertools.combinations(range(len(normals)), dim)))
    subsets = subsets[np.abs(np.linalg.det(normals[subsets])) > 1e-9]
    inverses = np.linalg.inv(normals[subsets])
    bounds = np.hstack([np.minimum(support, half_width * np.abs(dirs).sum(axis=1)),
                        np.full((n, 2 * dim), float(half_width))])
    pieces = []
    for rows in _row_blocks(n, len(subsets) * len(normals)):
        b = bounds[rows]
        verts = _pairings(inverses[None], b[:, subsets][:, :, None, :])
        slack = _pairings(verts[:, :, None, :], normals) - b[:, None, :]
        pieces.append((rows, *_padded_merge(verts, np.all(slack <= DEFAULT_TOL, axis=2))))
    reps, mask = _padded(pieces, n, dim)
    return reps, mask, ~np.all(np.isfinite(support), axis=1) | ~mask.any(axis=1)


def _padded_route(f, pts, source, half_width, groups=None):
    """The padded graph rows: (N, R, dim) covectors and their (N, R) mask
    from the per-point sets or the numeric constructions, then
    ``reps[mask]`` with ``np.repeat`` owners."""
    n, dim = pts.shape
    if source == "exact":
        per_point = [
            (np.zeros((0, dim)), False) if d is None else d.representatives(half_width)
            for d in map(f.exact_subdifferential, pts)
        ]
        pieces = [(slice(i, i + 1), r[None], np.ones((1, len(r)), dtype=bool))
                  for i, (r, _) in enumerate(per_point)]
        reps, mask = _padded(pieces, n, dim)
        truncated = np.array([t for _, t in per_point], dtype=bool).reshape(n)
    else:
        dirs = sphere_directions(dim, subdifferential._DIR_RESOLUTION)
        reps, mask, hull = _padded_hulls(f, pts, dirs, half_width)
        truncated = np.zeros(n, dtype=bool)
        rest = np.flatnonzero(~hull)
        if rest.size:
            support = _clarke_support(
                f, pts[rest], dirs, DEFAULT_SCHEME, None if groups is None else groups[rest]
            )
            table_reps, table_mask, truncated[rest] = _padded_polytopes(support, dirs, half_width)
            done = np.flatnonzero(hull)
            reps, mask = _padded(
                [(done, reps[done], mask[done]), (rest, table_reps, table_mask)], n, dim
            )
    return np.repeat(np.arange(n), mask.sum(axis=1)), reps[mask], truncated


def _assert_rows_match_the_padded_route(f, pts, source, half_width, groups=None):
    got = _graph_rows(f, pts, source, half_width, DEFAULT_SCHEME, groups)
    want = _padded_route(f, pts, source, half_width, groups)
    for g, w, what in zip(got, want, ("owner", "covectors", "truncated")):
        assert _same_bits(g, w), (f.name, source, what)


@pytest.mark.parametrize("f", EXACT, ids=lambda f: f.name)
def test_exact_rows_match_the_padded_route(f):
    pts = _points(f)
    for half_width in (10.0, 0.5):
        _assert_rows_match_the_padded_route(f, pts, "exact", half_width)
        looped = dataclasses.replace(f, exact_subdifferential_batch=None)
        _assert_rows_match_the_padded_route(looped, pts, "exact", half_width)


@pytest.mark.parametrize("f", library_oracles(), ids=lambda f: f.name)
def test_numeric_rows_match_the_padded_route(f):
    # the indicator twins' edge points take the support-table fallback, so
    # their rows join the hull's by the stable sort on the owner
    twin = _twin(f)
    pts = _points(twin)
    _assert_rows_match_the_padded_route(twin, pts, "clarke-numeric", 10.0)
    # the cdd pass labels its points by base for the table
    groups = np.arange(len(pts)) % 3
    _assert_rows_match_the_padded_route(twin, pts, "clarke-numeric", 0.5, groups)


def test_indicator_twins_take_the_table_fallback():
    # what the test above covers: the ind_halfline twin's rows join hull and
    # table rows, and the ind_origin twin's come from the table alone
    dirs = sphere_directions(1, subdifferential._DIR_RESOLUTION)
    for fid, both in (("ind_halfline", True), ("ind_origin", False)):
        twin = _twin(get_function(fid))
        usable = subdifferential._gradient_hulls(twin, _points(twin), dirs, 10.0)[2]
        assert (usable.any(), (~usable).any()) == (both, True), fid


# -- (c) the column norms ----------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_column_norms_equal_linalg_norm(dim):
    # magnitudes whose squares underflow and overflow included
    rng = np.random.default_rng(dim)
    rows = 10.0 ** rng.uniform(-160.0, 160.0, size=(200_000, dim))
    rows *= rng.choice([-1.0, 1.0], size=rows.shape)
    rows[::7, 0] = 0.0
    with np.errstate(over="ignore"):
        want = np.linalg.norm(rows, axis=1)
        assert _same_bits(np.sqrt(_pairings(rows, rows)), want)
    # the direction lengths keep those bits wherever the squares neither
    # underflow nor overflow, and rescale the rest
    got = _direction_norms(rows)
    ordinary = np.isfinite(want) & ((want > 0.0) | np.all(rows == 0.0, axis=1))
    assert 0 < ordinary.sum() < len(rows)
    assert _same_bits(got[ordinary], want[ordinary])
    assert np.all(np.isfinite(got) & (got > 0.0) | np.all(rows == 0.0, axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enlargement_mask_matches_the_linalg_norm_mask(dim):
    # rows at exactly eps (Pythagorean tuples with integer length, scaled by
    # a power of two), one ulp either side, and random rows around eps
    rng = np.random.default_rng(dim)
    tuples = {1: [[1]], 2: [[3, 4], [0, 5]], 3: [[2, 3, 6], [1, 4, 8]]}[dim]
    lengths = {1: [1], 2: [5, 5], 3: [7, 9]}[dim]
    for k in (0, 3, 10):
        exact = np.array(tuples, dtype=float) * 2.0**-k
        eps = np.tile(np.array(lengths, dtype=float) * 2.0**-k, 3)
        diffs = np.vstack([exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)])
        diffs *= rng.choice([-1.0, 1.0], size=diffs.shape)
        noise = rng.uniform(-1.0, 1.0, size=(20_000, dim)) * 2.0**-k
        # only the norm decides the edge rows
        fvals = np.concatenate([np.zeros(len(diffs)), rng.uniform(-1.0, 1.0, len(noise))])
        covectors = np.vstack([np.zeros(diffs.shape), rng.uniform(-4.0, 4.0, noise.shape)])
        diffs = np.vstack([diffs, noise])
        eps = np.concatenate([eps, np.full(len(noise), 0.6 * 2.0**-k)])
        got = _enlargement_mask(diffs, fvals, 0.0, covectors, eps)
        want = (
            (np.linalg.norm(diffs, axis=1) <= eps)
            & (np.abs(fvals) <= eps)
            & (np.einsum("ij,ij->i", covectors, diffs) <= eps)
        )
        assert np.array_equal(got, want)
        assert got[: len(exact)].all() and 0 < got.sum() < len(got)


# -- (d) the size of a norm2d block --------------------------------------------

def test_norm2d_block_has_one_row_per_point_and_the_ball_at_the_kink():
    f = get_function("norm2d")
    eps = np.asarray(EPS_LADDER)
    # every base has a coordinate beyond the largest eps, so no grid meets 0
    bases = np.array([[1.5, -1.25], [1.25, 1.5], [-1.5, 0.5], [0.5, 1.75]])
    away = _local_grids(bases, eps, 9)
    pts = away.reshape(-1, 2)
    assert len(pts) == 3_564
    owner, covectors, _ = f.subdifferential_representatives(pts, 10.0)
    assert len(owner) == len(covectors) == len(pts)
    once = pts.copy()
    once[1000] = 0.0
    assert len(f.subdifferential_representatives(once, 10.0)[0]) == len(pts) + 16
    around = _local_grids(np.zeros((1, 2)), eps, 9).reshape(-1, 2)
    pts = np.vstack([pts[: -len(around)], around])  # the origin once per level
    kinks = int(np.sum(np.all(pts == 0.0, axis=1)))
    assert kinks == len(eps)
    owner, covectors, _ = f.subdifferential_representatives(pts, 10.0)
    assert len(owner) == len(pts) + 16 * kinks


# -- malformed batches -------------------------------------------------------------

def _valid(points, half_width):
    return get_function("abs").exact_subdifferential_batch(points, half_width)


def _padded_abs(points, half_width):
    owner, covectors, truncated = _valid(points, half_width)
    pieces = []
    for i in range(len(points)):
        rows = covectors[owner == i]
        pieces.append((slice(i, i + 1), rows[None], np.ones((1, len(rows)), dtype=bool)))
    return *_padded(pieces, len(points), 1), truncated


def _edited(which, change):
    def batch(points, half_width):
        rows = list(_valid(points, half_width))
        rows[which] = change(rows[which])
        return tuple(rows)
    return batch


@pytest.mark.parametrize("batch", [
    _padded_abs,
    _edited(0, lambda o: o[::-1]),
    _edited(0, lambda o: o.astype(float)),
    _edited(0, lambda o: o + 1),
    _edited(0, lambda o: o - 1),
    _edited(0, lambda o: o[:, None]),
    _edited(1, lambda c: c[:, 0]),
    _edited(1, lambda c: c[1:]),
    _edited(1, lambda c: np.hstack([c, c])),
    _edited(2, lambda t: t[1:]),
    _edited(2, lambda t: t[:, None]),
    lambda points, half_width: _valid(points, half_width)[:2],
    lambda points, half_width: None,
], ids=["padded", "decreasing", "float_owner", "owner_past_n", "negative_owner",
        "owner_2d", "covectors_1d", "covectors_short", "covectors_wide",
        "truncated_short", "truncated_2d", "pair", "none"])
def test_a_malformed_batch_is_rejected_naming_the_oracle(batch):
    f = dataclasses.replace(get_function("abs"), name="abs_bad", exact_subdifferential_batch=batch)
    pts = np.array([[-1.0], [0.0], [0.5]])
    with pytest.raises(ValueError, match="oracle 'abs_bad': exact_subdifferential_batch"):
        f.subdifferential_representatives(pts, 10.0)


def test_the_batch_check_accepts_every_library_side_oracle_on_no_points():
    for f in EXACT:
        owner, covectors, truncated = f.subdifferential_representatives(np.zeros((0, f.dim)))
        assert owner.shape == (0,) and covectors.shape == (0, f.dim) and truncated.shape == (0,)
