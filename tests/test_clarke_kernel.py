"""The lean generalized-derivative kernel and the stacked cdd pass: parity
with the constructions they replace, and bounded memory.

``_reference_clarke`` is the full (N, T, M, D, K, dim) formulation of the
kernel: every direction-ball point evaluated once per delta, one quotient per
ball point, then the infimum over the ball. The kernel evaluates the ball
center once and takes the infimum on the f-values before the quotient; both
must give the same floats, signs of zero included. ``cdd_suite`` must equal a
loop of per-point ``cdd_profile`` calls."""

import math
import tracemalloc

import numpy as np
import pytest

from varpolar import subderivative, subdifferential
from varpolar.core import FunctionOracle, Region
from varpolar.library import FUNCTION_IDS, get_function
from varpolar.subderivative import (
    DEFAULT_DELTAS,
    DEFAULT_SCHEME,
    RADIUS_FACTOR,
    clarke_directional_values,
)
from varpolar.subdifferential import EPS_LADDER, _cdd_profiles, _local_grids, cdd_profile
from varpolar.suites import SuiteParams, cdd_suite


def _reference_clarke(f, xbars, d, scheme=DEFAULT_SCHEME, delta_list=DEFAULT_DELTAS,
                      nbhd_resolution=3):
    xb = np.atleast_2d(np.asarray(xbars, dtype=float))
    dd = np.asarray(d, dtype=float).reshape(f.dim)
    deltas = np.asarray(sorted(delta_list, reverse=True), dtype=float)
    n, dim = xb.shape
    dnorm = float(np.linalg.norm(dd))
    if dnorm == 0.0:
        # f°(x; 0) = 0 by positive homogeneity
        return np.zeros(n), np.zeros((n, deltas.size))
    scale = dnorm
    u = dd / scale
    ts = scheme.tail_grid()
    radii = RADIUS_FACTOR * ts
    eye = np.eye(dim)
    offsets = [np.zeros(dim)]
    for s in np.arange(1, nbhd_resolution + 1, dtype=float) / nbhd_resolution:
        for i in range(dim):
            offsets.append(s * eye[i])
            offsets.append(-s * eye[i])
        if dim > 1:
            offsets.append(s * u)
            offsets.append(-s * u)
    offs = np.asarray(offsets)
    ball = np.vstack([np.zeros((1, dim)), eye, -eye])
    dprime = u[None, None, :] + deltas[:, None, None] * ball[None, :, :]
    f0 = f.values(xb)
    ring = xb[:, None, None, :] + radii[None, :, None, None] * offs[None, None, :, :]
    fring = f.values(ring.reshape(-1, dim)).reshape(n, ts.size, offs.shape[0])
    near = np.isfinite(fring) & (np.abs(fring - f0[:, None, None]) <= radii[None, :, None])
    qpts = (
        ring[:, :, :, None, None, :]
        + ts[None, :, None, None, None, None] * dprime[None, None, None, :, :, :]
    )
    fq = f.values(qpts.reshape(-1, dim)).reshape(
        n, ts.size, offs.shape[0], deltas.size, ball.shape[0]
    )
    with np.errstate(invalid="ignore"):
        quot = (fq - fring[:, :, :, None, None]) / ts[None, :, None, None, None]
    quot = np.where(np.isnan(quot), math.inf, quot)
    inner = np.where(near[:, :, :, None], quot.min(axis=4), -math.inf)
    per_delta = inner.max(axis=(1, 2))
    values = per_delta.max(axis=1)
    if deltas.size >= 2:
        d_hi, d_lo = deltas[-2], deltas[-1]
        v_hi, v_lo = per_delta[:, -2], per_delta[:, -1]
        both = np.isfinite(v_hi) & np.isfinite(v_lo)
        if np.any(both):
            slope = np.maximum(v_lo[both] - v_hi[both], 0.0) / (d_hi - d_lo)
            values[both] = np.maximum(values[both], v_lo[both] + slope * d_lo)
    return values * scale, per_delta * scale


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _finite_grid(f, resolution):
    pts = f.default_region.sample(resolution)
    return pts[np.isfinite(f.values(pts))]


def _directions(dim):
    eye = np.eye(dim)
    return [*eye, *(-eye), np.zeros(dim), np.full(dim, 0.6), -0.3 * eye[0]]


SETTINGS = [
    {},
    {"delta_list": (0.05,)},
    {"delta_list": (0.05, 0.2, 0.1)},
    {"nbhd_resolution": 1},
]


@pytest.mark.parametrize("fid", FUNCTION_IDS)
@pytest.mark.parametrize("tilt", [0.0, 0.75])
def test_kernel_matches_the_full_ball_reference(fid, tilt):
    f = get_function(fid)
    if tilt:
        f = f.shifted(np.full(f.dim, tilt))
    pts = _finite_grid(f, 17 if f.dim == 1 else 5)
    for d in _directions(f.dim):
        for kwargs in SETTINGS:
            got = clarke_directional_values(f, pts, d, **kwargs)
            want = _reference_clarke(f, pts, d, **kwargs)
            assert _same_bits(got[0], want[0]), (fid, tilt, d, kwargs)
            assert _same_bits(got[1], want[1]), (fid, tilt, d, kwargs)


def test_kernel_blocks_match_per_point_calls():
    f = get_function("twowell")
    n = subderivative._CLARKE_BLOCK + 1
    pts = np.linspace(-1.5, 1.5, n)[:, None]
    for d in ([1.0], [-1.0]):
        values, per_delta = clarke_directional_values(f, pts, d)
        for i in (0, 1, n // 2, n - 2, n - 1):
            v, p = clarke_directional_values(f, pts[i : i + 1], d)
            assert _same_bits(values[i : i + 1], v) and _same_bits(per_delta[i : i + 1], p)
        ref_values, ref_per_delta = _reference_clarke(f, pts, d)
        assert _same_bits(values, ref_values) and _same_bits(per_delta, ref_per_delta)


#: A 1-D oracle without ``batch`` that tells -0.0 from +0.0: f(-0.0) = 0.25
#: and f(+0.0) = 0, so the two rows have different support tables.
_SIGNED_ZERO = FunctionOracle(
    name="signed_zero",
    dim=1,
    fn=lambda x: abs(float(x[0])) + (0.25 if math.copysign(1.0, float(x[0])) < 0 else 0.0),
    default_region=Region.box([(-1.0, 1.0)]),
)


#: A 3-D polyhedral oracle, max(x1, x2, x3, -x1 - x2 - x3), whose minimum 0
#: sits at the origin; no library entry is 3-D.
_MAX3D = FunctionOracle(
    name="max3d",
    dim=3,
    fn=lambda x: max(float(x[0]), float(x[1]), float(x[2]), -float(x[0] + x[1] + x[2])),
    batch=lambda p: np.max(np.column_stack([p, -p.sum(axis=1)]), axis=1),
    default_region=Region.box([(-1.0, 1.0)] * 3),
)


#: f(x) = x1 on R^2, whose ``batch`` returns a view of its input: the kernel
#: reuses one scratch array for the points of every ball slice, so it must
#: copy the values it keeps.
_VIEW = FunctionOracle(
    name="view",
    dim=2,
    fn=lambda x: float(x[0]),
    batch=lambda p: p[:, 0],
    default_region=Region.box([(-1.0, 1.0)] * 2),
)


@pytest.mark.parametrize("f", [_MAX3D, _SIGNED_ZERO, _VIEW], ids=["max3d", "fn_only", "view"])
def test_kernel_slices_match_the_reference_over_several_blocks(monkeypatch, f):
    # blocks of three base points: several full blocks and a partial last one
    monkeypatch.setattr(subderivative, "_CLARKE_BLOCK", 3)
    grid = _finite_grid(f, {1: 5, 2: 3, 3: 3}[f.dim])
    zero = np.zeros((1, f.dim))
    pts = np.vstack([grid, zero, -zero, grid[-3:]])
    assert len(pts) % 3 != 0
    for d in _directions(f.dim):
        for kwargs in SETTINGS:
            got = clarke_directional_values(f, pts, d, **kwargs)
            want = _reference_clarke(f, pts, d, **kwargs)
            assert _same_bits(got[0], want[0]), (f.name, d, kwargs)
            assert _same_bits(got[1], want[1]), (f.name, d, kwargs)


def _zero_signs(p):
    """Zero everywhere, its sign taken from bit 11 of the point's bits."""
    bits = p.view(np.uint64).sum(axis=1)
    return np.where((bits >> np.uint64(11)) & np.uint64(1), -0.0, 0.0)


#: A 1-D oracle of signed zeros: a quotient is -0.0 where the ball infimum
#: is -0.0 and the ring value +0.0, and +0.0 elsewhere, so each limsup is a
#: max over both zeros.
_ZERO_SIGNS = FunctionOracle(
    name="zero_signs",
    dim=1,
    fn=lambda x: float(_zero_signs(np.asarray(x, dtype=float)[None, :])[0]),
    batch=_zero_signs,
    default_region=Region.box([(-1.0, 1.0)]),
)


def test_zero_limsup_is_positive_zero_at_every_block_size(monkeypatch):
    # which zero a max over -0.0 and +0.0 keeps depends on numpy's reduction
    # order, which changes with the block's shape; the estimate must not.
    # Taking the max alone gave 39 to 47 of the 164 per-delta entries -0.0
    # here, a different set at each block size
    pts = np.linspace(-1.0, 1.0, 41)[:, None]
    results = {}
    for block in (subderivative._CLARKE_BLOCK, 1, 3):
        monkeypatch.setattr(subderivative, "_CLARKE_BLOCK", block)
        for d in (1.0, -1.0):
            values, per_delta = clarke_directional_values(_ZERO_SIGNS, pts, [d])
            assert np.all(values == 0.0) and np.all(per_delta == 0.0)
            assert not np.any(np.signbit(values)) and not np.any(np.signbit(per_delta))
            results.setdefault(d, []).append((values, per_delta))
    for runs in results.values():
        for values, per_delta in runs[1:]:
            assert _same_bits(values, runs[0][0]) and _same_bits(per_delta, runs[0][1])


@pytest.mark.parametrize(("kwargs", "name"), [
    ({"delta_list": (math.nan,)}, "delta_list"),
    ({"delta_list": (math.inf, 0.1)}, "delta_list"),
    ({"nbhd_resolution": 2.5}, "nbhd_resolution"),
], ids=["nan_delta", "inf_delta", "fractional_resolution"])
def test_kernel_rejects_malformed_arguments(kwargs, name):
    with pytest.raises(ValueError, match=name):
        clarke_directional_values(get_function("abs"), np.zeros((2, 1)), [1.0], **kwargs)


@pytest.mark.parametrize("f", [get_function("neg_abs"), get_function("mixed2d"), _SIGNED_ZERO],
                         ids=["neg_abs", "mixed2d", "fn_only"])
def test_support_table_once_per_distinct_row_matches_per_row_calls(f):
    dirs = subdifferential.sphere_directions(f.dim, subdifferential._DIR_RESOLUTION)
    grid = _finite_grid(f, 5 if f.dim == 1 else 3)
    zero = np.zeros((1, f.dim))
    pts = np.vstack([grid, grid[::-1], zero, -zero, grid[:2], zero])
    table = subdifferential._clarke_support(f, pts, dirs, DEFAULT_SCHEME)
    per_row = np.array(
        [[clarke_directional_values(f, row[None, :], d)[0][0] for d in dirs] for row in pts]
    )
    assert table.shape == (len(pts), len(dirs))
    assert np.array_equal(table.view(np.uint64), per_row.view(np.uint64))
    empty = subdifferential._clarke_support(f, np.empty((0, f.dim)), dirs, DEFAULT_SCHEME)
    assert empty.shape == (0, len(dirs))
    if f is _SIGNED_ZERO:
        # the +0.0 and -0.0 rows must not share a table row
        plus, minus = 2 * len(grid), 2 * len(grid) + 1
        assert not np.array_equal(per_row[plus], per_row[minus])


def test_support_table_reaches_the_concave_kink_off_the_axes():
    # f = -||x|| has f°(0; d) = 1 for every unit d, which the ring reaches
    # at x = -r d/|d|; with axis shells alone the table read 1.0 on the
    # axes, 0.916 at 22.5 degrees and 0.680 at 45 degrees. The delta
    # extrapolation overshoots by up to 2.8e-5.
    f = FunctionOracle(
        name="neg_norm2d",
        dim=2,
        fn=lambda x: -float(np.linalg.norm(x)),
        batch=lambda p: -np.linalg.norm(p, axis=1),
    )
    dirs = subdifferential.sphere_directions(2, 16)
    table = subdifferential._clarke_support(f, np.zeros((1, 2)), dirs, DEFAULT_SCHEME)
    assert table.shape == (1, 16)
    assert np.all(np.abs(table - 1.0) <= 1e-4)


def test_support_table_is_keyed_within_groups(monkeypatch):
    # a row shared by two groups is evaluated once per group, a row repeated
    # within a group once; the table is the ungrouped one either way
    f = get_function("twowell")
    dirs = subdifferential.sphere_directions(f.dim, subdifferential._DIR_RESOLUTION)
    grid = _finite_grid(f, 5)
    pts = np.vstack([grid, grid, grid[:2]])
    groups = np.repeat([0, 1, 1], [len(grid), len(grid), 2])
    sizes = []

    def counting(f, xbars, *args, **kwargs):
        sizes.append(len(xbars))
        return clarke_directional_values(f, xbars, *args, **kwargs)

    monkeypatch.setattr(subdifferential, "clarke_directional_values", counting)
    table = subdifferential._clarke_support(f, pts, dirs, DEFAULT_SCHEME, groups)
    assert sizes == [2 * len(grid)] * len(dirs)
    plain = subdifferential._clarke_support(f, pts, dirs, DEFAULT_SCHEME)
    assert sizes[len(dirs):] == [len(grid)] * len(dirs)
    assert np.array_equal(table.view(np.uint64), plain.view(np.uint64))


def test_local_grids_match_the_box_regions():
    for fid in ("abs", "norm2d"):
        f = get_function(fid)
        xbars = f.default_region.sample(5 if f.dim == 1 else 3)
        grids = _local_grids(xbars, np.asarray(EPS_LADDER), 9)
        for b, xb in enumerate(xbars):
            for k, eps in enumerate(EPS_LADDER):
                box = Region.box([(float(c - eps), float(c + eps)) for c in xb])
                assert _same_bits(grids[b, k], box.sample(9))


def _cdd_loop(fid, params):
    """cdd_suite's result from one cdd_profile call per finite grid point."""
    f = get_function(fid)
    grid = f.default_region.sample(params.grid_resolution(f.dim))
    eye = np.eye(f.dim)
    dirs = np.vstack([eye, -eye])
    checks = passes = 0
    truncated = False
    failures = []
    for xb in grid[np.isfinite(f.values(grid))]:
        for v in cdd_profile(f, xb, dirs, scheme=params.scheme,
                             covector_half_width=params.covector_half_width,
                             tol=params.cdd_tol):
            checks += 1
            truncated = truncated or "covector_truncated" in v.flags
            if v.ok:
                passes += 1
            else:
                failures.append({
                    "xbar": xb.tolist(),
                    "direction": v.details["direction"],
                    "lhs": v.details["lhs"],
                    "rhs": v.details["rhs"],
                    "residual": v.residual,
                    "flags": list(v.flags),
                })
    return {
        "function": fid,
        "region": f.default_region.describe(),
        "checks": checks,
        "pass": passes,
        "fail": len(failures),
        "hard_count": len(failures),
        "covector_truncated": truncated,
        "failures": failures,
    }


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_cdd_suite_matches_a_per_point_profile_loop(fid):
    params = SuiteParams(resolution=9, resolution_2d=5)
    assert cdd_suite(get_function(fid), params) == _cdd_loop(fid, params)


def _verdict_fields(v):
    return (v.ok, v.residual, v.flags, v.details,
            None if v.witness is None else np.asarray(v.witness).tolist())


@pytest.mark.parametrize("fid", ["ind_halfline", "twowell", "mixed2d"])
def test_stacked_profiles_keep_per_point_verdicts(monkeypatch, fid):
    # blocks of two base points in 1-D (one in 2-D) against one cdd_profile
    # call each, verdict by verdict; a tight tolerance makes some mixed2d
    # rows fail, and ind_halfline has truncated and untruncated base points
    monkeypatch.setattr(subdifferential, "_CDD_BLOCK_POINTS", 2 * len(EPS_LADDER) * 9)
    f = get_function(fid)
    xbars = _finite_grid(f, 9 if f.dim == 1 else 5)
    eye = np.eye(f.dim)
    dirs = np.vstack([eye, -eye, np.full((1, f.dim), 0.6)])
    stacked = list(_cdd_profiles(f, xbars, dirs, DEFAULT_SCHEME, 10.0, 1e-12))
    assert len(stacked) == len(xbars)
    flags = set()
    for xb, verdicts in zip(xbars, stacked):
        alone = cdd_profile(f, xb, dirs, tol=1e-12)
        assert [_verdict_fields(v) for v in verdicts] == [_verdict_fields(v) for v in alone]
        flags.add(verdicts[0].flags)
    if fid == "ind_halfline":
        assert flags == {(), ("covector_truncated",)}


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_kernel_memory_does_not_grow_with_the_batch():
    f = get_function("twowell")
    pts = np.linspace(-1.0, 1.0, 5000)[:, None]
    assert _peak_mb(lambda: clarke_directional_values(f, pts, [1.0])) < 16.0


def test_cdd_suite_memory_stays_bounded_at_high_resolution():
    params = SuiteParams(resolution=257)
    assert _peak_mb(lambda: cdd_suite(get_function("twowell"), params)) < 16.0


def test_kernel_peak_memory_is_one_ball_slice():
    f = get_function("twowell")
    pts = np.linspace(-1.0, 1.0, 5000)[:, None]
    assert _peak_mb(lambda: clarke_directional_values(f, pts, [1.0])) < 4.0


def test_kernel_oracle_calls_hold_at_most_one_block_of_ring_points(monkeypatch):
    # f(xbar) once for the batch, then per block one call for the ring and one
    # per direction-ball slice, each on the block's b T M ring points
    sizes = []
    values = FunctionOracle.values

    def counting_values(self, points):
        sizes.append(len(points))
        return values(self, points)

    monkeypatch.setattr(FunctionOracle, "values", counting_values)
    n = 5000
    clarke_directional_values(get_function("twowell"), np.linspace(-1.0, 1.0, n)[:, None], [1.0])
    cells = DEFAULT_SCHEME.tail_count * (1 + 2 * 3)  # T M in 1-D
    slices = 1 + len(DEFAULT_DELTAS) * 2
    blocks = [min(subderivative._CLARKE_BLOCK, n - lo)
              for lo in range(0, n, subderivative._CLARKE_BLOCK)]
    assert max(sizes) <= subderivative._CLARKE_BLOCK * cells == 17_920
    assert sizes == [n] + [b * cells for b in blocks for _ in range(1 + slices)]
