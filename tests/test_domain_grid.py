"""Grid construction and kernel quadrature checks.

Closed-form oracle values are frozen here; anything labeled "exact" below is
arithmetic that can be verified by hand from the antiderivative
t^(2-alpha) / ((1-alpha)(2-alpha)).
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fraclap.domain_grid import (
    BALL_VOLUME,
    NEAR_SUBCELLS,
    OMEGA_N,
    DomainSpec,
    build_grid,
    build_kernel,
    kernel_exponent,
    _exact_pair_unit,
    _hybrid_pair_unit,
    _k1d_exact,
    _k2d_exact,
    _near_offsets,
)

# unit-cell pair integrals at alpha = 1.5, from the antiderivative:
#   K(1) = 8 - 4*sqrt(2), K(2) = 4*(2*sqrt(2) - 1 - sqrt(3))
K1_ADJ_15 = 8.0 - 4.0 * math.sqrt(2.0)  # 2.3431457...
K1_OFF2_15 = 4.0 * (2.0 * math.sqrt(2.0) - 1.0 - math.sqrt(3.0))  # 0.3855361...

# single unit cell, full exterior tail: t(alpha) = 2 / ((alpha-1)(2-alpha))
T_UNIT_15 = 8.0
T_UNIT_18 = 12.5


def k2d_oracle(a, b, alpha):
    """Independent route for the 2-D pair integral: reduce one variable with
    the 1-D tent convolution, integrate the other adaptively."""

    def tentconv(t, k):
        # integral over [0,1]^2 of delta(x - y - t) against offset k: the
        # tent max(0, 1 - |t - k|)
        return max(0.0, 1.0 - abs(t - k))

    def inner(z2):
        lo, hi = a - 1.0, a + 1.0

        def f(z1):
            return (
                tentconv(z1, a)
                * (z1 * z1 + z2 * z2) ** (-alpha / 2.0)
            )

        val, _ = quad(f, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        return val * tentconv(z2, b)

    pieces = []
    for lo, hi in ((b - 1.0, float(b)), (float(b), b + 1.0)):
        val, _ = quad(inner, lo, hi, epsabs=1e-11, epsrel=1e-9, limit=200)
        pieces.append(val)
    return sum(pieces)


# ---------------------------------------------------------------------------
# exponents and admissibility
# ---------------------------------------------------------------------------


def test_kernel_exponent_identity():
    # n + s_p * p == (n + s) * p with s_p = n + s - n/p
    for n in (1, 2):
        for s in (0.3, 0.5, 0.7):
            for p in (1.0, 1.1, 1.25):
                s_p = n + s - n / p
                assert math.isclose(
                    n + s_p * p, kernel_exponent(n, s, p), rel_tol=1e-14
                )


def test_exponent_rejection():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.5))
    with pytest.raises(ValueError, match="kernel exponent out of admissible range"):
        build_kernel(grid, 2.25)
    with pytest.raises(ValueError, match="kernel exponent out of admissible range"):
        build_kernel(grid, 1.0)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_interval_grid():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.25))
    assert grid.ncells == 8
    assert grid.measure == pytest.approx(2.0)
    assert grid.centers[0, 0] == pytest.approx(-0.875)
    assert grid.centers[-1, 0] == pytest.approx(0.875)
    assert np.all(np.diff(grid.centers[:, 0]) > 0)


def test_box_grid_2d():
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 1.0, 0.5), 0.25))
    assert grid.ncells == 8
    assert grid.measure == pytest.approx(0.5)
    # lexicographic by (x, y)
    lat = grid.lattice
    order = sorted(map(tuple, lat))
    assert [tuple(r) for r in lat] == order


def test_ball_grid_2d_center_rule():
    grid = build_grid(DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.25))
    # strict center-in rasterization
    assert np.all(np.sum(grid.centers ** 2, axis=1) < 1.0)
    assert grid.measure == pytest.approx(
        BALL_VOLUME[2], rel=0.15
    )  # coarse rasterization


def test_union_grid_dedup():
    spec = DomainSpec(
        2, "union", (((0.0, 0.0, 1.0, 1.0)), ((0.5, 0.0, 1.5, 1.0))), 0.5
    )
    grid = build_grid(spec)
    # 2x2 + 2x2 boxes overlapping in one column: 6 cells
    assert grid.ncells == 6
    assert grid.measure == pytest.approx(1.5)


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError, match="degenerate domain"):
        build_grid(DomainSpec(1, "box", (0.0, 0.0), 0.1))
    with pytest.raises(ValueError, match="degenerate domain"):
        build_grid(DomainSpec(2, "ball", (0.0, 0.0, -1.0), 0.1))
    with pytest.raises(ValueError, match="degenerate domain"):
        build_grid(DomainSpec(1, "interval", (1.0, 0.0), 0.1))


@pytest.mark.parametrize(
    "shape, params",
    [
        ("interval", (0.0, math.inf)),
        ("box", (-math.inf, 1.0)),
        ("ball", (math.nan, 1.0)),
        ("ball", (0.0, math.inf)),
        ("union", ((0.0, 1.0), (2.0, math.inf))),
    ],
)
def test_nonfinite_coordinates_rejected(shape, params):
    with pytest.raises(ValueError, match="must be finite"):
        build_grid(DomainSpec(1, shape, params, 0.5))


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
def test_bad_resolution_rejected(h):
    with pytest.raises(ValueError, match="resolution h must be positive and finite"):
        DomainSpec(1, "interval", (0.0, 1.0), h)


def test_r_out_covers_domain():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.125))
    assert grid.r_out >= grid.diam


# ---------------------------------------------------------------------------
# exact pair integrals
# ---------------------------------------------------------------------------


def test_k1d_frozen_values():
    assert _k1d_exact(1, 1.5) == pytest.approx(K1_ADJ_15, rel=1e-12)
    assert _k1d_exact(2, 1.5) == pytest.approx(K1_OFF2_15, rel=1e-12)


def test_k1d_matches_quadrature():
    for k in (1, 2):
        for alpha in (1.2, 1.5, 1.8):
            def outer(y, k=k, alpha=alpha):
                val, _ = quad(
                    lambda x: abs(x - y) ** (-alpha), k, k + 1.0,
                    epsabs=1e-12, limit=200,
                )
                return val

            ref, _ = quad(outer, 0.0, 1.0, epsabs=1e-11, limit=200)
            assert _k1d_exact(k, alpha) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("off", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_k2d_matches_independent_quadrature(off):
    alpha = 2.5
    val = _k2d_exact(off[0], off[1], alpha)
    ref = k2d_oracle(off[0], off[1], alpha)
    assert val == pytest.approx(ref, rel=1e-6)


def test_k2d_second_exponent():
    val = _k2d_exact(1, 1, 2.2)
    ref = k2d_oracle(1, 1, 2.2)
    assert val == pytest.approx(ref, rel=1e-6)


def test_k2d_symmetry():
    assert _k2d_exact(2, 1, 2.5) == pytest.approx(_k2d_exact(1, 2, 2.5), rel=1e-12)


# ---------------------------------------------------------------------------
# pair weights
# ---------------------------------------------------------------------------


def test_pair_weights_symmetry_zero_diag():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.1))
    kern = build_kernel(grid, 1.5)
    assert np.array_equal(kern.w, kern.w.T)
    assert np.all(np.diag(kern.w) == 0.0)
    assert np.all(kern.w[~np.eye(grid.ncells, dtype=bool)] > 0)


def test_adjacent_weight_accuracy_and_refinement():
    # exact adjacent integral on unit cells is K1_ADJ_15; the hybrid rule
    # must land within 5%
    grid = build_grid(DomainSpec(1, "interval", (0.0, 2.0), 1.0))
    kern = build_kernel(grid, 1.5)
    assert abs(kern.w[0, 1] - K1_ADJ_15) / K1_ADJ_15 <= 0.05


def test_offset2_weight_accuracy():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 3.0), 1.0))
    kern = build_kernel(grid, 1.5)
    assert abs(kern.w[0, 2] - K1_OFF2_15) / K1_OFF2_15 <= 0.02


def test_far_weights_are_midpoint():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 8.0), 1.0))
    kern = build_kernel(grid, 1.5)
    # offset 5 is beyond the near range: plain midpoint value 5^(-1.5)
    assert kern.w[0, 5] == pytest.approx(5.0 ** -1.5, rel=1e-14)


def test_pair_weight_scaling():
    # w scales as h^(2n - alpha) at fixed integer offset
    alpha = 1.5
    g1 = build_grid(DomainSpec(1, "interval", (0.0, 4.0), 1.0))
    g2 = build_grid(DomainSpec(1, "interval", (0.0, 2.0), 0.5))
    k1 = build_kernel(g1, alpha)
    k2 = build_kernel(g2, alpha)
    ratio = k2.w[0, 1] / k1.w[0, 1]
    assert ratio == pytest.approx(0.5 ** (2 - alpha), rel=1e-12)


def test_weights_2d_near_subcell_rule_and_far_midpoint():
    # near offsets (center distance <= 3 cells) carry the 4-per-axis subcell
    # rule, everything beyond the plain midpoint value
    h, alpha = 0.5, 2.5
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 3.5, 3.0), h))
    kern = build_kernel(grid, alpha)
    lat = grid.lattice
    near_seen = set()
    for i in range(grid.ncells):
        for j in range(grid.ncells):
            if i == j:
                continue
            a, b = sorted(abs(int(v)) for v in lat[i] - lat[j])[::-1]
            d2 = a * a + b * b
            if d2 <= 9:
                near_seen.add((a, b))
                ref = h ** (4 - alpha) * _hybrid_pair_unit((a, b), alpha, 4, 2)
                assert kern.w[i, j] == ref
            else:
                ref = h ** (4 - alpha) * d2 ** (-alpha / 2.0)
                assert kern.w[i, j] == pytest.approx(ref, rel=1e-14)
    assert near_seen == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)}


def _full_fill_kernel(grid, alpha):
    """(w, t) through full N x N temporaries: the assembly before row blocks."""
    h, n = grid.h, grid.n
    sigma = alpha - n
    kmax = int(math.floor(grid.r_out / h))
    r_snap = (kmax + 0.5) * h
    scale = h ** (2 * n - alpha)
    offsets = _near_offsets(n)
    near = {dd: scale * _exact_pair_unit(off, alpha, n) for dd, off in offsets.items()}
    if n == 1:
        ks = np.arange(1, kmax + 1, dtype=float)
        vals = scale * ks ** (-alpha)
        for dd, v in near.items():
            idx = int(math.isqrt(dd)) - 1
            if idx < vals.shape[0]:
                vals[idx] = v
        lattice_sum = 2.0 * float(np.sum(vals))
    else:
        rng = np.arange(-kmax, kmax + 1, dtype=np.int64)
        o1, o2 = np.meshgrid(rng, rng, indexing="ij")
        dd2 = o1 * o1 + o2 * o2
        keep = (dd2 > 0) & (dd2 <= kmax * kmax + kmax)
        dvals = dd2[keep].astype(float)
        vals = scale * dvals ** (-alpha / 2.0)
        for dd, v in near.items():
            vals[dvals == float(dd)] = v
        lattice_sum = float(np.sum(vals))

    d2 = np.zeros((grid.ncells, grid.ncells), dtype=np.int64)
    for col in grid.lattice.T.astype(np.int64):
        diff = np.subtract.outer(col, col)
        diff *= diff
        d2 += diff
    w = np.zeros(d2.shape)
    far = d2 > 9
    w[far] = scale * d2[far].astype(float) ** (-alpha / 2.0)
    near_idx = {dd: np.flatnonzero(d2 == dd) for dd in offsets}
    for dd, idx in near_idx.items():
        w.flat[idx] = near[dd]
    tail = grid.cell_measure * OMEGA_N[n] / (sigma * r_snap ** sigma)
    t = lattice_sum - w.sum(axis=1) + tail
    for dd, idx in near_idx.items():
        w.flat[idx] = scale * _hybrid_pair_unit(offsets[dd], alpha, NEAR_SUBCELLS, n)
    return w, t


# 1-D cell counts around the 128-row assembly blocks, and 2-D boxes of one
# partial, two and three blocks
@pytest.mark.parametrize(
    "n, upper, alphas",
    [(1, (c,), (1.5, 1.8)) for c in (1, 127, 128, 129, 300)]
    + [(2, box, (2.5, 2.75)) for box in ((7, 5), (12, 12), (17, 17))],
    ids=["1d-1", "1d-127", "1d-128", "1d-129", "1d-300", "2d-7x5", "2d-12x12",
         "2d-17x17"],
)
def test_blockwise_kernel_keeps_full_fill_bits(n, upper, alphas):
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + tuple(map(float, upper)), 1.0))
    for alpha in alphas:
        kern = build_kernel(grid, alpha)
        w, t = _full_fill_kernel(grid, alpha)
        assert np.array_equal(kern.w.view(np.int64), w.view(np.int64))
        assert np.array_equal(kern.t.view(np.int64), t.view(np.int64))


def test_kernel_assembly_peaks_below_two_pair_arrays():
    # w is the only N x N array; one row block of scratch rides beside it
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 40.0, 40.0), 1.0))
    build_kernel(grid, 2.5)  # fills the per-offset caches outside the trace
    tracemalloc.start()
    try:
        kern = build_kernel(grid, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * kern.w.nbytes


# ---------------------------------------------------------------------------
# exterior tails
# ---------------------------------------------------------------------------


def test_single_cell_tail_closed_form():
    # one unit cell: t = 2 / ((alpha - 1)(2 - alpha)) exactly
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    for alpha, target in ((1.5, T_UNIT_15), (1.8, T_UNIT_18)):
        kern = build_kernel(grid, alpha)
        assert abs(kern.t[0] - target) / target <= 0.02


def test_tails_positive_and_boundary_dominant():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    kern = build_kernel(grid, 1.5)
    assert np.all(kern.t > 0)
    # boundary cells see more exterior than the center cell
    assert kern.t[0] > 3 * kern.t[grid.ncells // 2]
    # symmetry of the domain is reflected in the tails
    assert np.allclose(kern.t, kern.t[::-1], rtol=1e-9)


def test_interval_tail_against_direct_integral():
    # t_i for [0,1] cells at h=0.25: direct integral of the exact kernel
    # over C_i x R\[0,1] has the closed form below
    h = 0.25
    alpha = 1.5
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), h))
    kern = build_kernel(grid, alpha)

    def phi2(t):
        return t ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))

    def cell_tail(a, b):
        # integral over [a,b] x ((-inf,0] u [1,inf)) of |x-y|^(-alpha);
        # the left side integrates to (b^(2-alpha) - a^(2-alpha)) /
        # ((2-alpha)(alpha-1)) = phi2(a) - phi2(b), right side mirrored
        left = phi2(a) - phi2(b)
        right = phi2(1.0 - b) - phi2(1.0 - a)
        return left + right

    for i in range(grid.ncells):
        a = i * h
        ref = cell_tail(a, a + h)
        assert kern.t[i] == pytest.approx(ref, rel=5e-3)


def test_tail_2d_positive_and_symmetric():
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 1.0, 1.0), 0.25))
    kern = build_kernel(grid, 2.5)
    assert np.all(kern.t > 0)
    t = kern.t.reshape(4, 4)
    assert np.allclose(t, t[::-1, :], rtol=1e-9)
    assert np.allclose(t, t[:, ::-1], rtol=1e-9)
    assert np.allclose(t, t.T, rtol=1e-9)
    # the far field behind these tails integrates over the unit circle
    assert OMEGA_N[2] == pytest.approx(2.0 * math.pi)
