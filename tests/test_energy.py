"""Energy module checks: factor conventions, gradients, coarea, embedding."""

import math

import numpy as np
import pytest

from fraclap.domain_grid import DomainSpec, build_grid, build_kernel, kernel_exponent
from fraclap.energy import (
    EnergyBreakdown,
    LoadField,
    _pair_tail,
    gradient,
    hoelder_embedding_factor,
    load_from_array,
    seminorm,
    seminorm_power,
    total_energy,
)
from fraclap.geometry import (
    _layer_rounding,
    coarea_decompose,
    coarea_identity_gap,
    perimeter,
    weighted_volume,
)


@pytest.fixture(scope="module")
def cell1():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    kern = build_kernel(grid, 1.5)  # n + s at s = 0.5
    return grid, kern


@pytest.fixture(scope="module")
def interval16():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    return grid, build_kernel(grid, 1.5)


def ones_load(grid):
    return load_from_array(np.ones(grid.ncells))


# ---------------------------------------------------------------------------
# load fields
# ---------------------------------------------------------------------------


def test_load_flag_detection():
    f = load_from_array([0.0, 1.0, 2.0])
    assert f.nonnegative
    g = load_from_array([-1.0, 1.0])
    assert not g.nonnegative
    z = load_from_array([0.0, 0.0])
    assert not z.nonnegative  # zero mass fails the positivity condition


def test_load_flag_enforced():
    with pytest.raises(ValueError):
        LoadField(values=np.array([-1.0, 2.0]), nonnegative=True)
    with pytest.raises(ValueError):
        LoadField(values=np.array([0.0, 0.0]), nonnegative=True)


# ---------------------------------------------------------------------------
# seminorm and functional
# ---------------------------------------------------------------------------


def test_zero_field(cell1):
    grid, kern = cell1
    assert seminorm(np.zeros(1), kern, 1.0) == 0.0
    f = ones_load(grid)
    assert total_energy(np.zeros(1), f, kern, 1.0).total == 0.0


def test_single_cell_seminorm_value(cell1):
    # [chi]_1 = 2 t_1, and t_1 is the closed-form 8 within 2 percent
    _, kern = cell1
    val = seminorm(np.ones(1), kern, 1.0)
    assert abs(val - 16.0) / 16.0 <= 0.02


def test_homogeneity(interval16):
    grid, kern = interval16
    rng = np.random.default_rng(7)
    u = rng.normal(size=grid.ncells)
    for p in (1.0, 1.2):
        a = seminorm_power(3.0 * u, kern, p)
        b = 3.0 ** p * seminorm_power(u, kern, p)
        assert a == pytest.approx(b, rel=1e-12)


def test_breakdown_fields(interval16):
    grid, kern = interval16
    rng = np.random.default_rng(3)
    u = rng.normal(size=grid.ncells)
    f = ones_load(grid)
    p = 1.2
    eb = total_energy(u, f, kern, p)
    assert isinstance(eb, EnergyBreakdown)
    power = eb.pair + 2.0 * eb.tail
    assert eb.seminorm == pytest.approx(power ** (1 / p), rel=1e-14)
    assert eb.kinetic == pytest.approx(power / (2 * p), rel=1e-14)
    assert eb.total == pytest.approx(eb.kinetic - eb.load, rel=1e-14)
    assert eb.load == pytest.approx(float(np.sum(u * kern.m)), rel=1e-12)


def test_indicator_energy_matches_perimeter_minus_volume(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    mask = np.zeros(grid.ncells, dtype=bool)
    mask[4:9] = True
    eb = total_energy(mask.astype(float), f, kern, 1.0)
    # bitwise identical route
    assert eb.total == perimeter(mask, kern) - weighted_volume(mask, f, kern)


def test_p1_positive_homogeneity(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    rng = np.random.default_rng(5)
    u = np.abs(rng.normal(size=grid.ncells))
    a = total_energy(4.0 * u, f, kern, 1.0).total
    b = 4.0 * total_energy(u, f, kern, 1.0).total
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_zero_everything(interval16):
    grid, kern = interval16
    f = LoadField(values=np.zeros(grid.ncells), nonnegative=False)
    g = gradient(np.zeros(grid.ncells), f, kern, 1.2)
    assert np.all(g == 0.0)


def test_gradient_rejects_p1(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    with pytest.raises(ValueError, match="nonsmooth regime"):
        gradient(np.zeros(grid.ncells), f, kern, 1.0)


def test_nan_exponent_is_rejected():
    # NaN fails every comparison, so the range checks are written to fail
    # it too: each entry raises instead of returning NaN
    grid = build_grid(DomainSpec(1, "interval", (0.0, 4.0), 1.0))
    kern = build_kernel(grid, 1.5)
    u = np.array([0.0, 1.0, 2.0, 1.0])
    f = load_from_array(np.ones(4))
    with pytest.raises(ValueError, match="p >= 1"):
        seminorm_power(u, kern, math.nan)
    with pytest.raises(ValueError, match="p >= 1"):
        total_energy(u, f, kern, math.nan)
    with pytest.raises(ValueError, match="nonsmooth regime"):
        gradient(u, f, kern, math.nan)
    with pytest.raises(ValueError, match="p > 1"):
        hoelder_embedding_factor(kern, kern, math.nan)


@pytest.mark.parametrize("p", [1.2, 1.1])
def test_gradient_matches_finite_differences(interval16, p):
    grid, kern = interval16
    f = ones_load(grid)
    rng = np.random.default_rng(11)
    # pairwise-distinct entries keep us away from the |t|^(p-2) kink
    u = rng.permutation(np.linspace(0.5, 1.5, grid.ncells))
    g = gradient(u, f, kern, p)
    step = 1e-6
    for i in range(0, grid.ncells, 3):
        up, um = u.copy(), u.copy()
        up[i] += step
        um[i] -= step
        fd = (
            total_energy(up, f, kern, p).total
            - total_energy(um, f, kern, p).total
        ) / (2 * step)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_gradient_matches_sign_times_power_bitwise(interval16):
    # the reference formula of the docstring, with -0.0 and tied entries
    grid, kern = interval16
    f = ones_load(grid)
    rng = np.random.default_rng(23)
    for p in (1.2, 1.05):
        for _ in range(50):
            u = rng.normal(size=grid.ncells)
            u[rng.random(grid.ncells) < 0.2] = 0.0
            u[rng.random(grid.ncells) < 0.2] = -0.0
            u[rng.random(grid.ncells) < 0.2] = u[0]
            du = u[:, None] - u[None, :]
            pair = np.sum(kern.w * (np.sign(du) * np.abs(du) ** (p - 1.0)), axis=1)
            tail = kern.t * np.sign(u) * np.abs(u) ** (p - 1.0)
            want = pair + tail - f.values * kern.m
            got = gradient(u, f, kern, p)
            assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def test_one_cell_stationarity(cell1):
    # u* = (f m / t)^(1/(p-1)) zeroes the gradient
    grid, kern = cell1
    f = ones_load(grid)
    p = 1.2
    ustar = (f.values[0] * kern.m[0] / kern.t[0]) ** (1.0 / (p - 1.0))
    g = gradient(np.array([ustar]), f, kern, p)
    assert abs(g[0]) <= 1e-10 * abs(f.values[0] * kern.m[0])


# ---------------------------------------------------------------------------
# coarea
# ---------------------------------------------------------------------------


def test_coarea_indicator(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    mask = np.zeros(grid.ncells, dtype=bool)
    mask[5:10] = True
    decomp = coarea_decompose(mask.astype(float), f, kern)
    assert len(decomp) == 1
    from fraclap.geometry import perimeter, weighted_volume

    assert decomp[0].level == 1.0
    want = perimeter(mask, kern)
    assert abs(decomp[0].perimeter - want) <= _layer_rounding(grid.ncells, 2) * want
    assert decomp[0].weighted_volume == weighted_volume(mask, f, kern)


def test_coarea_two_plateaus_exact():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 4.0), 1.0))
    kern = build_kernel(grid, 1.5)
    f = ones_load(grid)
    u = np.array([1.0, 2.0, 2.0, 1.0])
    assert coarea_identity_gap(u, f, kern) <= 1e-12


def test_coarea_zero_field(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    assert coarea_decompose(np.zeros(grid.ncells), f, kern) == []


def test_coarea_rejects_negative(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    u = np.zeros(grid.ncells)
    u[0] = -0.5
    with pytest.raises(ValueError, match="nonnegative"):
        coarea_decompose(u, f, kern)


def test_coarea_random_plateau_fields(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    rng = np.random.default_rng(23)
    for _ in range(20):
        levels = np.sort(np.abs(rng.normal(size=3)))
        u = levels[rng.integers(0, 3, size=grid.ncells)]
        assert coarea_identity_gap(u, f, kern) <= 1e-12


def test_coarea_gap_is_relative_at_any_scale(interval16):
    # a power of two scales every sum exactly, so the relative gap keeps
    # its bits; other scales keep it at the rounding level. The zero field
    # has an empty decomposition and no gap
    grid, kern = interval16
    f = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    nonzero = 0
    for _ in range(6):
        levels = np.sort(np.abs(rng.normal(size=3)))
        u = levels[rng.integers(0, 3, size=grid.ncells)]
        gap = coarea_identity_gap(u, f, kern)
        nonzero += gap > 0
        for scale in (2.0 ** -30, 2.0 ** 30):
            assert coarea_identity_gap(scale * u, f, kern) == gap
        for scale in (1e-9, 1.0, 1e9):
            assert coarea_identity_gap(scale * u, f, kern) <= 64 * eps
    assert nonzero > 0
    assert coarea_identity_gap(np.zeros(grid.ncells), f, kern) == 0.0


# ---------------------------------------------------------------------------
# embedding, convexity, truncation, limit
# ---------------------------------------------------------------------------


def test_hoelder_embedding(interval16):
    grid, _ = interval16
    p = 1.2
    k1 = build_kernel(grid, kernel_exponent(1, 0.5, 1.0))
    kp = build_kernel(grid, kernel_exponent(1, 0.5, p))
    factor = hoelder_embedding_factor(k1, kp, p)
    rng = np.random.default_rng(19)
    for _ in range(25):
        u = rng.normal(size=grid.ncells)
        lhs = seminorm(u, k1, 1.0)
        rhs = seminorm(u, kp, p) * factor
        assert lhs <= rhs * (1.0 + 1e-12)


def test_convexity(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    rng = np.random.default_rng(29)
    for p in (1.0, 1.2):
        for _ in range(10):
            u = rng.normal(size=grid.ncells)
            v = rng.normal(size=grid.ncells)
            mid = total_energy((u + v) / 2.0, f, kern, p).total
            avg = (
                total_energy(u, f, kern, p).total
                + total_energy(v, f, kern, p).total
            ) / 2.0
            scale = abs(avg) + 1.0
            assert mid <= avg + 1e-12 * scale


def test_positive_truncation(interval16):
    grid, kern = interval16
    f = ones_load(grid)
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = rng.normal(size=grid.ncells)
        up = np.maximum(u, 0.0)
        assert (
            total_energy(up, f, kern, 1.0).total
            <= total_energy(u, f, kern, 1.0).total + 1e-12
        )


def test_energy_limit_in_p(interval16):
    # E_p^{s_p}(u) approaches E_1^s(u) along p -> 1 for fixed u
    grid, _ = interval16
    rng = np.random.default_rng(37)
    u = np.abs(rng.normal(size=grid.ncells))
    k1 = build_kernel(grid, kernel_exponent(1, 0.5, 1.0))
    e1 = seminorm_power(u, k1, 1.0) / 2.0
    gaps = []
    for p in (1.2, 1.1, 1.05, 1.02):
        kp = build_kernel(grid, kernel_exponent(1, 0.5, p))
        ep = seminorm_power(u, kp, p) / (2.0 * p)
        gaps.append(abs(ep - e1) / abs(e1))
    assert gaps[-1] <= 0.05
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_field_length_mismatch(interval16):
    _, kern = interval16
    with pytest.raises(ValueError, match="length"):
        seminorm(np.ones(3), kern, 1.0)


# ---------------------------------------------------------------------------
# pair fills
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _pair_tail_full(vals, kernel, p):
    """The pair array filled over the whole N x N square: the byte
    reference of _pair_tail."""
    du = vals[:, None] - vals[None, :]
    np.abs(du, out=du)
    du **= p
    du *= kernel.w
    pair = float(np.sum(du))
    tail = float(np.sum(kernel.t * np.abs(vals) ** p))
    return pair, tail


def _gradient_full(vals, f, kernel, p):
    """The phi_p array filled over the whole N x N square: the byte
    reference of gradient."""
    du = vals[:, None] - vals[None, :]
    phi = np.abs(du)
    phi **= p - 1.0
    np.copysign(phi, du, out=phi)
    phi *= kernel.w
    pair_term = np.sum(phi, axis=1)
    tail_term = kernel.t * np.sign(vals) * np.abs(vals) ** (p - 1.0)
    return pair_term + tail_term - f.values * kernel.m


def test_pair_tail_keeps_full_fill_bits(mirror_case):
    kern, fields = mirror_case
    for u in fields:
        for p in (1.0, 1.02, 1.1, 2.0):
            got = _pair_tail(u, kern, p)
            assert _same_bits(got, _pair_tail_full(u, kern, p)), p


def test_gradient_keeps_full_fill_bits(mirror_case):
    kern, fields = mirror_case
    f = load_from_array(np.linspace(-1.0, 2.0, kern.m.size))
    for u in fields:
        for p in (1.02, 1.1, 2.0):
            got = gradient(u, f, kern, p)
            assert _same_bits(got, _gradient_full(u, f, kern, p)), p
