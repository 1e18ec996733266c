"""Certificate construction and verification for the nonsmooth problem."""

import os

import numpy as np
import pytest

from fraclap.certify import (
    _LP_BYTES_PER_FREE,
    _check_lp_fits,
    _fixed_parts,
    _pair_signs,
    build_certificate,
    equal_pair_mass,
    plateau_measure,
    verify_certificate,
)
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.energy import LoadField, load_from_array
from fraclap.geometry import brute_force_cheeger
from fraclap.solver import SolveConfig, solve_p


@pytest.fixture(scope="module")
def cell1():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    kern = build_kernel(grid, 1.5)  # n + s with s = 0.5
    return grid, kern


@pytest.fixture(scope="module")
def interval16():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    kern = build_kernel(grid, 1.5)
    return grid, kern


# ---------------------------------------------------------------------------
# one-cell trichotomy
# ---------------------------------------------------------------------------


def test_one_cell_subcritical_feasible(cell1):
    grid, kern = cell1
    t0 = kern.t[0]
    f = load_from_array(np.array([4.0]))  # f m < t
    cert = build_certificate(np.zeros(1), f, kern)
    assert cert.feasible
    assert cert.max_residual <= 1e-8 * cert.scale
    assert abs(cert.zbar[0] - 4.0 / t0) < 1e-6


def test_one_cell_critical_saturates(cell1):
    grid, kern = cell1
    t0 = kern.t[0]
    f = load_from_array(np.array([t0]))  # f m = t exactly
    cert = build_certificate(np.zeros(1), f, kern)
    assert cert.feasible
    assert abs(cert.zbar[0] - 1.0) < 1e-6


def test_one_cell_critical_certificate_is_shared(cell1):
    grid, kern = cell1
    t0 = kern.t[0]
    f = load_from_array(np.array([t0]))
    # both multiples of the indicator carry the same saturated sign field
    cert = build_certificate(np.ones(1), f, kern)
    assert cert.feasible
    assert cert.zbar[0] == 1.0
    for scale in (1.0, 2.0):
        rep = verify_certificate(scale * np.ones(1), cert, f, kern)
        assert rep.passed


def test_one_cell_supercritical_infeasible(cell1):
    grid, kern = cell1
    t0 = kern.t[0]
    f = load_from_array(np.array([2.0 * t0]))  # f m > t
    cert = build_certificate(np.zeros(1), f, kern)
    assert not cert.feasible
    # best effort saturates the box and leaves exactly the mass excess
    assert cert.zbar[0] == 1.0
    assert abs(cert.max_residual - t0) < 1e-9


# ---------------------------------------------------------------------------
# multi-cell instances
# ---------------------------------------------------------------------------


def test_round_trip_indicator(interval16):
    grid, kern = interval16
    u = np.ones(grid.ncells)
    f = LoadField(values=kern.t / kern.m, nonnegative=True)
    cert = build_certificate(u, f, kern)
    assert cert.feasible
    assert cert.max_residual <= 1e-12 * cert.scale
    assert np.all(cert.z == 0.0)  # ties stay unsigned: balance is exact
    rep = verify_certificate(u, cert, f, kern)
    assert rep.passed


def test_overloaded_instance_reports_infeasible(interval16):
    grid, kern = interval16
    u = np.ones(grid.ncells)
    row = np.sum(kern.w, axis=1)
    values = (kern.t + row) / kern.m
    values[3] += 1.0 / kern.m[3]  # exceeds the total sign budget at cell 3
    f = LoadField(values=values, nonnegative=True)
    cert = build_certificate(u, f, kern)
    assert not cert.feasible
    # summed balances cancel the pair terms, so at least 1.0 of defect
    # must survive somewhere no matter how the free signs are chosen
    assert cert.max_residual >= 1.0 / grid.ncells
    assert not verify_certificate(u, cert, f, kern).passed


def test_zero_field_certificate_is_sharp_at_cheeger_constant():
    # a sign field for u = 0 exists exactly when the constant load stays
    # at or below the weighted Cheeger constant (max-flow/min-cut duality)
    grid = build_grid(DomainSpec(1, "interval", (0.0, 20.0), 1.0))
    kern = build_kernel(grid, 1.5)
    ones = load_from_array(np.ones(grid.ncells))
    h = brute_force_cheeger(grid, ones, kern).h
    u = np.zeros(grid.ncells)
    below = load_from_array(np.full(grid.ncells, 0.999 * h))
    cert = build_certificate(u, below, kern)
    assert cert.feasible
    assert verify_certificate(u, cert, below, kern).passed
    above = load_from_array(np.full(grid.ncells, 1.001 * h))
    cert = build_certificate(u, above, kern)
    assert not cert.feasible
    assert not verify_certificate(u, cert, above, kern).passed


def test_residual_matches_recomputed_balance(interval16):
    grid, kern = interval16
    rng = np.random.default_rng(7)
    u = rng.normal(size=grid.ncells).round(1)  # rounding forces real ties
    f = load_from_array(rng.uniform(0.5, 1.5, size=grid.ncells))
    cert = build_certificate(u, f, kern)
    fm = f.values * kern.m
    r = np.sum(kern.w * cert.z, axis=1) + kern.t * cert.zbar - fm
    assert np.max(np.abs(r - cert.residual)) <= 1e-10 * cert.scale
    assert np.max(np.abs(cert.z + cert.z.T)) == 0.0
    assert np.max(np.abs(cert.z)) <= 1.0
    assert np.max(np.abs(cert.zbar)) <= 1.0


def test_verify_flags_sign_tampering(interval16):
    grid, kern = interval16
    u = np.linspace(0.1, 1.6, grid.ncells)
    f = load_from_array(np.ones(grid.ncells))
    cert = build_certificate(u, f, kern)
    z2 = cert.z.copy()
    z2[0, 1] = -z2[0, 1]
    z2[1, 0] = -z2[1, 0]
    bad = cert.__class__(
        z=z2,
        zbar=cert.zbar,
        residual=cert.residual,
        max_residual=cert.max_residual,
        scale=cert.scale,
        feasible=cert.feasible,
        iterations=cert.iterations,
    )
    rep = verify_certificate(u, bad, f, kern)
    assert not rep.passed
    assert rep.sign_violation == 2.0
    assert rep.antisymmetry_violation == 0.0


def test_verify_flags_box_violation(interval16):
    grid, kern = interval16
    u = np.zeros(grid.ncells)
    f = load_from_array(np.zeros(grid.ncells))
    cert = build_certificate(u, f, kern)
    zbar2 = cert.zbar.copy()
    zbar2[0] = 1.5
    bad = cert.__class__(
        z=cert.z,
        zbar=zbar2,
        residual=cert.residual,
        max_residual=cert.max_residual,
        scale=cert.scale,
        feasible=cert.feasible,
        iterations=cert.iterations,
    )
    rep = verify_certificate(u, bad, f, kern)
    assert not rep.passed
    assert abs(rep.box_violation - 0.5) < 1e-15


def _verify_fields_reference(u, cert, f, kern):
    """Every VerifyReport value computed with fresh N x N temporaries."""
    vals = np.asarray(u, dtype=float)
    z, zbar = cert.z, cert.zbar
    box = max(max(float(z.max()), -float(z.min()), float(np.max(np.abs(zbar)))) - 1.0, 0.0)
    antisym = float(np.max(np.abs(z + z.T)))
    signs = np.sign(np.subtract.outer(vals, vals))
    gap = np.abs(z - signs)
    gap[signs == 0.0] = 0.0
    sign_gap = float(np.max(gap))
    nz = vals != 0.0
    if np.any(nz):
        sign_gap = max(sign_gap, float(np.max(np.abs(zbar[nz] - np.sign(vals[nz])))))
    fm = f.values * kern.m
    scale = max(float(np.max(np.abs(fm))), float(np.max(kern.t)))
    scale = scale if scale != 0.0 else 1.0
    r = np.sum(kern.w * z, axis=1) + kern.t * zbar - fm
    return [box, antisym, sign_gap, float(np.max(np.abs(r))) / scale, scale]


@pytest.mark.parametrize("n, upper", [(1, (200.0,)), (2, (12.0, 11.0))], ids=["1d", "2d"])
def test_verify_work_buffer_keeps_report_bits(n, upper):
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + upper, 1.0))
    kern = build_kernel(grid, n + 0.5)
    rng = np.random.default_rng(5)
    u = rng.normal(size=grid.ncells).round(1)  # rounding forces ties
    u[rng.random(grid.ncells) < 0.2] = 0.0
    f = load_from_array(rng.uniform(0.5, 1.5, size=grid.ncells))
    cert = build_certificate(u, f, kern)
    # a tampered copy makes every violation nonzero
    z = cert.z + rng.normal(scale=0.1, size=cert.z.shape)
    tampered = cert.__class__(
        z=z,
        zbar=cert.zbar * 1.01,
        residual=cert.residual,
        max_residual=cert.max_residual,
        scale=cert.scale,
        feasible=cert.feasible,
        iterations=cert.iterations,
    )
    assert np.any(u == 0.0) and np.unique(u).size < u.size
    for sf in (cert, tampered):
        rep = verify_certificate(u, sf, f, kern)
        got = [rep.box_violation, rep.antisymmetry_violation, rep.sign_violation,
               rep.balance_violation, rep.scale]
        want = _verify_fields_reference(u, sf, f, kern)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert min(got[:4]) > 0.0


def test_lp_guard_counts_the_free_entries(interval16, monkeypatch):
    # equal values in groups of 3, 2 and 4 (the 4 zero cells) beside 7
    # distinct ones: 3 + 1 + 6 tied pairs and 4 zero cells
    grid, kern = interval16
    u = np.array([0.5, 0.5, 0.5, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0]
                 + [1.0 + k for k in range(7)])
    z, _, pi, pj, ci = _fixed_parts(u, _check_lp_fits(u))
    assert pi.size + ci.size == 14
    assert np.all(pi < pj) and np.all(z[pi, pj] == 0.0)
    # physical memory one byte short of the LP's estimate, then exactly it
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 14 * _LP_BYTES_PER_FREE - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    f = load_from_array(np.ones(grid.ncells))
    with pytest.raises(ValueError, match="LP has 14 free entries"):
        build_certificate(u, f, kern)
    pages["SC_PHYS_PAGES"] += 1
    build_certificate(u, f, kern)


def _scanned_ties(vals):
    # the tie list from the full N x N sign array, row-major
    return np.nonzero(np.triu(_pair_signs(vals) == 0.0, 1))


def test_tied_pairs_match_the_pair_scan():
    # the pairs come from the value groups; they must be the scan's, same
    # order and dtype, on a solved box field (orbit ties), the zero field,
    # +-0.0 mixes, heavily tied and tie-free fields, one cell and none
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 8.0, 8.0), 1.0))
    sol = solve_p(grid, build_kernel(grid, 2.75),
                  load_from_array(np.ones(grid.ncells)), SolveConfig(p=1.1, s=0.5))
    rng = np.random.default_rng(3)
    signed_zeros = np.where(rng.random(40) < 0.5, 0.0, -0.0)
    signed_zeros[::7] = 1.5
    fields = [
        sol.u, np.zeros(64), signed_zeros,
        rng.integers(-3, 4, size=200).astype(float),
        rng.normal(size=50), np.array([2.0]), np.zeros(0),
    ]
    assert np.unique(sol.u).size < sol.u.size
    for u in fields:
        z, _, pi, pj, _ = _fixed_parts(u, _check_lp_fits(u))
        want_i, want_j = _scanned_ties(u)
        assert pi.dtype == want_i.dtype and pj.dtype == want_j.dtype
        assert np.array_equal(pi, want_i) and np.array_equal(pj, want_j)
        assert np.array_equal(z, _pair_signs(u))


# ---------------------------------------------------------------------------
# flatness measures
# ---------------------------------------------------------------------------


def test_plateau_constant_field(interval16):
    grid, kern = interval16
    res = plateau_measure(np.ones(grid.ncells), kern, tau_rel=0.01)
    assert res.fraction == 1.0
    assert abs(res.measure - 2.0) < 1e-12
    assert not res.degenerate


def test_plateau_zero_field_degenerate(interval16):
    grid, kern = interval16
    res = plateau_measure(np.zeros(grid.ncells), kern, tau_rel=0.01)
    assert res.degenerate
    assert res.fraction == 1.0


def test_plateau_single_peak(interval16):
    grid, kern = interval16
    u = np.full(grid.ncells, 0.5)
    u[5] = 1.0
    res = plateau_measure(u, kern, tau_rel=0.01)
    assert abs(res.measure - 0.125) < 1e-12
    assert abs(res.fraction - 1.0 / 16.0) < 1e-12


def test_plateau_rejects_bad_tolerance(interval16):
    grid, kern = interval16
    with pytest.raises(ValueError, match="relative tolerance"):
        plateau_measure(np.ones(grid.ncells), kern, tau_rel=1.0)


def test_equal_pair_mass_constant(interval16):
    grid, kern = interval16
    res = equal_pair_mass(np.ones(grid.ncells), kern)
    assert res.interior_fraction == 1.0
    assert res.exterior_fraction == 0.0


def test_equal_pair_mass_strictly_increasing(interval16):
    grid, kern = interval16
    u = np.arange(1.0, grid.ncells + 1.0)
    res = equal_pair_mass(u, kern)
    assert res.interior_fraction == 0.0
    assert res.exterior_fraction == 0.0
    assert res.fraction == 0.0


def test_equal_pair_mass_zero_field(interval16):
    grid, kern = interval16
    res = equal_pair_mass(np.zeros(grid.ncells), kern)
    assert res.fraction == 1.0


def test_equal_pair_mass_two_plateaus():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 2.0), 0.5))
    kern = build_kernel(grid, 1.5)
    res = equal_pair_mass(np.array([1.0, 1.0, 2.0, 2.0]), kern)
    # 4 of the 12 ordered interior pairs are ties
    assert abs(res.interior_fraction - 1.0 / 3.0) < 1e-12
    assert res.exterior_fraction == 0.0
