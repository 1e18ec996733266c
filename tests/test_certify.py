"""Certificate construction and verification for the nonsmooth problem."""

import dataclasses
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy

import fraclap
from certify_reference import linprog_lp, reference_certificate, reference_lp
from fraclap import certify, solver
from fraclap.certify import (
    _LP_BYTES_PER_FREE,
    _TIE_TOL,
    _check_lp_fits,
    _lp_matrix,
    _pair_signs,
    _scale,
    _tie_parts,
    _tied_pairs,
    build_certificate,
    equal_pair_mass,
    plateau_measure,
    verify_certificate,
)
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.energy import LoadField, load_from_array
from fraclap.geometry import brute_force_cheeger, perimeter, weighted_volume
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


@pytest.mark.parametrize(
    "field, entry, at",
    [("zero", "zbar", 2), ("zero", "z", (2, 3)), ("step", "zbar", 2),
     ("step", "zbar", 6), ("step", "z", (2, 3)), ("step", "z", (2, 5))],
    ids=["zero-zbar", "zero-z", "step-free-zbar", "step-fixed-zbar",
         "step-tied-z", "step-fixed-z"],
)
def test_verify_reports_nan_in_the_certificate(field, entry, at):
    # a NaN anywhere in z or zbar, at a free entry or a determined one,
    # makes both the box and the sign violation NaN; Python's max dropped a
    # NaN that was not its first argument and reported 0.0
    grid = build_grid(DomainSpec(1, "interval", (0.0, 8.0), 1.0))
    kern = build_kernel(grid, 1.5)
    u = np.zeros(8) if field == "zero" else np.repeat([0.0, 1.0], 4)
    f = load_from_array(np.full(8, 0.5))
    cert = build_certificate(u, f, kern)
    z, zbar = cert.z.copy(), cert.zbar.copy()
    if entry == "zbar":
        zbar[at] = np.nan
    else:
        z[at] = z[at[::-1]] = np.nan
    rep = verify_certificate(u, dataclasses.replace(cert, z=z, zbar=zbar), f, kern)
    assert not rep.passed
    assert math.isnan(rep.box_violation) and math.isnan(rep.sign_violation)
    clean = verify_certificate(u, cert, f, kern)
    assert clean.box_violation == 0.0 and clean.sign_violation == 0.0


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


def _random_tied_case(n, upper, seed):
    """A rounded random field (ties) with about a fifth of its cells 0,
    and a random load, on a box of the given dimension and upper corner."""
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + upper, 1.0))
    kern = build_kernel(grid, n + 0.5)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.ncells).round(1)  # rounding forces ties
    u[rng.random(grid.ncells) < 0.2] = 0.0
    f = load_from_array(rng.uniform(0.5, 1.5, size=grid.ncells))
    return kern, u, f, rng


def _same_bits(a, b):
    return all(
        np.asarray(getattr(a, k)).tobytes() == np.asarray(getattr(b, k)).tobytes()
        for k in ("z", "zbar", "residual", "max_residual", "scale", "feasible",
                  "iterations")
    )


# 1 cell, 128 and 129 cells (one tile, one tile and one cell), and 400
# cells, whose row passes run in two blocks of unequal height
@pytest.mark.parametrize(
    "n, upper",
    [(1, (200.0,)), (2, (12.0, 11.0)), (1, (1.0,)), (1, (128.0,)), (1, (129.0,)),
     (1, (400.0,))],
    ids=["1d", "2d", "1cell", "128", "129", "400"],
)
def test_verify_work_buffer_keeps_report_bits(n, upper):
    kern, u, f, rng = _random_tied_case(n, upper, 5)
    if u.size == 1:
        u[0] = 0.5
    cert = build_certificate(u, f, kern)
    # the random field leaves every part a single cell: the former LP's bits
    assert _same_bits(cert, reference_certificate(u, f, kern))
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
    if u.size > 1:
        assert np.any(u == 0.0) and np.unique(u).size < u.size
    for sf in (cert, tampered):
        rep = verify_certificate(u, sf, f, kern)
        got = [rep.box_violation, rep.antisymmetry_violation, rep.sign_violation,
               rep.balance_violation, rep.scale]
        want = _verify_fields_reference(u, sf, f, kern)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert min(got[:4]) > 0.0


@pytest.mark.parametrize("n, upper", [(1, (48.0,)), (2, (9.0, 7.0))], ids=["1d", "2d"])
def test_single_cell_parts_keep_the_former_lp_bits(n, upper):
    # random fields of four values: no two tied cells share their balance
    # data, so every part is one cell and the certificate and the LP
    # matrix, whose top block is A, are the former ones bit for bit; most
    # unit loads make HiGHS iterate past its presolve
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + upper, 1.0))
    kern = build_kernel(grid, n + 0.5)
    iterated = 0
    for seed in range(6):
        for load in (1.0, 4.0):
            rng = np.random.default_rng(seed)
            u = rng.integers(0, 4, grid.ncells) * 0.5
            f = load_from_array(load * rng.uniform(0.5, 1.5, size=grid.ncells))
            groups = _check_lp_fits(u)
            pi, pj = _tied_pairs(*groups)
            ci = np.flatnonzero(u == 0.0)
            _, _, base, _, _, _, _, lp_ref = reference_lp(u, f, kern)
            tz = np.where(u == 0.0, kern.t, 0.0)
            tol = _TIE_TOL * _scale(f.values * kern.m, kern)
            part = _tie_parts(groups[0], base, tz, kern.w, pi, pj, tol)
            assert np.array_equal(part, np.arange(u.size))
            lp = _lp_matrix(part, pi, pj, ci, kern)[0]
            assert lp.shape == lp_ref.shape
            for name in ("data", "indices", "indptr"):
                x, y = getattr(lp, name), getattr(lp_ref, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            cert = build_certificate(u, f, kern)
            assert _same_bits(cert, reference_certificate(u, f, kern))
            iterated += cert.iterations > 0
    assert iterated >= 3


def test_zero_field_parts_are_mirror_pairs():
    # the zero field on an interval under a constant load: base is equal
    # and the tails pair up by the mirror, so 16 cells give 8 parts, 28
    # blocks and 8 zero parts, 36 columns where the former LP had 136,
    # and tau's beside them
    grid = build_grid(DomainSpec(1, "interval", (0.0, 16.0), 1.0))
    kern = build_kernel(grid, 1.5)
    u = np.zeros(16)
    f = load_from_array(np.full(16, 0.8))
    groups = _check_lp_fits(u)
    pi, pj = _tied_pairs(*groups)
    base = -f.values * kern.m
    tol = _TIE_TOL * _scale(f.values * kern.m, kern)
    part = _tie_parts(groups[0], base, kern.t, kern.w, pi, pj, tol)
    assert np.array_equal(part, np.minimum(np.arange(16), 15 - np.arange(16)))
    assert _lp_matrix(part, pi, pj, np.arange(16), kern)[0].shape == (32, 37)


def test_tie_parts_need_equal_pair_sums():
    # one level of four cells on a 6-cell interval, in two candidate parts
    # of equal base. Mirror images {0, 5} and {2, 3} see the same pair sums
    # (w depends on the offset only), so they stay parts; {0, 2} and
    # {3, 5} do not (w(3) + w(5) against w(1) + w(3) from 3 and 5), so the
    # level falls back to single cells
    kern = build_kernel(build_grid(DomainSpec(1, "interval", (0.0, 6.0), 1.0)), 1.5)
    u = np.array([1.0, 2.0, 1.0, 1.0, 3.0, 1.0])
    groups = _check_lp_fits(u)
    pi, pj = _tied_pairs(*groups)
    tz = np.zeros(6)
    mirror = np.array([0.5, 0.7, 0.6, 0.6, 0.9, 0.5])
    part = _tie_parts(groups[0], mirror, tz, kern.w, pi, pj, 1e-12)
    assert np.array_equal(part, [0, 1, 2, 2, 3, 0])
    skew = np.array([0.5, 0.7, 0.5, 0.6, 0.9, 0.6])
    part = _tie_parts(groups[0], skew, tz, kern.w, pi, pj, 1e-12)
    assert np.array_equal(part, np.arange(6))
    # a level that is one part needs no pair sums: its ties lift to 0
    part = _tie_parts(groups[0], np.where(u == 1.0, 0.5, u), tz, kern.w, pi, pj, 1e-12)
    assert np.array_equal(part, [0, 1, 0, 0, 2, 0])


@pytest.mark.parametrize("cells", [16, 32, 64, 128])
def test_zero_field_split_at_the_cheeger_constant(cells):
    # on an interval the whole domain is the Cheeger set of the constant
    # load (brute force agrees up to 20 cells); a sign field for u = 0
    # exists exactly up to h, so the reduced LP must split at 0.999 h and
    # 1.001 h, feasible certificates passing the full verification
    grid = build_grid(DomainSpec(1, "interval", (0.0, float(cells)), 1.0))
    kern = build_kernel(grid, 1.5)
    ones = load_from_array(np.ones(cells))
    h = perimeter(np.ones(cells, bool), kern) / weighted_volume(np.ones(cells, bool), ones, kern)
    if cells <= 20:
        assert brute_force_cheeger(grid, ones, kern).h == h
    u = np.zeros(cells)
    for ratio, feasible in ((0.999, True), (1.001, False)):
        f = load_from_array(np.full(cells, ratio * h))
        cert = build_certificate(u, f, kern)
        assert cert.feasible is feasible
        assert verify_certificate(u, cert, f, kern).passed is feasible


def test_lp_guard_counts_the_free_entries(interval16, monkeypatch):
    # equal values in groups of 3, 2 and 4 (the 4 zero cells) beside 7
    # distinct ones: 3 + 1 + 6 tied pairs and 4 zero cells
    grid, kern = interval16
    u = np.array([0.5, 0.5, 0.5, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0]
                 + [1.0 + k for k in range(7)])
    pi, pj = _tied_pairs(*_check_lp_fits(u))
    assert pi.size + np.count_nonzero(u == 0.0) == 14
    assert np.all(pi < pj) and np.all(u[pi] == u[pj])
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
    return np.nonzero(np.triu(_pair_signs(vals, vals) == 0.0, 1))


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
        pi, pj = _tied_pairs(*_check_lp_fits(u))
        want_i, want_j = _scanned_ties(u)
        assert pi.dtype == want_i.dtype and pj.dtype == want_j.dtype
        assert np.array_equal(pi, want_i) and np.array_equal(pj, want_j)


# ---------------------------------------------------------------------------
# the HiGHS call
# ---------------------------------------------------------------------------


def _zero_field_case(cells, ratio):
    """The zero field on (0, cells) under ratio times the interval's
    Cheeger constant, the whole interval's perimeter over its volume."""
    grid = build_grid(DomainSpec(1, "interval", (0.0, float(cells)), 1.0))
    kern = build_kernel(grid, 1.5)
    ones = np.ones(cells, bool)
    h = perimeter(ones, kern) / weighted_volume(ones, load_from_array(np.ones(cells)), kern)
    return np.zeros(cells), load_from_array(np.full(cells, ratio * h)), kern


def _union_case(seed):
    """A random field of -1, 0 and 1 under the signed load sign(u) on a
    union of 12 unit cells among 30."""
    rng = np.random.default_rng(seed)
    cells = np.sort(rng.choice(30, size=12, replace=False))
    boxes = tuple((float(k), float(k + 1)) for k in cells)
    grid = build_grid(DomainSpec(1, "union", boxes, 1.0))
    kern = build_kernel(grid, 1.5)
    u = rng.integers(-1, 2, size=grid.ncells).astype(float)
    return u, load_from_array(np.sign(u)), kern


def _box_case(side, load, solved):
    """The zero field on the side x side box, or the field solve_p finds
    there at p = 1.1, under a constant load."""
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, float(side), float(side)), 1.0))
    kern = build_kernel(grid, 2.5)
    f = load_from_array(np.full(grid.ncells, load))
    u = np.zeros(grid.ncells)
    if solved:
        u = solve_p(grid, build_kernel(grid, 2.75), f, SolveConfig(p=1.1, s=0.5)).u
    return u, f, kern


_LP_CASES = {
    **{"zero%d-%g" % (cells, ratio): (_zero_field_case, cells, ratio)
       for cells in (16, 32, 64) for ratio in (0.8, 0.999, 1.001, 1.1)},
    "union-1": (_union_case, 1),
    "union-2": (_union_case, 2),
    "box32-solved": (_box_case, 32, 1.0, True),
    "box12-zero-1": (_box_case, 12, 1.0, False),
    "box12-zero-3": (_box_case, 12, 3.0, False),
}


@pytest.mark.parametrize("case", sorted(_LP_CASES))
def test_highs_call_keeps_linprogs_bits(case, monkeypatch):
    # build_certificate's one LP, solved by its own HiGHS call and by
    # linprog(method="highs"): the same point, bit for bit, and the same
    # iterations; the certificate linprog's point gives has the same bits,
    # and its residual is the CSR product the lift replaces
    build, *args = _LP_CASES[case]
    u, f, kern = build(*args)
    calls = []
    solve = certify._solve_lp

    def recorded(lp, rhs):
        calls.append((lp, rhs, solve(lp, rhs)))
        return calls[-1][2]

    with monkeypatch.context() as m:
        m.setattr(certify, "_solve_lp", recorded)
        cert = build_certificate(u, f, kern)
    assert len(calls) == 1
    lp, rhs, (x, nit) = calls[0]
    want_x, want_nit = linprog_lp(lp, rhs)
    assert nit == want_nit > 0
    assert x is not None and x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()
    with monkeypatch.context() as m:
        m.setattr(certify, "_solve_lp", linprog_lp)
        assert _same_bits(cert, build_certificate(u, f, kern))
    _, _, base, pi, pj, ci, a, _ = reference_lp(u, f, kern)
    r = base + a @ np.r_[cert.z[pi, pj], cert.zbar[ci]]
    assert r.tobytes() == cert.residual.tobytes()


def test_lp_entries_sum_their_shares_in_triplet_order(monkeypatch):
    # the 12 x 12 zero field's columns hold more than 16 shares, where a
    # sort that is not stable would reorder a position's shares: every
    # entry of A is the left-to-right sum of its shares in triplet order
    # (tied pairs' first cells, their second cells, zero cells), and
    # every entry of -A is its exact negation
    u, f, kern = _box_case(12, 1.0, False)
    calls = []
    lp_matrix = certify._lp_matrix

    def recorded(*args):
        calls.append((args, lp_matrix(*args)))
        return calls[-1][1]

    monkeypatch.setattr(certify, "_lp_matrix", recorded)
    build_certificate(u, f, kern)
    (_, pi, pj, ci, _), (lp, cross, col, sign, zcol) = calls[0]
    sw = sign * kern.w[pi[cross], pj[cross]]
    rows = np.r_[pi[cross], pj[cross], ci].tolist()
    cols = np.r_[col, col, zcol].tolist()
    sums = {}
    for key, share in zip(zip(rows, cols), np.r_[sw, -sw, kern.t[ci]].tolist()):
        sums[key] = sums[key] + share if key in sums else share
    assert np.bincount(cols).max() > 16
    n = u.size
    entries = {}
    for c in range(lp.shape[1] - 1):
        for k in range(lp.indptr[c], lp.indptr[c + 1]):
            entries[int(lp.indices[k]), c] = lp.data[k]
    assert len(entries) == 2 * len(sums)
    keys = sorted(sums)
    want = np.array([sums[key] for key in keys])
    top = np.array([entries[key] for key in keys])
    below = np.array([entries[r + n, c] for r, c in keys])
    assert top.tobytes() == want.tobytes() and below.tobytes() == (-want).tobytes()


def test_highs_reports_no_point_off_an_optimum(monkeypatch):
    # an infeasible model (tau <= -1): no point, as linprog gives none
    lp = certify._CSC(np.array([0, 1, 2], np.int32), np.array([0, 0], np.int32),
                      np.array([0.0, 1.0]), (1, 2))
    x, nit = certify._solve_lp(lp, np.array([-1.0]))
    want_x, want_nit = linprog_lp(lp, np.array([-1.0]))
    assert x is None and want_x is None and nit == want_nit


def test_missing_highs_raises_import_error_naming_scipy(monkeypatch):
    where = "scipy %s at %s has no " % (scipy.__version__, scipy.__file__)
    monkeypatch.setattr(certify, "_HIGHS_CORE", "scipy.optimize._highspy._nohighs")
    with pytest.raises(ImportError) as err:
        solver._scipy_extension(certify._HIGHS_CORE)
    assert str(err.value).endswith(where + "extension scipy.optimize._highspy._nohighs")
    monkeypatch.setitem(sys.modules, certify._HIGHS_CORE, types.ModuleType("stub"))
    with pytest.raises(ImportError) as err:
        certify._highs_core.__wrapped__()
    assert str(err.value).endswith(where + "_Highs in scipy.optimize._highspy._nohighs")


_HIGHS_ORDER = """\
import hashlib, sys, threading
import numpy as np
from fraclap.certify import build_certificate
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.energy import load_from_array

CORE = "scipy.optimize._highspy._core"
grid = build_grid(DomainSpec(1, "interval", (0.0, 16.0), 1.0))
kern = build_kernel(grid, 1.5)
u = np.zeros(16)
loads = [load_from_array(np.full(16, c)) for c in (0.4, 0.5, 0.6, 0.7)]


def digest(cert):
    assert cert.iterations > 0
    return hashlib.sha256(b"".join(np.asarray(getattr(cert, k)).tobytes() for k in (
        "z", "zbar", "residual", "max_residual", "feasible", "iterations"))).hexdigest()


def linprog_runs():
    from scipy.optimize import linprog
    res = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
    assert res.status == 0 and res.fun == 1.0


order = sys.argv[1]
if order == "scipy.optimize first":
    linprog_runs()
    core = sys.modules[CORE]
if order == "threads":
    # more threads than cores, switching often, all starting at once
    start = threading.Barrier(len(loads))
    got = [None] * len(loads)

    def first(k):
        start.wait()
        got[k] = digest(build_certificate(u, loads[k], kern))

    threads = [threading.Thread(target=first, args=(k,)) for k in range(len(loads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
digests = [digest(build_certificate(u, f, kern)) for f in loads]
if order == "threads":
    assert got == digests, (got, digests)
if order == "certificate first":
    assert "scipy.optimize" not in sys.modules and "scipy.linalg" not in sys.modules
    core = sys.modules[CORE]
    linprog_runs()
if order != "threads":
    from scipy.optimize._highspy import _highs_wrapper
    assert _highs_wrapper._h is core is sys.modules[CORE]
    assert [digest(build_certificate(u, f, kern)) for f in loads] == digests
print(*digests)
"""


def test_highs_loads_once_in_any_order():
    # the extension initializes once per process: a certificate before
    # scipy.optimize registers it for scipy's own import, one after reuses
    # scipy's, and four threads' first certificates, started at once,
    # share one load; the bits are the same in all three
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))
    outputs = []
    for order in ("certificate first", "scipy.optimize first", "threads"):
        proc = subprocess.run(
            [sys.executable, "-c", _HIGHS_ORDER, order],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (order, proc.stderr)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2] and len(outputs[0].split()) == 4


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


@pytest.mark.parametrize("measure", [plateau_measure, equal_pair_mass])
def test_flatness_measures_check_the_field(interval16, measure):
    # as every other entry point: a non-finite field or one of the wrong
    # length raises, where an all-NaN field used to give zeros
    grid, kern = interval16
    for bad in (np.full(grid.ncells, np.nan), np.r_[np.inf, np.ones(grid.ncells - 1)]):
        with pytest.raises(ValueError, match="field must be finite"):
            measure(bad, kern)
    with pytest.raises(ValueError, match="does not match grid size"):
        measure(np.ones(grid.ncells + 1), kern)


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
