"""Solver checks: admissibility, closed-form oracles, invariants, honesty."""

import contextlib
import ctypes
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import get_lapack_funcs

from fraclap.domain_grid import (
    DomainSpec,
    KernelSet,
    build_grid,
    build_kernel,
    kernel_exponent,
)
from fraclap import domain_grid, solver
from fraclap.energy import LoadField, gradient, load_from_array, total_energy
from fraclap.quotient import Partition, _symmetry_maps, orbits, pairwise_depth
from fraclap.solver import (
    SolveConfig,
    SolverError,
    kkt_residual,
    snap_ties,
    solve_p,
)


@pytest.fixture(scope="module")
def cell1():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    kern = build_kernel(grid, kernel_exponent(1, 0.5, 1.2))
    return grid, kern


@pytest.fixture(scope="module")
def interval16():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    kern = build_kernel(grid, kernel_exponent(1, 0.5, 1.2))
    return grid, kern


# ---------------------------------------------------------------------------
# configuration and admissibility
# ---------------------------------------------------------------------------


def test_config_rejects_bad_p():
    with pytest.raises(ValueError, match="need p > 1"):
        SolveConfig(p=1.0, s=0.5)
    with pytest.raises(ValueError, match="need p > 1"):
        SolveConfig(p=0.9, s=0.5)


@pytest.mark.parametrize("eps_g", [0.0, -1e-9, float("nan"), float("inf")])
def test_config_rejects_bad_eps_g(eps_g):
    with pytest.raises(ValueError, match="eps_g must be positive and finite"):
        SolveConfig(p=1.3, s=0.5, eps_g=eps_g)


def test_config_rejects_inadmissible_window():
    cfg = SolveConfig(p=4.0 / 3.0, s=0.5)  # s_p * p = 1 exactly
    with pytest.raises(ValueError, match=r"s_p \* p = 1 must stay below 1"):
        cfg.validate_for(1)
    SolveConfig(p=1.3, s=0.5).validate_for(1)  # inside the window


@pytest.mark.parametrize("s", [k / 20 for k in range(1, 20)])
@pytest.mark.parametrize("n", [1, 2])
def test_window_matches_build_kernel_at_boundary(n, s):
    # p around the edge (n + 1) / (n + s), where s_p * p meets 1
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + (1.0,) * n, 1.0))
    for delta in (0.0, 1e-16, -1e-16, 2.2e-16, -2.2e-16):
        p = (n + 1) / (n + s) * (1.0 + delta)
        try:
            SolveConfig(p=p, s=s).validate_for(n)
            config_ok = True
        except ValueError:
            config_ok = False
        try:
            build_kernel(grid, kernel_exponent(n, s, p))
            kernel_ok = True
        except ValueError:
            kernel_ok = False
        assert config_ok == kernel_ok, (n, s, p)


def test_solve_rejects_kernel_mismatch(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    with pytest.raises(ValueError, match="kernel exponent"):
        solve_p(grid, kern, f, SolveConfig(p=1.25, s=0.5))


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def test_zero_load_short_circuit(interval16):
    grid, kern = interval16
    f = LoadField(values=np.zeros(grid.ncells), nonnegative=False)
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert sol.iterations == 0
    assert sol.status == "converged"
    assert np.all(sol.u == 0.0)


def test_one_cell_closed_form(cell1):
    grid, kern = cell1
    f = load_from_array(np.ones(1))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    ustar = (1.0 / 12.5) ** 5  # (f m / t)^(1/(p-1)) with exact t
    assert sol.status == "converged"
    assert abs(sol.u[0] - ustar) / ustar <= 0.01
    assert sol.breakdown.total <= 0.0


def test_kkt_residual_values(cell1):
    grid, kern = cell1
    f = load_from_array(np.ones(1))
    # at zero the gradient is -f m
    assert kkt_residual(np.zeros(1), f, kern, 1.2) == pytest.approx(
        float(np.max(np.abs(f.values * kern.m))), rel=1e-14
    )
    ustar = (f.values[0] * kern.m[0] / kern.t[0]) ** 5.0
    assert kkt_residual(np.array([ustar]), f, kern, 1.2) <= 1e-10 * abs(
        f.values[0] * kern.m[0]
    )


def test_solution_meets_gradient_tolerance(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert sol.status == "converged"
    eps_g = 1e-8 * float(np.max(np.abs(f.values * kern.m)))
    assert sol.grad_norm <= eps_g
    assert kkt_residual(sol.u, f, kern, 1.2) <= eps_g


def test_loop_snaps_only_after_a_tied_step(interval16, monkeypatch):
    # every accepted step is logged as (energy before, energy after) and
    # every snap pass as the energy it starts from; the last snap pass is
    # the final polish, and the ones before it must each follow a step
    # whose energy did not fall, as must every such step be followed by one
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    events = []
    search, snap = solver._armijo_search, solver._snap_pass

    def logged_search(u, d, step, gd, f_cur, *rest):
        found = search(u, d, step, gd, f_cur, *rest)
        if found is not None:
            events.append(("step", f_cur, found[1]))
        return found

    def logged_snap(u, f_cur, *rest):
        events.append(("snap", f_cur))
        return snap(u, f_cur, *rest)

    monkeypatch.setattr(solver, "_armijo_search", logged_search)
    monkeypatch.setattr(solver, "_snap_pass", logged_snap)
    solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert events[-1][0] == "snap"
    loop = events[:-1]
    in_loop = 0
    for i, event in enumerate(loop):
        if event[0] == "snap":
            in_loop += 1
            kind, before, after = loop[i - 1]
            assert i > 0 and kind == "step"
            assert after >= before and event[1] == after
        elif event[2] >= event[1]:
            assert loop[i + 1][0] == "snap"
    assert in_loop >= 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_weak_solution_identity(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    b = sol.breakdown
    power = b.pair + 2.0 * b.tail
    assert b.load == pytest.approx(0.5 * power, rel=1e-6)


def test_energy_nonpositive_and_monotone(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert sol.breakdown.total <= 0.0
    hist = sol.energy_history
    assert all(b <= a + 1e-14 * (abs(a) + 1.0) for a, b in zip(hist, hist[1:]))


def test_symmetry_of_solution(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert np.max(np.abs(sol.u - sol.u[::-1])) <= 1e-8 * np.max(np.abs(sol.u))


def test_nonnegativity_with_nonnegative_load(interval16):
    grid, kern = interval16
    rng = np.random.default_rng(41)
    for _ in range(5):
        f = load_from_array(rng.uniform(0.1, 2.0, size=grid.ncells))
        sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
        assert np.all(sol.u >= 0.0)


def test_mixed_sign_load(interval16):
    grid, kern = interval16
    vals = np.ones(grid.ncells)
    vals[: grid.ncells // 2] = -1.0
    f = LoadField(values=vals, nonnegative=False)
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert sol.breakdown.total <= 0.0
    assert np.any(sol.u < 0) and np.any(sol.u > 0)


def test_diagnostics_consistency(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert sol.semi_power_pm1 == pytest.approx(sol.seminorm ** 0.2, rel=1e-12)
    assert sol.l1 == pytest.approx(
        float(np.sum(np.abs(sol.u) * kern.m)), rel=1e-14
    )
    assert sol.seminorm == pytest.approx(sol.breakdown.seminorm, rel=1e-14)


def test_determinism(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    a = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    b = solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert np.array_equal(a.u, b.u)
    assert a.grad_norm == b.grad_norm


# ---------------------------------------------------------------------------
# warm starts, floors, failure modes
# ---------------------------------------------------------------------------


def test_warm_start_agrees_with_cold(interval16):
    grid, _ = interval16
    f = load_from_array(np.ones(grid.ncells))
    k12 = build_kernel(grid, kernel_exponent(1, 0.5, 1.2))
    sol12 = solve_p(grid, k12, f, SolveConfig(p=1.2, s=0.5))
    k125 = build_kernel(grid, kernel_exponent(1, 0.5, 1.25))
    cold = solve_p(grid, k125, f, SolveConfig(p=1.25, s=0.5))
    warm = solve_p(grid, k125, f, SolveConfig(p=1.25, s=0.5), u0=sol12.u)
    assert warm.status == cold.status
    scale = np.max(np.abs(cold.u))
    assert np.max(np.abs(warm.u - cold.u)) <= 1e-6 * scale


def test_floored_state_is_honest(interval16):
    grid, _ = interval16
    kern = build_kernel(grid, kernel_exponent(1, 0.5, 1.02))
    f = load_from_array(np.ones(grid.ncells))
    sol = solve_p(grid, kern, f, SolveConfig(p=1.02, s=0.5))
    if sol.status == "floored":
        eps_g = 1e-8 * float(np.max(np.abs(f.values * kern.m)))
        assert sol.grad_norm > eps_g
        assert sol.grad_norm == pytest.approx(
            kkt_residual(sol.u, f, kern, 1.02), rel=1e-12
        )
    assert sol.breakdown.total <= 0.0
    hist = sol.energy_history
    assert all(b <= a + 1e-14 * (abs(a) + 1.0) for a, b in zip(hist, hist[1:]))


def test_maxit_error_carries_iterate(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    with pytest.raises(SolverError) as exc:
        solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5, maxit=2))
    assert exc.value.u is not None
    assert exc.value.grad_norm is not None
    assert exc.value.iterations == 2


def test_armijo_search_start_does_not_change_the_step(interval16):
    # F is convex along d, so searches started below, at and above the
    # accepted halving count all return the full scan's step
    grid, kern = interval16
    p = 1.2
    f = load_from_array(np.ones(grid.ncells))
    u = solver._ray_rescale(solver._metric_init(f, kern), f, kern, p)
    f_cur = total_energy(u, f, kern, p).total
    g = gradient(u, f, kern, p)
    d = solver._newton_direction(u, g, kern, p)
    gd = float(g @ d)
    args = (u, d, 1.0, gd, f_cur)
    bound = solver._BackoffBound(f, kern, p)
    cand, f_new, k, _ = solver._armijo_search(*args, 0, f, kern, p, bound)
    assert k >= 1 and f_new < f_cur
    for start in (k, k + 3):
        c2, f2, k2, _ = solver._armijo_search(*args, start, f, kern, p, bound)
        assert k2 == k
        assert f2 == f_new
        assert c2.tobytes() == cand.tobytes()


def test_warm_search_matches_full_scan(interval16, monkeypatch):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    cfg = SolveConfig(p=1.2, s=0.5)
    starts = []
    search = solver._armijo_search

    def record(u, d, step, gd, f_cur, k, *rest):
        starts.append(k)
        return search(u, d, step, gd, f_cur, k, *rest)

    monkeypatch.setattr(solver, "_armijo_search", record)
    warm = solve_p(grid, kern, f, cfg)
    assert any(starts)

    def cold(u, d, step, gd, f_cur, k, *rest):
        return search(u, d, step, gd, f_cur, 0, *rest)

    monkeypatch.setattr(solver, "_armijo_search", cold)
    full = solve_p(grid, kern, f, cfg)
    assert warm.u.tobytes() == full.u.tobytes()
    assert warm.energy_history == full.energy_history
    assert warm.iterations == full.iterations


def _count_energy(monkeypatch):
    """Record a copy of every field solver.total_energy evaluates."""
    seen = []
    energy_of = solver.total_energy

    def counted(u, *rest):
        seen.append(np.array(u, dtype=float))
        return energy_of(u, *rest)

    monkeypatch.setattr(solver, "total_energy", counted)
    return seen


def _first_newton_step(grid, kern, p):
    f = load_from_array(np.ones(grid.ncells))
    u = solver._ray_rescale(solver._metric_init(f, kern), f, kern, p)
    f_cur = total_energy(u, f, kern, p).total
    g = gradient(u, f, kern, p)
    d = solver._newton_direction(u, g, kern, p)
    return f, (u, d, 1.0, float(g @ d), f_cur)


def test_keep_lower_skips_unchanged_candidate(interval16, monkeypatch):
    grid, kern = interval16
    p = 1.2
    f, (u, _, _, _, f_cur) = _first_newton_step(grid, kern, p)
    seen = _count_energy(monkeypatch)
    kept, f_kept = solver._keep_lower(u, f_cur, u.copy(), f, kern, p)
    assert seen == []
    assert f_kept == f_cur and kept.tobytes() == u.tobytes()
    # one changed bit is a different field, and is evaluated
    cand = u.copy()
    cand[3] = np.nextafter(cand[3], np.inf)
    solver._keep_lower(u, f_cur, cand, f, kern, p)
    assert len(seen) == 1


def test_upward_armijo_scan_evaluates_no_step_twice(interval16, monkeypatch):
    grid, kern = interval16
    p = 1.2
    f, args = _first_newton_step(grid, kern, p)
    bound = solver._BackoffBound(f, kern, p)
    seen = _count_energy(monkeypatch)
    cand, f_new, k, _ = solver._armijo_search(*args, 0, f, kern, p, bound)
    assert k >= 1
    # j = 0, ..., k once each: the scan stops at its first pass
    assert len({c.tobytes() for c in seen}) == len(seen) == k + 1
    c2, f2, k2, _ = solver._armijo_search(*args, k, f, kern, p, bound)
    assert (c2.tobytes(), f2, k2) == (cand.tobytes(), f_new, k)


def _keep_lower_always(u, f_cur, cand, f, kernel, p):
    """_keep_lower that evaluates every candidate, unchanged ones too."""
    f_cand = solver.total_energy(cand, f, kernel, p).total
    if f_cand <= f_cur:
        return cand, f_cand
    return u, f_cur


def _armijo_search_rescan(u, d, step, gd, f_cur, k, f, kernel, p, bound):
    """_armijo_search that, after halving to a pass, also retries the
    step below it, which is known to fail, and evaluates every back-off
    probe."""
    found = None
    j = k
    while 0 <= j < solver._MAX_HALVINGS:
        t = step * 0.5 ** j
        cand = u + t * d
        f_new = solver.total_energy(cand, f, kernel, p).total
        if f_new <= f_cur + solver._ARMIJO_C1 * t * gd:
            found = (cand, f_new, j, None)
            j -= 1
        elif found is not None:
            break
        else:
            j += 1
    return found


def test_skipped_evaluations_keep_the_solve(interval16, monkeypatch):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    cfg = SolveConfig(p=1.2, s=0.5)
    seen = _count_energy(monkeypatch)
    lean = solve_p(grid, kern, f, cfg)
    lean_calls = len(seen)
    monkeypatch.setattr(solver, "_keep_lower", _keep_lower_always)
    monkeypatch.setattr(solver, "_armijo_search", _armijo_search_rescan)
    del seen[:]
    full = solve_p(grid, kern, f, cfg)
    assert lean_calls < len(seen)
    assert lean.u.tobytes() == full.u.tobytes()
    assert lean.energy_history == full.energy_history
    assert lean.iterations == full.iterations


def _armijo_search_probing(u, d, step, gd, f_cur, k, f, kernel, p, bound):
    """_armijo_search without the certified back-off: every probe of one
    halving fewer is evaluated. The byte reference of _armijo_search."""
    found = None
    j = k
    while 0 <= j < solver._MAX_HALVINGS:
        t = step * 0.5 ** j
        cand = u + t * d
        f_new = solver.total_energy(cand, f, kernel, p).total
        if f_new <= f_cur + solver._ARMIJO_C1 * t * gd:
            found = (cand, f_new, j, None)
            if j > k:
                break
            j -= 1
        elif found is not None:
            break
        else:
            j += 1
    return found


@pytest.mark.parametrize(
    "n, p",
    [(1, 1.3), (1, 1.2), (1, 1.1), (1, 1.02), (2, 1.1)],
    ids=["interval16-1.3", "interval16-1.2", "interval16-1.1", "interval16-1.02", "box8-1.1"],
)
def test_certified_backoff_keeps_the_solve(monkeypatch, n, p):
    # skipping the probes the convexity bound settles, and reusing the
    # gradient it computed, changes no iterate: every byte of the solution
    # matches the search that evaluates each probe
    if n == 1:
        spec = DomainSpec(1, "interval", (-1.0, 1.0), 0.125)
    else:
        spec = DomainSpec(2, "box", (0.0, 0.0, 1.0, 1.0), 0.125)
    grid = build_grid(spec)
    kern = build_kernel(grid, kernel_exponent(n, 0.5, p))
    f = load_from_array(np.ones(grid.ncells))
    cfg = SolveConfig(p=p, s=0.5)
    seen = _count_energy(monkeypatch)
    lean = solve_p(grid, kern, f, cfg)
    lean_calls = len(seen)
    monkeypatch.setattr(solver, "_armijo_search", _armijo_search_probing)
    del seen[:]
    full = solve_p(grid, kern, f, cfg)
    assert lean_calls < len(seen)
    assert lean.u.tobytes() == full.u.tobytes()
    assert lean.energy_history == full.energy_history
    assert lean.grad_norm == full.grad_norm
    assert lean.iterations == full.iterations


def test_backoff_gradient_is_not_recomputed(interval16, monkeypatch):
    # the gradient a search computed at its accepted step serves the next
    # iteration, so the loop computes no field's gradient twice
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    fields, returned = [], []
    grad_of, search = solver.gradient, solver._armijo_search

    def counted(u, *rest):
        fields.append(np.array(u, dtype=float).tobytes())
        return grad_of(u, *rest)

    def logged(*args):
        found = search(*args)
        returned.append(found is not None and found[3] is not None)
        return found

    monkeypatch.setattr(solver, "gradient", counted)
    monkeypatch.setattr(solver, "_armijo_search", logged)
    solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert any(returned)
    loop = fields[:-1]  # the last is the final residual's
    assert len(set(loop)) == len(loop)


# ---------------------------------------------------------------------------
# variable metric
# ---------------------------------------------------------------------------


def _newton_direction_full(u, g, kernel, p):
    """The metric filled over the whole N x N square and scaled into a
    Fortran-ordered copy: the byte reference of _newton_direction."""
    delta = 1e-10 * max(float(np.max(np.abs(u))), 1e-300)
    om = u[:, None] - u[None, :]
    om *= om
    om += delta * delta
    om **= (p - 2.0) / 2.0
    om *= kernel.w
    omb = kernel.t * (u * u + delta * delta) ** ((p - 2.0) / 2.0)
    diag = om.sum(axis=1) + omb
    on_diag = np.diag_indices_from(om)
    diag -= om[on_diag]
    hess = np.subtract(0.0, om, out=om)
    hess[on_diag] = diag
    hess *= p - 1.0
    dvec = np.sqrt(np.diag(hess))
    if not np.all(np.isfinite(dvec)) or np.any(dvec <= 0):
        return None, None
    scale = 1.0 / dvec
    hs = np.multiply(hess, scale[:, None], order="F")
    hs *= scale[None, :]
    try:
        factor = cho_factor(hs, overwrite_a=True)
    except LinAlgError:
        return None, hess
    d = -scale * cho_solve(factor, g * scale)
    return d, hess


# the scipy-bits checks run subject and reference alike unpinned and under
# the one-thread pin that solve_p runs them in, so they stay strict at any
# BLAS thread count
_BLAS_PINS = (contextlib.nullcontext(), solver._one_blas_thread)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_newton_direction_keeps_full_fill_bits(mirror_case):
    kern, fields = mirror_case
    f = load_from_array(np.linspace(-1.0, 2.0, kern.m.size))
    for pin in _BLAS_PINS:
        for u in fields:
            for p in (1.02, 1.1, 2.0):
                g = gradient(u, f, kern, p)
                # a zero field has no metric: 0.0 ** ((p - 2) / 2) is inf,
                # and inf meets the zero diagonal of w
                with np.errstate(divide="ignore", invalid="ignore"), pin:
                    d = solver._newton_direction(u, g, kern, p)
                    hess = solver._full_metric(u, kern, p)
                    want_d, want_hess = _newton_direction_full(u, g, kern, p)
                assert _same_bits(hess, want_hess), p
                assert _same_bits(d, want_d), p


def test_newton_direction_is_absent_or_finite_at_any_scale(mirror_case):
    # the factorization and the solve skip scipy's finite scans: on fields
    # scaled from 1e-150 to 1e150, with +-0.0 and ties, a direction is
    # either absent or finite, and nothing raises
    kern, fields = mirror_case
    f = load_from_array(np.linspace(-1.0, 2.0, kern.m.size))
    for u in fields:
        for e in range(-150, 151, 25):
            v = u * 10.0 ** e
            for p in (1.02, 1.1, 2.0):
                with np.errstate(all="ignore"):
                    g = gradient(v, f, kern, p)
                    d = solver._newton_direction(v, g, kern, p)
                assert d is None or np.all(np.isfinite(d)), (e, p)


def test_metric_init_keeps_the_bits_of_the_p2_system(mirror_case):
    # at p = 2 every pair weight is w_ij * x ** 0.0 = w_ij, so the metric is
    # diag(rowsum(w) + t) - w bit for bit at any u, and the cold start
    # solves that system
    kern, fields = mirror_case
    want = np.diag(kern.w.sum(axis=1) + kern.t) - kern.w
    for u in [np.zeros(kern.m.size)] + fields:
        assert _same_bits(solver._full_metric(u, kern, 2.0), want)
    f = load_from_array(np.linspace(-1.0, 2.0, kern.m.size))
    for pin in _BLAS_PINS:
        with pin:
            got = solver._metric_init(f, kern)
            ref = solver.cho_solve(solver.cho_factor(want), f.values * kern.m)
        assert _same_bits(got, ref)


def test_newton_direction_overflowing_rhs_returns_nonfinite_d(interval16):
    # g * scale overflows for a load of 1e240 on a field near 1e150; the
    # direction comes back not finite instead of raising, and solve_p's
    # gd check turns it into a steepest step
    grid, kern = interval16
    u = np.random.default_rng(0).random(grid.ncells) * 1e150
    f = load_from_array(np.full(grid.ncells, 1e240))
    with np.errstate(all="ignore"):
        g = gradient(u, f, kern, 1.02)
        d = solver._newton_direction(u, g, kern, 1.02)
        assert np.all(np.isfinite(g)) and d is not None
        assert not math.isfinite(float(g @ d))


def _random_spd(rng, n, order):
    b = rng.normal(size=(n, n))
    a = b @ b.T + n * np.eye(n)
    a = np.minimum(a, a.T)  # bitwise symmetric
    return np.asarray(a, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
def test_lapack_cholesky_keeps_scipy_bits(order):
    # solver.cho_factor and cho_solve call potrf and potrs with scipy's
    # arguments, so factor and solution keep scipy's bits
    rng = np.random.default_rng(7)
    for n, pin in itertools.product((1, 2, 5, 33, 136), _BLAS_PINS):
        a = _random_spd(rng, n, order)
        b = rng.normal(size=n)
        with pin:
            want_c, want_lower = cho_factor(a)
            c, lower = solver.cho_factor(a)
            want_x = cho_solve((want_c, want_lower), b)
            x = solver.cho_solve((c, lower), b)
            x_over = solver.cho_solve((c, lower), b.copy(), overwrite_b=True)
        assert lower is want_lower is False
        assert _same_bits(c, want_c)
        assert _same_bits(x, want_x) and _same_bits(x_over, want_x)


_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _c_function(routine):
    """The address of the Fortran routine behind an f2py function."""
    capsule = routine._cpointer
    return _CAPSULE_POINTER(capsule, _CAPSULE_NAME(capsule))


def test_lapack_routines_are_scipys():
    # the solver loads _flapack on its own, not through scipy.linalg, and
    # holds the very routines scipy's dispatch picks for float64
    want = get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))
    got = (solver._POTRF, solver._POTRS)
    assert [_c_function(r) for r in got] == [_c_function(r) for r in want]
    assert all(_c_function(r) for r in got)


def test_missing_lapack_extension_raises_import_error():
    where = "scipy %s at %s has no " % (scipy.__version__, scipy.__file__)
    with pytest.raises(ImportError) as err:
        domain_grid._scipy_extension("scipy.linalg._nolapack")
    assert str(err.value).endswith(where + "extension scipy.linalg._nolapack")
    assert "scipy.linalg._nolapack" not in sys.modules


_LOAD_ORDER = """\
import hashlib
import sys
import numpy as np
if sys.argv[1] == "scipy.linalg first":
    import scipy.linalg
    from fraclap import solver
else:
    from fraclap import solver
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
assert sys.modules["scipy.linalg._flapack"] is solver._flapack is scipy.linalg.lapack._flapack
rng = np.random.default_rng(2801)
for n in (16, 136):
    b = rng.normal(size=(n, n))
    a = b @ b.T + n * np.eye(n)
    a = np.minimum(a, a.T)  # bitwise symmetric
    rhs = rng.normal(size=n)
    with solver._one_blas_thread:
        want = scipy.linalg.cho_factor(a)
        got = solver.cho_factor(a)
        want_x = scipy.linalg.cho_solve(want, rhs)
        x = solver.cho_solve(got, rhs)
    assert got[1] is want[1] is False
    assert got[0].tobytes() == want[0].tobytes(), n
    assert x.tobytes() == want_x.tobytes(), n
    print(n, hashlib.sha256(got[0].tobytes() + x.tobytes()).hexdigest())
"""


def test_cholesky_keeps_scipy_bits_in_either_load_order():
    # _flapack initializes once per process, under its full name: the
    # solver and scipy.linalg share one module object either way round,
    # and solver.cho_factor and cho_solve give scipy's bits on seeded SPD
    # matrices
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    outputs = []
    for order in ("scipy.linalg first", "fraclap.solver first"):
        proc = subprocess.run(
            [sys.executable, "-c", _LOAD_ORDER, order],
            env=dict(os.environ, PYTHONPATH=src), check=True,
            capture_output=True, text=True, timeout=120,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 2


def test_newton_direction_keeps_scipy_cholesky_bits(mirror_case, monkeypatch):
    # the direct LAPACK route gives the bits of scipy's cho_factor and
    # cho_solve, called with the same arguments, on every metric
    kern, fields = mirror_case
    f = load_from_array(np.linspace(-1.0, 2.0, kern.m.size))
    rng = np.random.default_rng(11)
    fields = fields[:-1] + [rng.normal(size=kern.m.size) for _ in range(3)]
    solved = 0
    for u, pin in itertools.product(fields, _BLAS_PINS):
        for p in (1.02, 1.1, 2.0):
            g = gradient(u, f, kern, p)
            # a zero field has no metric (see the full-fill test above)
            with np.errstate(divide="ignore", invalid="ignore"), pin:
                d = solver._newton_direction(u, g, kern, p)
                with monkeypatch.context() as m:
                    m.setattr(solver, "cho_factor", cho_factor)
                    m.setattr(solver, "cho_solve", cho_solve)
                    want = solver._newton_direction(u, g, kern, p)
            assert _same_bits(d, want), p
            solved += want is not None
    assert solved >= 18


def test_newton_direction_is_none_where_potrf_fails():
    # two cells with a negative pair weight and a tail that keeps the
    # metric's diagonal positive: at p = 2 the scaled metric is
    # [[1, 2], [2, 1]], and potrf stops at its second pivot
    kern = KernelSet(
        exponent=2.5, n=1, h=1.0,
        w=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        t=np.array([1.5, 1.5]),
        m=np.ones(2),
    )
    u, g = np.array([0.25, 1.0]), np.array([1.0, -1.0])
    hess = solver._full_metric(u, kern, 2.0)
    assert np.all(np.diag(hess) > 0)
    _, info = solver._POTRF(hess.copy(), lower=False, clean=False)
    assert info > 0
    with pytest.raises(LinAlgError):
        cho_factor(hess)
    with pytest.raises(LinAlgError):
        solver.cho_factor(hess)
    assert solver._newton_direction(u, g, kern, 2.0) is None


def test_cholesky_illegal_argument_raises(monkeypatch):
    # potrf's info < 0 (an illegal argument) raises ValueError, as in scipy
    monkeypatch.setattr(solver, "_POTRF", lambda a, **kw: (a, -4))
    with pytest.raises(ValueError, match="illegal value"):
        solver.cho_factor(np.eye(3))
    monkeypatch.setattr(solver, "_POTRS", lambda c, b, **kw: (b, -2))
    with pytest.raises(ValueError, match="illegal value"):
        solver.cho_solve((np.eye(3), False), np.ones(3))


def test_cholesky_checks_finite_unless_told_not_to():
    a = np.eye(3)
    a[2, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.cho_factor(a)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.cho_solve((np.eye(3), False), np.array([1.0, np.inf, 0.0]))
    c, _ = solver.cho_factor(a, check_finite=False)  # potrf reads the upper half
    assert np.isnan(c[2, 0])


def test_metric_calls_go_through_solver_cholesky(interval16, monkeypatch):
    # the factorizations and solves go through the module's cho_factor and
    # cho_solve, the names the benchmark trace wraps: one pair of calls
    # for the start field and one per Newton direction
    grid, kern = interval16
    calls = {"cho_factor": 0, "cho_solve": 0}
    for name in calls:
        orig = getattr(solver, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    f = load_from_array(np.ones(grid.ncells))
    u = np.linspace(0.5, 1.5, grid.ncells)
    g = gradient(u, f, kern, 1.2)
    assert solver._newton_direction(u, g, kern, 1.2) is not None
    assert calls == {"cho_factor": 1, "cho_solve": 1}
    directions = []
    newton = solver._newton_direction

    def recorded(*args):
        d = newton(*args)
        directions.append(d is not None)
        return d

    monkeypatch.setattr(solver, "_newton_direction", recorded)
    solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert calls == {
        "cho_factor": 2 + len(directions),
        "cho_solve": 2 + sum(directions),
    }


# ---------------------------------------------------------------------------
# one BLAS thread per solve
# ---------------------------------------------------------------------------


@pytest.fixture
def blas_threads():
    """(get, set) of scipy's OpenBLAS thread count; the process's count is
    restored after the test."""
    calls = solver._openblas_thread_calls()
    assert calls is not None  # scipy's OpenBLAS exports both
    get, put = calls
    start = get()
    yield get, put
    put(start)


def _record_threads(monkeypatch, get):
    """The thread count each solver.cho_factor call sees, in call order."""
    seen = []
    factor = solver.cho_factor

    def recorded(*args, **kwargs):
        seen.append(get())
        return factor(*args, **kwargs)

    monkeypatch.setattr(solver, "cho_factor", recorded)
    return seen


def test_one_blas_thread_nests_and_restores(blas_threads):
    get, put = blas_threads
    put(2)
    with solver._one_blas_thread:
        assert get() == 1
        with solver._one_blas_thread:
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_one_blas_thread_restores_when_the_last_thread_leaves(blas_threads):
    # two threads overlap inside the pin: the first to leave must not
    # restore the count while the other is still inside
    get, put = blas_threads
    put(2)
    seen = []
    inside, first_left = threading.Event(), threading.Event()

    def second():
        with solver._one_blas_thread:
            inside.set()
            first_left.wait(timeout=60)
            seen.append(get())

    worker = threading.Thread(target=second)
    with solver._one_blas_thread:
        worker.start()
        assert inside.wait(timeout=60)
    first_left.set()
    worker.join(timeout=60)
    assert seen == [1]
    assert get() == 2


def test_one_blas_thread_holds_under_contention(blas_threads):
    # four threads on two cores enter and leave the pin with a short switch
    # interval: a lost update of the depth would let one restore the count
    # while another is inside, or leave the pin set after all have left
    get, put = blas_threads
    put(2)
    counts = []

    def churn():
        for _ in range(10000):
            with solver._one_blas_thread:
                counts.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(counts) == 40000 and set(counts) == {1}
    assert get() == 2


def test_solve_runs_on_one_blas_thread(interval16, blas_threads, monkeypatch):
    # every factorization of a solve, the start field's included, sees one
    # thread, and the count is back after the solve, also after it raises
    get, put = blas_threads
    grid, kern = interval16
    f = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
    put(2)
    seen = _record_threads(monkeypatch, get)
    solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5))
    assert len(seen) > 1 and set(seen) == {1}
    assert get() == 2
    with pytest.raises(SolverError):
        solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5, maxit=1))
    assert get() == 2


def test_solve_runs_unpinned_without_the_thread_calls(interval16, blas_threads,
                                                      monkeypatch):
    # a library without the calls gives no lookup, and the solve then runs
    # unpinned: nothing raises, the count is never touched, and on 16
    # variables (potrf runs one thread below 128 rows) every bit is the
    # pinned solve's
    get, put = blas_threads
    lookup = solver._openblas_thread_calls.__wrapped__

    def no_library(path):
        raise OSError("cannot open " + path)

    with monkeypatch.context() as m:
        m.setattr(solver.ctypes, "CDLL", lambda path: object())
        assert lookup() is None
        m.setattr(solver.ctypes, "CDLL", no_library)
        assert lookup() is None
    grid, kern = interval16
    f = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
    cfg = SolveConfig(p=1.2, s=0.5)
    pinned = solve_p(grid, kern, f, cfg)
    put(2)
    monkeypatch.setattr(solver, "_openblas_thread_calls", lambda: None)
    seen = _record_threads(monkeypatch, get)
    unpinned = solve_p(grid, kern, f, cfg)
    assert len(seen) > 1 and set(seen) == {2}
    assert get() == 2
    assert unpinned.orbits == pinned.orbits == grid.ncells
    assert unpinned.iterations == pinned.iterations
    assert unpinned.u.tobytes() == pinned.u.tobytes()
    assert unpinned.energy_history == pinned.energy_history
    assert unpinned.grad_norm == pinned.grad_norm


def _refuse_factor(*args, **kwargs):
    raise solver.LinAlgError("forced")


@pytest.mark.parametrize(
    "attr, patch",
    [
        ("_newton_direction", lambda u, g, kernel, p: None),
        ("cho_factor", _refuse_factor),
    ],
    ids=["unit-step", "curvature-step"],
)
def test_steepest_fallback_descends(interval16, monkeypatch, attr, patch):
    # without a usable metric every step is a steepest one: the unit step
    # when no Hessian exists, the curvature step when only its factorization
    # fails; either descends but stays far from eps_g within 40 iterations
    grid, kern = interval16
    p = 1.2
    f = load_from_array(np.ones(grid.ncells))
    monkeypatch.setattr(solver, attr, patch)
    start = solver._ray_rescale(solver._metric_init(f, kern), f, kern, p)
    with pytest.raises(SolverError) as exc:
        solve_p(grid, kern, f, SolveConfig(p=p, s=0.5, maxit=40))
    assert exc.value.iterations == 40
    assert np.all(np.isfinite(exc.value.u))
    e_start = total_energy(start, f, kern, p).total
    assert total_energy(exc.value.u, f, kern, p).total < e_start


def test_solve_loop_holds_one_metric():
    # an iteration's N x N metric dies before the line search, so the next
    # gradient and metric never meet it: the solve's own peak stays below
    # three pair arrays (holding the metric reads about 3.2)
    s, p = 0.5, 1.15
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 1.0, 1.0), 1.0 / 16))
    kern = build_kernel(grid, kernel_exponent(2, s, p))
    f = load_from_array(np.ones(grid.ncells))
    tracemalloc.start()
    try:
        solve_p(grid, kern, f, SolveConfig(p=p, s=s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * kern.w.nbytes


def test_no_armijo_step_stops_with_honest_status(interval16, monkeypatch):
    grid, kern = interval16
    p = 1.2
    f = load_from_array(np.ones(grid.ncells))
    monkeypatch.setattr(solver, "_armijo_search", lambda *args: None)
    sol = solve_p(grid, kern, f, SolveConfig(p=p, s=0.5))
    assert sol.iterations == 1
    assert sol.status == "floored"
    assert sol.grad_norm == kkt_residual(sol.u, f, kern, p)
    hist = sol.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


# ---------------------------------------------------------------------------
# exact fixed point of the loop
# ---------------------------------------------------------------------------


def _one_cell_orbits(grid, kernel, f):
    """orbits with no map kept: every cell is its own orbit."""
    return Partition(np.arange(kernel.m.size))


@pytest.fixture
def unit32(monkeypatch):
    """32 unit cells at s = 1/2 under a constant load of 0.5, solved on all
    32 cells (the trivial partition). A cold solve at p = 1.3 snaps back to
    the bits it started iteration 34 with, and the stagnation stop alone
    would end it at iteration 54. On its 16 reflection orbits the same
    solve converges at iteration 14 and never meets a fixed point."""
    monkeypatch.setattr(solver, "orbits", _one_cell_orbits)
    grid = build_grid(DomainSpec(1, "interval", (0.0, 32.0), 1.0))
    kern = build_kernel(grid, kernel_exponent(1, 0.5, 1.3))
    return grid, kern, load_from_array(np.full(grid.ncells, 0.5))


def _breakdown_bits(eb):
    return np.array(dataclasses.astuple(eb)).tobytes()


def test_fixed_point_stop_keeps_the_bits(unit32, monkeypatch):
    grid, kern, f = unit32
    cfg = SolveConfig(p=1.3, s=0.5)
    stopped = solve_p(grid, kern, f, cfg)
    monkeypatch.setattr(solver, "_at_fixed_point", lambda *args: False)
    full = solve_p(grid, kern, f, cfg)
    assert (stopped.iterations, full.iterations) == (34, 54)
    assert stopped.u.tobytes() == full.u.tobytes()
    assert _breakdown_bits(stopped.breakdown) == _breakdown_bits(full.breakdown)
    assert stopped.grad_norm == full.grad_norm
    assert stopped.status == full.status == "floored"
    # the unstopped loop appends the fixed point's energy once per repeat,
    # then the polish appends the same final energy
    hist = stopped.energy_history
    repeats = full.iterations - stopped.iterations - 1
    assert full.energy_history == hist[:-1] + [hist[-2]] * repeats + hist[-1:]


def test_maxit_counts_iterations_that_change_the_state(unit32):
    # iterations 1-33 each change the iterate or the next search's start;
    # iteration 34 changes neither, so any maxit from 34 on returns
    grid, kern, f = unit32
    sol = solve_p(grid, kern, f, SolveConfig(p=1.3, s=0.5, maxit=40))
    assert (sol.status, sol.iterations) == ("floored", 34)
    assert solve_p(grid, kern, f, SolveConfig(p=1.3, s=0.5, maxit=34)).iterations == 34
    with pytest.raises(SolverError) as exc:
        solve_p(grid, kern, f, SolveConfig(p=1.3, s=0.5, maxit=33))
    assert exc.value.iterations == 33


# ---------------------------------------------------------------------------
# tie snapping
# ---------------------------------------------------------------------------


def test_snap_ties_merges_clusters():
    u = np.array([1.0, 1.0 + 1e-14, 2.0, 2.0 - 1e-14, 5.0])
    out = snap_ties(u, 1e-12)
    assert out[0] == out[1] == pytest.approx(1.0, abs=1e-13)
    assert out[2] == out[3] == pytest.approx(2.0, abs=1e-13)
    assert out[4] == 5.0


def test_snap_ties_keeps_distinct():
    u = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(snap_ties(u, 1e-12), u)


def test_snap_ties_deterministic():
    rng = np.random.default_rng(3)
    u = rng.normal(size=50)
    u[10:20] = u[0] + rng.uniform(-1e-13, 1e-13, size=10)
    a = snap_ties(u, 1e-12)
    b = snap_ties(u.copy(), 1e-12)
    assert np.array_equal(a, b)


def _snap_ties_by_loop(u, tau):
    """The per-element group loop snap_ties replaced: the byte reference."""
    if u.size == 0 or tau <= 0:
        return u.copy()
    order = np.argsort(u, kind="stable")
    su = u[order]
    out = u.copy()
    start = 0
    for k in range(1, su.size + 1):
        if k == su.size or su[k] - su[k - 1] > tau:
            if k - start > 1:
                out[order[start:k]] = np.mean(su[start:k])
            start = k
    return out


def test_snap_ties_matches_elementwise_loop():
    rng = np.random.default_rng(17)
    sizes = set()
    for _ in range(3000):
        n = int(rng.integers(1, 48))
        centres = rng.normal(size=int(rng.integers(1, 8)))
        u = centres[rng.integers(0, centres.size, size=n)]
        u = u + rng.normal(size=n) * 10.0 ** rng.integers(-16, -9)
        u[rng.random(n) < 0.1] = 0.0
        u[rng.random(n) < 0.05] = -0.0
        tau = 10.0 ** float(rng.integers(-14, -7))
        got = snap_ties(u, tau)
        want = _snap_ties_by_loop(u, tau)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
        su = np.sort(u)
        cuts = np.flatnonzero(np.diff(su) > tau) + 1
        sizes.update(np.diff(np.concatenate(([0], cuts, [n]))).tolist())
    assert set(range(2, 8)) <= sizes and max(sizes) >= 8


# ---------------------------------------------------------------------------
# symmetry orbits and the quotient loop
# ---------------------------------------------------------------------------


def _problem(spec, values=None, p=1.1):
    grid = build_grid(spec)
    kern = build_kernel(grid, kernel_exponent(spec.n, 0.5, p))
    if values is None:
        values = np.ones(grid.ncells)
    return grid, kern, load_from_array(values)


def _box(*upper):
    return DomainSpec(len(upper), "box", (0.0,) * len(upper) + upper, 1.0)


def _orbit_sizes(problem):
    return np.bincount(orbits(*problem).label)


def _isometry_images(lat):
    """Every isometry of the lattice's bounding box, applied to lat: the
    identity and reflections, and in 2-D the transposes as well."""
    hi = lat.max(axis=0)
    flips = [lat]
    for k in range(lat.shape[1]):
        flips += [np.where(np.arange(lat.shape[1]) == k, hi - img, img) for img in flips]
    if lat.shape[1] == 2 and hi[0] == hi[1]:
        flips += [img[:, ::-1] for img in flips]
    return flips


def _permutation(lat, img):
    """The cell permutation i -> index of img[i], or None when img is not
    the cell set."""
    index = {tuple(c): i for i, c in enumerate(lat.tolist())}
    perm = [index.get(tuple(c)) for c in img.tolist()]
    return None if None in perm else np.array(perm)


@pytest.mark.parametrize("cells", [16, 17, 64, 65])
def test_interval_orbits_pair_mirrored_cells(cells):
    orbit = orbits(*_problem(_box(float(cells)))).label
    assert orbit.max() + 1 == (cells + 1) // 2
    assert np.array_equal(orbit, orbit[::-1])


def test_box32_has_136_orbits():
    # D4 on 32 x 32 cells: orbits of 8, and of 4 on the two diagonals
    sizes = _orbit_sizes(_problem(_box(32.0, 32.0)))
    assert sizes.size == 136
    assert np.array_equal(np.bincount(sizes), [0, 0, 0, 0, 16, 0, 0, 0, 120])


def test_box4x6_has_six_orbits_of_four():
    # two reflections; the bounding box is not square, so no swap
    assert np.array_equal(_orbit_sizes(_problem(_box(4.0, 6.0))), [4] * 6)


def test_ball_orbits_are_d4_orbits():
    grid, kern, f = _problem(DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.125))
    orbit = orbits(grid, kern, f).label
    perms = [_permutation(grid.lattice, img) for img in _isometry_images(grid.lattice)]
    assert len(perms) == 8 and all(perm is not None for perm in perms)
    for i in range(grid.ncells):
        assert set(np.flatnonzero(orbit == orbit[i])) == {int(perm[i]) for perm in perms}


@pytest.mark.parametrize(
    "spec, sizes",
    [
        # a 4 x 4 box and a 2 x 2 box beside it at mid-height: the
        # reflection across y = 2 survives, the others do not
        (DomainSpec(2, "union", (0, 0, 4, 4, 5, 1, 7, 3), 1.0), [2] * 10),
        # the same boxes, the small one at the bottom: no map survives
        (DomainSpec(2, "union", (0, 0, 4, 4, 5, 0, 7, 2), 1.0), [1] * 20),
        # two intervals of different lengths
        (DomainSpec(1, "union", (0, 4, 6, 8), 0.5), [1] * 12),
    ],
    ids=["union-y-mirror", "union-none", "union-1d"],
)
def test_union_keeps_only_its_symmetries(spec, sizes):
    assert np.array_equal(_orbit_sizes(_problem(spec)), sizes)


@pytest.mark.parametrize(
    "lo, hi, sizes",
    [((1.0, 0.0), (3.0, 8.0), [2] * 32), ((1.0, 0.0), (3.0, 2.0), [1] * 64)],
    ids=["full-height", "corner"],
)
def test_off_centre_indicator_load_keeps_a_subgroup(lo, hi, sizes):
    # an indicator on columns 1-2 of an 8 x 8 box keeps the y-reflection
    # when it spans the full height, and no map in a corner
    grid = build_grid(_box(8.0, 8.0))
    inside = np.all((grid.centers >= lo) & (grid.centers <= hi), axis=1)
    values = np.where(inside, 1.0, 0.0)
    assert np.array_equal(_orbit_sizes(_problem(_box(8.0, 8.0), values)), sizes)


@pytest.mark.parametrize(
    "spec, kept",
    [
        (_box(32.0, 32.0), 3),
        (_box(17.0), 1),
        (DomainSpec(1, "interval", (-16.0, 16.0), 0.125), 1),
        (DomainSpec(1, "interval", (-64.0, 64.0), 0.5), 1),
        (DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.125), 3),
        (_box(4.0, 6.0), 2),
        (DomainSpec(2, "union", (0, 0, 4, 4, 5, 1, 7, 3), 1.0), 1),
    ],
    ids=["box32", "interval17", "van16", "blow64", "ball", "box4x6", "union"],
)
@pytest.mark.parametrize("p", [1.0, 1.1])
def test_kept_maps_fix_w_bits_and_t_to_rounding(spec, kept, p):
    # each kept map is an isometry of the bounding box that maps the cells
    # onto themselves; w keeps every bit under it, and t moves by its row
    # sums' rounding only: at most 16 eps * max t per cell (measured: at
    # most 1.0e-15 * max t, up to 7.3e-13 of the cell's own t)
    grid, kern, f = _problem(spec, p=p)
    perms = _symmetry_maps(grid, kern, f)
    assert len(perms) == kept
    isometries = [_permutation(grid.lattice, img) for img in _isometry_images(grid.lattice)]
    eps = np.finfo(float).eps
    for perm in perms:
        assert any(q is not None and np.array_equal(q, perm) for q in isometries[1:])
        w_mapped = kern.w[np.ix_(perm, perm)]
        assert np.array_equal(w_mapped.view(np.int64), kern.w.view(np.int64))
        assert np.max(np.abs(kern.t[perm] - kern.t)) <= 16 * eps * np.max(kern.t)


@pytest.mark.parametrize("entry", ["w", "t", "m"])
def test_map_that_moves_a_weight_bit_is_dropped(entry):
    # w and m are compared bit for bit, t within its rounding bound: one
    # pair weight or one cell's m one ulp off, or one cell's t moved past
    # the bound, breaks the reflections that move those cells elsewhere,
    # and only those
    grid, kern, f = _problem(_box(5.0, 6.0))
    assert len(_symmetry_maps(grid, kern, f)) == 2
    if entry == "w":
        w = kern.w.copy()
        w[2, 3] = w[3, 2] = np.nextafter(w[2, 3], np.inf)  # cells (0, 2) and (0, 3)
        bumped = dataclasses.replace(kern, w=w)
        fixed_axis = 0  # the y-reflection swaps the two cells; the x-reflection moves them
    else:
        x = getattr(kern, entry).copy()
        if entry == "m":
            x[12] = np.nextafter(x[12], np.inf)  # cell (2, 0)
        else:
            eps = np.finfo(float).eps
            bound = (pairwise_depth(grid.ncells) + 2) * eps * (x + kern.w.sum(axis=1))
            # half the bound is rounding: both maps stay
            inside = x.copy()
            inside[12] += 0.5 * bound[12]
            assert len(_symmetry_maps(grid, dataclasses.replace(kern, t=inside), f)) == 2
            x[12] += 2.0 * bound[12]
        bumped = dataclasses.replace(kern, **{entry: x})
        fixed_axis = 1  # the x-reflection fixes the cell; the y-reflection moves it
    perms = _symmetry_maps(grid, bumped, f)
    assert len(perms) == 1
    assert np.array_equal(grid.lattice[perms[0], fixed_axis], grid.lattice[:, fixed_axis])


@pytest.mark.parametrize("entry", ["t", "m"])
def test_asymmetric_tail_or_measure_is_solved_on_every_cell(interval16, entry, monkeypatch):
    # one end cell's t or m doubled: the reflection no longer fixes the
    # problem, so the loop keeps all 16 cells and converges to the
    # all-cell minimizer (averaged over 8 orbits it ended floored, with
    # |g| = 0.20 for t and 0.0625 for m)
    grid, kern = interval16
    x = getattr(kern, entry).copy()
    x[0] *= 2.0
    kern = dataclasses.replace(kern, **{entry: x})
    f = load_from_array(np.ones(grid.ncells))
    cfg = SolveConfig(p=1.2, s=0.5)
    sol = solve_p(grid, kern, f, cfg)
    assert sol.orbits == 16 and sol.status == "converged"
    monkeypatch.setattr(solver, "orbits", _one_cell_orbits)
    full = solve_p(grid, kern, f, cfg)
    assert full.status == "converged"
    assert sol.breakdown.total == pytest.approx(full.breakdown.total, rel=1e-9)


def test_gradient_test_is_per_cell(interval16):
    # eps_g between the first iterate's per-cell gradient norm and its
    # orbit sums (twice as large over the interval's mirrored pairs) ends
    # the loop at its first iteration
    grid, kern = interval16
    p = 1.2
    f = load_from_array(np.ones(grid.ncells))
    quo = orbits(grid, kern, f)
    qk, qf = quo.restrict(kern, f)
    v = solver._ray_rescale(solver._metric_init(qf, qk), qf, qk, p)
    g_cell = kkt_residual(quo.expand(v), f, kern, p)
    g_orbit = float(np.max(np.abs(gradient(v, qf, qk, p))))
    assert g_orbit > 1.9 * g_cell
    sol = solve_p(grid, kern, f, SolveConfig(p=p, s=0.5, eps_g=1.5 * g_cell))
    assert sol.iterations == 1


def test_quotient_is_the_restricted_functional(interval16):
    # for any partition, the quotient energy and gradient at v are F's at
    # the expanded field and F's gradient summed over each orbit; W is
    # bitwise symmetric with a zero diagonal
    grid, kern = interval16
    rng = np.random.default_rng(5)
    orbit = np.unique(rng.integers(0, 4, 16), return_inverse=True)[1]
    f = load_from_array(rng.uniform(0.5, 1.5, 4)[orbit])
    quo = Partition(orbit)
    qk, qf = quo.restrict(kern, f)
    assert np.array_equal(qk.w, qk.w.T) and np.all(np.diag(qk.w) == 0.0)
    v = rng.normal(size=quo.size.size)
    u = quo.expand(v)
    assert total_energy(v, qf, qk, 1.2).total == pytest.approx(
        total_energy(u, f, kern, 1.2).total, rel=1e-13
    )
    np.testing.assert_allclose(
        gradient(v, qf, qk, 1.2),
        np.bincount(orbit, weights=gradient(u, f, kern, 1.2)),
        rtol=1e-12,
    )


def test_trivial_partition_passes_the_problem_through(interval16):
    grid, kern = interval16
    f = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
    quo = orbits(grid, kern, f)
    assert np.array_equal(quo.label, np.arange(grid.ncells))
    qk, qf = quo.restrict(kern, f)
    assert qk is kern and qf is f
    u = np.random.default_rng(1).normal(size=grid.ncells)
    u[3] = -0.0
    assert quo.expand(u).tobytes() == u.tobytes()
    assert (quo.sums(u) / quo.size).tobytes() == u.tobytes()


def test_permuted_singleton_partition_is_summed(interval16):
    # one cell per part, but part a is not cell a: the quotient is the
    # problem in part order, not the problem passed through
    grid, kern = interval16
    label = np.random.default_rng(4).permutation(grid.ncells)
    f = load_from_array(np.ones(grid.ncells))
    quo = Partition(label)
    qk, qf = quo.restrict(kern, f)
    order = np.argsort(label)
    assert qk is not kern
    assert qk.w.tobytes() == kern.w[np.ix_(order, order)].tobytes()
    assert qk.t.tobytes() == kern.t[order].tobytes()
    assert qk.m.tobytes() == kern.m[order].tobytes()
    u = np.random.default_rng(5).normal(size=grid.ncells)
    assert quo.expand(u)[order].tobytes() == u.tobytes()
    assert total_energy(u, qf, qk, 1.2).total == pytest.approx(
        total_energy(quo.expand(u), f, kern, 1.2).total, rel=1e-13
    )


def _column_first_quotient(orbit, kern):
    """(W, T, M) summed as the solver's quotient first did: per block of
    orbit rows, a gather of w's rows and columns in orbit order, its
    columns summed per orbit, then its rows; the entries above the
    diagonal are kept and mirrored."""
    ncells = orbit.size
    order = np.argsort(orbit, kind="stable")
    starts = np.flatnonzero(np.r_[True, orbit[order][1:] != orbit[order][:-1]])
    nq = starts.size
    ends = np.r_[starts[1:], ncells]
    w = np.empty((nq, nq))
    step = max(1, 128 * nq // ncells)
    for a0 in range(0, nq, step):
        a1 = min(a0 + step, nq)
        cells = order[starts[a0]:ends[a1 - 1]]
        cols = np.add.reduceat(kern.w[np.ix_(cells, order)], starts, axis=1)
        rows = np.add.reduceat(cols, starts[a0:a1] - starts[a0], axis=0)
        upper = np.triu(rows[:, a0:a1], 1)
        w[a0:a1, a0:a1] = upper + upper.T
        w[a0:a1, a1:] = rows[:, a1:]
        w[a1:, a0:a1] = rows[:, a1:].T
    sums = [np.add.reduceat(x[order], starts) for x in (kern.t, kern.m)]
    return [w] + sums


@pytest.mark.parametrize(
    "spec",
    [DomainSpec(1, "interval", (-1.0, 1.0), 0.125), _box(32.0, 32.0)],
    ids=["interval16", "box32"],
)
def test_quotient_keeps_column_first_bits(spec):
    # the symmetry orbits of a 16-cell interval and of the 32 x 32 box
    # (1,024 cells, 136 orbits, several row blocks), and a seeded
    # partition of each: W, T and M keep the bits of the former body
    grid, kern, f = _problem(spec)
    rng = np.random.default_rng(6)
    draws = rng.integers(0, grid.ncells // 3, grid.ncells)
    seeded = np.unique(draws, return_inverse=True)[1]
    for orbit in (orbits(grid, kern, f).label, seeded):
        qk, _ = Partition(orbit).restrict(kern, load_from_array(np.ones(grid.ncells)))
        got = [qk.w, qk.t, qk.m]
        want = _column_first_quotient(orbit, kern)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_orbits_report_the_loop_size(interval16):
    grid, kern = interval16
    ones = load_from_array(np.ones(grid.ncells))
    assert solve_p(grid, kern, ones, SolveConfig(p=1.2, s=0.5)).orbits == 8
    ramp = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
    assert solve_p(grid, kern, ramp, SolveConfig(p=1.2, s=0.5)).orbits == 16
    zero = LoadField(values=np.zeros(grid.ncells), nonnegative=False)
    assert solve_p(grid, kern, zero, SolveConfig(p=1.2, s=0.5)).orbits == 0


def test_warm_start_or_grid_of_another_size_is_rejected(interval16, cell1):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    with pytest.raises(ValueError, match="warm start"):
        solve_p(grid, kern, f, SolveConfig(p=1.2, s=0.5), u0=np.ones(grid.ncells + 1))
    with pytest.raises(ValueError, match="grid has 1 cells, kernel 16"):
        solve_p(cell1[0], kern, f, SolveConfig(p=1.2, s=0.5))
