"""Solver checks: admissibility, closed-form oracles, invariants, honesty."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from fraclap.domain_grid import DomainSpec, build_grid, build_kernel, kernel_exponent
from fraclap import solver
from fraclap.energy import LoadField, gradient, load_from_array, total_energy
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
    d, _ = solver._newton_direction(u, g, kern, p)
    gd = float(g @ d)
    args = (u, d, 1.0, gd, f_cur)
    cand, f_new, k = solver._armijo_search(*args, 0, f, kern, p)
    assert k >= 1 and f_new < f_cur
    for start in (k, k + 3):
        c2, f2, k2 = solver._armijo_search(*args, start, f, kern, p)
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
    d, _ = solver._newton_direction(u, g, kern, p)
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
    seen = _count_energy(monkeypatch)
    cand, f_new, k = solver._armijo_search(*args, 0, f, kern, p)
    assert k >= 1
    # j = 0, ..., k once each: the scan stops at its first pass
    assert len({c.tobytes() for c in seen}) == len(seen) == k + 1
    c2, f2, k2 = solver._armijo_search(*args, k, f, kern, p)
    assert (c2.tobytes(), f2, k2) == (cand.tobytes(), f_new, k)


def _keep_lower_always(u, f_cur, cand, f, kernel, p):
    """_keep_lower that evaluates every candidate, unchanged ones too."""
    f_cand = solver.total_energy(cand, f, kernel, p).total
    if f_cand <= f_cur:
        return cand, f_cand
    return u, f_cur


def _armijo_search_rescan(u, d, step, gd, f_cur, k, f, kernel, p):
    """_armijo_search that, after halving to a pass, also retries the
    step below it, which is known to fail."""
    found = None
    j = k
    while 0 <= j < solver._MAX_HALVINGS:
        t = step * 0.5 ** j
        cand = u + t * d
        f_new = solver.total_energy(cand, f, kernel, p).total
        if f_new <= f_cur + solver._ARMIJO_C1 * t * gd:
            found = (cand, f_new, j)
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


# ---------------------------------------------------------------------------
# mirrored metric
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


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_newton_direction_keeps_full_fill_bits(mirror_case):
    kern, fields = mirror_case
    f = load_from_array(np.linspace(-1.0, 2.0, kern.m.size))
    for u in fields:
        for p in (1.02, 1.1, 2.0):
            g = gradient(u, f, kern, p)
            # a zero field has no metric: 0.0 ** ((p - 2) / 2) is inf, and
            # inf meets the zero diagonal of w
            with np.errstate(divide="ignore", invalid="ignore"):
                d, hess = solver._newton_direction(u, g, kern, p)
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
                    d, _ = solver._newton_direction(v, g, kern, p)
                assert d is None or np.all(np.isfinite(d)), (e, p)


def test_newton_direction_overflowing_rhs_returns_nonfinite_d(interval16):
    # g * scale overflows for a load of 1e240 on a field near 1e150; the
    # direction comes back not finite instead of raising, and solve_p's
    # gd check turns it into a steepest step
    grid, kern = interval16
    u = np.random.default_rng(0).random(grid.ncells) * 1e150
    f = load_from_array(np.full(grid.ncells, 1e240))
    with np.errstate(all="ignore"):
        g = gradient(u, f, kern, 1.02)
        d, _ = solver._newton_direction(u, g, kern, 1.02)
        assert np.all(np.isfinite(g)) and d is not None
        assert not math.isfinite(float(g @ d))


def _refuse_factor(*args, **kwargs):
    raise solver.LinAlgError("forced")


@pytest.mark.parametrize(
    "attr, patch",
    [
        ("_newton_direction", lambda u, g, kernel, p: (None, None)),
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


@pytest.fixture(scope="module")
def unit32():
    """32 unit cells at s = 1/2 under a constant load of 0.5. A cold solve
    at p = 1.3 snaps back to the bits it started iteration 34 with, and the
    stagnation stop alone would end it at iteration 54."""
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
