"""Solver checks: admissibility, closed-form oracles, invariants, honesty."""

import numpy as np
import pytest

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
    with pytest.raises(ValueError, match="configuration error"):
        SolveConfig(p=1.0, s=0.5)
    with pytest.raises(ValueError, match="configuration error"):
        SolveConfig(p=0.9, s=0.5)


def test_config_rejects_inadmissible_window():
    cfg = SolveConfig(p=4.0 / 3.0, s=0.5)  # s_p * p = 1 exactly
    with pytest.raises(ValueError, match="configuration error"):
        cfg.validate_for(1)
    SolveConfig(p=1.3, s=0.5).validate_for(1)  # inside the window


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
