"""Minimization of the p > 1 functional over fields vanishing outside the
domain.

The functional is strictly convex and differentiable, but its curvature
degenerates as p drops toward 1: plain first-order steps stall orders of
magnitude above tight gradient tolerances. The loop below therefore takes
variable-metric steps (an SPD approximation of the Hessian regularized only
inside the metric, never in the objective), falls back to steepest descent
when the factorization is unusable, and enforces monotone energy through
Armijo backtracking. Two further ingredients matter near p = 1: iterates are
rescaled along their own ray (which makes the weak-solution identity exact
and the energy nonpositive), and groups of nearly equal entries are snapped
to their common mean when that does not raise the energy, since plateau
formation is exactly what the p -> 1 limit demands and separated float
values keep the gradient pinned at the rounding floor.

When rounding noise still dominates before the gradient tolerance is met,
the solve returns with status "floored" instead of pretending convergence;
the reported gradient norm is the honest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from fraclap.domain_grid import KernelSet, kernel_exponent
from fraclap.energy import (
    EnergyBreakdown,
    LoadField,
    gradient,
    seminorm_power,
    total_energy,
)

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
_STAGNANT_LIMIT = 25
_SNAP_LADDER = (1e-12, 1e-9, 1e-6)
_EPS_E = 1e-12  # relative energy decrement below which a step may be stagnant
_PAIRWISE_BLOCK = 8  # numpy sums at least this many entries pairwise


@dataclass(frozen=True)
class SolveConfig:
    """Solver parameters; p and s must satisfy the admissibility window."""

    p: float
    s: float
    eps_g: Optional[float] = None  # default 1e-8 * max |f_i m_i|
    maxit: int = 50000

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("configuration error: need p > 1")
        if not (0.0 < self.s < 1.0):
            raise ValueError("configuration error: s must lie in (0, 1)")
        if self.maxit < 1:
            raise ValueError("configuration error: maxit must be positive")

    def validate_for(self, n: int) -> None:
        s_p = n + self.s - n / self.p
        if not (self.s < s_p < 1.0):
            raise ValueError(
                "configuration error: differentiability order s_p=%g "
                "outside (s, 1)" % s_p
            )
        if s_p * self.p >= 1.0:
            raise ValueError(
                "configuration error: s_p * p = %g must stay below 1"
                % (s_p * self.p)
            )


@dataclass(frozen=True)
class Solution:
    """Minimizer with diagnostics.

    status is "converged" when the gradient sup-norm met the tolerance and
    "floored" when float64 rounding noise blocked further descent first; in
    both cases the energy history is monotone and grad_norm is as reported.
    """

    u: np.ndarray
    breakdown: EnergyBreakdown
    iterations: int
    grad_norm: float
    seminorm: float
    semi_power_pm1: float  # [u]^(p-1), the blow-up/vanishing discriminant
    l1: float
    status: str
    energy_history: List[float] = field(repr=False, default_factory=list)


class SolverError(RuntimeError):
    """Non-convergence; carries the last iterate and its diagnostics."""

    def __init__(self, message, u=None, grad_norm=None, iterations=None):
        super().__init__(message)
        self.u = u
        self.grad_norm = grad_norm
        self.iterations = iterations


def kkt_residual(u, f: LoadField, kernel: KernelSet, p: float) -> float:
    """Gradient sup-norm at u (the reported stationarity measure)."""
    return float(np.max(np.abs(gradient(u, f, kernel, p))))


def snap_ties(u: np.ndarray, tau: float) -> np.ndarray:
    """Collapse chains of entries with consecutive sorted gaps <= tau to
    their group mean. Stable sort keeps the result deterministic."""
    if u.size == 0 or tau <= 0:
        return u.copy()
    order = np.argsort(u, kind="stable")
    su = u[order]
    first = np.concatenate(([True], np.diff(su) > tau))
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, su.size))
    group = np.cumsum(first) - 1
    means = np.empty(starts.size)
    # np.mean adds fewer than _PAIRWISE_BLOCK entries left to right from
    # 0.0, then divides by the count; doing that column by column over all
    # such groups at once gives the same bits
    short = (sizes > 1) & (sizes < _PAIRWISE_BLOCK)
    s0, n0 = starts[short], sizes[short]
    acc = np.zeros(s0.size)
    for j in range(int(n0.max(initial=0))):
        has = n0 > j
        acc[has] += su[s0[has] + j]
    means[short] = acc / n0
    # longer groups are rare; numpy's pairwise order applies to them
    for g in np.flatnonzero(sizes >= _PAIRWISE_BLOCK):
        means[g] = np.mean(su[starts[g]:starts[g] + sizes[g]])
    tied = sizes[group] > 1
    out = u.copy()
    out[order[tied]] = means[group[tied]]
    return out


def _ray_rescale(u, f, kernel, p):
    """Scale u along its ray so the weak identity sum(f u m) = [u]^p / 2
    holds exactly; leaves u unchanged when the scaling is undefined."""
    a = seminorm_power(u, kernel, p)
    b = float(np.sum(f.values * u * kernel.m))
    if a <= 0.0 or b <= 0.0:
        return u
    beta = (2.0 * b / a) ** (1.0 / (p - 1.0))
    return beta * u


def _keep_lower(u, f_cur, cand, f, kernel, p):
    """(cand, its energy) if that energy does not exceed f_cur, else
    (u, f_cur): the guard behind every optional move of the solve."""
    f_cand = total_energy(cand, f, kernel, p).total
    if f_cand <= f_cur:
        return cand, f_cand
    return u, f_cur


def _snap_pass(u, f_cur, f, kernel, p):
    """Try tie-snapping at increasingly coarse tolerances; keep whatever
    does not raise the energy. Plateau formation is genuine structure of
    the p -> 1 limit, and the energy guard makes coarse attempts safe."""
    umax = float(np.max(np.abs(u)))
    if umax == 0.0:
        return u, f_cur
    for tau_rel in _SNAP_LADDER:
        u, f_cur = _keep_lower(
            u, f_cur, snap_ties(u, tau_rel * umax), f, kernel, p
        )
    return u, f_cur


def _metric_init(f, kernel):
    """Stationary field of the p = 2 surrogate with identical weights."""
    big = np.diag(kernel.w.sum(axis=1) + kernel.t) - kernel.w
    rhs = f.values * kernel.m
    try:
        return cho_solve(cho_factor(big), rhs)
    except LinAlgError:
        return rhs.copy()


def _newton_direction(u, g, kernel, p):
    """SPD variable-metric direction: weights of the second variation with a
    tiny curvature floor inside the metric only."""
    delta = 1e-10 * max(float(np.max(np.abs(u))), 1e-300)
    # one N x N buffer becomes the pair weights, then the metric, in place;
    # 0.0 - om (not -om) keeps the bits of diag(diag) - om off the diagonal
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
    # Fortran order lets the factorization overwrite hs instead of copying
    hs = np.multiply(hess, scale[:, None], order="F")
    hs *= scale[None, :]
    try:
        factor = cho_factor(hs, overwrite_a=True)
    except LinAlgError:
        return None, hess
    d = -scale * cho_solve(factor, g * scale)
    return d, hess


def _armijo_search(u, d, step, gd, f_cur, k, f, kernel, p):
    """Armijo step step * 0.5**j along d with the fewest halvings j below
    _MAX_HALVINGS, as (candidate, its energy, j), or None if there is none.

    The search starts at j = k, halves further while the test fails and
    doubles back while it passes. F is convex along d, so the passing steps
    form an interval [0, sigma*] and every start k returns the j of a scan
    from j = 0; starting at the last accepted j saves the 8-12 failing
    trials that the overshooting Newton step of a p-homogeneous energy
    costs a full scan.
    """
    found = None
    j = k
    while 0 <= j < _MAX_HALVINGS:
        t = step * 0.5 ** j
        cand = u + t * d
        f_new = total_energy(cand, f, kernel, p).total
        if f_new <= f_cur + _ARMIJO_C1 * t * gd:
            found = (cand, f_new, j)
            j -= 1
        elif found is not None:
            break
        else:
            j += 1
    return found


def solve_p(
    grid,
    kernel: KernelSet,
    f: LoadField,
    cfg: SolveConfig,
    u0: Optional[np.ndarray] = None,
) -> Solution:
    """Minimize the order-(s_p, p) functional; unique minimizer for p > 1.

    u0, when given, warm-starts the iteration (used along p-sweeps).
    """
    cfg.validate_for(kernel.n)
    want = kernel_exponent(kernel.n, cfg.s, cfg.p)
    if abs(kernel.exponent - want) > 1e-12 * want:
        raise ValueError(
            "configuration error: kernel exponent %g does not match "
            "(n+s)p = %g" % (kernel.exponent, want)
        )
    p = cfg.p
    fm = f.values * kernel.m
    scale_f = float(np.max(np.abs(fm)))
    if scale_f == 0.0:
        u = np.zeros(kernel.m.size)
        eb = total_energy(u, f, kernel, p)
        return Solution(
            u=u, breakdown=eb, iterations=0, grad_norm=0.0,
            seminorm=0.0, semi_power_pm1=0.0, l1=0.0,
            status="converged", energy_history=[0.0],
        )
    eps_g = cfg.eps_g if cfg.eps_g is not None else 1e-8 * scale_f

    if u0 is not None:
        u = np.asarray(u0, dtype=float).copy()
    else:
        u = _metric_init(f, kernel)
    u = _ray_rescale(u, f, kernel, p)

    f_cur = total_energy(u, f, kernel, p).total
    history = [f_cur]
    stagnant = 0
    iters = 0
    prev_gn = math.inf
    rel_dec = math.inf
    halvings = 0  # the last accepted step's, where the next search starts

    for iters in range(1, cfg.maxit + 1):
        g = gradient(u, f, kernel, p)
        gn = float(np.max(np.abs(g)))
        if not math.isfinite(gn):
            raise SolverError(
                "gradient overflow during iteration", u=u,
                grad_norm=gn, iterations=iters,
            )
        if gn <= eps_g:
            break
        # a step is stagnant only when both the energy decrement vanished
        # and the gradient stopped improving; the Newton tail keeps halving
        # the gradient long after energy decrements fall under _EPS_E
        if rel_dec <= _EPS_E and gn > 0.5 * prev_gn:
            stagnant += 1
        else:
            stagnant = 0
        prev_gn = gn
        if stagnant >= _STAGNANT_LIMIT:
            break

        d, hess = _newton_direction(u, g, kernel, p)
        gd = float(g @ d) if d is not None else 0.0
        step = 1.0
        if d is None or not math.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = -float(g @ g)
            if hess is not None:
                curv = float(g @ (hess @ g))
                if curv > 0:
                    step = -gd / curv
            halvings = 0

        found = _armijo_search(u, d, step, gd, f_cur, halvings, f, kernel, p)
        if found is None:
            break
        cand, f_new, halvings = found
        # a tie at the rounding floor is where float energies stop being
        # convex along d: the next search scans from the full step again
        if f_new >= f_cur:
            halvings = 0

        rel_dec = (f_cur - f_new) / max(abs(f_cur), 1e-300)
        u, f_cur = _snap_pass(cand, f_new, f, kernel, p)
        history.append(f_cur)
    else:
        gn = kkt_residual(u, f, kernel, p)
        raise SolverError(
            "did not converge within %d iterations (gradient norm %.3e)"
            % (cfg.maxit, gn),
            u=u,
            grad_norm=gn,
            iterations=cfg.maxit,
        )

    # final polish: clamp (energy truncation keeps this a descent step for
    # f >= 0), snap residual float scatter, rescale onto the weak-identity
    # ray; each sub-step is kept only if it does not raise the energy
    if f.nonnegative:
        u, f_cur = _keep_lower(u, f_cur, np.maximum(u, 0.0), f, kernel, p)
    u, f_cur = _snap_pass(u, f_cur, f, kernel, p)
    u, f_cur = _keep_lower(u, f_cur, _ray_rescale(u, f, kernel, p), f, kernel, p)
    history.append(f_cur)
    eb = total_energy(u, f, kernel, p)
    gn = kkt_residual(u, f, kernel, p)
    status = "converged" if gn <= eps_g else "floored"

    semi = eb.seminorm
    return Solution(
        u=u,
        breakdown=eb,
        iterations=iters,
        grad_norm=gn,
        seminorm=semi,
        semi_power_pm1=semi ** (p - 1.0),
        l1=float(np.sum(np.abs(u) * kernel.m)),
        status=status,
        energy_history=history,
    )
