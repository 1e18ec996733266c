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
values keep the gradient pinned at the rounding floor. The loop snaps only
after a step that did not lower the energy, the sign that float noise
between near-equal values blocks descent; the final polish snaps once
more.

When rounding noise still dominates before the gradient tolerance is met,
the solve returns with status "floored" instead of pretending convergence;
the reported gradient norm is the honest one. A floored solve stops after
_STAGNANT_LIMIT stagnant steps or at its first exact fixed point: an
iteration that leaves the iterate, bit for bit, and the start of the next
line search as they were. The next iteration is a function of those two
alone, so every later one would repeat it.
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
    _mirrored_pairs,
    gradient,
    seminorm_power,
    total_energy,
)

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
_STAGNANT_LIMIT = 25
_SNAP_LADDER = (1e-12, 1e-9)
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
        if not self.p > 1.0:  # NaN fails too
            raise ValueError("need p > 1")
        if not (0.0 < self.s < 1.0):
            raise ValueError("s must lie in (0, 1)")
        if self.maxit < 1:
            raise ValueError("maxit must be positive")
        eps_g = self.eps_g
        if eps_g is not None and not (eps_g > 0 and math.isfinite(eps_g)):
            raise ValueError("eps_g must be positive and finite")

    def validate_for(self, n: int) -> None:
        """Reject (n, s, p) exactly when build_kernel rejects its exponent.

        s_p * p = alpha - n with alpha the kernel exponent. alpha - n is
        exact in float64 for alpha <= 2n, and larger alpha fails both
        checks, so this is build_kernel's alpha < n + 1. The window
        s < s_p < 1 follows from it for p > 1.
        """
        sp_p = kernel_exponent(n, self.s, self.p) - n
        if not sp_p < 1.0:
            raise ValueError("s_p * p = %g must stay below 1" % sp_p)


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
    (u, f_cur): the guard behind every optional move of the solve. f_cur
    is u's energy, so a candidate with u's bits costs no evaluation."""
    if np.array_equal(cand.view(np.int64), u.view(np.int64)):
        return u, f_cur
    f_cand = total_energy(cand, f, kernel, p).total
    if f_cand <= f_cur:
        return cand, f_cand
    return u, f_cur


def _at_fixed_point(u_top, halvings_top, u, halvings):
    """True when an iteration that started at (u_top, halvings_top) ended
    at (u, halvings) with the same bits. Everything else an iteration
    reads is a function of these two (the energy is total_energy(u); g, d,
    the steepest fallback and the metric floor are functions of u), or
    only decides when the loop ends (stagnant, rel_dec, prev_gn)."""
    return halvings == halvings_top and np.array_equal(
        u.view(np.int64), u_top.view(np.int64)
    )


def _snap_pass(u, f_cur, f, kernel, p):
    """Try tie-snapping at the _SNAP_LADDER tolerances, finest first; keep
    whatever does not raise the energy. Plateau formation is genuine
    structure of the p -> 1 limit, and the energy guard makes coarse
    attempts safe. The ladder stops at 1e-9: after tied steps, the guard
    rejected every field a 1e-6 rung produced."""
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
    tiny curvature floor inside the metric only.

    The factorization and the solve skip scipy's finite scans, two O(N^2)
    passes over their inputs. The scan of the scaled metric can never
    fire: once dvec passes its check the diagonal is finite, and each
    diagonal entry is a float row sum of the nonnegative om terms, which
    bounds each of them, so |hess_ij| <= min(hess_ii, hess_jj), every
    product hess_ij * scale_j is at most dvec_j and |hs_ij| <= 1. The scan
    of g * scale fires only where that product overflows: scale is at most
    1 / sqrt(5e-324) and solve_p has checked that g is finite, but a
    |g_i| above about 1.8e308 * dvec_i still overflows. There the solve
    returns a d that is not finite, and solve_p's gd check takes the
    steepest step where the scan raised ValueError.
    """
    delta = 1e-10 * max(float(np.max(np.abs(u))), 1e-300)

    def entry(blk):
        blk *= blk
        blk += delta * delta
        blk **= (p - 2.0) / 2.0

    # one N x N buffer becomes the pair weights, then the metric, in place;
    # 0.0 - om (not -om) keeps the bits of diag(diag) - om off the diagonal
    om = _mirrored_pairs(u, kernel.w, entry)
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
    # hess is bitwise symmetric, so the transpose of
    # (hess * scale[None, :]) * scale[:, None] holds the bits of
    # (hess * scale[:, None]) * scale[None, :] in Fortran order: the
    # factorization overwrites it without a copy, and neither product
    # writes memory with a stride
    hs = np.multiply(hess, scale[None, :])
    hs *= scale[:, None]
    hs = hs.T
    try:
        factor = cho_factor(hs, overwrite_a=True, check_finite=False)
    except LinAlgError:
        return None, hess
    d = -scale * cho_solve(factor, g * scale, check_finite=False)
    return d, hess


def _armijo_search(u, d, step, gd, f_cur, k, f, kernel, p):
    """Armijo step step * 0.5**j along d with the fewest halvings j below
    _MAX_HALVINGS, as (candidate, its energy, j), or None if there is none.

    The search starts at j = k, halves further while the test fails and
    doubles back while it passes; a scan that halved stops at its first
    pass, since one halving fewer has already failed. F is convex along d,
    so the passing steps form an interval [0, sigma*] and every start k
    returns the j of a scan from j = 0; starting at the last accepted j
    saves the 8-12 failing trials that the overshooting Newton step of a
    p-homogeneous energy costs a full scan.
    """
    found = None
    j = k
    while 0 <= j < _MAX_HALVINGS:
        t = step * 0.5 ** j
        cand = u + t * d
        f_new = total_energy(cand, f, kernel, p).total
        if f_new <= f_cur + _ARMIJO_C1 * t * gd:
            found = (cand, f_new, j)
            if j > k:
                break
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
    cfg.maxit counts iterations that can still change the state: the loop
    ends at the first iteration that leaves u and the next search's start
    unchanged, and raises SolverError only when each of maxit iterations
    changed one of them without meeting a stopping test.
    """
    cfg.validate_for(kernel.n)
    want = kernel_exponent(kernel.n, cfg.s, cfg.p)
    if abs(kernel.exponent - want) > 1e-12 * want:
        raise ValueError(
            "kernel exponent %g does not match (n+s)p = %g" % (kernel.exponent, want)
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
        u_top, halvings_top = u, halvings
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
        # the metric is dead past here; holding it would keep a second
        # N x N array alive through the line search and the next direction
        del hess

        found = _armijo_search(u, d, step, gd, f_cur, halvings, f, kernel, p)
        if found is None:
            break
        cand, f_new, halvings = found
        rel_dec = (f_cur - f_new) / max(abs(f_cur), 1e-300)
        # a tie at the rounding floor is where float energies stop being
        # convex along d: the next search scans from the full step again,
        # and the step's near-equal values are snapped into plateaus
        if f_new >= f_cur:
            halvings = 0
            u, f_cur = _snap_pass(cand, f_new, f, kernel, p)
        else:
            u, f_cur = cand, f_new
        history.append(f_cur)
        if _at_fixed_point(u_top, halvings_top, u, halvings):
            break
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
