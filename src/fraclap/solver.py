"""Minimization of the p > 1 functional over fields vanishing outside the
domain.

The functional is strictly convex and differentiable, but its curvature
degenerates as p drops toward 1: plain first-order steps stall orders of
magnitude above tight gradient tolerances. The loop below therefore takes
variable-metric steps (an SPD approximation of the Hessian regularized only
inside the metric, never in the objective), falls back to steepest descent
when the factorization is unusable, and enforces monotone energy through
Armijo backtracking. The line search brackets the Armijo step from the last
accepted halving count; when it doubles back to a pass, the probe of one
halving fewer is skipped where convexity, with a float error bound, proves
that it fails, and the gradient that proof needed serves the next
iteration. Two further ingredients matter near p = 1: iterates are
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

The loop runs on the orbits of the domain's lattice symmetries. A
reflection of the cell lattice, or in 2-D the swap of its axes, is kept
when it maps the cells onto themselves and leaves the load and w unchanged
bit for bit. For p > 1 the functional is strictly convex, and each kept
map leaves it invariant (t to within rounding), so its unique minimizer is
invariant too and lies among the fields that are constant on each orbit
(Palais, "The principle of symmetric criticality", Comm. Math. Phys. 69,
1979). The functional restricted to those fields is again of the same
form, with one variable per orbit, the pair weights summed over pairs of
orbits and the tails, measures and load sums over each orbit; the loop
minimizes it unchanged and expands the result. That restriction is exact
for any partition, so an asymmetric problem, whose partition is one cell
per orbit, passes its own kernel and load through and keeps every bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

from fraclap.domain_grid import KernelSet, kernel_exponent
from fraclap.energy import (
    EnergyBreakdown,
    LoadField,
    _mirrored_pairs,
    gradient,
    seminorm_power,
    total_energy,
)
from fraclap.quotient import Partition, pairwise_depth

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
_STAGNANT_LIMIT = 25
_SNAP_LADDER = (1e-12, 1e-9)
_EPS_E = 1e-12  # relative energy decrement below which a step may be stagnant
_PAIRWISE_BLOCK = 8  # numpy sums at least this many entries pairwise
_METRIC_BLOCK = 1 << 16  # entries per block of the metric's scaling pass
_ORBIT_ROWS = 128  # cells per row block of the symmetry checks
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))  # float64


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
    orbits: int  # variables of the loop: one per symmetry orbit, 0 if none ran
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


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _keep_lower(u, f_cur, cand, f, kernel, p):
    """(cand, its energy) if that energy does not exceed f_cur, else
    (u, f_cur): the guard behind every optional move of the solve. f_cur
    is u's energy, so a candidate with u's bits costs no evaluation."""
    if _same_bits(cand, u):
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
    return halvings == halvings_top and _same_bits(u, u_top)


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


def cho_factor(a, overwrite_a=False, check_finite=True):
    """scipy.linalg.cho_factor of a float64 matrix, upper factor: LAPACK
    potrf with the arguments scipy passes it (lower=False, clean=False),
    so the factor has its bits, without scipy's per-call dispatch. Raises
    LinAlgError where a is not positive definite, as scipy does."""
    if check_finite:
        a = np.asarray_chkfinite(a)
    c, info = _POTRF(a, lower=False, overwrite_a=overwrite_a, clean=False)
    if info > 0:
        raise LinAlgError(
            "%d-th leading minor of the array is not positive definite" % info
        )
    if info < 0:
        raise ValueError(
            "LAPACK reported an illegal value in %d-th argument of potrf" % -info
        )
    return c, False


def cho_solve(c_and_lower, b, overwrite_b=False, check_finite=True):
    """scipy.linalg.cho_solve of a float64 vector from a cho_factor
    factor: LAPACK potrs with scipy's arguments, so x has its bits."""
    c, lower = c_and_lower
    if check_finite:
        b = np.asarray_chkfinite(b)
        c = np.asarray_chkfinite(c)
    x, info = _POTRS(c, b, lower=lower, overwrite_b=overwrite_b)
    if info != 0:
        raise ValueError("illegal value in %d-th argument of potrs" % -info)
    return x


def _metric_init(f, kernel):
    """Stationary field of the p = 2 surrogate with identical weights."""
    big = np.diag(kernel.w.sum(axis=1) + kernel.t) - kernel.w
    rhs = f.values * kernel.m
    try:
        return cho_solve(cho_factor(big), rhs)
    except LinAlgError:
        return rhs.copy()


def _metric_weights(u, kernel, p):
    """(om, hd) for the variable metric at u, or None when the metric has
    no finite positive diagonal.

    om is the N x N array of the second variation's pair weights, with a
    tiny curvature floor inside the metric only, and hd is the metric's
    diagonal. The metric itself is (p - 1) * (0.0 - om) off the diagonal
    and hd on it; 0.0 - om (not -om) keeps the bits of
    diag(diag) - om. hd is finite and positive exactly when its square
    root is.
    """
    delta = 1e-10 * max(float(np.abs(u).max()), 1e-300)

    def entry(blk):
        blk *= blk
        blk += delta * delta
        blk **= (p - 2.0) / 2.0

    om = _mirrored_pairs(u, kernel.w, entry)
    omb = kernel.t * (u * u + delta * delta) ** ((p - 2.0) / 2.0)
    hd = om.sum(axis=1) + omb
    hd -= om.reshape(-1)[:: hd.size + 1]
    hd *= p - 1.0
    if not (np.isfinite(hd).all() and (hd > 0).all()):
        return None
    return om, hd


def _full_metric(u, kernel, p):
    """The whole N x N variable metric at u, or None when it has no finite
    positive diagonal; only the steepest fallback's curvature needs it."""
    pairs = _metric_weights(u, kernel, p)
    if pairs is None:
        return None
    om, hd = pairs
    hess = np.subtract(0.0, om, out=om)
    hess *= p - 1.0
    hess.reshape(-1)[:: hd.size + 1] = hd
    return hess


def _steepest_step(u, g, gd, kernel, p):
    """Initial step along -g, with gd = -g @ g: the curvature step
    -gd / (g @ hess @ g) when the metric exists and is positive along g,
    else the unit step. The metric dies on return."""
    hess = _full_metric(u, kernel, p)
    if hess is not None:
        curv = float(g @ (hess @ g))
        if curv > 0:
            return -gd / curv
    return 1.0


def _newton_direction(u, g, kernel, p):
    """SPD variable-metric direction d, or None when the metric or its
    factorization is unusable.

    The scaled metric hs = D^-1/2 hess D^-1/2, D = diag(hess), is built
    in the pair fill's own buffer by one row-blocked pass over the lower
    triangle: negate, times (p - 1), times the column scales, then the
    row scales, the order of _full_metric followed by the column and row
    products, so every entry keeps those bits. The diagonal comes from hd.
    In C order that lower triangle is the upper triangle of the Fortran
    view om.T, the only one cho_factor reads (hess is bitwise symmetric),
    so the factorization overwrites it without a copy. A block spans
    _METRIC_BLOCK entries at most, so its four products stay in cache; a
    matrix of at most that size is one block.

    The factorization and the solve (LAPACK potrf and potrs, through
    this module's cho_factor and cho_solve) skip the finite scans, two
    O(N^2) passes over their inputs, and the solve overwrites its own
    g * scale. The scan of the scaled metric can never fire: hd is
    finite, and each diagonal entry is a float row sum of the nonnegative
    om terms, which bounds each of them, so |hess_ij| <= min(hess_ii,
    hess_jj), every product hess_ij * scale_j is at most sqrt(hd_j) and
    |hs_ij| <= 1. The scan of g * scale would fire only where that
    product overflows: scale is at most 1 / sqrt(5e-324) and solve_p has
    checked that g is finite, but a |g_i| above about 1.8e308 * sqrt(hd_i)
    still overflows. There the solve returns a d that is not finite, and
    solve_p's gd check takes the steepest step where the scan would raise
    ValueError.
    """
    pairs = _metric_weights(u, kernel, p)
    if pairs is None:
        return None
    om, hd = pairs
    scale = 1.0 / np.sqrt(hd)
    n = hd.size
    rows = max(1, _METRIC_BLOCK // n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        blk = om[r0:r1, :r1]
        np.subtract(0.0, blk, out=blk)
        blk *= p - 1.0
        blk *= scale[:r1]
        blk *= scale[r0:r1, None]
    om.reshape(-1)[:: n + 1] = hd * scale * scale
    try:
        factor = cho_factor(om.T, overwrite_a=True, check_finite=False)
    except LinAlgError:
        return None
    x = cho_solve(factor, g * scale, overwrite_b=True, check_finite=False)
    return -scale * x


class _BackoffBound:
    """A lower bound on the float energy of the line search's back-off
    probe, which settles that the probe fails its Armijo test without
    evaluating it. Built once per solve.

    For p > 1, F is convex, so F(b) >= F(a) + grad F(a) . (b - a) for the
    accepted candidate a and the probe b (Rockafellar, Convex Analysis,
    Sec. 24). The float test at b fails when fl F(b) > rhs, so the probe
    is certified to fail when

        fl F(a) + fl(g . (b - a)) - margin > rhs,  g = gradient(a),

    and margin bounds |fl F(a) - F(a)| + |fl F(b) - F(b)|, the error of g
    weighted by |b - a|, and the rounding of the dot product and of the
    left side. With u = eps / 2 the unit roundoff, and pow budgeted at
    4 ulp (8u; numpy's SIMD kernel measured under 0.7 ulp against
    120-bit references):

    - fl F(x). A pair entry w |x_i - x_j|^p meets one rounding in the
      difference (relative p * u after the power, p < 2), pow (8u) and
      the product by w; numpy's pairwise sum of the N^2 entries adds
      D = pairwise_depth(N^2) roundings, and pair + 2 tail, the division
      by 2p and kinetic - load add one each. The tail (N entries, 9u
      each) and the load (2u each) meet fewer, as pairwise_depth(N) <= D.
      So |fl F(x) - F(x)| <= (D + 14) u S(x), S(x) = pair/(2p) + tail/p
      + sum |f x m| = kinetic + sum |f x m|, to first order.
    - S(b) from S(a). The seminorm is a norm, so [b] <= [a] + [b - a],
      and with delta = max |b - a|, [b - a]^p <= delta^p (2^p sum w +
      2 sum t); also sum |f x m| <= max |x| * sum |f m|.
    - g. Row i of the pair term sums N terms w_ij |a_i - a_j|^(p-1), each
      within 10u and at most w_ij (2 max |a|)^(p-1), in
      pairwise_depth(N) roundings; the tail term (9u), the product f m
      and two joining roundings follow. So |g_i - grad_i F(a)| <=
      (pairwise_depth(N) + 12) u ((2 max |a|)^(p-1) (sum_j w_ij + t_i)
      + |f_i m_i|), using |a_i| <= 2 max |a|.
    - g . (b - a). The subtraction and the product round once each, and
      BLAS may sum in any order: at most (N + 1) u sum |g_i| |b_i - a_i|.
      Adding it to fl F(a) and subtracting the margin round once more,
      within u (S(a) + sum |g_i| |b_i - a_i|) plus u times the margin.

    Each coefficient below is twice the first-order one (eps for u),
    which covers second-order terms, the float evaluation of the bound
    itself and of S(a) from a's breakdown, and the last two roundings.
    Underflow breaks relative bounds; every rounding below the normal
    range errs by at most 2^-1075 in absolute value, and `tiny` times
    (1 + delta) exceeds the sum of those over all the operations above.
    A bound that is not finite is -inf and settles nothing.
    """

    def __init__(self, f, kernel, p):
        n = kernel.m.size
        fm = np.abs(f.values * kernel.m)
        w_rows = kernel.w.sum(axis=1)
        w_sum, t_sum = float(np.sum(w_rows)), float(np.sum(kernel.t))
        self.p = p
        self.rows = np.stack((w_rows + kernel.t, fm))
        self.fm_sum = float(np.sum(fm))
        self.semi_of_delta = (2.0 ** p * w_sum + 2.0 * t_sum) ** (1.0 / p)
        eps = np.finfo(float).eps
        self.f_coef = (pairwise_depth(n * n) + 14) * eps
        self.g_coef = (pairwise_depth(n) + 12) * eps
        self.dot_coef = (n + 3) * eps
        self.tiny = math.ldexp(
            w_sum + t_sum + float(np.sum(kernel.m)) + n * n + 4.0 * n + 8.0, -1072
        )

    def floor(self, b, a, eb_a, g):
        """A float at or below fl total_energy(b), or -inf where the bound
        is not finite; eb_a is a's breakdown and g = gradient(a)."""
        p = self.p
        diff = b - a
        adiff = np.abs(diff)
        delta = float(np.max(adiff))
        a_max = float(np.max(np.abs(a)))
        slope = float(g @ diff)
        g_part = float(np.abs(g) @ adiff)
        w_part, f_part = self.rows @ adiff
        s_a = eb_a.kinetic + a_max * self.fm_sum
        s_b = (eb_a.seminorm + delta * self.semi_of_delta) ** p / (2.0 * p) + (
            a_max + delta
        ) * self.fm_sum
        margin = (
            self.f_coef * (s_a + s_b)
            + self.g_coef * ((2.0 * a_max) ** (p - 1.0) * w_part + f_part)
            + self.dot_coef * g_part
            + self.tiny * (1.0 + delta)
        )
        low = eb_a.total + slope - margin
        return low if math.isfinite(low) else -math.inf


def _armijo_search(u, d, step, gd, f_cur, k, f, kernel, p, bound):
    """Armijo step step * 0.5**j along d with the fewest halvings j below
    _MAX_HALVINGS, as (candidate, its energy, j, g), or None if there is
    none; g is gradient(candidate) when the search computed it, and None
    otherwise, always after a tie (energy >= f_cur).

    The search starts at j = k, halves further while the test fails and
    doubles back while it passes; a scan that halved stops at its first
    pass, since one halving fewer has already failed. F is convex along d,
    so the passing steps form an interval [0, sigma*] and every start k
    returns the j of a scan from j = 0; starting at the last accepted j
    saves the 8-12 failing trials that the overshooting Newton step of a
    p-homogeneous energy costs a full scan.

    A scan that doubles back ends at the probe of j - 1 that fails. That
    probe is skipped when bound (a _BackoffBound) certifies its failure
    from the gradient g at the passing candidate a; solve_p reuses that g
    as the next iteration's gradient, so a skipped probe costs no pair
    pass. g is computed only when the step lowered the energy (a tie is
    snapped, and its gradient would go unused) and when the quadratic
    through f_cur, gd and F(a) predicts that the probe fails, i.e.
    F(a) - f_cur > (1 + _ARMIJO_C1) / 2 * t * gd, so a probe that passes
    seldom wastes a gradient. Every probe the bound leaves open is
    evaluated as before, so the result never changes.
    """
    found = None
    j = k
    while 0 <= j < _MAX_HALVINGS:
        t = step * 0.5 ** j
        cand = u + t * d
        eb = total_energy(cand, f, kernel, p)
        f_new = eb.total
        if f_new <= f_cur + _ARMIJO_C1 * t * gd:
            found = (cand, f_new, j, None)
            if j > k:
                break
            j -= 1
            if (
                j >= 0
                and f_new < f_cur
                and f_new - f_cur > 0.5 * (1.0 + _ARMIJO_C1) * t * gd
            ):
                g = gradient(cand, f, kernel, p)
                found = (cand, f_new, j + 1, g)
                t_b = step * 0.5 ** j
                if bound.floor(u + t_b * d, cand, eb, g) > (
                    f_cur + _ARMIJO_C1 * t_b * gd
                ):
                    break
        elif found is not None:
            break
        else:
            j += 1
    return found


def _lattice_images(lat):
    """The cell lattice mapped by each candidate isometry of its bounding
    box [0, hi]: the reflection x_k -> hi_k - x_k of each axis and, in
    2-D with a square box, the swap of the two axes."""
    hi = lat.max(axis=0)
    images = []
    for k in range(lat.shape[1]):
        img = lat.copy()
        img[:, k] = hi[k] - lat[:, k]
        images.append(img)
    if lat.shape[1] == 2 and hi[0] == hi[1]:
        images.append(lat[:, ::-1])
    return images


def _fixes_weights(w, perm):
    """True when w_{perm i, perm j} has the bits of w_ij for every pair,
    compared one block of _ORBIT_ROWS rows at a time."""
    n = perm.size
    for r0 in range(0, n, _ORBIT_ROWS):
        r1 = min(r0 + _ORBIT_ROWS, n)
        if not _same_bits(w[np.ix_(perm[r0:r1], perm)], w[r0:r1]):
            return False
    return True


def _symmetry_maps(grid, kernel, f):
    """The candidates of _lattice_images that fix the problem, each as the
    cell permutation it induces: a map is kept when it sends the cell set
    onto itself and leaves f.values and w unchanged bit for bit.

    t is not compared: its row sums round differently in mirrored cells,
    so it is invariant only to within that rounding, and the quotient sums
    it over each orbit.
    """
    lat = grid.lattice
    ncells = kernel.m.size
    if lat.shape[0] != ncells:
        raise ValueError(
            "grid has %d cells, kernel %d" % (lat.shape[0], ncells)
        )
    radix = np.cumprod(np.r_[1, lat.max(axis=0)[:0:-1] + 1])[::-1]
    keys = lat @ radix  # ascending, as the lattice is in lexicographic order
    perms = []
    for img in _lattice_images(lat):
        img_keys = img @ radix
        perm = np.minimum(np.searchsorted(keys, img_keys), ncells - 1)
        if (
            np.array_equal(keys[perm], img_keys)
            and _same_bits(f.values[perm], f.values)
            and _fixes_weights(kernel.w, perm)
        ):
            perms.append(perm)
    return perms


def _symmetry_orbits(grid, kernel, f):
    """Orbit index of each cell under the group the maps of _symmetry_maps
    generate, numbered in the order of each orbit's first cell."""
    perms = _symmetry_maps(grid, kernel, f)
    # each cell takes the least index it reaches through the kept maps
    label = np.arange(kernel.m.size)
    while True:
        low = label
        for perm in perms:
            low = np.minimum(low, low[perm])
        if np.array_equal(low, label):
            return np.unique(label, return_inverse=True)[1]
        label = low


class _Quotient(Partition):
    """The functional on fields that are constant on each orbit of a cell
    partition, as a kernel and a load with one variable per orbit.

    For u_i = v_a on every cell i of orbit a, each sum of the functional
    groups by orbits: the pair sum is sum_ab W_ab |v_a - v_b|^p with
    W_ab = sum_{i in a, j in b} w_ij (pairs inside an orbit add
    |0|^p = 0, so W_aa = 0), the tail sum is sum_a T_a |v_a|^p with
    T_a = sum_{i in a} t_i, and the load is sum_a f_a v_a M_a with
    M_a = sum_{i in a} m_i, f being constant on each orbit. So the
    quotient is exactly F restricted to those fields, for any partition
    on whose parts f is constant, and its gradient is the sum of F's over
    each orbit.

    W is Partition.pair_sums, bitwise symmetric. When every orbit is one
    cell in cell order, kernel and f pass through as they are.
    """

    def __init__(self, orbit, kernel, f):
        super().__init__(orbit)
        # every orbit one cell, orbit a being cell a: all sums are identities
        if np.array_equal(orbit, np.arange(orbit.size)):
            self.kernel, self.f = kernel, f
            return
        self.kernel = KernelSet(
            exponent=kernel.exponent, n=kernel.n, h=kernel.h,
            w=self.pair_sums(kernel.w), t=self.sums(kernel.t),
            m=self.sums(kernel.m),
        )
        self.f = LoadField(
            values=f.values[self.order[self.starts]], nonnegative=f.nonnegative
        )


def solve_p(
    grid,
    kernel: KernelSet,
    f: LoadField,
    cfg: SolveConfig,
    u0: Optional[np.ndarray] = None,
) -> Solution:
    """Minimize the order-(s_p, p) functional; unique minimizer for p > 1.

    The loop runs on one variable per orbit of the lattice symmetries
    that fix grid, w and f (_symmetry_orbits), through _Quotient: u0,
    when given, warm-starts it (used along p-sweeps) at its orbit means,
    and its gradient-norm test divides each orbit's gradient by the
    orbit's size, the gradient of F at any of its cells. The polish runs
    there too, so energy_history is in one arithmetic; breakdown and
    grad_norm are those of the expanded field on the full kernel.
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
            status="converged", orbits=0, energy_history=[0.0],
        )
    eps_g = cfg.eps_g if cfg.eps_g is not None else 1e-8 * scale_f
    if u0 is not None and np.shape(u0) != kernel.m.shape:
        raise ValueError(
            "warm start has shape %s, the grid %d cells"
            % (np.shape(u0), kernel.m.size)
        )

    quo = _Quotient(_symmetry_orbits(grid, kernel, f), kernel, f)
    qk, qf, size = quo.kernel, quo.f, quo.size
    if u0 is not None:
        u = quo.sums(np.asarray(u0, dtype=float)) / size
    else:
        u = _metric_init(qf, qk)
    u = _ray_rescale(u, qf, qk, p)

    f_cur = total_energy(u, qf, qk, p).total
    history = [f_cur]
    stagnant = 0
    iters = 0
    prev_gn = math.inf
    rel_dec = math.inf
    halvings = 0  # the last accepted step's, where the next search starts
    bound = _BackoffBound(qf, qk, p)
    g_next = None  # gradient(u) when the last search computed it

    for iters in range(1, cfg.maxit + 1):
        u_top, halvings_top = u, halvings
        g = g_next if g_next is not None else gradient(u, qf, qk, p)
        gn = float(np.max(np.abs(g) / size))
        if not math.isfinite(gn):
            raise SolverError(
                "gradient overflow during iteration", u=quo.expand(u),
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

        d = _newton_direction(u, g, qk, p)
        gd = float(g @ d) if d is not None else 0.0
        step = 1.0
        if d is None or not math.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = -float(g @ g)
            step = _steepest_step(u, g, gd, qk, p)
            halvings = 0

        found = _armijo_search(u, d, step, gd, f_cur, halvings, qf, qk, p, bound)
        if found is None:
            break
        cand, f_new, halvings, g_next = found
        rel_dec = (f_cur - f_new) / max(abs(f_cur), 1e-300)
        # a tie at the rounding floor is where float energies stop being
        # convex along d: the next search scans from the full step again,
        # and the step's near-equal values are snapped into plateaus
        if f_new >= f_cur:
            halvings = 0
            u, f_cur = _snap_pass(cand, f_new, qf, qk, p)
        else:
            u, f_cur = cand, f_new
        history.append(f_cur)
        if _at_fixed_point(u_top, halvings_top, u, halvings):
            break
    else:
        u = quo.expand(u)
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
        u, f_cur = _keep_lower(u, f_cur, np.maximum(u, 0.0), qf, qk, p)
    u, f_cur = _snap_pass(u, f_cur, qf, qk, p)
    u, f_cur = _keep_lower(u, f_cur, _ray_rescale(u, qf, qk, p), qf, qk, p)
    history.append(f_cur)
    u = quo.expand(u)
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
        orbits=size.size,
        energy_history=history,
    )
