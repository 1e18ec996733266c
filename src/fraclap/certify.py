"""Sign-field certificates for the nonsmooth p = 1 problem, plus flatness
measures.

A field u is certified as a weak solution when there exist pairwise signs
z_ij in [-1, 1] (antisymmetric, equal to sign(u_i - u_j) wherever that sign
is determined) and per-cell exterior signs zbar_i (equal to sign(u_i) where
u_i != 0) satisfying the per-cell balance

    sum_{j != i} w_ij z_ij + t_i zbar_i = f_i m_i.

The exterior side of the continuum sign field enters the discrete balance
only through its kernel-weighted cell average, so one bounded scalar per
cell loses nothing. Deciding whether such signs exist is a linear
feasibility problem in the free entries (exact ties and zero cells), solved
as one linear program: minimize the largest balance residual over the box.
A zero optimum is a certificate; a positive one is the least residual any
sign field achieves, up to the LP solver's tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from fraclap.domain_grid import KernelSet, _physical_memory
from fraclap.energy import LoadField, _as_field

DEFAULT_EPS_FEAS = 1e-8

#: peak memory of the LP per free entry: build_certificate on the zero field
#: rose 1.35 KB per free entry on the 12 x 12 box and 1.23 KB on the 16 x 16
#: box, in peak RSS over the kernel already built
_LP_BYTES_PER_FREE = 1400


@dataclass(frozen=True)
class SignField:
    """Certificate candidate with its residual diagnostics."""

    z: np.ndarray  # (N, N) antisymmetric pair signs
    zbar: np.ndarray  # (N,) exterior signs
    residual: np.ndarray  # (N,) per-cell balance defect
    max_residual: float
    scale: float  # residual normalization max(max |f m|, max t)
    feasible: bool
    iterations: int  # LP iterations, 0 when no LP ran


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    box_violation: float
    antisymmetry_violation: float
    sign_violation: float
    balance_violation: float  # max residual relative to scale
    scale: float


def _pair_signs(vals, out=None):
    """sign(u_i - u_j) as an (N, N) array, in out or one new allocation."""
    z = np.subtract.outer(vals, vals, out=out)
    return np.sign(z, out=z)


def _scale(fm, kernel):
    """Residual normalization max(max |f m|, max t), or 1 when both vanish."""
    scale = max(float(np.max(np.abs(fm))), float(np.max(kernel.t)))
    return scale if scale != 0.0 else 1.0


def _balance(z, zbar, fm, kernel, out=None):
    """Per-cell residual sum_j w_ij z_ij + t_i zbar_i - f_i m_i; the
    products w_ij z_ij go to out when it is given."""
    return np.sum(np.multiply(kernel.w, z, out=out), axis=1) + kernel.t * zbar - fm


def _check_lp_fits(vals):
    """Reject a field whose certificate LP would exceed physical memory,
    else return (group, sizes): the index of each cell's value among the
    sorted distinct values, and how many cells share each value.

    The free entries are the tied pairs, g(g - 1)/2 for each group of g
    equal values, plus the zero cells; they are counted from the sorted
    field, and _tied_pairs lists the pairs from the same groups, so no
    N x N tie array is built.
    """
    _, group, sizes = np.unique(vals, return_inverse=True, return_counts=True)
    nfree = int(np.sum(sizes * (sizes - 1) // 2) + np.count_nonzero(vals == 0.0))
    need = nfree * _LP_BYTES_PER_FREE
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            "the certificate LP has %d free entries and needs about %.3g GB "
            "(%d bytes each), more than the %.3g GB of physical memory"
            % (nfree, need / 1e9, _LP_BYTES_PER_FREE, have / 1e9)
        )
    return group, sizes


def _tied_pairs(group, sizes):
    """Index arrays (pi, pj) of the pairs i < j of equal values, in
    row-major order, from _check_lp_fits' grouping.

    A pair is tied exactly when sign(u_i - u_j) is 0: for finite floats
    the difference is 0 only between equal values (-0.0 equals 0.0, and
    np.unique groups them). Each cell pairs with the later cells of its
    group, in the cells' stable order by group, which is ascending index
    within a group; lexsort then puts the pairs in row-major order.
    """
    order = np.argsort(group, kind="stable")
    later = np.cumsum(sizes)[group[order]] - np.arange(order.size) - 1
    first = np.repeat(np.arange(order.size), later)
    step = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later) + 1
    pi, pj = order[first], order[first + step]
    row_major = np.lexsort((pj, pi))
    return pi[row_major], pj[row_major]


def _fixed_parts(vals, groups):
    """Sign-determined entries and the index lists of the free ones;
    groups is _check_lp_fits(vals)."""
    pi, pj = _tied_pairs(*groups)
    return _pair_signs(vals), np.sign(vals), pi, pj, np.flatnonzero(vals == 0.0)


def build_certificate(
    u,
    f: LoadField,
    kernel: KernelSet,
    eps_feas: float = DEFAULT_EPS_FEAS,
) -> SignField:
    """Certificate for u, or the least max residual when none exists.

    Feasibility is reported, not raised.
    """
    if not (math.isfinite(eps_feas) and eps_feas > 0.0):
        raise ValueError("feasibility tolerance must be finite and positive")
    vals = _as_field(u, kernel)
    z, zbar, pi, pj, ci = _fixed_parts(vals, _check_lp_fits(vals))
    fm = f.values * kernel.m
    scale = _scale(fm, kernel)

    base = _balance(z, zbar, fm, kernel)
    wf = kernel.w[pi, pj]
    tc = kernel.t[ci]
    npair, nfree = pi.size, pi.size + ci.size
    # A maps the free entries to their share of every cell's balance
    cols = np.r_[np.arange(npair), np.arange(nfree)]  # pair k enters rows i and j
    a = sparse.csr_matrix(
        (np.r_[wf, -wf, tc], (np.r_[pi, pj, ci], cols)), shape=(base.size, nfree)
    )
    x = np.zeros(nfree)
    iters = 0
    if nfree > 0 and np.max(np.abs(base)) > eps_feas * scale:
        # min tau over |x| <= 1, tau >= 0 subject to -tau <= base + A x <= tau
        tau = sparse.csr_matrix(np.ones((base.size, 1)))
        bounds = np.tile([-1.0, 1.0], (nfree + 1, 1))
        bounds[-1] = (0.0, np.inf)
        res = linprog(
            np.r_[np.zeros(nfree), 1.0],
            A_ub=sparse.bmat([[a, -tau], [-a, -tau]], format="csc"),
            b_ub=np.r_[-base, base],
            bounds=bounds,
            method="highs",
        )
        iters = int(res.nit)
        if res.x is not None:
            x = np.clip(res.x[:nfree], -1.0, 1.0)

    r = base + a @ x
    z[pi, pj] = x[:npair]
    z[pj, pi] = -x[:npair]
    zbar[ci] = x[npair:]
    max_r = float(np.max(np.abs(r))) if r.size else 0.0
    return SignField(
        z=z,
        zbar=zbar,
        residual=r,
        max_residual=max_r,
        scale=scale,
        feasible=bool(max_r <= eps_feas * scale),
        iterations=iters,
    )


def verify_certificate(
    u,
    cert: SignField,
    f: LoadField,
    kernel: KernelSet,
    eps_feas: float = DEFAULT_EPS_FEAS,
) -> VerifyReport:
    """Check box, antisymmetry, sign consistency, and the balance."""
    vals = _as_field(u, kernel)
    z, zbar = cert.z, cert.zbar
    box = max(float(z.max()), -float(z.min()), float(np.max(np.abs(zbar)))) - 1.0
    box = max(box, 0.0)
    # one C-ordered N x N buffer serves every pairwise check in turn, so the
    # balance's row sums add w_ij z_ij in the order np.sum(w * z, 1) does
    work = np.add(z, z.T, out=np.empty(z.shape))
    antisym = float(np.max(np.abs(work, out=work)))

    # |z_ij - sign(u_i - u_j)| where that sign is determined, 0 at ties
    _pair_signs(vals, out=work)
    ties = work == 0.0
    np.subtract(z, work, out=work)
    np.abs(work, out=work)
    work[ties] = 0.0
    sign_gap = float(np.max(work))
    nz = vals != 0.0
    if np.any(nz):
        sign_gap = max(
            sign_gap, float(np.max(np.abs(zbar[nz] - np.sign(vals[nz]))))
        )

    fm = f.values * kernel.m
    scale = _scale(fm, kernel)
    r = _balance(z, zbar, fm, kernel, out=work)
    balance = float(np.max(np.abs(r))) / scale

    passed = (
        box <= 1e-12
        and antisym <= 1e-12
        and sign_gap <= 1e-12
        and balance <= eps_feas
    )
    return VerifyReport(
        passed=passed,
        box_violation=box,
        antisymmetry_violation=antisym,
        sign_violation=sign_gap,
        balance_violation=balance,
        scale=scale,
    )


class PlateauMeasure(NamedTuple):
    measure: float
    fraction: float
    degenerate: bool


def plateau_measure(u, kernel: KernelSet, tau_rel: float = 0.01) -> PlateauMeasure:
    """Measure of the near-extremal set {|u| >= (1 - tau_rel) * max |u|}."""
    if not (0.0 < tau_rel < 1.0):
        raise ValueError("relative tolerance must lie in (0, 1)")
    vals = np.asarray(u, dtype=float)
    total = float(np.sum(kernel.m))
    top = float(np.max(np.abs(vals)))
    if top == 0.0:
        return PlateauMeasure(measure=total, fraction=1.0, degenerate=True)
    sel = np.abs(vals) >= (1.0 - tau_rel) * top
    meas = float(np.sum(kernel.m[sel]))
    return PlateauMeasure(measure=meas, fraction=meas / total, degenerate=False)


class EqualPairMass(NamedTuple):
    fraction: float
    interior_fraction: float
    exterior_fraction: float


def equal_pair_mass(u, kernel: KernelSet) -> EqualPairMass:
    """Pair-measure fraction of near-equal values over the product domain.

    Interior pairs carry measure m_i m_j (ordered, i != j); each cell also
    pairs with the exterior, counted as one pseudo-element of measure equal
    to the domain volume per side. Values are near-equal within
    1e-9 * max|u|, so exterior pairs are near-equal when the cell value
    itself is that close to zero (the exterior value).
    """
    vals = np.asarray(u, dtype=float)
    tol = 1e-9 * float(np.max(np.abs(vals)))
    m = kernel.m
    total = float(np.sum(m))
    off = ~np.eye(vals.size, dtype=bool)
    mm = np.outer(m, m)
    den_int = float(np.sum(mm[off]))
    near = (np.abs(vals[:, None] - vals[None, :]) <= tol) & off
    num_int = float(np.sum(mm[near]))
    den_ext = 2.0 * total * float(np.sum(m))
    num_ext = 2.0 * total * float(np.sum(m[np.abs(vals) <= tol]))
    interior = num_int / den_int if den_int > 0 else 0.0
    exterior = num_ext / den_ext if den_ext > 0 else 0.0
    return EqualPairMass(
        fraction=(num_int + num_ext) / (den_int + den_ext),
        interior_fraction=interior,
        exterior_fraction=exterior,
    )
