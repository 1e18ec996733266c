"""Sign-field certificates for the nonsmooth p = 1 problem, plus flatness
measures.

A field u is certified as a weak solution when there exist pairwise signs
z_ij in [-1, 1] (antisymmetric, equal to sign(u_i - u_j) wherever that sign
is determined) and per-cell exterior signs zbar_i (equal to sign(u_i) where
u_i != 0) satisfying the per-cell balance

    sum_{j != i} w_ij z_ij + t_i zbar_i = f_i m_i.

The exterior side of the continuum sign field enters the discrete balance
only through its kernel-weighted cell average, so one bounded scalar per
cell loses nothing. Free entries (exact ties and zero cells) are found by
box-constrained least squares on the balance residual, by projected
gradient with the exact Lipschitz step; the squared residual is then
non-increasing over iterations by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from fraclap.domain_grid import KernelSet
from fraclap.energy import LoadField

DEFAULT_EPS_FEAS = 1e-8
_PG_MAXIT = 20000
_PG_FLAT_LIMIT = 100


@dataclass(frozen=True)
class SignField:
    """Certificate candidate with its residual diagnostics."""

    z: np.ndarray  # (N, N) antisymmetric pair signs
    zbar: np.ndarray  # (N,) exterior signs
    residual: np.ndarray  # (N,) per-cell balance defect
    max_residual: float
    scale: float  # residual normalization max(max |f m|, max t)
    feasible: bool
    iterations: int
    residual_history: List[float]


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    box_violation: float
    antisymmetry_violation: float
    sign_violation: float
    balance_violation: float  # max residual relative to scale
    scale: float


def _fixed_parts(u, kernel):
    """Sign-determined entries and the index lists of the free ones."""
    vals = np.asarray(u, dtype=float)
    nn = vals.size
    du = vals[:, None] - vals[None, :]
    z = np.sign(du)
    zbar = np.sign(vals)
    tie = (du == 0.0) & ~np.eye(nn, dtype=bool)
    iu, ju = np.where(np.triu(tie, k=1))
    free_cells = np.where(vals == 0.0)[0]
    return vals, z, zbar, iu, ju, free_cells


def build_certificate(
    u,
    f: LoadField,
    kernel: KernelSet,
    eps_feas: float = DEFAULT_EPS_FEAS,
) -> SignField:
    """Best-effort certificate for u; feasibility is reported, not raised."""
    vals, z, zbar, pi, pj, ci = _fixed_parts(u, kernel)
    fm = f.values * kernel.m
    scale = max(float(np.max(np.abs(fm))), float(np.max(kernel.t)))
    if scale == 0.0:
        scale = 1.0

    base = np.sum(kernel.w * z, axis=1) + kernel.t * zbar - fm
    wf = kernel.w[pi, pj]
    tc = kernel.t[ci]
    xp = np.zeros(pi.size)
    xc = np.zeros(ci.size)

    def residual(xp_v, xc_v):
        r = base.copy()
        np.add.at(r, pi, wf * xp_v)
        np.add.at(r, pj, -wf * xp_v)
        r[ci] += tc * xc_v
        return r

    history = []
    iters = 0
    nfree = pi.size + ci.size
    if nfree > 0:
        step = 0.5 / _lipschitz(pi, pj, ci, wf, tc, base.size)
        g_prev = math.inf
        flat = 0
        for iters in range(1, _PG_MAXIT + 1):
            r = residual(xp, xc)
            g = float(r @ r)
            history.append(math.sqrt(g))
            if math.sqrt(g) <= 0.125 * eps_feas * scale:
                break
            if g >= g_prev * (1.0 - 1e-14):
                flat += 1
                if flat >= _PG_FLAT_LIMIT:
                    break
            else:
                flat = 0
            g_prev = g
            gp = 2.0 * wf * (r[pi] - r[pj])
            gc = 2.0 * tc * r[ci]
            xp = np.clip(xp - step * gp, -1.0, 1.0)
            xc = np.clip(xc - step * gc, -1.0, 1.0)

    r = residual(xp, xc)
    history.append(float(np.sqrt(r @ r)))
    z[pi, pj] = xp
    z[pj, pi] = -xp
    zbar[ci] = xc
    max_r = float(np.max(np.abs(r))) if r.size else 0.0
    return SignField(
        z=z,
        zbar=zbar,
        residual=r,
        max_residual=max_r,
        scale=scale,
        feasible=bool(max_r <= eps_feas * scale),
        iterations=iters,
        residual_history=history,
    )


def _lipschitz(pi, pj, ci, wf, tc, ncells):
    """2 * lambda_max(A^T A) of the free-variable map, by power iteration."""
    xp = np.ones(pi.size)
    xc = np.ones(ci.size)
    lam = 1.0
    for _ in range(60):
        v = np.zeros(ncells)
        np.add.at(v, pi, wf * xp)
        np.add.at(v, pj, -wf * xp)
        v[ci] += tc * xc
        yp = wf * (v[pi] - v[pj])
        yc = tc * v[ci]
        norm = math.sqrt(float(yp @ yp) + float(yc @ yc))
        if norm == 0.0:
            return 1.0
        lam = norm / max(
            math.sqrt(float(xp @ xp) + float(xc @ xc)), 1e-300
        )
        xp = yp / norm
        xc = yc / norm
    return 2.0 * lam


def verify_certificate(
    u,
    cert: SignField,
    f: LoadField,
    kernel: KernelSet,
    eps_feas: float = DEFAULT_EPS_FEAS,
) -> VerifyReport:
    """Check box, antisymmetry, sign consistency, and the balance."""
    vals = np.asarray(u, dtype=float)
    z, zbar = cert.z, cert.zbar
    box = max(float(np.max(np.abs(z))), float(np.max(np.abs(zbar)))) - 1.0
    box = max(box, 0.0)
    antisym = float(np.max(np.abs(z + z.T)))

    du = vals[:, None] - vals[None, :]
    determined = du != 0.0
    sign_gap = 0.0
    if np.any(determined):
        sign_gap = float(
            np.max(np.abs(z[determined] - np.sign(du[determined])))
        )
    nz = vals != 0.0
    if np.any(nz):
        sign_gap = max(
            sign_gap, float(np.max(np.abs(zbar[nz] - np.sign(vals[nz]))))
        )

    fm = f.values * kernel.m
    scale = max(float(np.max(np.abs(fm))), float(np.max(kernel.t)))
    if scale == 0.0:
        scale = 1.0
    r = np.sum(kernel.w * z, axis=1) + kernel.t * zbar - fm
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
