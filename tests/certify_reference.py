"""The former certificate LP, one free entry per tied pair and per zero
cell, kept as the byte reference of build_certificate on fields whose tie
partition is all single cells, and as the full LP that the reduced one is
compared with on symmetric fields.

The fixed signs fill one N x N array, the base balance sums w * z in a
second one, the LP matrix is stacked by sparse.bmat, and scipy's linprog
solves the LP (linprog_lp, the oracle of build_certificate's own HiGHS
call).
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from fraclap.certify import (
    DEFAULT_EPS_FEAS,
    SignField,
    _check_lp_fits,
    _pair_signs,
    _scale,
    _tied_pairs,
)


def reference_lp(vals, f, kernel):
    """(z, zbar, base, pi, pj, ci, a, lp_matrix): the fixed signs, the base
    balance, the free entries (tied pairs, then zero cells), A mapping them
    to every cell's balance and the LP matrix [[A, -1], [-A, -1]]."""
    pi, pj = _tied_pairs(*_check_lp_fits(vals))
    ci = np.flatnonzero(vals == 0.0)
    z, zbar = _pair_signs(vals, vals), np.sign(vals)
    fm = f.values * kernel.m
    base = np.sum(kernel.w * z, axis=1) + kernel.t * zbar - fm
    wf = kernel.w[pi, pj]
    tc = kernel.t[ci]
    npair, nfree = pi.size, pi.size + ci.size
    cols = np.r_[np.arange(npair), np.arange(nfree)]
    a = sparse.csr_matrix(
        (np.r_[wf, -wf, tc], (np.r_[pi, pj, ci], cols)), shape=(base.size, nfree)
    )
    tau = sparse.csr_matrix(np.ones((base.size, 1)))
    lp_matrix = sparse.bmat([[a, -tau], [-a, -tau]], format="csc")
    return z, zbar, base, pi, pj, ci, a, lp_matrix


def linprog_lp(lp, rhs):
    """(x, nit) of linprog(method="highs") on min tau over |y| <= 1,
    tau >= 0 subject to lp (y, tau) <= rhs, for lp any matrix with CSC
    arrays and a shape; x is None when linprog returns no point."""
    ncol = lp.shape[1]
    bounds = np.tile([-1.0, 1.0], (ncol, 1))
    bounds[-1] = (0.0, np.inf)
    res = linprog(
        np.r_[np.zeros(ncol - 1), 1.0],
        A_ub=sparse.csc_matrix((lp.data, lp.indices, lp.indptr), shape=lp.shape),
        b_ub=rhs,
        bounds=bounds,
        method="highs",
    )
    return res.x, int(res.nit)


def reference_certificate(u, f, kernel, eps_feas=DEFAULT_EPS_FEAS):
    """build_certificate as it was, with every free entry an LP column."""
    vals = np.asarray(u, dtype=float)
    z, zbar, base, pi, pj, ci, a, lp_matrix = reference_lp(vals, f, kernel)
    scale = _scale(f.values * kernel.m, kernel)
    npair, nfree = pi.size, pi.size + ci.size
    x = np.zeros(nfree)
    iters = 0
    if nfree > 0 and np.max(np.abs(base)) > eps_feas * scale:
        sol, iters = linprog_lp(lp_matrix, np.r_[-base, base])
        if sol is not None:
            x = np.clip(sol[:nfree], -1.0, 1.0)
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
