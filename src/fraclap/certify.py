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
sign field achieves, up to the LP solver's tolerances and the tie
partition's bound (build_certificate).

The LP runs on a partition of the tied cells (_tie_parts) into parts whose
cells see the same balance data: one free entry per pair of parts that
holds a tie and one per part of zero cells. On a symmetric field the parts
are the symmetry orbits, found from the data alone; a field without such
parts keeps one free entry per tied pair and per zero cell. numpy
assembles the LP (_lp_matrix), and it goes straight to scipy's HiGHS
extension (_highs_core), with the model and options
linprog(method="highs") passes it, so its answers keep linprog's bits
without scipy.sparse, scipy.optimize's Python layers or their imports.
The extension loads once per process through solver._scipy_extension,
which loads the solver's LAPACK wrapper the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np
import scipy

from fraclap.domain_grid import KernelSet, _check_memory
from fraclap.energy import LoadField, _as_field
from fraclap.quotient import _BLOCK, first_seen
from fraclap.solver import _scipy_extension

DEFAULT_EPS_FEAS = 1e-8

#: peak memory of the LP per free entry: build_certificate on the zero field
#: rose 1.35 KB per free entry on the 12 x 12 box and 1.23 KB on the 16 x 16
#: box, in peak RSS over the kernel already built
_LP_BYTES_PER_FREE = 1400

#: tolerance, relative to scale, within which cells of one level are put in
#: one part of the tie partition; each part's defect delta_a must stay
#: within it too. It sits five orders below HiGHS's primal and dual
#: feasibility tolerances (1e-7, relative to the same residuals), so the
#: reduced optimum's distance from the full one is below what the solver
#: resolves, while a field whose cells differ by rounding alone (1e-16
#: relative) still forms its parts
_TIE_TOL = 1e-12

_TILE = 128  # side of the square tiles of the antisymmetry check

_HIGHS_CORE = "scipy.optimize._highspy._core"


class _CSC(NamedTuple):
    """Canonical CSC arrays, as HiGHS takes a column-wise matrix: column
    k's rows, ascending, and values at indptr[k]:indptr[k + 1]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]


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


def _pair_signs(rows, vals, out=None):
    """sign(rows_i - vals_j) as a (rows, N) array, in out or one new
    allocation."""
    z = np.subtract.outer(rows, vals, out=out)
    return np.sign(z, out=z)


def _row_blocks(n):
    """(lo, hi) row ranges of about _BLOCK entries of an n x n array."""
    step = max(1, _BLOCK // max(n, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _scale(fm, kernel):
    """Residual normalization max(max |f m|, max t), or 1 when both vanish."""
    scale = max(float(np.max(np.abs(fm))), float(np.max(kernel.t)))
    return scale if scale != 0.0 else 1.0


def _check_eps(eps_feas):
    """Reject a feasibility tolerance that is not finite and positive."""
    if not (math.isfinite(eps_feas) and eps_feas > 0.0):
        raise ValueError("feasibility tolerance must be finite and positive")


def _check_lp_fits(vals):
    """Reject a field whose certificate LP would exceed physical memory,
    else return (group, sizes): the index of each cell's value among the
    sorted distinct values, and how many cells share each value.

    The free entries are the tied pairs, g(g - 1)/2 for each group of g
    equal values, plus the zero cells; they are counted from the sorted
    field, and _tied_pairs lists the pairs from the same groups, so no
    N x N tie array is built. The tie partition usually leaves far fewer
    LP columns, but a level it cannot reduce needs every one of them.
    """
    _, group, sizes = np.unique(vals, return_inverse=True, return_counts=True)
    nfree = int(np.sum(sizes * (sizes - 1) // 2) + np.count_nonzero(vals == 0.0))
    _check_memory(
        nfree * _LP_BYTES_PER_FREE,
        "the certificate LP has %d free entries and needs" % nfree,
        "(%d bytes each)" % _LP_BYTES_PER_FREE,
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


def _runs(label, x, tol):
    """Split each part of label where x, sorted within the part, steps by
    more than tol; returns the new labels, numbered in sorted order, with
    the order that sorts them and the start of each part in it."""
    order = np.lexsort((x, label))
    lab, xs = label[order], x[order]
    new = np.r_[True, (lab[1:] != lab[:-1]) | (xs[1:] - xs[:-1] > tol)]
    out = np.empty_like(label)
    out[order] = np.cumsum(new) - 1
    return out, order, np.flatnonzero(new)


def _spread(x, order, starts):
    """max - min of x over each part (order, starts from _runs)."""
    xs = x[order]
    return np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts)


def _tie_parts(group, base, tz, w, pi, pj, tol):
    """The tie partition: a part index for every cell, the parts numbered
    by their first cell.

    Candidate parts are the runs of one level of u (group) in which base,
    and then tz (the tails t at the zero level, 0 elsewhere), step by at
    most tol when sorted. Part a's defect is

        delta_a = spread_a(base) + spread_a(tz)
                  + sum over the other parts b of its level of
                    spread_a(S_i(b)),  S_i(b) = sum_{j in b} w_ij,

    with spread_a the max minus the min over the cells i of a (0 for a
    single cell); the S_i(b) come from one bincount over the ends i of the
    tied pairs (pi, pj) across two parts that lie in a part of two cells
    or more, so the cost is O(tied pairs). A level with a part whose delta
    exceeds tol is split into single cells, which reproduces the LP with
    one free entry per tied pair there.
    """
    n = group.size
    if pi.size == 0:  # no level holds two cells
        return np.arange(n)
    label, _, _ = _runs(group, base, tol)
    label, order, starts = _runs(label, tz, tol)
    delta = _spread(base, order, starts) + _spread(tz, order, starts)
    size = np.diff(np.r_[starts, n])
    la, lb = label[pi], label[pj]
    cross = la != lb
    rows = np.r_[pi[cross], pj[cross]]
    other = np.r_[lb[cross], la[cross]]
    wc = w[pi[cross], pj[cross]]
    keep = size[label[rows]] > 1
    if np.any(keep):
        nparts = starts.size
        key, inv = np.unique(rows[keep] * nparts + other[keep], return_inverse=True)
        s = np.bincount(inv, weights=np.r_[wc, wc][keep])
        block, binv = np.unique(label[key // nparts] * nparts + key % nparts,
                                return_inverse=True)
        hi = np.full(block.size, -np.inf)
        lo = np.full(block.size, np.inf)
        np.maximum.at(hi, binv, s)
        np.minimum.at(lo, binv, s)
        np.add.at(delta, block // nparts, hi - lo)
    bad = np.isin(group, group[order[starts[delta > tol]]])
    label[bad] = label.max() + 1 + np.arange(np.count_nonzero(bad))
    return first_seen(label)[0]


def _lp_matrix(part, pi, pj, ci, kernel):
    """The reduced LP on the tie partition part: returns (lp, cross, col,
    sign, zcol), with lp the canonical CSC arrays of [[A, -1], [-A, -1]],
    cross the indices of the tied pairs across two parts, col and sign the
    column and orientation of each of them (-1 if it ties the block's
    parts the other way round), and zcol the column of each zero cell.

    A holds the columns' shares of every cell's balance. A block is a pair
    of parts a, b holding a tie; its column is z_ij for i in a and j in b,
    with (a, b) the parts of the block's first tied pair in row-major
    order, and the columns follow those first pairs. Column (a, b) enters
    row i of a with S_i(b) and row j of b with -S_j(a); the zero parts
    follow, in part order, entering row i with t_i. With every part a
    single cell this is one column per tied pair (w_ij in row i, -w_ij in
    row j) and per zero cell, in that order. The LP's triplets are A's,
    their negations N rows down and tau's -1 in every row; each entry
    sums its shares left to right in triplet order (a stable sort of the
    positions, column-major, then one bincount), so -A is A's exact
    negation.
    """
    n = part.size
    pa, pb = part[pi], part[pj]
    cross = np.flatnonzero(pa != pb)
    pa, pb = pa[cross], pb[cross]
    col, first = first_seen(np.minimum(pa, pb) * n + np.maximum(pa, pb))
    sign = np.where(pa == pa[first][col], 1.0, -1.0)
    zparts, zinv = np.unique(part[ci], return_inverse=True)
    zcol = first.size + zinv
    ncol = first.size + zparts.size
    sw = sign * kernel.w[pi[cross], pj[cross]]
    share = np.r_[sw, -sw, kernel.t[ci]]
    nrow = 2 * n
    # each triplet's position in the LP matrix, column * nrow + row
    at = np.r_[col, col, zcol] * nrow + np.r_[pi[cross], pj[cross], ci]
    at = np.r_[at, at + n, ncol * nrow + np.arange(nrow)]
    order = np.argsort(at, kind="stable")
    at = at[order]
    new = np.diff(at, prepend=-1) != 0
    data = np.bincount(np.cumsum(new) - 1,
                       weights=np.r_[share, -share, np.full(nrow, -1.0)][order])
    at = at[new]
    indptr = np.searchsorted(at, np.arange(ncol + 2) * nrow).astype(np.int32)
    lp = _CSC(indptr, (at % nrow).astype(np.int32), data, (nrow, ncol + 1))
    return lp, cross, col, sign, zcol


@functools.lru_cache(maxsize=None)
def _highs_core():
    """scipy's HiGHS extension, scipy/optimize/_highspy/_core, from
    solver._scipy_extension: loaded once per process without importing
    scipy.optimize, or scipy.optimize's own copy where that came first."""
    core = _scipy_extension(_HIGHS_CORE)
    if not hasattr(core, "_Highs"):
        raise ImportError("fraclap.certify needs scipy's HiGHS: scipy %s at %s has "
                          "no _Highs in %s" % (scipy.__version__, scipy.__file__, _HIGHS_CORE))
    return core


def _solve_lp(lp, rhs):
    """min tau over |y| <= 1, tau >= 0 subject to lp (y, tau) <= rhs, by
    HiGHS with the model and options linprog(method="highs") passes it:
    presolve on, dual simplex, no output, the rows unbounded below and tau
    above at kHighsInf. Returns (y and tau, or None unless HiGHS reports an
    optimum; the iterations, linprog's nit)."""
    h = _highs_core()
    nrow, ncol = lp.shape
    inf = h.kHighsInf
    model = h.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = ncol
    model.num_row_ = model.a_matrix_.num_row_ = nrow
    model.a_matrix_.format_ = h.MatrixFormat.kColwise
    cost, lower, upper = np.zeros(ncol), np.full(ncol, -1.0), np.ones(ncol)
    cost[-1], lower[-1], upper[-1] = 1.0, 0.0, inf
    model.col_cost_, model.col_lower_, model.col_upper_ = cost, lower, upper
    model.row_lower_ = np.full(nrow, -inf)
    model.row_upper_ = rhs
    model.a_matrix_.start_ = lp.indptr
    model.a_matrix_.index_ = lp.indices
    model.a_matrix_.value_ = lp.data
    options = h.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    options.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs = h._Highs()
    error = h.HighsStatus.kError
    if (highs.passOptions(options) == error or highs.passModel(model) == error
            or highs.run() == error):
        return None, 0
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if highs.getModelStatus() != h.HighsModelStatus.kOptimal:
        return None, nit
    return np.array(highs.getSolution().col_value), nit


def build_certificate(
    u,
    f: LoadField,
    kernel: KernelSet,
    eps_feas: float = DEFAULT_EPS_FEAS,
) -> SignField:
    """Certificate for u, or the least max residual when none exists.

    Feasibility is reported, not raised.

    The LP minimizes tau = max_i |r_i| over the free entries, with
    r_i = base_i + sum over tied j of w_ij z_ij + t_i zbar_i (zbar_i free
    at zero cells only) and base_i the balance of the determined signs. It
    runs on the tie partition (_tie_parts): z is constant, X_ab / W_ab,
    on each block of two parts of a level and 0 inside a part, and zbar is
    constant on each part of zero cells. That restriction loses at most
    max_a delta_a: averaging any full solution over the blocks with
    weights w (X_ab = sum_{i in a, j in b} w_ij z_ij over W_ab, the sum of
    those w_ij) and zbar over each zero part with weights t gives every
    cell of a part the mean of the part's old residuals (X_aa = 0 by
    antisymmetry) up to delta_a, since |X_ab / W_ab| <= 1 and
    |zbar| <= 1. So the reduced optimum is at most the full one plus
    max_a delta_a <= _TIE_TOL * scale, and every reduced solution is a
    sign field of every cell. The returned residual is recomputed from
    the lifted z and zbar.
    """
    _check_eps(eps_feas)
    vals = _as_field(u, kernel)
    groups = _check_lp_fits(vals)
    pi, pj = _tied_pairs(*groups)
    ci = np.flatnonzero(vals == 0.0)
    fm = f.values * kernel.m
    scale = _scale(fm, kernel)

    # the determined signs and their row sums of w_ij z_ij, one row block
    # of products at a time, with the bits of np.sum(w * z, axis=1)
    n = vals.size
    z = np.empty((n, n))
    zbar = np.sign(vals)
    rowsum = np.empty(n)
    blocks = _row_blocks(n)
    work = np.empty((blocks[0][1], n))
    for lo, hi in blocks:
        zb = _pair_signs(vals[lo:hi], vals, out=z[lo:hi])
        rowsum[lo:hi] = np.multiply(kernel.w[lo:hi], zb, out=work[:hi - lo]).sum(axis=1)
    base = rowsum + kernel.t * zbar - fm

    tz = np.where(vals == 0.0, kernel.t, 0.0)
    part = _tie_parts(groups[0], base, tz, kernel.w, pi, pj, _TIE_TOL * scale)
    lp, cross, col, sign, zcol = _lp_matrix(part, pi, pj, ci, kernel)
    ncol = lp.shape[1] - 1
    y = np.zeros(ncol)
    iters = 0
    if ncol > 0 and np.max(np.abs(base)) > eps_feas * scale:
        # min tau over |y| <= 1, tau >= 0 subject to -tau <= base + A y <= tau
        sol, iters = _solve_lp(lp, np.concatenate((-base, base)))
        if sol is not None:
            y = np.clip(sol[:ncol], -1.0, 1.0)

    # lift: every tied pair across two parts takes its block's entry, ties
    # inside a part 0; each cell's balance adds its entries' shares in
    # column order, as a CSR product of the free entries would
    npair, nfree = pi.size, pi.size + ci.size
    x = np.zeros(nfree)
    x[cross] = sign * y[col]
    x[npair:] = y[zcol]
    wf = kernel.w[pi, pj]
    rows = np.concatenate((pi, pj, ci))
    cols = np.concatenate((np.arange(npair), np.arange(nfree)))
    order = np.lexsort((cols, rows))
    share = np.concatenate((wf, -wf, kernel.t[ci]))[order] * x[cols[order]]
    r = base + np.bincount(rows[order], weights=share, minlength=n)
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


def _antisymmetry(z):
    """max |z_ij + z_ji|, over pairs of _TILE x _TILE tiles (i, j) and
    (j, i) of z, each sum formed in one tile buffer."""
    n = z.shape[0]
    side = min(_TILE, n)
    tile = np.empty((side, side))
    worst = []
    for i0 in range(0, n, _TILE):
        for j0 in range(i0, n, _TILE):
            zij = z[i0:i0 + _TILE, j0:j0 + _TILE]
            out = tile[:zij.shape[0], :zij.shape[1]]
            np.add(zij, z[j0:j0 + _TILE, i0:i0 + _TILE].T, out=out)
            worst.append(np.max(np.abs(out, out=out)))
    return float(np.max(worst))


def verify_certificate(
    u,
    cert: SignField,
    f: LoadField,
    kernel: KernelSet,
    eps_feas: float = DEFAULT_EPS_FEAS,
) -> VerifyReport:
    """Check box, antisymmetry, sign consistency, and the balance on every
    cell and pair, whatever partition built the certificate. The maxima
    are numpy's, which keep a NaN, and the sign pass masks free entries by
    a product, so a NaN anywhere in z or zbar makes both the box and the
    sign violation NaN."""
    vals = _as_field(u, kernel)
    z, zbar = cert.z, cert.zbar
    box = np.max([z.max(), -z.min(), np.max(np.abs(zbar))]) - 1.0
    box = float(np.maximum(box, 0.0))
    antisym = _antisymmetry(z)

    # one C-ordered block buffer serves the row passes: |z_ij - sign(u_i -
    # u_j)| times 1 where that sign is determined and 0 at ties, then
    # w_ij z_ij, whose row sums have the bits of np.sum(w * z, axis=1)
    n = vals.size
    pair_sum = np.empty(n)
    gaps = []
    blocks = _row_blocks(n)
    buf = np.empty((blocks[0][1], n))
    for lo, hi in blocks:
        work = _pair_signs(vals[lo:hi], vals, out=buf[:hi - lo])
        fixed = work != 0.0
        np.subtract(z[lo:hi], work, out=work)
        np.abs(work, out=work)
        work *= fixed
        gaps.append(np.max(work))
        pair_sum[lo:hi] = np.multiply(kernel.w[lo:hi], z[lo:hi], out=work).sum(axis=1)
    gaps.append(np.max(np.abs(zbar - np.sign(vals)) * (vals != 0.0)))
    sign_gap = float(np.max(gaps))

    fm = f.values * kernel.m
    scale = _scale(fm, kernel)
    r = pair_sum + kernel.t * zbar - fm
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
    vals = _as_field(u, kernel)
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
    vals = _as_field(u, kernel)
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
