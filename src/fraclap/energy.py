"""Discrete energies on cell fields: seminorms, functionals, gradients,
and the p -> 1 embedding factor.

Factor-of-two convention, fixed once for the whole package: the p-th
seminorm power is

    [u]^p = sum_{i != j} w_ij |u_i - u_j|^p + 2 * sum_i t_i |u_i|^p

(ordered pairs for the interior, factor 2 on the exterior tail), the kinetic
term is [u]^p / (2p), and the functional is kinetic minus sum f_i u_i m_i.
The gradient normalization that follows makes the one-cell stationary point
u* = (f m / t)^(1/(p-1)).

All reductions are plain numpy sums in fixed cell order, so results do not
depend on thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fraclap.domain_grid import KernelSet

_MIRROR_ROWS = 64  # row-block height of the mirrored pair fills


@dataclass(frozen=True)
class LoadField:
    """Cell averages of the load f with a nonnegativity flag.

    When flagged nonnegative, the load must be pointwise >= 0 with at least
    one strictly positive cell (so the weighted volume it induces is
    nondegenerate).
    """

    values: np.ndarray
    nonnegative: bool

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("load field must be finite")
        if self.nonnegative:
            if np.any(vals < 0) or not np.any(vals > 0):
                raise ValueError(
                    "nonnegative load must be >= 0 with some positive cell"
                )


def load_from_array(values) -> LoadField:
    """Wrap raw cell values, detecting the nonnegativity flag."""
    vals = np.asarray(values, dtype=float)
    flag = bool(np.all(vals >= 0) and np.any(vals > 0))
    return LoadField(values=vals, nonnegative=flag)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Components of the functional at one field."""

    pair: float  # sum over ordered pairs of w |du|^p
    tail: float  # sum of t |u|^p (single-counted)
    seminorm: float  # (pair + 2 tail)^(1/p)
    kinetic: float  # seminorm^p / (2p)
    load: float  # sum f u m
    total: float  # kinetic - load


def _as_field(u, kernel: KernelSet) -> np.ndarray:
    vals = np.asarray(u, dtype=float)
    if vals.shape != kernel.m.shape:
        raise ValueError(
            "field length %d does not match grid size %d"
            % (vals.size, kernel.m.size)
        )
    if not np.isfinite(vals).all():
        raise ValueError("field must be finite")
    return vals


def _mirrored_pairs(vals: np.ndarray, w: np.ndarray, entry, odd=False):
    """The N x N array of entry(vals_i - vals_j) * w_ij for a bitwise
    symmetric w, computed on the upper block-triangle only.

    entry maps a block of differences in place and is even, or odd when
    odd is set. Row block [r0, r1) is filled against columns [r0, N) and
    copied, transposed, into rows [r1, N) of columns [r0, r1), negated
    for an odd entry. vals_j - vals_i is exactly -(vals_i - vals_j), so
    every entry keeps the bits of the full fill, except that an odd entry
    at an exact tie gives -0.0 below the diagonal where the full fill
    gives +0.0. No reduction sees that: a sum holding the +0.0 diagonal
    is never -0.0, and its other bits do not depend on signs of zeros.
    """
    n = vals.size
    out = np.empty((n, n))
    for r0 in range(0, n, _MIRROR_ROWS):
        r1 = min(r0 + _MIRROR_ROWS, n)
        blk = out[r0:r1, r0:]
        np.subtract(vals[r0:r1, None], vals[None, r0:], out=blk)
        entry(blk)
        blk *= w[r0:r1, r0:]
        upper = blk[:, r1 - r0:].T
        if odd:
            np.negative(upper, out=out[r1:, r0:r1])
        else:
            out[r1:, r0:r1] = upper
    return out


def _pair_tail(vals: np.ndarray, kernel: KernelSet, p: float):
    """(ordered pair sum of w |du|^p, tail sum of t |u|^p) of a checked field."""
    if p < 1:
        raise ValueError("integrability p must satisfy p >= 1")

    def entry(blk):
        np.abs(blk, out=blk)
        blk **= p

    pair = float(_mirrored_pairs(vals, kernel.w, entry).sum())
    tail = float((kernel.t * np.abs(vals) ** p).sum())
    return pair, tail


def seminorm_power(u, kernel: KernelSet, p: float) -> float:
    """[u]^p = ordered pair sum + 2 * tail sum."""
    pair, tail = _pair_tail(_as_field(u, kernel), kernel, p)
    return pair + 2.0 * tail


def seminorm(u, kernel: KernelSet, p: float) -> float:
    """Gagliardo-type seminorm ([u]^p)^(1/p) with exterior tail included."""
    return seminorm_power(u, kernel, p) ** (1.0 / p)


def total_energy(u, f: LoadField, kernel: KernelSet, p: float) -> EnergyBreakdown:
    """Functional F(u) = [u]^p/(2p) - sum f u m, fully itemized."""
    vals = _as_field(u, kernel)
    pair, tail = _pair_tail(vals, kernel, p)
    power = pair + 2.0 * tail
    semi = power ** (1.0 / p)
    kinetic = power / (2.0 * p)
    load = float((f.values * vals * kernel.m).sum())
    return EnergyBreakdown(
        pair=pair,
        tail=tail,
        seminorm=semi,
        kinetic=kinetic,
        load=load,
        total=kinetic - load,
    )


def gradient(u, f: LoadField, kernel: KernelSet, p: float) -> np.ndarray:
    """Exact gradient of total_energy for p > 1:

        g_i = sum_j w_ij phi_p(u_i - u_j) + t_i phi_p(u_i) - f_i m_i

    with phi_p(t) = sign(t) |t|^(p-1).
    """
    if p <= 1:
        raise ValueError("nonsmooth regime: use certify module")
    vals = _as_field(u, kernel)

    # copysign differs from sign(du) * |du|^(p-1) only where du = -0.0
    # (-0.0 instead of +0.0); like the mirror's -0.0 at ties, no row sum
    # sees it, since each row's diagonal adds +0.0
    def entry(blk):
        phi = np.abs(blk)
        phi **= p - 1.0
        np.copysign(phi, blk, out=blk)

    phi = _mirrored_pairs(vals, kernel.w, entry, odd=True)
    pair_term = phi.sum(axis=1)
    tail_term = kernel.t * np.sign(vals) * np.abs(vals) ** (p - 1.0)
    return pair_term + tail_term - f.values * kernel.m


def hoelder_embedding_factor(kernel_1: KernelSet, kernel_p: KernelSet, p: float) -> float:
    """Constant M^(1/p') with [u]_{s,1} <= [u]_{s_p,p} * M^(1/p') for all u.

    Exact Hoelder on the finite sums: split each p = 1 term as a product of
    the p-kernel term to the 1/p and the weight ratio, then sum the ratios
    to the conjugate power p' = p/(p-1).
    """
    if p <= 1:
        raise ValueError("embedding factor needs p > 1")
    pc = p / (p - 1.0)
    off = ~np.eye(kernel_1.m.size, dtype=bool)
    w1 = kernel_1.w[off]
    wp = kernel_p.w[off]
    pair_part = np.sum((w1 * wp ** (-1.0 / p)) ** pc)
    tail_part = np.sum(
        (2.0 * kernel_1.t * (2.0 * kernel_p.t) ** (-1.0 / p)) ** pc
    )
    return float((pair_part + tail_part) ** (1.0 / pc))
