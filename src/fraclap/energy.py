"""Discrete energies on cell fields: seminorms, functionals, gradients,
coarea decomposition, and the p -> 1 embedding factor.

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
from typing import List, NamedTuple

import numpy as np

from fraclap.domain_grid import KernelSet


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
    if not np.all(np.isfinite(vals)):
        raise ValueError("field must be finite")
    return vals


def _pair_tail(vals: np.ndarray, kernel: KernelSet, p: float):
    """(ordered pair sum of w |du|^p, tail sum of t |u|^p) of a checked field."""
    if p < 1:
        raise ValueError("integrability p must satisfy p >= 1")
    # one N x N buffer, updated in place: the same arithmetic as
    # sum(w * |du|^p) without a fresh N x N temporary per step
    du = vals[:, None] - vals[None, :]
    np.abs(du, out=du)
    du **= p
    du *= kernel.w
    pair = float(np.sum(du))
    tail = float(np.sum(kernel.t * np.abs(vals) ** p))
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
    load = float(np.sum(f.values * vals * kernel.m))
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
    # two N x N buffers, the second updated in place. copysign differs from
    # sign(du) * |du|^(p-1) only where du = -0.0 (-0.0 instead of +0.0);
    # the row sums keep their bits, since each row's diagonal adds +0.0
    du = vals[:, None] - vals[None, :]
    phi = np.abs(du)
    phi **= p - 1.0
    np.copysign(phi, du, out=phi)
    phi *= kernel.w
    pair_term = np.sum(phi, axis=1)
    tail_term = kernel.t * np.sign(vals) * np.abs(vals) ** (p - 1.0)
    return pair_term + tail_term - f.values * kernel.m


class LevelSet(NamedTuple):
    level: float
    perimeter: float
    weighted_volume: float


def coarea_decompose(u, f: LoadField, kernel: KernelSet) -> List[LevelSet]:
    """Layer-cake decomposition of a nonnegative field at kernel order p = 1.

    Returns one entry per distinct positive value t of u, with the weighted
    perimeter and weighted volume of the superlevel set {u >= t}. Summing
    (t_l - t_{l-1}) * perimeter_l over levels reproduces half the p = 1
    seminorm power, and the same gaps against the weighted volumes reproduce
    the load term; both identities are exact up to rounding.
    """
    from fraclap import geometry  # deferred: geometry imports this module

    vals = _as_field(u, kernel)
    if np.any(vals < 0):
        raise ValueError("coarea decomposition requires a nonnegative field")
    levels = np.unique(vals)
    levels = levels[levels > 0]
    out = []
    for t in levels:
        mask = vals >= t
        per = geometry.perimeter(mask, kernel)
        vol = geometry.weighted_volume(mask, f, kernel)
        out.append(LevelSet(level=float(t), perimeter=per, weighted_volume=vol))
    return out


def coarea_identity_gap(u, f: LoadField, kernel: KernelSet) -> float:
    """Max relative defect of the two coarea identities (0 for exact)."""
    decomp = coarea_decompose(u, f, kernel)
    prev = 0.0
    per_sum = 0.0
    vol_sum = 0.0
    for entry in decomp:
        gap = entry.level - prev
        per_sum += gap * entry.perimeter
        vol_sum += gap * entry.weighted_volume
        prev = entry.level
    semi_half = 0.5 * seminorm_power(u, kernel, 1.0)
    load = float(np.sum(f.values * np.asarray(u, dtype=float) * kernel.m))
    scale_a = max(abs(semi_half), 1.0)
    scale_b = max(abs(load), 1.0)
    return max(abs(per_sum - semi_half) / scale_a, abs(vol_sum - load) / scale_b)


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
