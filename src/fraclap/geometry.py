"""Set-level geometry: weighted perimeters and volumes, the coarea
decomposition, and Cheeger constant estimators.

Masks are boolean cell arrays (subsets of the domain as unions of cells).
Perimeter shares the kernel weights with the energy module, which makes
the set functional Per_s(E) - |E|_f equal to F_1(chi_E), the p = 1
functional at the indicator, exactly rather than approximately. A
perimeter sums the N x N buffer w_ij * (chi_i != chi_j): one full fill for
a single mask, and one buffer that _update_pairs keeps across the coarea
levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from fraclap.domain_grid import Grid, KernelSet
from fraclap.energy import LoadField, _as_field, seminorm_power

BRUTE_FORCE_CELL_CAP = 20
# entries in a block temporary of the exhaustive search, high-half rows
# times every low-half subset; up to BRUTE_FORCE_CELL_CAP cells the
# per-half tables are smaller
_ENUM_CHUNK = 1 << 16
_UPDATE_ROWS = 16


@dataclass(frozen=True)
class CheegerResult:
    """Outcome of a Cheeger constant search.

    h equals perimeter(witness)/weighted_volume(witness) exactly as computed
    by this module's perimeter and weighted_volume.
    """

    h: float
    witness: np.ndarray
    method: str
    table: Optional[List[Tuple[float, float, float, float]]] = None

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("Cheeger value must be positive and finite")


def _as_mask(mask, kernel: KernelSet) -> np.ndarray:
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != kernel.m.shape:
        raise ValueError(
            "mask length %d does not match grid size %d"
            % (arr.size, kernel.m.size)
        )
    return arr


def _update_pairs(pairs, mask, moved, kernel: KernelSet) -> None:
    """Rewrite the rows and columns of the cells moved in pairs, the N x N
    float buffer of w_ij * (mask_i != mask_j), after they changed side.

    mask is the new set. No other entry's cells changed side, so it keeps
    its value. w is bitwise symmetric, so a row's transpose holds its
    column's bits and the buffer equals the full fill w * (mask_i !=
    mask_j) entry by entry. Rows go in blocks of _UPDATE_ROWS, so a large
    moved set (a zero plateau) needs no second N x N array.
    """
    for lo in range(0, moved.size, _UPDATE_ROWS):
        block = moved[lo:lo + _UPDATE_ROWS]
        rows = kernel.w[block]
        rows *= mask[block, None] != mask
        pairs[block] = rows
        pairs[:, block] = rows.T


def _pair_perimeter(pairs, mask, kernel: KernelSet) -> float:
    """Perimeter of mask from its filled pair buffer.

    pairs holds |chi_i - chi_j| * w_ij, the array the energy module sums
    for the p = 1 seminorm power, and t * mask is its tail: the result
    has the bits of half the seminorm power of the indicator, so
    P(E) = F_1(chi_E) + |E|_f holds exactly.
    """
    pair = float(np.sum(pairs))
    tail = float(np.sum(kernel.t * mask))
    return 0.5 * (pair + 2.0 * tail)


def perimeter(mask, kernel: KernelSet) -> float:
    """Weighted fractional perimeter of a cell set:
    cross pairs inside the domain plus exterior tails of the set's cells,
    equal bit for bit to half the p = 1 seminorm power of the indicator.
    """
    arr = _as_mask(mask, kernel)
    if not np.any(arr):
        return 0.0
    return _pair_perimeter(kernel.w * (arr[:, None] != arr), arr, kernel)


def weighted_volume(mask, f: LoadField, kernel: KernelSet) -> float:
    """|E|_f = sum over E of f_i m_i (same reduction as the energy load)."""
    arr = _as_mask(mask, kernel)
    return float(np.sum(f.values * arr.astype(float) * kernel.m))


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

    Each perimeter has the bits of perimeter({u >= t}). One N x N pair
    buffer walks the levels upward from the full set's zeros: at each level
    only the rows and columns of the cells that just left are rewritten,
    and the whole buffer is summed. A level costs one N^2 sum and |R| * N
    writes for the |R| cells that left.
    """
    vals = _as_field(u, kernel)
    if np.any(vals < 0):
        raise ValueError("coarea decomposition requires a nonnegative field")
    levels = np.unique(vals)
    levels = levels[levels > 0]
    n = vals.size
    # ascending levels only ever take cells out of the set: the cells that
    # leave before level t are those below it, in sorted order
    order = np.argsort(vals)
    ends = np.searchsorted(vals[order], levels)
    mask = np.ones(n, dtype=bool)
    pairs = np.zeros((n, n))
    out = []
    start = 0
    for t, end in zip(levels, ends):
        gone = order[start:end]
        mask[gone] = False
        _update_pairs(pairs, mask, gone, kernel)
        start = end
        per = _pair_perimeter(pairs, mask, kernel)
        vol = weighted_volume(mask, f, kernel)
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


def _require_positive_load(f: LoadField) -> None:
    if not f.nonnegative:
        raise ValueError(
            "weighted volume degenerate: load must be nonnegative with "
            "positive total mass"
        )


def _half_table(fm, rowsum, w):
    """(bits, volume, in-half perimeter) of every subset of one half of the
    cells, row k for the subset with bitmask k: the volume sums fm over the
    subset, and the perimeter sums rowsum over it minus its w-block."""
    ks = np.arange(1 << fm.size, dtype=np.int64)
    bits = ((ks[:, None] >> np.arange(fm.size)) & 1).astype(float)
    per = bits @ rowsum - np.sum((bits @ w) * bits, axis=1)
    return bits, bits @ fm, per


def brute_force_cheeger(
    grid: Grid, f: LoadField, kernel: KernelSet
) -> CheegerResult:
    """Exact minimum of Per_s(A)/|A|_f over every nonempty cell subset.

    Exhaustive enumeration by splitting the cells (meet in the middle,
    Horowitz & Sahni 1974): cells [0, L) with L = N // 2 form the low
    half and the rest the high half. One table per half holds the volume
    and the in-half perimeter of each of its subsets. The subset with low
    part a and high part b (cell i is bit i, so its bitmask is
    a + (b << L)) then has volume vol_a + vol_b and perimeter
    per_a + per_b - 2 * cross(a, b), where cross sums w over the pairs
    between the parts; a block of high rows gets all its cross terms from
    one product with the precomputed w[high, low] @ bits_a.T. Each subset
    costs a few additions instead of an N^2 quadratic form.

    Exact ties go to the smallest bitmask: a block's C order is bitmask
    order and blocks run upward. h is recomputed from the witness, so it
    equals perimeter(witness)/weighted_volume(witness). Only affordable up
    to BRUTE_FORCE_CELL_CAP cells (2^N subsets).
    """
    _require_positive_load(f)
    nn = grid.ncells
    if nn > BRUTE_FORCE_CELL_CAP:
        raise ValueError(
            "too many cells for exhaustive search (%d > %d): "
            "use threshold_cheeger" % (nn, BRUTE_FORCE_CELL_CAP)
        )
    w = kernel.w
    fm = f.values * kernel.m
    rowsum = w.sum(axis=1) + kernel.t
    lo = nn // 2
    bits_a, vol_a, per_a = _half_table(fm[:lo], rowsum[:lo], w[:lo, :lo])
    bits_b, vol_b, per_b = _half_table(fm[lo:], rowsum[lo:], w[lo:, lo:])
    cross_w = w[lo:, :lo] @ bits_a.T
    na = vol_a.size
    rows = _ENUM_CHUNK // na
    best_h = math.inf
    best_bits = None
    for b0 in range(0, vol_b.size, rows):
        blk = slice(b0, b0 + rows)
        vol = vol_b[blk, None] + vol_a
        valid = vol > 0
        per = per_b[blk, None] + per_a - 2.0 * (bits_b[blk] @ cross_w)
        h = np.where(valid, per / np.where(valid, vol, 1.0), math.inf)
        # argmin and the strict comparison both keep the first, smallest
        # bitmask among exact ties
        idx = int(np.argmin(h))
        if h.flat[idx] < best_h:
            best_h = float(h.flat[idx])
            best_bits = idx % na + ((b0 + idx // na) << lo)
    if best_bits is None:
        raise ValueError("weighted volume degenerate: no admissible subset")
    witness = np.array(
        [(best_bits >> i) & 1 for i in range(nn)], dtype=bool
    )
    h_exact = perimeter(witness, kernel) / weighted_volume(witness, f, kernel)
    return CheegerResult(h=h_exact, witness=witness, method="brute-force")


def threshold_cheeger(u, f: LoadField, kernel: KernelSet) -> CheegerResult:
    """Best superlevel set of u by the perimeter/volume ratio.

    Candidates are the superlevel sets {u >= t} of the coarea
    decomposition with positive weighted volume; the result is an upper
    bound for the exhaustive constant on the same grid.
    """
    _require_positive_load(f)
    layers = coarea_decompose(u, f, kernel)
    if not layers:
        raise ValueError("threshold estimator requires a nonzero field")
    table = [
        (layer.level, layer.perimeter, layer.weighted_volume,
         layer.perimeter / layer.weighted_volume)
        for layer in layers
        if layer.weighted_volume > 0
    ]
    if not table:
        raise ValueError("weighted volume degenerate: no admissible level set")
    best = min(table, key=lambda row: row[3])
    witness = np.asarray(u, dtype=float) >= best[0]
    return CheegerResult(
        h=best[3], witness=witness, method="threshold", table=table
    )
