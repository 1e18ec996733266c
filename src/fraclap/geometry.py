"""Set-level geometry: weighted perimeters and volumes, the coarea
decomposition, and Cheeger constant estimators.

Masks are boolean cell arrays (subsets of the domain as unions of cells).
Perimeter shares the kernel weights with the energy module, which makes
the set functional Per_s(E) - |E|_f equal to F_1(chi_E), the p = 1
functional at the indicator, exactly rather than approximately: a
perimeter sums the N x N array w_ij * (chi_i != chi_j) the energy sums.

The coarea decomposition never builds a mask's pairs. A superlevel set
{u >= t} is a union of whole levels of u, so its perimeter is a sum of
level-pair weights W_ab = sum_{i in a, j in b} w_ij and level tails,
summed once for all levels (fraclap.quotient); each layer's perimeter is
then within a stated rounding bound of the mask's (_layer_rounding), and
the threshold search recomputes the few layers that bound cannot
separate from the best on their masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from fraclap.domain_grid import Grid, KernelSet
from fraclap.energy import LoadField, _as_field, seminorm_power
from fraclap.quotient import Partition, pairwise_depth

BRUTE_FORCE_CELL_CAP = 20
# entries in a block temporary of the exhaustive search, high-half rows
# times every low-half subset; up to BRUTE_FORCE_CELL_CAP cells the
# per-half tables are smaller
_ENUM_CHUNK = 1 << 16
# levels per block of masks in the coarea decomposition's weighted volumes
_VOLUME_LEVELS = 64


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


def perimeter(mask, kernel: KernelSet) -> float:
    """Weighted fractional perimeter of a cell set:
    cross pairs inside the domain plus exterior tails of the set's cells,
    equal bit for bit to half the p = 1 seminorm power of the indicator.
    """
    arr = _as_mask(mask, kernel)
    if not np.any(arr):
        return 0.0
    # the array and the order the energy module sums for the p = 1
    # seminorm power of the indicator, so P(E) = F_1(chi_E) + |E|_f
    # holds exactly
    pair = float(np.sum(kernel.w * (arr[:, None] != arr)))
    tail = float(np.sum(kernel.t * arr))
    return 0.5 * (pair + 2.0 * tail)


def weighted_volume(mask, f: LoadField, kernel: KernelSet) -> float:
    """|E|_f = sum over E of f_i m_i (same reduction as the energy load)."""
    arr = _as_mask(mask, kernel)
    return float(np.sum(f.values * arr.astype(float) * kernel.m))


class LevelSet(NamedTuple):
    level: float
    perimeter: float
    weighted_volume: float


def _layer_rounding(ncells: int, nlevels: int) -> float:
    """Relative bound on |P - perimeter(E)| / perimeter(E) for a layer E
    of coarea_decompose on ncells cells and nlevels distinct values, P
    being the layer's perimeter there.

    Both are float sums of the nonnegative terms of one exact
    Per(E) = sum_{i in E, j not in E} w_ij + sum_{i in E} t_i (the mask
    route sums each cross pair twice and halves, exactly). A float sum of
    nonnegative terms in which no term meets more than d roundings is
    within gamma_d = d u / (1 - d u) of the exact sum, relative, in any
    order: each term carries a factor in [(1 - u)^d, (1 + u)^d] (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1),
    and a binary tree of m leaves has depth at most m - 1. Sums of
    nonnegative floats never round in the subnormal range, where addition
    is exact. With u = eps / 2:

    - levels (_level_perimeters). A weight w_ij with i in level a and j
      in level b meets the sum over b's cells (|b| - 1 roundings), the
      sum over a's (|a| - 1), the prefix sum over the levels
      (nlevels - 1), the sum over the rows of the layer (nlevels, the
      blocks' partial sums included) and the addition of the tails (1):
      d1 <= ncells + 2 nlevels, as |a| + |b| <= ncells. A tail meets
      fewer.
    - mask (perimeter). numpy's pairwise sum of the N^2 pair array, then
      pair + 2 tail: d2 = pairwise_depth(N^2) + 1; the tail sum's
      pairwise_depth(N) + 1 is no more.

    So |P - perimeter(E)| <= (gamma_d1 + gamma_d2) Per(E) <= gamma_d
    Per(E) with d = d1 + d2, and Per(E) <= perimeter(E) / (1 - gamma_d).
    For d u <= 1/4, gamma_d / (1 - gamma_d) <= 2 d u = d eps, which is
    returned (an integer times eps, exact in float).
    """
    depth = ncells + 2 * nlevels + pairwise_depth(ncells * ncells) + 1
    return depth * np.finfo(float).eps


def _level_perimeters(part: Partition, kernel: KernelSet) -> np.ndarray:
    """Per({u >= t_k}) for every level k of u, from part, the cells
    grouped by level in ascending order.

    The layer of level k is the union of the levels a >= k, so its
    perimeter is sum_{b >= k} sum_{a < k} W_ba + sum_{a >= k} T_a, with W
    the level-pair sums of w and T the level sums of t. Each block of
    rows b of W, up to the diagonal, is turned into prefix sums over a
    and added, row by row, to every layer k <= b: O(N^2 + L^2) work for L
    levels, and no array larger than a block of Partition.lower_rows.
    """
    cross = np.zeros(part.starts.size)
    for b0, rows in part.lower_rows(kernel.w):
        # below[r, c] = sum over a <= c of W_{b0 + r, a}, the part of
        # layer c + 1 that row b0 + r adds when c < b0 + r
        below = np.cumsum(rows[:, :-1], axis=1)
        cross[1:b0 + rows.shape[0]] += np.sum(np.tril(below, b0 - 1), axis=0)
    return cross + np.cumsum(part.sums(kernel.t)[::-1])[::-1]


def coarea_decompose(u, f: LoadField, kernel: KernelSet) -> List[LevelSet]:
    """Layer-cake decomposition of a nonnegative field at kernel order p = 1.

    Returns one entry per distinct positive value t of u, with the weighted
    perimeter and weighted volume of the superlevel set {u >= t}. Summing
    (t_l - t_{l-1}) * perimeter_l over levels reproduces half the p = 1
    seminorm power, and the same gaps against the weighted volumes reproduce
    the load term; both identities are exact up to rounding.

    A superlevel set never splits a level of u, so every perimeter comes
    from one pass over w that sums it by pairs of levels
    (_level_perimeters), O(N^2 + L^2) for L levels, within
    _layer_rounding of perimeter({u >= t}). Each weighted volume has the
    bits of weighted_volume({u >= t}); they are summed for blocks of
    levels at once (_layer_volumes).
    """
    vals = _as_field(u, kernel)
    if np.any(vals < 0):
        raise ValueError("coarea decomposition requires a nonnegative field")
    levels, label = np.unique(vals, return_inverse=True)
    first = int(levels[0] == 0.0)  # the zero level has no layer
    if first == levels.size:
        return []
    per = _level_perimeters(Partition(label), kernel)
    return [
        LevelSet(level=t, perimeter=p, weighted_volume=v)
        for t, p, v in zip(levels[first:].tolist(), per[first:].tolist(),
                           _layer_volumes(vals, levels[first:], f, kernel).tolist())
    ]


def _layer_volumes(vals, levels, f: LoadField, kernel: KernelSet) -> np.ndarray:
    """weighted_volume({vals >= t}) for every t in levels, with its bits:
    each row of a block of _VOLUME_LEVELS masks is the product
    weighted_volume forms, (f * mask) * m, and a row sum of a C-ordered
    block adds a row in the order np.sum adds the same N entries."""
    out = np.empty(levels.size)
    for lo in range(0, levels.size, _VOLUME_LEVELS):
        masks = vals >= levels[lo:lo + _VOLUME_LEVELS, None]
        out[lo:lo + masks.shape[0]] = (
            (f.values * masks.astype(float)) * kernel.m
        ).sum(axis=1)
    return out


def coarea_identity_gap(u, f: LoadField, kernel: KernelSet) -> float:
    """Max relative defect of the two coarea identities (0 for exact),
    each relative to the larger magnitude of its two sides; both sides of
    each are 0 for the zero field, whose decomposition is empty."""
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
    return max(_relative_defect(per_sum, semi_half), _relative_defect(vol_sum, load))


def _relative_defect(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


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
    bound for the exhaustive constant on the same grid. The table holds
    the decomposition's layers.

    The layers are ranked by their ratios. Every layer whose ratio is
    within the rounding bound of the best one is recomputed as
    perimeter(mask) / weighted_volume(mask), and the first exact minimum
    in ascending level order is the witness, so h is the witness's ratio
    bit for bit. With rho = _layer_rounding + 2 eps (the two divisions),
    a layer's ratio r and its recomputed ratio h satisfy
    r <= (1 + rho) h and h <= r / (1 - rho), so the exact minimizer's r
    is at most (1 + rho) / (1 - rho) <= 1 + 3 rho times the least r; the
    screen's 1 + 4 rho also absorbs its own two roundings.
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
    rho = _layer_rounding(kernel.m.size, len(layers) + 1) + 2.0 * np.finfo(float).eps
    screen = min(row[3] for row in table) * (1.0 + 4.0 * rho)
    vals = np.asarray(u, dtype=float)
    best_h, witness = math.inf, None
    for level, _, _, ratio in table:
        if ratio <= screen:
            mask = vals >= level
            h = perimeter(mask, kernel) / weighted_volume(mask, f, kernel)
            if h < best_h:
                best_h, witness = h, mask
    return CheegerResult(
        h=best_h, witness=witness, method="threshold", table=table
    )
