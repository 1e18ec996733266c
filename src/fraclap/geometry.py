"""Set-level geometry: weighted perimeters, the coarea decomposition, the
set functional, Cheeger constant estimators, and a mean-curvature
diagnostic.

Masks are boolean cell arrays (subsets of the domain as unions of cells).
Perimeter shares the kernel weights with the energy module, which makes
P(E) = F_1(chi_E) an exact identity rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from fraclap.domain_grid import Grid, KernelSet
from fraclap.energy import LoadField, _as_field, seminorm_power

BRUTE_FORCE_CELL_CAP = 20
_ENUM_CHUNK = 1 << 16


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
    cross pairs inside the domain plus exterior tails of the set's cells.

    Computed as half the p = 1 seminorm power of the indicator through the
    energy module's own reduction, so P(E) = F_1(chi_E) is bitwise exact.
    """
    arr = _as_mask(mask, kernel)
    if not np.any(arr):
        return 0.0
    return 0.5 * seminorm_power(arr.astype(float), kernel, 1.0)


def weighted_volume(mask, f: LoadField, kernel: KernelSet) -> float:
    """|E|_f = sum over E of f_i m_i (same reduction as the energy load)."""
    arr = _as_mask(mask, kernel)
    return float(np.sum(f.values * arr.astype(float) * kernel.m))


def set_functional(mask, f: LoadField, kernel: KernelSet) -> float:
    """P(E) = Per_s(E) - |E|_f; coincides with the p = 1 functional at chi_E."""
    return perimeter(mask, kernel) - weighted_volume(mask, f, kernel)


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
    vals = _as_field(u, kernel)
    if np.any(vals < 0):
        raise ValueError("coarea decomposition requires a nonnegative field")
    levels = np.unique(vals)
    levels = levels[levels > 0]
    out = []
    for t in levels:
        mask = vals >= t
        per = perimeter(mask, kernel)
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


def brute_force_cheeger(
    grid: Grid, f: LoadField, kernel: KernelSet
) -> CheegerResult:
    """Exact minimum of Per_s(A)/|A|_f over every nonempty cell subset.

    Exhaustive enumeration, vectorized in chunks of subset bitmasks. Exact
    ties are broken by the lexicographically smallest index set. Only
    affordable up to BRUTE_FORCE_CELL_CAP cells (2^N subsets).
    """
    _require_positive_load(f)
    nn = grid.ncells
    if nn > BRUTE_FORCE_CELL_CAP:
        raise ValueError(
            "too many cells for exhaustive search (%d > %d): "
            "use threshold_cheeger" % (nn, BRUTE_FORCE_CELL_CAP)
        )
    fm = f.values * kernel.m
    rowsum = kernel.w.sum(axis=1) + kernel.t
    best_h = math.inf
    best_key = None
    best_bits = 0
    total = 1 << nn
    for k0 in range(1, total, _ENUM_CHUNK):
        k1 = min(k0 + _ENUM_CHUNK, total)
        ks = np.arange(k0, k1, dtype=np.int64)
        bits = ((ks[:, None] >> np.arange(nn)) & 1).astype(float)
        vol = bits @ fm
        # cross-pair sum = sum over E of row sums minus the E-E block
        quad = np.sum((bits @ kernel.w) * bits, axis=1)
        per = bits @ rowsum - quad
        valid = vol > 0
        if not np.any(valid):
            continue
        h = np.where(valid, per / np.where(valid, vol, 1.0), math.inf)
        idx = int(np.argmin(h))
        if h[idx] < best_h:
            best_h = float(h[idx])
            best_bits = int(ks[idx])
            best_key = _bit_key(best_bits, nn)
        elif h[idx] == best_h:
            # scan the chunk's exact ties for the lexicographic winner
            for j in np.where(h == best_h)[0]:
                key = _bit_key(int(ks[j]), nn)
                if key < best_key:
                    best_key = key
                    best_bits = int(ks[j])
    if best_key is None:
        raise ValueError("weighted volume degenerate: no admissible subset")
    witness = np.array(
        [(best_bits >> i) & 1 for i in range(nn)], dtype=bool
    )
    h_exact = perimeter(witness, kernel) / weighted_volume(witness, f, kernel)
    return CheegerResult(h=h_exact, witness=witness, method="brute-force")


def _bit_key(bits: int, nn: int) -> tuple:
    return tuple(i for i in range(nn) if (bits >> i) & 1)


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


# ---------------------------------------------------------------------------
# mean-curvature diagnostic
# ---------------------------------------------------------------------------

_CURVATURE_SUBCELLS = 8  # midpoint subcells per cell side in 2-D

_FACE_DIRS = {
    1: ((1,), (-1,)),
    2: ((1, 0), (-1, 0), (0, 1), (0, -1)),
}


def _outward_face(grid: Grid, arr: np.ndarray, index: int):
    cells = {tuple(row) for row in grid.lattice[arr]}
    cell = tuple(grid.lattice[index])
    if cell not in cells:
        raise ValueError("cell is not a boundary cell of the mask")
    for d in _FACE_DIRS[grid.n]:
        nb = tuple(c + dd for c, dd in zip(cell, d))
        if nb not in cells:
            return cell, d, cells
    raise ValueError("cell is not a boundary cell of the mask")


def mean_curvature(
    grid: Grid,
    mask,
    index: int,
    s: float,
    delta: float | None = None,
) -> float:
    """Fractional mean curvature of the mask boundary at one cell's outward
    face midpoint: principal value of the (complement minus set) kernel
    integral with symmetric ball exclusion.

    1-D evaluates exact interval antiderivatives, and the value is
    independent of the exclusion radius once it is below the distance to the
    nearest other endpoint. 2-D uses a subcell midpoint sum inside a window,
    the closed-form tail outside, and Richardson extrapolation in the
    exclusion radius (exponent 1 - s). Diagnostic accuracy only.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("order s must lie in (0, 1)")
    arr = np.asarray(mask, dtype=bool)
    cell, d, cells = _outward_face(grid, arr, index)
    h = grid.h
    origin = grid.centers[0] - (grid.lattice[0] + 0.5) * h
    if grid.n == 1:
        return _curvature_1d(grid, arr, cell, d, s, delta, origin[0])
    return _curvature_2d(grid, cells, cell, d, s, delta, origin)


def _curvature_1d(grid, arr, cell, d, s, delta, origin):
    # merge cells into maximal intervals
    idx = np.sort(grid.lattice[arr][:, 0])
    intervals = []
    start = prev = idx[0]
    for k in idx[1:]:
        if k == prev + 1:
            prev = k
        else:
            intervals.append((start, prev))
            start = prev = k
    intervals.append((start, prev))
    ivals = [(origin + a * grid.h, origin + (b + 1) * grid.h) for a, b in intervals]
    x = origin + (cell[0] + (1 if d[0] > 0 else 0)) * grid.h

    endpoints = [e for ab in ivals for e in ab]
    dists = [abs(e - x) for e in endpoints if abs(e - x) > 1e-14]
    d_near = min(dists) if dists else grid.h
    if delta is None:
        delta = 0.5 * min(d_near, grid.h)
    if delta >= d_near:
        raise ValueError("exclusion radius must stay below the nearest endpoint")

    def mass_e(dl):
        total = 0.0
        for a, b in ivals:
            lo, hi = max(a, x + dl), b
            if hi > lo:
                total += ((lo - x) ** -s - (hi - x) ** -s) / s
            lo, hi = a, min(b, x - dl)
            if hi > lo:
                total += ((x - hi) ** -s - (x - lo) ** -s) / s
        return total

    return 2.0 * delta ** -s / s - 2.0 * mass_e(delta)


def _curvature_2d(grid, cells, cell, d, s, delta, origin):
    h = grid.h
    cx = origin + (np.asarray(cell) + 0.5) * h
    x = cx + 0.5 * h * np.asarray(d)

    pts = np.array(sorted(cells), dtype=float)
    centers = origin + (pts + 0.5) * h
    reach = np.sqrt(np.max(np.sum((centers - x) ** 2, axis=1)))
    L = reach + h  # window radius covering the whole set

    eta = h / _CURVATURE_SUBCELLS
    half = int(math.ceil(L / eta)) + 1
    rng = (np.arange(-half, half + 1) + 0.5) * eta
    gx, gy = np.meshgrid(x[0] + rng, x[1] + rng, indexing="ij")
    rr = np.sqrt((gx - x[0]) ** 2 + (gy - x[1]) ** 2)
    ix = np.floor((gx - origin[0]) / h).astype(np.int64)
    iy = np.floor((gy - origin[1]) / h).astype(np.int64)
    keys = np.stack([ix.ravel(), iy.ravel()], axis=1)
    in_e = np.array([tuple(k) in cells for k in keys]).reshape(rr.shape)
    sign = np.where(in_e, -1.0, 1.0)
    kernel_vals = rr ** (-2.0 - s)

    def window_sum(dl):
        sel = (rr > dl) & (rr <= L)
        return float(np.sum(sign[sel] * kernel_vals[sel])) * eta * eta

    tail = 2.0 * math.pi / (s * L ** s)
    if delta is None:
        delta = h / 2.0
    h1 = window_sum(delta) + tail
    h2 = window_sum(delta / 2.0) + tail
    gamma = 1.0 - s
    return (2.0 ** gamma * h2 - h1) / (2.0 ** gamma - 1.0)
