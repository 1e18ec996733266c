"""Uniform-cell domains and singular-kernel quadrature weights.

Discretizes a bounded domain in R^n (n in {1, 2}) into congruent axis-aligned
cells and assembles the two weight families every other module consumes:

* pairwise weights  w_ij ~ integral over C_i x C_j of |x - y|^(-alpha),
* exterior tails    t_i  ~ integral over C_i x (complement of the domain).

Fields are piecewise constant per cell, so the kernel diagonal never enters
and every energy in the package reduces to finite sums against (w, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.integrate import quad

#: subcells per axis of the near-pair rule behind the pair weights w
NEAR_SUBCELLS = 4

#: boundary measure of the unit sphere, indexed by dimension
OMEGA_N = {1: 2.0, 2: 2.0 * math.pi}

#: volume of the unit ball, indexed by dimension
BALL_VOLUME = {1: 2.0, 2: math.pi}


def kernel_exponent(n: int, s: float, p: float) -> float:
    """Kernel exponent alpha = (n + s) * p used by the order-(s_p, p) energy.

    Single source for the exponent so that the identity
    n + s_p * p = (n + s) * p cannot drift between modules.
    """
    return (n + s) * p


def max_admissible_p(n: int, s: float) -> float:
    """Upper bound on p so that the kernel exponent stays below n + 1.

    Equivalent to s_p * p < 1 with s_p = n + s - n/p.
    """
    return (n + 1.0) / (n + s)


def validate_exponent(n: int, alpha: float) -> None:
    if not (n < alpha < n + 1):
        raise ValueError(
            "kernel exponent out of admissible range: alpha=%r not in (%d, %d)"
            % (alpha, n, n + 1)
        )


@dataclass(frozen=True)
class DomainSpec:
    """Shape descriptor plus grid resolution.

    shape and params:
      * "interval": params = (a, b), n = 1
      * "box":      params = (a1, b1) for n = 1 or (ax, ay, bx, by) for n = 2
      * "ball":     params = (c, R) for n = 1 or (cx, cy, R) for n = 2
      * "union":    params = tuple of box param tuples (axis-aligned boxes)

    The domain is snapped to the cell lattice: box widths round to integer
    multiples of h, ball shapes keep the cells whose centers lie inside.
    """

    n: int
    shape: str
    params: tuple
    h: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2, got %r" % (self.n,))
        if self.h <= 0:
            raise ValueError("resolution h must be positive")
        if self.shape not in ("interval", "box", "ball", "union"):
            raise ValueError("unknown shape %r" % (self.shape,))


def _flatten(params):
    out = []
    for v in params:
        if isinstance(v, (tuple, list)):
            out.extend(_flatten(v))
        else:
            out.append(v)
    return out


@dataclass(frozen=True)
class Grid:
    """Cells of a snapped domain, in lexicographic coordinate order."""

    n: int
    h: float
    centers: np.ndarray  # (N, n) cell centers
    lattice: np.ndarray  # (N, n) integer cell coordinates, min per axis is 0
    measure: float  # |Omega| = N * h^n
    diam: float  # diameter bound (bounding-box diagonal)
    r_out: float  # exterior-quadrature split radius

    @property
    def ncells(self) -> int:
        return self.centers.shape[0]

    @property
    def cell_measure(self) -> float:
        return self.h ** self.n

    @property
    def m(self) -> np.ndarray:
        """Per-cell measures m_i = h^n."""
        return np.full(self.ncells, self.cell_measure)


@dataclass(frozen=True)
class KernelSet:
    """Quadrature weights for one kernel exponent on one grid.

    w is symmetric with zero diagonal; t is strictly positive. m carries the
    cell measures so downstream energy code needs no separate grid handle.
    """

    exponent: float
    n: int
    h: float
    w: np.ndarray  # (N, N) pairwise weights
    t: np.ndarray  # (N,) exterior tails
    m: np.ndarray  # (N,) cell measures


def build_grid(spec: DomainSpec) -> Grid:
    """Tile the snapped domain with cells of side spec.h.

    Cells are ordered lexicographically by coordinates, which fixes every
    downstream reduction order and tie-break.
    """
    h = float(spec.h)
    if spec.shape == "interval":
        if spec.n != 1:
            raise ValueError("interval shape requires n=1")
        a, b = map(float, spec.params)
        lat = _box_lattice((a,), (b,), h)
        anchor = (a,)
    elif spec.shape == "box":
        lo, hi = _box_corners(spec.n, spec.params)
        lat = _box_lattice(lo, hi, h)
        anchor = lo
    elif spec.shape == "ball":
        *c, radius = map(float, spec.params)
        if len(c) != spec.n:
            raise ValueError("ball params must be (center..., R)")
        if radius <= 0:
            raise ValueError("degenerate domain: ball radius must be positive")
        lo = tuple(ci - radius for ci in c)
        hi = tuple(ci + radius for ci in c)
        lat = _box_lattice(lo, hi, h)
        centers = lat * h + np.asarray(lo) + 0.5 * h
        inside = np.sum((centers - np.asarray(c)) ** 2, axis=1) < radius ** 2
        lat = lat[inside]
        anchor = lo
    elif spec.shape == "union":
        boxes = [_box_corners(spec.n, bp) for bp in spec.params]
        if not boxes:
            raise ValueError("degenerate domain: empty union")
        anchor = tuple(min(b[0][k] for b in boxes) for k in range(spec.n))
        seen = set()
        rows = []
        for lo, hi in boxes:
            # boxes snap onto the shared lattice anchored at the union corner
            off = tuple(
                int(round((lo[k] - anchor[k]) / h)) for k in range(spec.n)
            )
            lat_b = _box_lattice(lo, hi, h)
            for row in lat_b:
                cell = tuple(int(v) + off[k] for k, v in enumerate(row))
                if cell not in seen:
                    seen.add(cell)
                    rows.append(cell)
        lat = np.array(sorted(rows), dtype=np.int64).reshape(len(rows), spec.n)
    else:  # pragma: no cover - rejected in DomainSpec
        raise ValueError(spec.shape)

    if lat.size == 0:
        raise ValueError("degenerate domain: no cells after snapping")

    lat = lat - lat.min(axis=0)
    order = np.lexsort(tuple(lat[:, k] for k in reversed(range(spec.n))))
    lat = lat[order]
    origin = np.asarray(anchor, dtype=float)
    centers = origin + (lat + 0.5) * h

    ncells = lat.shape[0]
    measure = ncells * h ** spec.n
    extent = (lat.max(axis=0) - lat.min(axis=0) + 1) * h
    diam = float(np.sqrt(np.sum(extent ** 2)))
    centroid = centers.mean(axis=0)
    r_far = float(np.sqrt(np.max(np.sum((centers - centroid) ** 2, axis=1))))
    return Grid(
        n=spec.n,
        h=h,
        centers=centers,
        lattice=lat,
        measure=measure,
        diam=diam,
        r_out=r_far + 2.0 * diam,
    )


def _box_corners(n, params):
    vals = list(map(float, _flatten(params)))
    if len(vals) != 2 * n:
        raise ValueError("box params must list %d corner coordinates" % (2 * n))
    lo = tuple(vals[:n])
    hi = tuple(vals[n:])
    if any(hi[k] <= lo[k] for k in range(n)):
        raise ValueError("degenerate domain: box has nonpositive extent")
    return lo, hi


def _box_lattice(lo, hi, h):
    counts = [max(1, int(round((hi[k] - lo[k]) / h))) for k in range(len(lo))]
    ranges = [np.arange(c, dtype=np.int64) for c in counts]
    if len(counts) == 1:
        return ranges[0][:, None]
    gx, gy = np.meshgrid(ranges[0], ranges[1], indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


# ---------------------------------------------------------------------------
# exact cell-pair integrals (unit cells, integer center offset)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _k1d_exact(k: int, alpha: float) -> float:
    """Integral of |x - y|^(-alpha) over [0,1] x [k, k+1], k >= 1.

    Closed form from the antiderivative t^(2-alpha)/((1-alpha)(2-alpha));
    finite for alpha in (1, 2) because 2 - alpha > 0.
    """

    def phi2(t):
        return t ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))

    return phi2(k + 1.0) - 2.0 * phi2(float(k)) + phi2(k - 1.0)


@lru_cache(maxsize=None)
def _k2d_exact(a: int, b: int, alpha: float) -> float:
    """Integral of |x - y|^(-alpha) over unit squares at center offset (a, b).

    Reduces to integral of tri(z1 - a) * tri(z2 - b) * |z|^(-alpha) with
    tri(t) = max(0, 1 - |t|). In polar coordinates the tent product is
    piecewise quadratic in r, so the radial integral is closed form; the
    angular integral is smooth between lattice-corner directions and is done
    panel by panel with adaptive quadrature. Valid for alpha in (2, 3).
    """
    a, b = abs(int(a)), abs(int(b))
    if a < b:
        a, b = b, a
    if (a, b) == (0, 0):
        raise ValueError("coincident cells have no pair weight")

    xs = (a - 1.0, float(a), a + 1.0)
    ys = (b - 1.0, float(b), b + 1.0)
    corner_angles = set()
    for cx, cy in product(xs, ys):
        if cx == 0.0 and cy == 0.0:
            continue
        corner_angles.add(math.atan2(cy, cx))
    lo_corners = [
        math.atan2(cy, cx)
        for cx, cy in product((xs[0], xs[2]), (ys[0], ys[2]))
        if (cx, cy) != (0.0, 0.0)
    ]
    th_lo, th_hi = min(lo_corners), max(lo_corners)
    cuts = sorted(t for t in corner_angles if th_lo < t < th_hi)
    panels = [th_lo] + cuts + [th_hi]

    e2, e3, e4 = 2.0 - alpha, 3.0 - alpha, 4.0 - alpha

    def radial(theta):
        c, s = math.cos(theta), math.sin(theta)
        lo1, hi1 = _ray_window(c, xs[0], xs[2])
        lo2, hi2 = _ray_window(s, ys[0], ys[2])
        r_lo, r_hi = max(lo1, lo2), min(hi1, hi2)
        if not (r_hi > r_lo):
            return 0.0
        brk = {r_lo, r_hi}
        for grid_vals, comp in ((xs, c), (ys, s)):
            if abs(comp) > 1e-14:
                for v in grid_vals:
                    r = v / comp
                    if r_lo < r < r_hi:
                        brk.add(r)
        rs = sorted(brk)
        total = 0.0
        for ra, rb in zip(rs[:-1], rs[1:]):
            rm = 0.5 * (ra + rb)
            s1 = 1.0 if rm * c >= a else -1.0
            s2 = 1.0 if rm * s >= b else -1.0
            # tri(x - a) = (1 + s1*a) - s1*c*r on this piece, same for y
            pc, qc = 1.0 + s1 * a, -s1 * c
            rc, sc = 1.0 + s2 * b, -s2 * s
            A = pc * rc
            B = pc * sc + qc * rc
            C = qc * sc
            if ra == 0.0:
                # touching offsets start with A = 0 exactly, so the
                # negative-exponent term vanishes instead of diverging
                total += B * rb ** e3 / e3 + C * rb ** e4 / e4
            else:
                total += (
                    A * (rb ** e2 - ra ** e2) / e2
                    + B * (rb ** e3 - ra ** e3) / e3
                    + C * (rb ** e4 - ra ** e4) / e4
                )
        return total

    value = 0.0
    for t0, t1 in zip(panels[:-1], panels[1:]):
        if t1 - t0 < 1e-15:
            continue
        part, _ = quad(radial, t0, t1, epsabs=1e-13, epsrel=1e-11, limit=200)
        value += part
    return value


def _ray_window(comp, lo, hi):
    """r-interval where r*comp lies in (lo, hi), restricted to r > 0."""
    if comp > 1e-14:
        return (max(lo, 0.0) / comp, hi / comp) if hi > 0 else (0.0, -1.0)
    if comp < -1e-14:
        return (max(-hi, 0.0) / -comp, lo / comp) if lo < 0 else (0.0, -1.0)
    if lo < 0.0 < hi:
        return 0.0, math.inf
    return 0.0, -1.0


def _exact_pair_unit(offset, alpha, n):
    if n == 1:
        return _k1d_exact(abs(int(offset[0])), alpha)
    return _k2d_exact(offset[0], offset[1], alpha)


@lru_cache(maxsize=None)
def _hybrid_pair_unit(offset, alpha, subcells, n):
    """Near-pair value on unit cells: subcells^n subcells per cell, midpoint
    rule per subcell pair, except touching subcell pairs (sup-norm offset 1)
    which use the exact integral. Scaled by the caller for cell side h."""
    r = int(subcells)
    d = 1.0 / r
    axes = []
    for ka in offset:
        orng = np.arange(ka * r - (r - 1), ka * r + r, dtype=np.int64)
        cnt = r - np.abs(orng - ka * r)
        axes.append((orng, cnt))
    if n == 1:
        orng, cnt = axes[0]
        vals = np.abs(orng).astype(float) ** (-alpha)
        touching = np.abs(orng) == 1
        if np.any(touching):
            vals[touching] = _k1d_exact(1, alpha)
        return d ** (2 * n - alpha) * float(np.sum(cnt * vals))
    (o1, c1), (o2, c2) = axes
    O1, O2 = np.meshgrid(o1, o2, indexing="ij")
    CNT = np.outer(c1, c2).astype(float)
    d2 = (O1 * O1 + O2 * O2).astype(float)
    vals = d2 ** (-alpha / 2.0)
    sup = np.maximum(np.abs(O1), np.abs(O2))
    for oa, ob in ((1, 0), (1, 1)):
        mask = (sup == 1) & (np.minimum(np.abs(O1), np.abs(O2)) == ob)
        if np.any(mask):
            vals[mask] = _k2d_exact(oa, ob, alpha)
    return d ** (2 * n - alpha) * float(np.sum(CNT * vals))


def _near_offsets(n):
    """Canonical integer offsets with Euclidean norm <= 3, keyed by |k|^2.

    Within this range the squared norm identifies the offset class uniquely.
    """
    if n == 1:
        return {k * k: (k,) for k in (1, 2, 3)}
    table = {}
    for a in range(0, 4):
        for b in range(0, a + 1):
            d2 = a * a + b * b
            if 0 < d2 <= 9:
                table[d2] = (a, b)
    return table




# ---------------------------------------------------------------------------
# weight assembly
# ---------------------------------------------------------------------------


def build_kernel(grid: Grid, exponent: float) -> KernelSet:
    """Pairwise weights w and exterior tails t in one pass.

    Let kv(k) be the per-offset pair value: the exact integral for center
    distance |k| <= 3, the midpoint value beyond. With S the sum of kv over
    every nonzero lattice offset with center distance below R_snap (the
    grid's r_out snapped to a cell boundary), the tails follow from the
    translation-invariant lattice identity

        t_i = S - sum_j kv(offset_ij) + m_i * omega_n / (sigma * R_snap^sigma)

    which equals the complement-shell sum plus the closed-form far field
    without enumerating complement cells per i. Both terms use the same kv
    table, so interior cells with small tails lose nothing to cancellation.

    The pair weights w share the midpoint far values of kv; their near
    values use the subcell rule of _hybrid_pair_unit at NEAR_SUBCELLS.
    """
    validate_exponent(grid.n, exponent)
    alpha = float(exponent)
    h = grid.h
    n = grid.n
    sigma = alpha - n
    kmax = int(math.floor(grid.r_out / h))
    r_snap = (kmax + 0.5) * h

    scale = h ** (2 * n - alpha)
    offsets = _near_offsets(n)
    near = {dd: scale * _exact_pair_unit(off, alpha, n) for dd, off in offsets.items()}

    # universal lattice sum over 0 < |k*h| < R_snap
    if n == 1:
        ks = np.arange(1, kmax + 1, dtype=float)
        vals = scale * ks ** (-alpha)
        for dd, v in near.items():
            idx = int(math.isqrt(dd)) - 1
            if idx < vals.shape[0]:
                vals[idx] = v
        lattice_sum = 2.0 * float(np.sum(vals))
    else:
        rng = np.arange(-kmax, kmax + 1, dtype=np.int64)
        o1, o2 = np.meshgrid(rng, rng, indexing="ij")
        dd2 = o1 * o1 + o2 * o2
        keep = (dd2 > 0) & (dd2 <= kmax * kmax + kmax)
        dvals = dd2[keep].astype(float)
        vals = scale * dvals ** (-alpha / 2.0)
        for dd, v in near.items():
            vals[dvals == float(dd)] = v
        lattice_sum = float(np.sum(vals))

    # w first holds kv for the in-domain pairs; its row sums give the tails
    d2 = _int_dist2(grid.lattice)
    w = np.zeros(d2.shape)
    far = d2 > 9
    w[far] = scale * d2[far].astype(float) ** (-alpha / 2.0)
    near_idx = {dd: np.flatnonzero(d2 == dd) for dd in offsets}
    for dd, idx in near_idx.items():
        w.flat[idx] = near[dd]

    tail = grid.cell_measure * OMEGA_N[n] / (sigma * r_snap ** sigma)
    t = lattice_sum - w.sum(axis=1) + tail
    if np.any(t <= 0):
        raise ValueError("exterior weights must be positive; grid too coarse")

    # then the near pairs take the subcell rule
    for dd, idx in near_idx.items():
        w.flat[idx] = scale * _hybrid_pair_unit(offsets[dd], alpha, NEAR_SUBCELLS, n)
    return KernelSet(exponent=alpha, n=n, h=h, w=w, t=t, m=grid.m)


def _int_dist2(lat: np.ndarray) -> np.ndarray:
    """Squared integer center distances, accumulated one axis at a time."""
    d2 = np.zeros((lat.shape[0], lat.shape[0]), dtype=np.int64)
    for col in lat.T.astype(np.int64):
        diff = np.subtract.outer(col, col)
        diff *= diff
        d2 += diff
    return d2
