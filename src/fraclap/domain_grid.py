"""Uniform-cell domains and singular-kernel quadrature weights.

Discretizes a bounded domain in R^n (n in {1, 2}) into congruent axis-aligned
cells and assembles the two weight families every other module consumes:

* pairwise weights  w_ij ~ integral over C_i x C_j of |x - y|^(-alpha),
* exterior tails    t_i  ~ integral over C_i x (complement of the domain).

Fields are piecewise constant per cell, so the kernel diagonal never enters
and every energy in the package reduces to finite sums against (w, t).

The exact 2-D near integrals, and constants' C_{n,s,p}, run QUADPACK's
qagse (_quadrature), the routine scipy.integrate.quad calls on a finite
interval, with quad's bits and without importing scipy.integrate. Its
compiled module loads with the first integral, never at import, through
_scipy_extension, the one loader of scipy's compiled modules (the
solver's LAPACK wrapper and certify's HiGHS too): once per process, and
registered under its full name.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np
import scipy  # its _distributor_init may set up the libraries its extensions link

#: subcells per axis of the near-pair rule behind the pair weights w
NEAR_SUBCELLS = 4

#: row-block height of the kernel assembly: one block of int64 offset
#: indices and its near-entry mask is all the scratch beside w
_KERNEL_ROWS = 128

#: dense working set of a command, in N x N float64 arrays: the peak-RSS
#: rise over the imported interpreter on the 32 x 32 box (N = 1024) was
#: 3.8 N^2 * 8 bytes for solve, 4.1 for certify, 4.8 for a one-p sweep and
#: 2.3 for cheeger --field
_DENSE_ARRAYS = 5

#: peak bytes per entry of the per-offset stages of the kernel assembly,
#: measured with tracemalloc: the exterior lattice sum holds 16 per offset
#: in 1-D and 38.4 per (2 kmax + 1)^2 offset in 2-D, and the per-offset
#: value tables 41 (1-D) and 49 (2-D) per entry
_LATTICE_BYTES = {1: 16, 2: 40}
_TABLE_BYTES = 50

#: boundary measure of the unit sphere, indexed by dimension
OMEGA_N = {1: 2.0, 2: 2.0 * math.pi}

#: volume of the unit ball, indexed by dimension
BALL_VOLUME = {1: 2.0, 2: math.pi}


_EXTENSION_LOCK = threading.Lock()


def _scipy_extension(name):
    """scipy's compiled module of full dotted name `name`, such as
    "scipy.linalg._flapack", initialized once per process and without
    importing its public subpackage (scipy.linalg).

    A second initialization doubles the module's memory, and for a
    pybind11 module raises ImportError ("... already registered"). So the
    module loads under its full name, one thread at a time, into
    sys.modules, where a later import of the subpackage finds it. A
    process that imported the subpackage first hands out that copy; an
    import of it under way in another thread is waited for, since
    import_module takes its module lock.
    """
    with _EXTENSION_LOCK:
        package = ".".join(name.split(".")[:2])
        if package in sys.modules:
            importlib.import_module(package)
        mod = sys.modules.get(name)
        if mod is None:
            spec = importlib.machinery.PathFinder.find_spec(
                name,
                [os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:-1])],
            )
            if spec is None:
                raise ImportError("fraclap needs scipy's compiled modules: scipy %s at "
                                  "%s has no extension %s"
                                  % (scipy.__version__, scipy.__file__, name))
            mod = importlib.util.module_from_spec(spec)
            sys.modules[name] = mod
            try:
                spec.loader.exec_module(mod)
            except BaseException:
                del sys.modules[name]
                raise
        return mod


_QUADPACK = "scipy.integrate._quadpack"

#: what a nonzero ier of QUADPACK's qagse means (Piessens et al., QUADPACK,
#: Springer 1983); 6, invalid input, raises instead
_QAGSE_IER = {
    1: "the maximum number of subdivisions was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "the integrand behaves extremely badly at some points",
    4: "roundoff error in the extrapolation table prevents convergence",
    5: "the integral is probably divergent, or slowly convergent",
}


@lru_cache(maxsize=None)
def _quadpack():
    """scipy's QUADPACK extension, scipy/integrate/_quadpack, from
    _scipy_extension: loaded once per process without importing
    scipy.integrate, or scipy.integrate's own copy where that came first."""
    mod = _scipy_extension(_QUADPACK)
    if not hasattr(mod, "_qagse"):
        raise ImportError("fraclap needs scipy's QUADPACK: scipy %s at %s has "
                          "no _qagse in %s" % (scipy.__version__, scipy.__file__, _QUADPACK))
    return mod


def _quadrature(func, a, b, epsabs, epsrel, limit):
    """(value, error estimate) of the integral of func over finite a < b:
    quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit) bit for
    bit, through the qagse call quad makes there. As in quad, an ier of 6
    (invalid input) raises ValueError, and any other nonzero ier warns and
    returns the value."""
    value, abserr, ier = _quadpack()._qagse(func, a, b, (), 0, epsabs, epsrel, limit)
    if ier == 6:
        raise ValueError("QUADPACK qagse rejected its input: limit must be at least 1, "
                         "and epsrel above 50 machine epsilons where epsabs <= 0")
    if ier != 0:
        warnings.warn("QUADPACK qagse returned ier = %d: %s"
                      % (ier, _QAGSE_IER.get(ier, "unknown error")), stacklevel=2)
    return value, abserr


def kernel_exponent(n: int, s: float, p: float) -> float:
    """Kernel exponent alpha = (n + s) * p used by the order-(s_p, p) energy.

    Single source for the exponent so that the identity
    n + s_p * p = (n + s) * p cannot drift between modules.
    """
    return (n + s) * p


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
      * "union":    params = box params one after another, 2n coordinates
                    per box (nested box tuples flatten to the same list)

    One snapping rule serves every shape. Each shape is a list of boxes: an
    interval or a box is one, a union is its boxes, and a ball is its
    bounding box [c - R, c + R]^n. A box of width w along an axis has
    max(1, round(w / h)) cells there, and its lower corner lo snaps onto the
    lattice anchored at the lowest corner of all the boxes, round((lo -
    anchor) / h) cells from it (round is Python's, half to even). Cells
    that boxes share count once. A ball keeps the cells of its bounding
    box whose centers lie strictly inside it.
    """

    n: int
    shape: str
    params: tuple
    h: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2, got %r" % (self.n,))
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("resolution h must be positive and finite")
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
    lattice: np.ndarray  # (N, n) int64 cell coordinates, min per axis is 0
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

    Every shape is snapped as a list of boxes, by the rule in DomainSpec.
    Cells are ordered lexicographically by coordinates, which fixes every
    downstream reduction order and tie-break.
    """
    h = float(spec.h)
    if spec.shape == "ball":
        *c, radius = map(float, spec.params)
        if len(c) != spec.n:
            raise ValueError("ball params must be (center..., R)")
        if not all(map(math.isfinite, (*c, radius))):
            raise ValueError("ball center and radius must be finite")
        if radius <= 0:
            raise ValueError("degenerate domain: ball radius must be positive")
        boxes = [(tuple(ci - radius for ci in c), tuple(ci + radius for ci in c))]
    elif spec.shape == "union":
        vals = _flatten(spec.params)
        step = 2 * spec.n
        if not vals or len(vals) % step:
            raise ValueError(
                "union params must list %d corner coordinates per box, got %d"
                % (step, len(vals))
            )
        boxes = [
            _box_corners(spec.n, vals[k:k + step])
            for k in range(0, len(vals), step)
        ]
    else:
        if spec.shape == "interval" and spec.n != 1:
            raise ValueError("interval shape requires n=1")
        boxes = [_box_corners(spec.n, spec.params)]

    anchor = tuple(min(lo[k] for lo, _ in boxes) for k in range(spec.n))
    lat = np.concatenate([
        _box_lattice(lo, hi, h) + _box_shift(lo, anchor, h) for lo, hi in boxes
    ])
    if spec.shape == "ball":
        centers = lat * h + np.asarray(anchor) + 0.5 * h
        lat = lat[np.sum((centers - np.asarray(c)) ** 2, axis=1) < radius ** 2]
    if lat.size == 0:
        raise ValueError("degenerate domain: no cells after snapping")

    lat = lat - lat.min(axis=0)
    lat = lat[np.lexsort(lat.T[::-1])]
    # cells of overlapping boxes count once
    lat = lat[np.r_[True, np.any(lat[1:] != lat[:-1], axis=1)]]
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
    if not all(map(math.isfinite, vals)):
        raise ValueError("box corner coordinates must be finite")
    lo = tuple(vals[:n])
    hi = tuple(vals[n:])
    if any(hi[k] <= lo[k] for k in range(n)):
        raise ValueError("degenerate domain: box has nonpositive extent")
    return lo, hi


def _box_lattice(lo, hi, h):
    """Integer cell coordinates of a box, one row per cell; a box whose
    cells could not be held is rejected before any of them exists."""
    counts = [(b - a) / h for a, b in zip(lo, hi)]
    if not all(map(math.isfinite, counts)):
        raise ValueError(
            "resolution h=%r is too fine: the box from %r to %r has no finite "
            "cell count" % (h, lo, hi)
        )
    counts = [max(1, int(round(c))) for c in counts]
    _check_dense_fits(math.prod(counts))
    axes = np.meshgrid(*(np.arange(c, dtype=np.int64) for c in counts), indexing="ij")
    return np.stack([ax.ravel() for ax in axes], axis=1)


def _box_shift(lo, anchor, h):
    """int64 lattice offset of a box's lower corner from the anchor. An
    offset past int64 would turn the lattice into floats, whose far cells
    round together, so it is rejected; below 2^62 the box's own cells,
    whose count _check_dense_fits has bounded, still fit."""
    shift = [(a - b) / h for a, b in zip(lo, anchor)]
    if not all(0.0 <= v < 2.0 ** 62 for v in shift):
        raise ValueError(
            "a box at %r lies %r cells of side %r from the lowest corner %r, "
            "beyond the int64 cell lattice" % (lo, max(shift), h, anchor)
        )
    return np.array([int(round(v)) for v in shift], dtype=np.int64)


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
        part, _ = _quadrature(radial, t0, t1, 1e-13, 1e-11, 200)
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
    """Exact pair integral of unit cells at an integer center offset."""
    if n == 1:
        return _k1d_exact(abs(int(offset[0])), alpha)
    return _k2d_exact(offset[0], offset[1], alpha)


@lru_cache(maxsize=None)
def _hybrid_pair_unit(offset, alpha, subcells, n):
    """Near-pair value on unit cells: subcells^n subcells per cell, midpoint
    rule per subcell pair, except touching subcell pairs (sup-norm offset 1)
    which use the exact integral. Scaled by the caller for cell side h.

    Along each axis the subcell offsets of two cells at offset k run over
    k*r + span with r - |span| pairs each, span = -(r-1) ... r-1; the
    counts of an n-D offset multiply across axes.
    """
    r = int(subcells)
    d = 1.0 / r
    span = np.arange(1 - r, r, dtype=np.int64)
    grids = np.meshgrid(*(k * r + span for k in offset), indexing="ij")
    count = reduce(np.multiply.outer, [r - np.abs(span)] * n)
    vals = sum(g * g for g in grids).astype(float) ** (-alpha / 2.0)
    sizes = np.abs(np.stack(grids, axis=-1))
    for idx in zip(*np.nonzero(sizes.max(axis=-1) == 1)):
        # sorted sizes name each touching class once in the exact caches
        touch = sorted(sizes[idx].tolist(), reverse=True)
        vals[idx] = _exact_pair_unit(touch, alpha, n)
    return d ** (2 * n - alpha) * float(np.sum(count * vals))


def _near_offsets(n):
    """Canonical integer offsets (descending absolute coordinates) with
    Euclidean norm <= 3, keyed by |k|^2 in ascending order.

    Within this range the squared norm identifies the offset class uniquely.
    """
    return dict(sorted(
        (sum(k * k for k in off), off)
        for off in product(range(4), repeat=n)
        if list(off) == sorted(off, reverse=True)
        and 0 < sum(k * k for k in off) <= 9
    ))


# ---------------------------------------------------------------------------
# weight assembly
# ---------------------------------------------------------------------------


def _check_memory(need, subject: str, detail: str) -> None:
    """Reject a working set of need bytes beyond physical memory, saying
    "<subject> about <need> GB <detail>"; pass where sysconf cannot tell."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError):  # no sysconf on this platform
        return
    if need > have:
        # a need too large for a float still gets a message
        gb = need / 1e9 if need < 1e300 else math.inf
        raise ValueError(
            "%s about %.3g GB %s, more than the %.3g GB of physical memory"
            % (subject, gb, detail, have / 1e9)
        )


def _check_dense_fits(ncells: int) -> None:
    """Reject a grid whose dense working set exceeds physical memory."""
    _check_memory(
        _DENSE_ARRAYS * ncells * ncells * 8, "%d cells need" % ncells,
        "of dense pair arrays (%d x N^2 x 8 bytes)" % _DENSE_ARRAYS,
    )


def _check_offsets_fit(n: int, kmax: int, hi) -> None:
    """Reject a domain whose per-offset stages exceed physical memory.

    The exterior lattice sum runs over every offset within kmax cells and
    the value tables over every offset within the bounding box, -hi_k ...
    hi_k on axis k. Both follow the domain's spread, not its cell count, so two cells
    far apart would pass _check_dense_fits and still need gigabytes here.
    """
    lattice = kmax if n == 1 else (2 * kmax + 1) ** n
    table = math.prod(2 * int(k) + 1 for k in hi)
    _check_memory(
        max(_LATTICE_BYTES[n] * lattice, _TABLE_BYTES * table),
        "a domain whose bounding box spans %s cells needs"
        % " x ".join(str(int(k) + 1) for k in hi),
        "for its exterior lattice sum (%d cells out) and its per-offset "
        "tables" % kmax,
    )


def build_kernel(grid: Grid, exponent: float) -> KernelSet:
    """Pairwise weights w and exterior tails t in one pass over row blocks.

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

    Cells are congruent, so every weight depends only on the lattice offset
    of its pair. kv and tw (kv with the subcell values in its near slots)
    are tables over the offsets of the grid's bounding box, -hi_k ... hi_k
    on axis k, in mixed radix. A cell's key is its lattice point in the
    same radix, so a block's table indices are one int64 difference of
    keys; the block takes its entries from kv, its row sums for the tails,
    and then its near entries from tw. Each table value comes from the
    float input and expression of the entry in a full N x N fill, so w and
    t keep that fill's bits.
    """
    validate_exponent(grid.n, exponent)
    _check_dense_fits(grid.ncells)
    alpha = float(exponent)
    h = grid.h
    n = grid.n
    sigma = alpha - n
    kmax = int(math.floor(grid.r_out / h))
    r_snap = (kmax + 0.5) * h
    lat = grid.lattice.astype(np.int64)
    hi = lat.max(axis=0)
    _check_offsets_fit(n, kmax, hi)

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

    # per-offset value tables over the bounding box, in mixed radix
    axes = np.meshgrid(
        *(np.arange(-k, k + 1, dtype=np.int64) for k in hi), indexing="ij"
    )
    d2 = sum(ax * ax for ax in axes).ravel()
    kv = np.zeros(d2.shape)
    far = d2 > 9
    kv[far] = scale * d2[far].astype(float) ** (-alpha / 2.0)
    tw = kv.copy()
    for dd, off in offsets.items():
        slots = d2 == dd
        kv[slots] = near[dd]
        tw[slots] = scale * _hybrid_pair_unit(off, alpha, NEAR_SUBCELLS, n)
    is_near = (d2 > 0) & ~far
    radix = np.cumprod(np.r_[1, 2 * hi[:0:-1] + 1])[::-1]
    keys = lat @ radix
    origin = int(hi @ radix)  # the table slot of offset zero

    ncells = grid.ncells
    w = np.empty((ncells, ncells))
    kv_sums = np.empty(ncells)
    for r0 in range(0, ncells, _KERNEL_ROWS):
        r1 = min(r0 + _KERNEL_ROWS, ncells)
        idx = np.subtract.outer(keys[r0:r1] + origin, keys)
        blk = w[r0:r1]
        np.take(kv, idx, out=blk, mode="clip")  # "raise" would buffer out
        kv_sums[r0:r1] = blk.sum(axis=1)
        sel = np.flatnonzero(is_near.take(idx))
        blk.flat[sel] = tw.take(idx.flat[sel])

    tail = grid.cell_measure * OMEGA_N[n] / (sigma * r_snap ** sigma)
    t = lattice_sum - kv_sums + tail
    if np.any(t <= 0):
        raise ValueError("exterior weights must be positive; grid too coarse")
    return KernelSet(exponent=alpha, n=n, h=h, w=w, t=t, m=grid.m)
