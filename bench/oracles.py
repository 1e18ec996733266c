"""Reference computations the benchmark checks the program against.

Everything here is written from the mathematical definitions, independently
of the fraclap modules, and runs outside every timed interval:

* the exact discrete Cheeger constant by Dinkelbach iteration over
  min-cuts (``scipy.sparse.csgraph.maximum_flow``);
* the closed-form Cheeger constant of a 1-D ball (an interval);
* the discrete energy, seminorm power and gradient of a cell field.

Kernel weights ``w`` (symmetric, zero diagonal), exterior tails ``t`` and
cell measures ``m`` come from the program; they are inputs here, not
outputs under test (the kernel has its own structural checks in run.py).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

# Largest integer capacity handed to maximum_flow; flows are int32 inside.
_CAP_LIMIT = 2 ** 30


def ball_cheeger_1d(s: float, radius: float) -> float:
    """Cheeger constant Per_s(I)/|I| of the interval (-R, R), unit load:
    2^(1-s) / (s (1-s)) * R^(-s)."""
    return 2.0 ** (1.0 - s) / (s * (1.0 - s)) * radius ** (-s)


def set_perimeter(mask, w, t) -> float:
    """Per(E) = sum_{i in E, j not in E} w_ij + sum_{i in E} t_i."""
    e = np.asarray(mask, dtype=bool)
    return float(w[np.ix_(e, ~e)].sum() + t[e].sum())


def set_ratio(mask, w, t, fm) -> float:
    e = np.asarray(mask, dtype=bool)
    return set_perimeter(e, w, t) / float(fm[e].sum())


def _min_cut_set(w, t, fm, lam):
    """Source side of a minimum s-t cut for min_E Per(E) - lam |E|_f.

    Cells on the source side form E: edge i->j (w_ij) is cut when i is in
    E and j is not, i->sink (t_i) when i is in E, source->i (lam fm_i) when
    i is not. Capacities are scaled to integers below _CAP_LIMIT in total,
    so the cut is exact up to that rounding; callers recompute ratios in
    float on the returned set.
    """
    nn = fm.size
    src, snk = nn, nn + 1
    total = float(w.sum()) + float(t.sum()) + lam * float(fm.sum())
    scale = _CAP_LIMIT / total
    ii, jj = np.nonzero(w)
    rows = np.concatenate([ii, np.full(nn, src), np.arange(nn)])
    cols = np.concatenate([jj, np.arange(nn), np.full(nn, snk)])
    caps = np.concatenate([w[ii, jj], lam * fm, t]) * scale
    caps = np.rint(caps).astype(np.int32)
    keep = caps > 0
    graph = csr_array(
        (caps[keep], (rows[keep], cols[keep])), shape=(nn + 2, nn + 2)
    )
    flow = maximum_flow(graph, src, snk).flow
    residual = graph - flow
    # source side = vertices reachable from the source in the residual graph
    residual.data[residual.data < 0] = 0
    residual.eliminate_zeros()
    seen = np.zeros(nn + 2, dtype=bool)
    seen[src] = True
    frontier = [src]
    indptr, indices = residual.indptr, residual.indices
    while frontier:
        v = frontier.pop()
        for u in indices[indptr[v]:indptr[v + 1]]:
            if not seen[u]:
                seen[u] = True
                frontier.append(u)
    return seen[:nn]


def dinkelbach_cheeger(w, t, fm, max_steps: int = 50):
    """Exact min over nonempty E of Per(E) / |E|_f, and a minimizing set.

    Dinkelbach iteration: start from the whole domain, and while a min-cut
    set beats the current ratio, move to that set's ratio. The ratios
    decrease strictly, so the loop ends on the Cheeger constant (up to the
    integer rounding of the cut capacities).
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    fm = np.asarray(fm, dtype=float)
    best = fm > 0
    lam = set_ratio(best, w, t, fm)
    for _ in range(max_steps):
        cand = _min_cut_set(w, t, fm, lam)
        if not np.any(cand & (fm > 0)):
            return lam, best
        ratio = set_ratio(cand, w, t, fm)
        if not ratio < lam:
            return lam, best
        lam, best = ratio, cand
    raise RuntimeError("Dinkelbach iteration did not settle")


class Cache:
    """Oracle values of one run, computed by its first round and read back
    by the others, so that a round process spends its time on the program.
    The file lives in the run's scratch directory and goes with it.
    ``seconds`` is the wall time this process spent computing values."""

    def __init__(self, path):
        self.path = path
        self.values = {}
        self.seconds = 0.0
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.values = json.load(fh)
        self.dirty = False

    def cheeger(self, key, w, t, fm):
        """The min-cut Cheeger constant of dinkelbach_cheeger, by key."""
        if key not in self.values:
            start = time.perf_counter()
            self.values[key] = dinkelbach_cheeger(w, t, fm)[0]
            self.seconds += time.perf_counter() - start
            self.dirty = True
        return self.values[key]

    def save(self):
        if self.dirty:
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.values, fh)
            os.replace(tmp, self.path)
            self.dirty = False


def seminorm_power(u, w, t, p: float) -> float:
    """[u]^p = sum_{i != j} w_ij |u_i - u_j|^p + 2 sum_i t_i |u_i|^p,
    summed here over the upper triangle and doubled."""
    u = np.asarray(u, dtype=float)
    iu, ju = np.triu_indices(u.size, k=1)
    pair = 2.0 * float(np.dot(w[iu, ju], np.abs(u[iu] - u[ju]) ** p))
    return pair + 2.0 * float(np.dot(t, np.abs(u) ** p))


def energy(u, w, t, fm, p: float):
    """(F(u), load) with F(u) = [u]^p / (2p) - sum f u m."""
    load = float(np.dot(fm, u))
    return seminorm_power(u, w, t, p) / (2.0 * p) - load, load


def gradient(u, w, t, fm, p: float):
    """(g, size) with g_i = sum_j w_ij phi(u_i - u_j) + t_i phi(u_i) - fm_i,
    phi(x) = sign(x) |x|^(p-1); size bounds the magnitude of the summed
    terms, so a rounding tolerance can be set relative to it."""
    u = np.asarray(u, dtype=float)
    du = u[:, None] - u[None, :]
    mag = np.abs(du) ** (p - 1.0)
    pair = np.einsum("ij,ij->i", w, np.copysign(mag, du))
    tail = t * np.copysign(np.abs(u) ** (p - 1.0), u)
    size = float(np.max(np.einsum("ij,ij->i", w, mag) + np.abs(tail) + np.abs(fm)))
    return pair + tail - fm, size
