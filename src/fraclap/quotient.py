"""Cell partitions: the symmetry orbits of a problem, and sums over the
parts of any partition.

A partition groups the cells into runs of near-equal keys, labelled
0 .. nq - 1: the solver's snaps, the coarea levels and the certificate's
tie parts are runs of a field's values, the orbits runs of their labels.
The part-pair sums of w, W_ab = sum_{i in a, j in b} w_ij, and the
per-part sums of a cell array restrict the pair functionals to fields
that are constant on each part; the solver's orbit quotient
(Partition.restrict) and the coarea perimeters read them from one body.

orbits finds the partition the solver runs on: the orbits of the lattice
reflections (in 2-D also the axis swap) that map the cells onto themselves
and fix the load, w and m bit for bit and t within its rounding
(_symmetry_maps). For p > 1 the functional is strictly convex and
invariant under each kept map, so its unique minimizer is constant on
each orbit (Palais, "The principle of symmetric criticality", Comm. Math.
Phys. 69, 1979), where restrict gives the functional exactly.

pairwise_depth bounds the roundings of numpy's sums; the rounding bounds
of the symmetry maps, the solver's line search and the coarea perimeters
rest on it.
"""

from __future__ import annotations

import functools

import numpy as np

from fraclap.domain_grid import KernelSet
from fraclap.energy import LoadField

_BLOCK = 1 << 17  # entries of an N x N array per row block of a pass
_ORBIT_ROWS = 128  # cells per row block of the symmetry checks


@functools.cache
def pairwise_depth(n):
    """The most roundings any entry meets in numpy's pairwise sum of n
    contiguous entries. Above 128 entries the sum splits into its first
    n2 entries, n2 = n // 2 rounded down to a multiple of 8, and the other
    n - n2, and adds the two part sums; either part can be the deeper, so
    both are followed. A leaf of at most 128 entries takes eight
    accumulators of up to 15 adds each, a 3-level tree joining them and up
    to 7 trailing entries added one by one; below 8 entries the leaf adds
    them one by one. Each level of the split holds only a few distinct
    sizes, so with the cache a large n costs O(log n) calls."""
    if n < 8:
        return n
    if n <= 128:
        return n // 8 + 2 + n % 8
    n2 = n // 2 - (n // 2) % 8
    return 1 + max(pairwise_depth(n2), pairwise_depth(n - n2))


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def first_seen(keys):
    """(label, first): label[i] numbers keys[i] among the distinct keys in
    the order they first occur, at the ascending indices first."""
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inv], first[order]


class Partition:
    """The cells grouped into runs of near-equal keys: sorted by key (a
    stable sort, first by within's part when given), a new part starts
    wherever the key steps by more than tol or within's part changes, and
    the parts are numbered in that order. Part a holds the cells
    order[starts[a]:starts[a] + size[a]]; label[i] is cell i's part. At
    tol = 0 a part is one value (-0.0 with 0.0, as in np.unique), its cells
    in ascending index, and an integer label 0 .. nq - 1 is its own
    numbering."""

    def __init__(self, key, tol=0.0, within=None):
        key = np.asarray(key)
        if within is None:
            self.order = order = np.argsort(key, kind="stable")
            ks = key[order]
            new = ks[1:] - ks[:-1] > tol
        else:
            self.order = order = np.lexsort((key, within.label))
            ks, outer = key[order], within.label[order]
            new = (ks[1:] - ks[:-1] > tol) | (outer[1:] != outer[:-1])
        new = np.concatenate(([True], new))[:key.size]
        self.starts = starts = np.flatnonzero(new)
        self.size = np.append(starts[1:], key.size) - starts
        self.label = np.empty(key.size, dtype=np.intp)
        self.label[order] = new.cumsum() - 1

    def sums(self, x):
        """Per-part sums of a cell array."""
        return np.add.reduceat(x[self.order], self.starts)

    def spread(self, x):
        """max - min of a cell array over each part."""
        xs = x[self.order]
        return np.maximum.reduceat(xs, self.starts) - np.minimum.reduceat(xs, self.starts)

    def expand(self, v):
        """The cell field that is v_a on every cell of part a."""
        return v[self.label]

    def lower_rows(self, w):
        """The part-pair sums of a bitwise symmetric w up to the diagonal,
        one block of whole parts at a time: yields (b0, rows) with
        rows[r, c] = W_{b0 + r, c} for the block's parts b0 + r and every
        part c before the block's end.

        A block reads the rows of w of its cells (contiguous copies, no
        column gather of w) and sums them per part, so that, w being
        symmetric, it holds sum_{j in b} w_ij for each of its parts b and
        every cell i; those are then summed over the cells i of each part
        a. Both sums run over cells in cell order and reduceat adds
        elementwise, so an entry's bits depend neither on the block nor on
        the layout: the entries with c < b0 + r have the bits of the
        column-first sum_{i in c} sum_{j in b0 + r} w_ij. A block reads
        about _BLOCK entries of w, so one block covers every part while
        N^2 fits, and no N x N array is made beyond that.
        """
        order, starts = self.order, self.starts
        ncells, nq = order.size, starts.size
        ends = np.r_[starts[1:], ncells]
        step = max(1, (_BLOCK // ncells) * nq // ncells)
        for b0 in range(0, nq, step):
            b1 = min(b0 + step, nq)
            c0, c1 = starts[b0], ends[b1 - 1]
            cols = np.add.reduceat(w[order[c0:c1]], starts[b0:b1] - c0, axis=0)
            yield b0, np.add.reduceat(cols[:, order[:c1]], starts[:b1], axis=1)

    def restrict(self, kernel, f):
        """(kernel, load) of the functional on fields that are constant on
        each part, with one variable per part; f must be constant there.

        For u_i = v_a on every cell i of part a, each sum of the functional
        groups by parts: the pair sum is sum_ab W_ab |v_a - v_b|^p with W
        from pair_sums (pairs inside a part add |0|^p = 0, so W_aa = 0),
        the tail sum is sum_a T_a |v_a|^p with T_a = sum_{i in a} t_i, and
        the load is sum_a f_a v_a M_a with M_a = sum_{i in a} m_i. So this
        is exactly F restricted to those fields, and its gradient is the
        sum of F's over each part. When every part is one cell in cell
        order, kernel and f pass through as they are.
        """
        # every part one cell, part a being cell a: all sums are identities
        if np.array_equal(self.label, np.arange(self.label.size)):
            return kernel, f
        restricted = KernelSet(
            exponent=kernel.exponent, n=kernel.n, h=kernel.h,
            w=self.pair_sums(kernel.w), t=self.sums(kernel.t),
            m=self.sums(kernel.m),
        )
        load = LoadField(
            values=f.values[self.order[self.starts]], nonnegative=f.nonnegative
        )
        return restricted, load

    def pair_sums(self, w):
        """W, the nq x nq part-pair sums of a bitwise symmetric w: the
        entries with a > b are summed and mirrored, so W is bitwise
        symmetric, and W_aa = 0."""
        nq = self.starts.size
        out = np.empty((nq, nq))
        for b0, rows in self.lower_rows(w):
            b1 = b0 + rows.shape[0]
            lower = np.tril(rows[:, b0:], -1)
            out[b0:b1, b0:b1] = lower + lower.T
            out[b0:b1, :b0] = rows[:, :b0]
            out[:b0, b0:b1] = rows[:, :b0].T
        return out


def _lattice_images(lat):
    """The cell lattice mapped by each candidate isometry of its bounding
    box [0, hi]: the reflection x_k -> hi_k - x_k of each axis and, in
    2-D with a square box, the swap of the two axes."""
    hi = lat.max(axis=0)
    images = []
    for k in range(lat.shape[1]):
        img = lat.copy()
        img[:, k] = hi[k] - lat[:, k]
        images.append(img)
    if lat.shape[1] == 2 and hi[0] == hi[1]:
        images.append(lat[:, ::-1])
    return images


def _fixes_weights(w, perm):
    """True when w_{perm i, perm j} has the bits of w_ij for every pair,
    compared one block of _ORBIT_ROWS rows at a time."""
    n = perm.size
    for r0 in range(0, n, _ORBIT_ROWS):
        r1 = min(r0 + _ORBIT_ROWS, n)
        if not _same_bits(w[np.ix_(perm[r0:r1], perm)], w[r0:r1]):
            return False
    return True


def _symmetry_maps(grid, kernel, f):
    """The candidates of _lattice_images that fix the problem, each as the
    cell permutation it induces: a map is kept when it sends the cell set
    onto itself, leaves f.values, m and w unchanged bit for bit, and moves
    no t_i by more than (d + 2) eps (t_i + S_i), with d = pairwise_depth(N)
    and S_i = sum_j w_ij.

    t is compared within its rounding, as it is invariant only to within
    it. build_kernel makes t_i = (L - K_i) + tail, with L and tail the same
    for every cell and K_i numpy's pairwise sum of the N entries of row i
    of its table kv. A kept map is an isometry of the lattice onto the
    cells, and kv depends only on an offset's length, so rows i and perm i
    hold the same entries: their exact sums agree, and each float sum is
    within d u K_i of it to first order (u = eps / 2; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1). The
    subtraction and the addition of the tail round once each, by at most
    u t_i, as L - K_i rounds to at most t_i with tail > 0. So
    |t_{perm i} - t_i| <= d eps K_i + 2 eps t_i. K_i and S_i differ only
    in the near slots, where kv's exact integral exceeds w's subcell rule
    by at most 5.1% (2.2% in 1-D; a scan of the admissible exponents), so
    d eps K_i <= (d + 0.051 d) eps S_i, and 0.051 d <= 1.75 as d <= 34 for
    every N below 200,000, beyond any w that fits in memory. The bound
    thus leaves 0.25 eps S_i for the second-order terms.
    """
    lat = grid.lattice
    ncells = kernel.m.size
    if lat.shape[0] != ncells:
        raise ValueError(
            "grid has %d cells, kernel %d" % (lat.shape[0], ncells)
        )
    slack = (pairwise_depth(ncells) + 2) * np.finfo(float).eps * (
        kernel.t + kernel.w.sum(axis=1)
    )
    radix = np.cumprod(np.r_[1, lat.max(axis=0)[:0:-1] + 1])[::-1]
    keys = lat @ radix  # ascending, as the lattice is in lexicographic order
    perms = []
    for img in _lattice_images(lat):
        img_keys = img @ radix
        perm = np.minimum(np.searchsorted(keys, img_keys), ncells - 1)
        if (
            np.array_equal(keys[perm], img_keys)
            and _same_bits(f.values[perm], f.values)
            and _same_bits(kernel.m[perm], kernel.m)
            and np.all(np.abs(kernel.t[perm] - kernel.t) <= slack)
            and _fixes_weights(kernel.w, perm)
        ):
            perms.append(perm)
    return perms


def orbits(grid, kernel, f):
    """The partition of the cells into the orbits of the group that the
    maps of _symmetry_maps generate, numbered by each orbit's first
    cell."""
    perms = _symmetry_maps(grid, kernel, f)
    # each cell takes the least index it reaches through the kept maps
    label = np.arange(kernel.m.size)
    while True:
        low = label
        for perm in perms:
            low = np.minimum(low, low[perm])
        if np.array_equal(low, label):
            return Partition(first_seen(label)[0])
        label = low
