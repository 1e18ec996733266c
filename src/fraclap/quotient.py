"""Sums over the parts of a cell partition.

A partition labels each cell with a part index 0 .. nq - 1. The pair
weights summed over pairs of parts, W_ab = sum_{i in a, j in b} w_ij, and
the per-part sums of a cell array are the sums that restrict the pair
functionals to fields that are constant on each part. The solver's orbit
quotient and the coarea levels of the threshold Cheeger search both read
them from one body here.

pairwise_depth bounds the roundings of numpy's sums; the rounding bounds
of the solver's line search and of the coarea perimeters rest on it.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK = 1 << 17  # entries of w per row block of the part-pair sums


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


class Partition:
    """The cells grouped by a label array with values 0 .. nq - 1.

    Part a holds the cells order[starts[a]:starts[a + 1]], in cell order
    (a stable sort of the labels).
    """

    def __init__(self, label):
        self.label = label = np.asarray(label)
        ncells = label.size
        self.order = order = np.argsort(label, kind="stable")
        run = label[order]
        self.starts = starts = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
        self.size = np.diff(np.r_[starts, ncells]).astype(float)

    def sums(self, x):
        """Per-part sums of a cell array."""
        return np.add.reduceat(x[self.order], self.starts)

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
