"""The former coarea walk of the threshold Cheeger search, kept as the byte
reference of its witnesses and bits of h.

One N x N buffer of w_ij * (chi_i != chi_j) walks the levels of u upward
from the full set's zeros. At each level only the rows and columns of the
cells that just left are rewritten, in blocks of _UPDATE_ROWS rows, and
the whole buffer is summed, so each layer's perimeter has the bits of
geometry.perimeter of its mask. The search takes the first layer of least
ratio.
"""

import numpy as np

from fraclap.geometry import weighted_volume

_UPDATE_ROWS = 16


def _update_pairs(pairs, mask, moved, w):
    """Rewrite the rows and columns of the cells moved in pairs after they
    changed side; w is bitwise symmetric, so a row's transpose holds its
    column's bits."""
    for lo in range(0, moved.size, _UPDATE_ROWS):
        block = moved[lo:lo + _UPDATE_ROWS]
        rows = w[block]
        rows *= mask[block, None] != mask
        pairs[block] = rows
        pairs[:, block] = rows.T


def walk_layers(u, f, kern):
    """(level, perimeter, weighted volume) of {u >= t} for each distinct
    positive value t of u, in ascending order."""
    vals = np.asarray(u, dtype=float)
    levels = np.unique(vals)
    levels = levels[levels > 0]
    order = np.argsort(vals)
    ends = np.searchsorted(vals[order], levels)
    mask = np.ones(vals.size, dtype=bool)
    pairs = np.zeros((vals.size, vals.size))
    out = []
    start = 0
    for t, end in zip(levels, ends):
        gone = order[start:end]
        mask[gone] = False
        _update_pairs(pairs, mask, gone, kern.w)
        start = end
        per = 0.5 * (float(np.sum(pairs)) + 2.0 * float(np.sum(kern.t * mask)))
        out.append((float(t), per, weighted_volume(mask, f, kern)))
    return out


def walk_threshold(u, f, kern):
    """(h, witness) of the walk's search: the first layer of positive
    volume whose ratio is least."""
    table = [(t, per / vol) for t, per, vol in walk_layers(u, f, kern) if vol > 0]
    level, h = min(table, key=lambda row: row[1])
    return h, np.asarray(u, dtype=float) >= level
