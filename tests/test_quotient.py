"""Partition sums: the rounding depth of numpy's pairwise sum, the
first-occurrence numbering of part labels, and the grouping of cells into
runs of near-equal keys."""

import numpy as np
import pytest

from fraclap.quotient import Partition, first_seen, pairwise_depth


def _numpy_pairwise_sum(a):
    """numpy's pairwise_sum of a list of floats, in its order of adds."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = a[:8]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _numpy_pairwise_sum(a[:n2]) + _numpy_pairwise_sum(a[n2:])


def _numpy_pairwise_roundings(n):
    """The most roundings any entry meets in numpy's pairwise_sum of n
    contiguous float64 entries, transcribed from its recursion: below 8
    entries res = 0. and each entry is added; up to 128, r[0..7] start as
    the first eight entries, take one add per further block of eight,
    join in ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the
    n % 8 trailing entries are added one by one; above that, the sums of
    the first n2 = n / 2 - (n / 2) % 8 entries and of the rest are
    added. Without a cache, so each part is walked afresh."""
    if n < 8:
        return n
    if n <= 128:
        return (n // 8 - 1) + 3 + n % 8
    n2 = n // 2
    n2 -= n2 % 8
    return 1 + max(_numpy_pairwise_roundings(n2), _numpy_pairwise_roundings(n - n2))


@pytest.mark.parametrize("n", [*range(0, 300, 7), 520, 528, 1031, 4099])
def test_numpy_sums_in_the_transcribed_order(n):
    # the recursion the depths below are read from is numpy's: summed in
    # that order, entries of mixed scales give np.sum's bits
    rng = np.random.default_rng(n)
    a = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    assert _numpy_pairwise_sum(a.tolist()) == a.sum()


def test_pairwise_depth_matches_numpy_recursion_up_to_20000():
    # following the larger part of each split alone gave 13, 13 and 14
    # for n = 249, 257 and 528, whose deepest entries lie in a smaller
    # part; the recursion gives 18, 19 and 20
    want = []
    for n in range(20001):
        if n <= 128:
            want.append(_numpy_pairwise_roundings(n))
        else:
            # the two parts are smaller, so their depths are in the table
            n2 = n // 2 - (n // 2) % 8
            want.append(1 + max(want[n2], want[n - n2]))
    assert [want[n] for n in (249, 257, 528)] == [18, 19, 20]
    assert [pairwise_depth(n) for n in range(20001)] == want


@pytest.mark.parametrize("n", [2304 ** 2, 10 ** 7 + 3])
def test_pairwise_depth_matches_numpy_recursion_at_large_n(n):
    assert pairwise_depth(n) == _numpy_pairwise_roundings(n)


def test_first_seen_numbers_keys_in_order_of_first_occurrence():
    label, first = first_seen(np.array([7, 3, 7, -1, 3, 9, -1]))
    assert label.tolist() == [0, 1, 0, 2, 1, 3, 2]
    assert first.tolist() == [0, 1, 3, 5]
    keys = np.random.default_rng(3).integers(0, 50, 400)
    label, first = first_seen(keys)
    assert np.array_equal(keys[first][label], keys)
    assert np.all(np.diff(first) > 0) and label[first].tolist() == list(range(first.size))


def _chain_labels(keys, tol, outer=None):
    """Part labels of Partition(keys, tol, within) by a plain scan: the
    cells in ascending (outer label, key, index), a new part wherever the
    outer label changes or the key steps by more than tol."""
    keys = [float(k) for k in keys]
    outer = [0] * len(keys) if outer is None else [int(a) for a in outer]
    cells = sorted(range(len(keys)), key=lambda i: (outer[i], keys[i], i))
    label, part = [0] * len(keys), -1
    for k, i in enumerate(cells):
        prev = cells[k - 1] if k else None
        if prev is None or outer[i] != outer[prev] or keys[i] - keys[prev] > tol:
            part += 1
        label[i] = part
    return np.array(label, dtype=int), np.array(cells, dtype=int)


def _check_partition(part, label, cells, x):
    """part has the reference labels and cell order, its parts the sizes
    and starts they imply, and its spread of x each part's max - min."""
    nq = int(label.max()) + 1 if label.size else 0
    assert np.array_equal(part.label, label)
    assert np.array_equal(part.order, cells)
    assert part.size.dtype.kind == "i"
    assert np.array_equal(part.size, np.bincount(label, minlength=nq))
    assert np.array_equal(part.starts, np.cumsum(part.size) - part.size)
    if nq:
        want = [x[label == a].max() - x[label == a].min() for a in range(nq)]
        assert part.spread(x).tobytes() == np.array(want).tobytes()


def test_partition_groups_signed_zeros_exact_and_near_ties():
    keys = np.array([1.0, 0.0, 1.0 + 2e-16, -0.0, 3.0, 1.0, 1.0 - 1e-13, 0.0])
    at_zero = Partition(keys)
    # -0.0 and 0.0 form one part, in index order, as np.unique groups them
    assert at_zero.label.tolist() == [2, 0, 3, 0, 4, 2, 1, 0]
    assert at_zero.order[at_zero.starts[0]:at_zero.size[0]].tolist() == [1, 3, 7]
    assert np.array_equal(at_zero.label, np.unique(keys, return_inverse=True)[1])
    # a chain of steps within tol is one part, however long it grows
    near = Partition(keys, 1e-12)
    assert near.label.tolist() == [1, 0, 1, 0, 2, 1, 1, 0]
    assert near.size.tolist() == [3, 4, 1]
    # under within, runs never cross its parts: even cells first
    nested = Partition(keys, 1e-12, Partition(np.arange(8) % 2))
    assert nested.label.tolist() == [0, 2, 0, 2, 1, 3, 0, 2]


def test_partition_of_its_own_numbering_keeps_it():
    label = np.array([2, 0, 1, 1, 0, 3, 2])
    part = Partition(label)
    assert np.array_equal(part.label, label)
    assert part.order.tolist() == [1, 4, 2, 3, 0, 6, 5]
    empty = Partition(np.zeros(0))
    assert empty.starts.size == empty.size.size == empty.label.size == 0


def test_partition_matches_plain_groupings():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # exact ties, +-0.0, near-ties a few ulps or a tol apart, and any floats
    pool = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.0 + 3e-12,
            -2.5, -2.5 + 1e-3, 7.0]
    key = st.one_of(st.sampled_from(pool),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=True))
    cells = st.integers(0, 30)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        data=st.data(), n=cells,
        tol=st.sampled_from([0.0, 0.0, 1e-15, 1e-12, 2e-12, 1e-3, 0.5, 2.0]),
        inner_tol=st.sampled_from([0.0, 1e-12, 1e-3]),
    )
    def check(data, n, tol, inner_tol):
        keys = np.array(data.draw(st.lists(key, min_size=n, max_size=n)), dtype=float)
        other = np.array(data.draw(st.lists(key, min_size=n, max_size=n)), dtype=float)
        x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)),
                     dtype=float)
        part = Partition(keys, tol)
        label, order = _chain_labels(keys, tol)
        _check_partition(part, label, order, x)
        if tol == 0.0:
            _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
            assert np.array_equal(part.label, inv) and np.array_equal(part.size, counts)
        # runs of other nested in the runs of keys
        nested = Partition(other, inner_tol, part)
        label, order = _chain_labels(other, inner_tol, part.label)
        _check_partition(nested, label, order, x)
        assert np.all(np.diff(part.label[nested.order]) >= 0)

    check()
