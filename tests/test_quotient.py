"""Partition sums: the rounding depth of numpy's pairwise sum, and the
first-occurrence numbering of part labels."""

import numpy as np
import pytest

from fraclap.quotient import first_seen, pairwise_depth


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
