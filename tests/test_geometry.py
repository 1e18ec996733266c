"""Geometry checks: perimeter oracles and Cheeger estimators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fraclap.domain_grid import (
    DomainSpec,
    KernelSet,
    build_grid,
    build_kernel,
    kernel_exponent,
)
from fraclap.energy import LoadField, load_from_array, seminorm_power, total_energy
from fraclap.geometry import (
    BRUTE_FORCE_CELL_CAP,
    CheegerResult,
    brute_force_cheeger,
    coarea_decompose,
    perimeter,
    threshold_cheeger,
    _layer_rounding,
    weighted_volume,
)
from fraclap.experiments import hat_field

from coarea_walk import walk_layers, walk_threshold

INTERVAL_PER = 8.0 * math.sqrt(2.0)  # Per_s((-1,1)) at s = 1/2
INTERVAL_H = 4.0 * math.sqrt(2.0)  # h_s((-1,1)) at s = 1/2, f = 1


@pytest.fixture(scope="module")
def cell1():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    return grid, build_kernel(grid, 1.5)


@pytest.fixture(scope="module")
def interval16():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    return grid, build_kernel(grid, 1.5)


@pytest.fixture(scope="module")
def box4():
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 1.0, 1.0), 0.25))
    return grid, build_kernel(grid, 2.5)


def brute_oracle(f, kern):
    """Independent plain-Python subset enumeration."""
    nn = kern.m.size
    best = (math.inf, None)
    for r in range(1, nn + 1):
        for combo in itertools.combinations(range(nn), r):
            mask = np.zeros(nn, dtype=bool)
            mask[list(combo)] = True
            vol = float(np.sum(f.values[mask] * kern.m[mask]))
            if vol <= 0:
                continue
            inside = np.where(mask)[0]
            outside = np.where(~mask)[0]
            per = float(np.sum(kern.w[np.ix_(inside, outside)])) + float(
                np.sum(kern.t[inside])
            )
            h = per / vol
            if h < best[0]:
                best = (h, mask)
    return best


# ---------------------------------------------------------------------------
# perimeter and set functional
# ---------------------------------------------------------------------------


def test_empty_mask(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    empty = np.zeros(grid.ncells, dtype=bool)
    assert perimeter(empty, kern) == 0.0
    assert perimeter(empty, kern) - weighted_volume(empty, f, kern) == 0.0


def test_single_cell_perimeter(cell1):
    _, kern = cell1
    assert abs(perimeter(np.ones(1, dtype=bool), kern) - 8.0) / 8.0 <= 0.02


def test_single_cell_set_functional(cell1):
    grid, kern = cell1
    f = load_from_array(np.ones(1))
    cell = np.ones(1, dtype=bool)
    val = perimeter(cell, kern) - weighted_volume(cell, f, kern)
    assert abs(val - 7.0) / 7.0 <= 0.02


def test_full_interval_perimeter_fine():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 64))
    kern = build_kernel(grid, 1.5)
    per = perimeter(np.ones(grid.ncells, dtype=bool), kern)
    assert abs(per - INTERVAL_PER) / INTERVAL_PER <= 0.03


def test_perimeter_refinement_improves():
    errs = []
    for h in (0.25, 0.125, 0.0625):
        grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), h))
        kern = build_kernel(grid, 1.5)
        per = perimeter(np.ones(grid.ncells, dtype=bool), kern)
        errs.append(abs(per - INTERVAL_PER) / INTERVAL_PER)
    assert errs[1] <= errs[0] + 1e-12
    assert errs[2] <= errs[1] + 1e-12


def test_cross_module_identity(interval16, box4):
    for grid, kern in (interval16, box4):
        f = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
        rng = np.random.default_rng(2)
        for _ in range(10):
            mask = rng.random(grid.ncells) < 0.5
            if not mask.any():
                continue
            lhs = perimeter(mask, kern) - weighted_volume(mask, f, kern)
            rhs = total_energy(mask.astype(float), f, kern, 1.0).total
            assert lhs == rhs


def test_coarea_layers_are_within_bound_of_indicator_seminorm(interval16, box4):
    # each layer's perimeter, read from level-pair sums, is within the
    # stated rounding bound of half the p = 1 seminorm power of its
    # indicator, which has the bits of perimeter(mask)
    for grid, kern in (interval16, box4):
        f = load_from_array(np.ones(grid.ncells))
        rng = np.random.default_rng(5)
        u = np.round(rng.random(grid.ncells), 1)  # ties and a zero level
        layers = coarea_decompose(u, f, kern)
        assert len(layers) == np.unique(u[u > 0]).size
        bound = _layer_rounding(grid.ncells, np.unique(u).size)
        for layer in layers:
            mask = (u >= layer.level).astype(float)
            want = 0.5 * seminorm_power(mask, kern, 1.0)
            assert abs(layer.perimeter - want) <= bound * want


def _maskwise_layers(u, f, kern):
    """Every level filled from its whole mask, (level, perimeter, volume)
    per layer: the byte reference of coarea_decompose's row updates."""
    vals = np.asarray(u, dtype=float)
    levels = np.unique(vals)
    out = []
    for t in levels[levels > 0]:
        mask = vals >= t
        out.append((float(t), _maskwise_perimeter(mask, kern),
                    weighted_volume(mask, f, kern)))
    return out


def _maskwise_perimeter(mask, kern):
    if not np.any(mask):
        return 0.0
    cross = np.not_equal.outer(mask, mask)
    pair = float(np.sum(np.multiply(kern.w, cross)))
    return 0.5 * (pair + 2.0 * float(np.sum(kern.t * mask)))


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.fixture(scope="module")
def ball316():
    # 316 cells: not a multiple of 64, and its zero plateau leaves the
    # reference walk in many blocks of rows, the last one short
    grid = build_grid(DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.1))
    assert grid.ncells == 316
    return grid, build_kernel(grid, 2.5)


def _layer_fields(n, seed):
    """Fields with ties, zeros, single-cell levels and levels where many
    cells leave at once."""
    rng = np.random.default_rng(seed)
    ties = np.round(rng.random(n), 1)
    single = rng.permutation(n) / n  # every level one cell
    plateau = np.where(rng.random(n) < 0.8, 0.0, rng.random(n))  # most leave first
    steps = np.floor(rng.random(n) * 3.0) ** 2  # three wide levels
    top = np.ones(n)  # one level, the full set
    top[rng.integers(n)] = 2.0
    return [ties, single, plateau, steps, top, np.full(n, 0.75)]


def test_coarea_keeps_maskwise_bits(interval16, box4, ball316):
    # levels and volumes keep the bits of the maskwise reference, and the
    # perimeters are within the stated rounding bound of it; the walk the
    # threshold search used before keeps every bit of it
    for seed, (grid, kern) in enumerate((interval16, box4, ball316)):
        f = load_from_array(np.linspace(0.5, 1.5, grid.ncells))
        for u in _layer_fields(grid.ncells, seed):
            layers = coarea_decompose(u, f, kern)
            want = _maskwise_layers(u, f, kern)
            assert _bits(walk_layers(u, f, kern)) == _bits(want)
            assert len(layers) == len(want)
            got = np.array(layers)
            ref = np.array(want)
            assert _bits(got[:, [0, 2]]) == _bits(ref[:, [0, 2]])
            bound = _layer_rounding(grid.ncells, np.unique(u).size)
            assert np.all(np.abs(got[:, 1] - ref[:, 1]) <= bound * ref[:, 1])


def test_threshold_keeps_walk_witness_and_bits(interval16, box4, ball316):
    # the layers the rounding bound cannot separate from the best are
    # recomputed on their masks, so the search returns the walk's witness
    # and bits of h; the 16 x 16 hat field has many single-cell levels
    hat_grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 16.0, 16.0), 1.0))
    hat = (hat_grid, build_kernel(hat_grid, 2.5))
    cases = [
        (kern, f, u)
        for seed, (grid, kern) in enumerate((interval16, box4, ball316))
        for f in (load_from_array(np.ones(grid.ncells)),
                  load_from_array(np.linspace(0.5, 1.5, grid.ncells)))
        for u in _layer_fields(grid.ncells, seed)
    ]
    cases.append((hat[1], load_from_array(np.ones(256)), hat_field(hat_grid)))
    for kern, f, u in cases:
        res = threshold_cheeger(u, f, kern)
        h_ref, witness_ref = walk_threshold(u, f, kern)
        assert _bits([res.h]) == _bits([h_ref])
        assert res.witness.tolist() == witness_ref.tolist()


def test_level_partition_builds_no_load(interval16):
    # the load vanishes on the first cell of every level, so a quotient
    # load taken from each level's first cell would be zero everywhere
    grid, kern = interval16
    u = np.tile([0.5, 1.0, 2.0, 0.0], 4)
    load = np.ones(grid.ncells)
    load[:4] = 0.0
    f = load_from_array(load)
    layers = coarea_decompose(u, f, kern)
    assert _bits([layer.weighted_volume for layer in layers]) == _bits(
        [row[2] for row in walk_layers(u, f, kern)]
    )
    h_ref, witness_ref = walk_threshold(u, f, kern)
    res = threshold_cheeger(u, f, kern)
    assert _bits([res.h]) == _bits([h_ref])
    assert res.witness.tolist() == witness_ref.tolist()


def test_coarea_allocates_no_pair_array():
    # 1,024 cells at 1,024 distinct levels: one N x N float array alone
    # would take the peak to 8 MB
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 32.0, 32.0), 1.0))
    kern = build_kernel(grid, 2.5)
    u = np.random.default_rng(3).permutation(grid.ncells) + 1.0
    f = load_from_array(np.ones(grid.ncells))
    tracemalloc.start()
    try:
        layers = coarea_decompose(u, f, kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(layers) == grid.ncells
    assert peak < kern.w.nbytes


def test_perimeter_keeps_maskwise_bits(interval16, box4, ball316):
    for seed, (grid, kern) in enumerate((interval16, box4, ball316)):
        n = grid.ncells
        rng = np.random.default_rng(seed)
        masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        masks += [rng.random(n) < share for share in (0.05, 0.5, 0.95)]
        for mask in masks:
            got = perimeter(mask, kern)
            assert _bits([got]) == _bits([_maskwise_perimeter(mask, kern)])


# ---------------------------------------------------------------------------
# brute-force Cheeger
# ---------------------------------------------------------------------------


def test_single_cell_cheeger(cell1):
    grid, kern = cell1
    f = load_from_array(np.ones(1))
    res = brute_force_cheeger(grid, f, kern)
    assert res.method == "brute-force"
    assert res.witness.all()
    assert abs(res.h - 8.0) / 8.0 <= 0.02


def test_interval_cheeger_witness_is_full_domain():
    # radius far below the calibrable radius: the whole interval wins
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.25))
    kern = build_kernel(grid, 1.5)
    f = load_from_array(np.ones(grid.ncells))
    res = brute_force_cheeger(grid, f, kern)
    assert res.witness.all()
    assert abs(res.h - INTERVAL_H) / INTERVAL_H <= 0.10


def test_brute_force_matches_independent_enumeration():
    rng = np.random.default_rng(17)
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.1))
    kern = build_kernel(grid, 1.5)
    for _ in range(3):
        f = load_from_array(rng.uniform(0.2, 2.0, size=grid.ncells))
        res = brute_force_cheeger(grid, f, kern)
        h_ref, mask_ref = brute_oracle(f, kern)
        assert res.h == pytest.approx(h_ref, rel=1e-12)
        assert np.array_equal(res.witness, mask_ref)


def test_brute_force_cell_cap():
    # the cap check runs before any subset enumeration
    grid = build_grid(DomainSpec(1, "interval", (0.0, 24.0), 1.0))
    assert grid.ncells > BRUTE_FORCE_CELL_CAP
    kern = build_kernel(grid, 1.5)
    f = load_from_array(np.ones(grid.ncells))
    with pytest.raises(ValueError, match="too many cells"):
        brute_force_cheeger(grid, f, kern)


@pytest.mark.parametrize("ncells", [1, 2, 3, 17, 20])
def test_brute_force_exact_tie_takes_smallest_bitmask(ncells):
    # only the end cells interact: every set holding both ends or neither
    # has h = 1, and the smallest such bitmask is {1} from 3 cells on, both
    # ends at 2 cells and the one cell at 1 cell (whose low half is empty);
    # odd counts split unevenly, and at 20 cells the tied sets fill every
    # block of high-half rows
    grid = build_grid(DomainSpec(1, "interval", (0.0, float(ncells)), 1.0))
    w = np.zeros((ncells, ncells))
    if ncells > 1:
        w[0, -1] = w[-1, 0] = 10.0
    ones = np.ones(ncells)
    kern = KernelSet(exponent=1.5, n=1, h=1.0, w=w, t=ones, m=ones)
    res = brute_force_cheeger(grid, load_from_array(ones), kern)
    assert res.h == 1.0
    want = {1: [0], 2: [0, 1]}.get(ncells, [1])
    assert np.flatnonzero(res.witness).tolist() == want


def _quadratic_form_cheeger(f, kern):
    """The former exhaustive search, one n^2 quadratic form per subset in
    chunks of 2^16 bitmasks: (h, witness) of the smallest ratio, exact
    ties to the smallest bitmask. The reference of the split enumeration."""
    nn = kern.m.size
    fm = f.values * kern.m
    rowsum = kern.w.sum(axis=1) + kern.t
    best_h = math.inf
    best_bits = None
    total = 1 << nn
    for k0 in range(1, total, 1 << 16):
        k1 = min(k0 + (1 << 16), total)
        ks = np.arange(k0, k1, dtype=np.int64)
        bits = ((ks[:, None] >> np.arange(nn)) & 1).astype(float)
        vol = bits @ fm
        quad = np.sum((bits @ kern.w) * bits, axis=1)
        per = bits @ rowsum - quad
        valid = vol > 0
        if not np.any(valid):
            continue
        h = np.where(valid, per / np.where(valid, vol, 1.0), math.inf)
        idx = int(np.argmin(h))
        if h[idx] < best_h:
            best_h = float(h[idx])
            best_bits = int(ks[idx])
    witness = np.array([(best_bits >> i) & 1 for i in range(nn)], dtype=bool)
    h_exact = perimeter(witness, kern) / weighted_volume(witness, f, kern)
    return h_exact, witness


def _split_corpus():
    """(label, grid, kernel, load): unit-cell intervals of 1-16 cells under
    a uniform and a bump load (zero in the end cells from 6 cells on) at
    three exponents, a 20-cell interval, seeded 1-D unions of 12-20 cells
    with seeded loads, and 3 x 4 and 4 x 4 boxes at two exponents."""
    for nc in range(1, 17):
        grid = build_grid(DomainSpec(1, "interval", (0.0, float(nc)), 1.0))
        x = (np.arange(nc) + 0.5) / nc
        loads = {"uniform": np.ones(nc),
                 "bump": np.maximum(0.0, 1.0 - np.abs(2.0 * x - 1.0) * 1.2)}
        for alpha in (1.3, 1.5, 1.8):
            kern = build_kernel(grid, alpha)
            for name, vals in loads.items():
                yield ("interval%d-%s-%g" % (nc, name, alpha), grid, kern,
                       load_from_array(vals))
    grid = build_grid(DomainSpec(1, "interval", (0.0, 20.0), 1.0))
    yield "interval20", grid, build_kernel(grid, 1.5), load_from_array(np.ones(20))
    rng = np.random.default_rng(16)
    for nc in range(12, 21):
        cells = np.sort(rng.choice(2 * nc, size=nc, replace=False))
        boxes = tuple((float(c), float(c + 1)) for c in cells)
        grid = build_grid(DomainSpec(1, "union", boxes, 1.0))
        yield ("union%d" % nc, grid, build_kernel(grid, 1.5),
               load_from_array(rng.uniform(0.5, 1.5, nc)))
    for rows, cols in ((3, 4), (4, 4)):
        corners = (0.0, 0.0, float(cols), float(rows))
        grid = build_grid(DomainSpec(2, "box", corners, 1.0))
        for alpha in (2.5, 2.75):
            yield ("box%dx%d-%g" % (rows, cols, alpha), grid,
                   build_kernel(grid, alpha), load_from_array(np.ones(grid.ncells)))


def test_split_enumeration_keeps_quadratic_form_witness_and_bits():
    count = 0
    for label, grid, kern, f in _split_corpus():
        res = brute_force_cheeger(grid, f, kern)
        h_ref, witness_ref = _quadratic_form_cheeger(f, kern)
        assert res.witness.tolist() == witness_ref.tolist(), label
        assert _bits([res.h]) == _bits([h_ref]), label
        count += 1
    assert count == 96 + 1 + 9 + 4


def test_brute_force_requires_positive_load(cell1):
    grid, kern = cell1
    f = LoadField(values=np.zeros(1), nonnegative=False)
    with pytest.raises(ValueError, match="weighted volume degenerate"):
        brute_force_cheeger(grid, f, kern)


# ---------------------------------------------------------------------------
# threshold Cheeger
# ---------------------------------------------------------------------------


def test_threshold_indicator_exact(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    mask = np.zeros(grid.ncells, dtype=bool)
    mask[6:10] = True
    res = threshold_cheeger(mask.astype(float), f, kern)
    expected = perimeter(mask, kern) / weighted_volume(mask, f, kern)
    assert res.h == expected
    assert np.array_equal(res.witness, mask)
    assert res.method == "threshold"
    assert len(res.table) == 1


def test_threshold_rejects_zero_field(interval16):
    grid, kern = interval16
    f = load_from_array(np.ones(grid.ncells))
    with pytest.raises(ValueError, match="nonzero"):
        threshold_cheeger(np.zeros(grid.ncells), f, kern)


def test_threshold_table_is_admissible_coarea_layers(interval16):
    # tied values share a layer; the load vanishes on the top plateau, so
    # the top layer has zero weighted volume and is not a candidate
    grid, kern = interval16
    u = np.repeat([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0, 0.5], 2)
    f = load_from_array(np.where(u == 3.0, 0.0, 1.0))
    res = threshold_cheeger(u, f, kern)
    layers = coarea_decompose(u, f, kern)
    assert res.table == [
        (lay.level, lay.perimeter, lay.weighted_volume,
         lay.perimeter / lay.weighted_volume)
        for lay in layers
        if lay.weighted_volume > 0
    ]
    assert len(res.table) == len(layers) - 1 == 3
    # the table holds level-sum ratios and h the witness's recomputed one:
    # they agree within threshold_cheeger's 1 + 4 rho screen, not bitwise
    rho = _layer_rounding(kern.m.size, len(layers) + 1) + 2.0 * np.finfo(float).eps
    least = min(row[3] for row in res.table)
    assert least <= res.h * (1.0 + 4.0 * rho)
    assert res.h <= least * (1.0 + 4.0 * rho)
    assert res.h == perimeter(res.witness, kern) / weighted_volume(res.witness, f, kern)


def test_threshold_dominates_brute_force():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0 / 12))
    kern = build_kernel(grid, 1.5)
    rng = np.random.default_rng(53)
    f = load_from_array(np.ones(grid.ncells))
    h_star = brute_force_cheeger(grid, f, kern).h
    for _ in range(25):
        u = np.abs(rng.normal(size=grid.ncells))
        res = threshold_cheeger(u, f, kern)
        assert res.h >= h_star - 1e-12 * abs(h_star)


def test_threshold_on_solved_field_near_interval_h():
    # the minimizer's level sets approach the Cheeger set as p drops
    from fraclap.energy import load_from_array as mk
    from fraclap.solver import SolveConfig, solve_p

    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 32))
    k_solve = build_kernel(grid, kernel_exponent(1, 0.5, 1.05))
    f = mk(np.ones(grid.ncells))
    sol = solve_p(grid, k_solve, f, SolveConfig(p=1.05, s=0.5))
    k_one = build_kernel(grid, 1.5)
    res = threshold_cheeger(sol.u, f, k_one)
    assert abs(res.h - INTERVAL_H) / INTERVAL_H <= 0.15


def test_cheeger_result_positive():
    with pytest.raises(ValueError):
        CheegerResult(h=-1.0, witness=np.ones(2, dtype=bool), method="brute-force")
