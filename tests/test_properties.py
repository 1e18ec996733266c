"""Properties checked on examples drawn by Hypothesis (skipped where it is
not installed). The draws are derandomized, so every run sees the same
examples."""

import numpy as np
import pytest

from fraclap import solver
from fraclap.certify import _TIE_TOL, build_certificate, verify_certificate
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel, kernel_exponent
from fraclap.energy import gradient, load_from_array, seminorm_power, total_energy
from fraclap.geometry import (
    _layer_rounding,
    brute_force_cheeger,
    coarea_decompose,
    perimeter,
    threshold_cheeger,
    weighted_volume,
)
from fraclap.quotient import Partition

from certify_reference import reference_certificate
from coarea_walk import walk_threshold

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


@pytest.fixture(
    scope="module",
    params=[(1, "interval", (-1.0, 1.0), 0.125), (2, "box", (0.0, 0.0, 1.0, 1.0), 0.25)],
    ids=["interval16", "box4"],
)
def case16(request):
    """(grid, p = 1 kernel at s = 1/2) on 16 cells: an interval or a 4 x 4
    box."""
    n, shape, params, h = request.param
    grid = build_grid(DomainSpec(n, shape, params, h))
    return grid, build_kernel(grid, n + 0.5)


@pytest.fixture(scope="module")
def kern16(case16):
    return case16[1]


_MASK = st.lists(st.booleans(), min_size=16, max_size=16).map(np.array)


@_SETTINGS
@hypothesis.given(a=_MASK, b=_MASK)
def test_perimeter_is_submodular(kern16, a, b):
    # Per(E) is a cut of the nonnegative pair weights plus a sum of tails
    pa, pb = perimeter(a, kern16), perimeter(b, kern16)
    lhs = perimeter(a | b, kern16) + perimeter(a & b, kern16)
    assert lhs <= pa + pb + 1e-12 * (pa + pb)


# a few values, so that levels tie and several cells leave at once; zero
# cells leave before the first level
_FIELD = st.lists(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]), min_size=16, max_size=16
).map(np.array)


@_SETTINGS
@hypothesis.given(u=_FIELD)
def test_coarea_layers_are_mask_perimeters(kern16, u):
    # every layer, read from level-pair sums, is within the stated rounding
    # bound of the perimeter of its own mask, which has the bits of half
    # the indicator's p = 1 seminorm power; the threshold search tabulates
    # exactly these layers
    hypothesis.assume(np.any(u > 0))
    f = load_from_array(np.ones(16))
    layers = coarea_decompose(u, f, kern16)
    assert [layer.level for layer in layers] == sorted(set(u[u > 0].tolist()))
    bound = _layer_rounding(16, np.unique(u).size)
    for layer in layers:
        mask = u >= layer.level
        want = perimeter(mask, kern16)
        assert want == 0.5 * seminorm_power(mask.astype(float), kern16, 1.0)
        assert abs(layer.perimeter - want) <= bound * want
        assert layer.weighted_volume == weighted_volume(mask, f, kern16)
    table = threshold_cheeger(u, f, kern16).table
    assert table == [
        (layer.level, layer.perimeter, layer.weighted_volume,
         layer.perimeter / layer.weighted_volume)
        for layer in layers
    ]


@_SETTINGS
@hypothesis.given(u=_FIELD, load=st.sampled_from(["ones", "ramp"]))
def test_threshold_keeps_walk_witness_and_bits(kern16, u, load):
    # the search returns the former row-update walk's witness and bits of h
    hypothesis.assume(np.any(u > 0))
    f = load_from_array(np.ones(16) if load == "ones" else np.linspace(0.5, 1.5, 16))
    res = threshold_cheeger(u, f, kern16)
    h_ref, witness_ref = walk_threshold(u, f, kern16)
    assert np.float64(res.h).tobytes() == np.float64(h_ref).tobytes()
    assert res.witness.tolist() == witness_ref.tolist()


# loads with zero cells, so that some subsets have zero weighted volume
_LOAD = st.lists(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]), min_size=16, max_size=16
).map(np.array)


@_SETTINGS
@hypothesis.given(load=_LOAD, masks=st.lists(_MASK, min_size=1, max_size=4))
def test_brute_force_cheeger_is_below_every_ratio(case16, load, masks):
    # the exhaustive minimum is at most the ratio of any set of positive
    # weighted volume, the drawn ones, the whole domain and the load's
    # support among them, and h is its witness's ratio bit for bit
    hypothesis.assume(np.any(load > 0))
    grid, kern = case16
    f = load_from_array(load)
    res = brute_force_cheeger(grid, f, kern)
    assert res.h == perimeter(res.witness, kern) / weighted_volume(res.witness, f, kern)
    for mask in masks + [np.ones(16, dtype=bool), load > 0]:
        vol = weighted_volume(mask, f, kern)
        if vol > 0:
            assert res.h <= perimeter(mask, kern) / vol * (1.0 + 1e-12)


_FIELD_16 = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=16, max_size=16
).map(np.array)


@_SETTINGS
@hypothesis.given(
    a=_FIELD_16,
    b=_FIELD_16,
    load=_FIELD_16,
    p=st.floats(1.0, 2.0, exclude_min=True),
)
def test_total_energy_is_midpoint_convex(kern16, a, b, load, p):
    # F_p is convex for p >= 1, so along the line through a and b its value
    # at the midpoint is at most the mean of its end values, up to rounding
    # of order N * eps * sum |terms| over the N = 16^2 summed terms
    f = load_from_array(load)
    ends = [total_energy(u, f, kern16, p) for u in (a, b)]
    mid = total_energy(0.5 * (a + b), f, kern16, p)
    terms = sum(
        e.kinetic + float(np.sum(np.abs(load * u * kern16.m)))
        for e, u in zip(ends + [mid], (a, b, 0.5 * (a + b)))
    )
    slack = kern16.w.size * np.finfo(float).eps * terms
    assert mid.total <= 0.5 * (ends[0].total + ends[1].total) + slack


@st.composite
def _grid_specs(draw):
    """A box, ball or two-box union of up to about 200 cells, at a sweep
    resolution or unit cells."""
    n = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([0.125, 0.5, 1.0]))
    side = st.integers(1, 150 if n == 1 else 12)
    shape = draw(st.sampled_from(["box", "ball", "union"]))
    if shape == "ball":
        centre = tuple(draw(st.integers(-4, 4)) * h for _ in range(n))
        return DomainSpec(n, shape, centre + (draw(side) * h / 2,), h)
    boxes = []
    for _ in range(1 if shape == "box" else 2):
        lo = [draw(st.integers(-20, 20)) for _ in range(n)]
        hi = [k + draw(side) for k in lo]
        boxes.append(tuple(k * h for k in lo + hi))
    return DomainSpec(n, shape, sum(boxes, ()), h)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=_grid_specs(), step=st.sampled_from([0.25, 0.5, 0.75]))
def test_pair_weight_depends_only_on_absolute_offset(spec, step):
    # congruent cells: w_ij has the bits of w_kl whenever the two pairs have
    # the same absolute lattice offset on every axis, the structure that
    # lets the assembly read every weight from one per-offset table
    grid = build_grid(spec)
    kern = build_kernel(grid, spec.n + step)
    lat = grid.lattice
    offsets = np.abs(lat[:, None, :] - lat[None, :, :]).reshape(-1, spec.n)
    group = np.unique(offsets, axis=0, return_inverse=True)[1].ravel()
    bits = kern.w.view(np.int64).ravel()
    chosen = np.empty(group.max() + 1, dtype=np.int64)
    chosen[group] = bits  # one pair's bits per offset class
    assert np.array_equal(chosen[group], bits)


@hypothesis.settings(max_examples=24, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    cells=st.integers(8, 32),
    load=st.sampled_from([0.5, 1.0, 2.0]),
    p=st.sampled_from([1.3, 1.2, 1.1]),
)
@hypothesis.example(cells=12, load=1.0, p=1.1)
def test_fixed_point_stop_keeps_the_solution(cells, load, p):
    # the loop stops once an iteration leaves u and the next search's start
    # unchanged; running on to the stagnation stop ends at the same bits.
    # In the explicit example (6 reflection orbits) iteration 51 leaves u
    # unchanged but restarts the search from the full step, and the solve
    # moves on from there
    grid = build_grid(DomainSpec(1, "interval", (0.0, float(cells)), 1.0))
    kern = build_kernel(grid, kernel_exponent(1, 0.5, p))
    f = load_from_array(np.full(cells, load))
    cfg = solver.SolveConfig(p=p, s=0.5)
    stopped = solver.solve_p(grid, kern, f, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_at_fixed_point", lambda *args: False)
        full = solver.solve_p(grid, kern, f, cfg)
    assert stopped.u.tobytes() == full.u.tobytes()
    assert stopped.breakdown == full.breakdown
    assert stopped.status == full.status
    assert stopped.iterations <= full.iterations


# entries with ties, zeros of both signs and a spread of magnitudes
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_VEC_16 = st.lists(_ENTRY, min_size=16, max_size=16).map(np.array)


@_SETTINGS
@hypothesis.given(
    u=_VEC_16,
    d=_VEC_16,
    load=_VEC_16,
    p=st.floats(1.0, 2.0, exclude_min=True),
    scale=st.integers(-100, 100),
    d_scale=st.sampled_from([-16, -14, -12, -8, -4, 0, 1]),
    load_scale=st.integers(-50, 50),
    step=st.sampled_from([1.0, 0.75, 3.0]),
    j=st.integers(1, 12),
)
def test_backoff_floor_is_below_the_probe_energy(
    kern16, u, d, load, p, scale, d_scale, load_scale, step, j
):
    # the back-off bound's floor never exceeds the float energy of the
    # probe, so a probe it settles fails the float Armijo test run through
    # total_energy. Fields span 1e-100 to 1e100, directions reach down to
    # 1e-16 of the field, where the energy's rounding hides the curvature
    u = u * 10.0 ** scale
    d = d * 10.0 ** (scale + d_scale)
    f = load_from_array(load * 10.0 ** load_scale)
    bound = solver._BackoffBound(f, kern16, p)
    t_a, t_b = step * 0.5 ** j, step * 0.5 ** (j - 1)
    a, b = u + t_a * d, u + t_b * d
    eb_a = total_energy(a, f, kern16, p)
    floor = bound.floor(b, a, eb_a, gradient(a, f, kern16, p))
    f_b = total_energy(b, f, kern16, p).total
    assert f_b >= floor
    f_cur = total_energy(u, f, kern16, p).total
    gd = float(gradient(u, f, kern16, p) @ d)
    rhs = f_cur + solver._ARMIJO_C1 * t_b * gd
    hypothesis.event("settled" if floor > rhs else "open")
    if floor > rhs:
        assert not f_b <= rhs


@pytest.fixture(scope="module")
def cert_case(case16):
    """(grid, p = 1 kernel, its Cheeger constant under unit load, the
    p = 1.1 solution field under unit load) on the 16-cell grids."""
    grid, kern = case16
    ones = load_from_array(np.ones(16))
    h = brute_force_cheeger(grid, ones, kern).h
    kern_p = build_kernel(grid, kernel_exponent(grid.n, 0.5, 1.1))
    solved = solver.solve_p(grid, kern_p, ones, solver.SolveConfig(p=1.1, s=0.5)).u
    return kern, h, solved


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    kind=st.sampled_from(["zero", "tied", "solved"]),
    tied=_FIELD,
    ratio=st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.001, 1.1]),
    bumps=st.lists(st.sampled_from([0.0, 0.0, 0.1, -0.1]), min_size=16, max_size=16),
)
def test_feasible_certificate_passes_verification(cert_case, kind, tied, ratio, bumps):
    # a certificate that build_certificate reports feasible passes every
    # check of verify_certificate; loads sit either side of the unit
    # load's Cheeger constant h, and fields are zero, tied or a solution
    kern, h, solved = cert_case
    u = {"zero": np.zeros(16), "tied": tied, "solved": solved}[kind]
    f = load_from_array(ratio * h * (1.0 + np.array(bumps)))
    cert = build_certificate(u, f, kern)
    hypothesis.event("feasible" if cert.feasible else "infeasible")
    if cert.feasible:
        assert verify_certificate(u, cert, f, kern).passed


def _box_isometries(grid):
    """Cell permutations of the reflections of the grid's bounding box
    and, on a square box, of the swap of its axes."""
    lat = grid.lattice
    hi = lat.max(axis=0)
    images = []
    for k in range(grid.n):
        img = lat.copy()
        img[:, k] = hi[k] - img[:, k]
        images.append(img)
    if grid.n == 2 and hi[0] == hi[1]:
        images.append(lat[:, ::-1])
    index = {tuple(c): i for i, c in enumerate(lat.tolist())}
    return [np.array([index[tuple(c)] for c in img.tolist()]) for img in images]


_SYMMETRIC_CASES = {}


def _symmetric_case(dims):
    """(grid, p = 1 kernel, orbit label of every cell, Cheeger constant of
    the unit load) on a mirror-symmetric interval or a square box."""
    if dims not in _SYMMETRIC_CASES:
        n = len(dims)
        grid = build_grid(DomainSpec(n, "box", (0.0,) * n + tuple(map(float, dims)), 1.0))
        kern = build_kernel(grid, n + 0.5)
        orbit = np.arange(grid.ncells)
        perms = _box_isometries(grid)
        while True:
            nxt = np.minimum.reduce([orbit] + [orbit[perm] for perm in perms])
            if np.array_equal(nxt, orbit):
                break
            orbit = nxt
        h = brute_force_cheeger(grid, load_from_array(np.ones(grid.ncells)), kern).h
        _SYMMETRIC_CASES[dims] = grid, kern, orbit, h
    return _SYMMETRIC_CASES[dims]


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    dims=st.one_of(st.integers(4, 20).map(lambda c: (c,)),
                   st.integers(2, 4).map(lambda c: (c, c))),
    levels=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]), min_size=20, max_size=20),
    zero=st.booleans(),
    ratio=st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0]),
    bump=st.booleans(),
)
@hypothesis.example(dims=(16,), levels=[0.0] * 20, zero=True, ratio=0.999, bump=False)
@hypothesis.example(dims=(4, 4), levels=[0.0] * 20, zero=True, ratio=0.999, bump=False)
@hypothesis.example(dims=(4, 4), levels=[0.0] * 20, zero=True, ratio=1.001, bump=False)
def test_reduced_certificate_matches_the_full_lp(dims, levels, zero, ratio, bump):
    # the zero field, or a field constant on the symmetry orbits of an
    # interval or a square box, with ties across orbits and zero cells,
    # under a symmetric load
    # either side of the unit load's Cheeger constant h: the LP on the tie
    # partition reaches the full LP's verdict and least residual within
    # the partition's bound plus HiGHS's tolerance, and a feasible
    # certificate passes the full verification
    grid, kern, orbit, h = _symmetric_case(dims)
    u = np.zeros(grid.ncells) if zero else np.array(levels)[orbit % len(levels)]
    values = np.full(grid.ncells, ratio * h)
    if bump:
        r2 = np.sum((grid.centers - grid.centers.mean(axis=0)) ** 2, axis=1)
        values *= 1.0 + 0.1 * np.exp(-r2)
    f = load_from_array(values)
    cert = build_certificate(u, f, kern)
    ref = reference_certificate(u, f, kern)
    hypothesis.event("%s field, %s" % ("zero" if zero else "orbit",
                                       "feasible" if ref.feasible else "infeasible"))
    assert cert.feasible == ref.feasible
    assert abs(cert.max_residual - ref.max_residual) <= (_TIE_TOL + 1e-7) * cert.scale
    if cert.feasible:
        assert verify_certificate(u, cert, f, kern).passed


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    dims=st.one_of(
        st.integers(8, 64).map(lambda c: (c,)),
        st.tuples(st.integers(2, 8), st.integers(2, 8)).filter(lambda d: d[0] * d[1] >= 8),
    ),
    p=st.sampled_from([1.3, 1.1]),
    bump=st.booleans(),
)
@hypothesis.example(dims=(64,), p=1.1, bump=True)
@hypothesis.example(dims=(8, 8), p=1.1, bump=True)
def test_symmetric_solve_is_invariant_and_optimal(dims, p, bump):
    # on a box under a constant or centred bump load, the solve runs on the
    # reflection orbits: its field keeps every bit under each isometry of
    # the box, and its energy on the full kernel is that of the loop run
    # on all cells to 1e-9 relative. s = 1/4 admits p = 1.3 in 2-D
    n = len(dims)
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + tuple(map(float, dims)), 1.0))
    kern = build_kernel(grid, kernel_exponent(n, 0.25, p))
    values = np.ones(grid.ncells)
    if bump:
        r2 = np.sum((grid.centers - grid.centers.mean(axis=0)) ** 2, axis=1)
        values = np.exp(-4.0 * r2 / (np.max(r2) + 0.25))
    f = load_from_array(values)
    cfg = solver.SolveConfig(p=p, s=0.25)
    sol = solver.solve_p(grid, kern, f, cfg)
    assert sol.orbits < grid.ncells
    for perm in _box_isometries(grid):
        assert f.values[perm].tobytes() == f.values.tobytes()
        assert sol.u[perm].tobytes() == sol.u.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "orbits", lambda g, k, f: Partition(np.arange(k.m.size)))
        full = solver.solve_p(grid, kern, f, cfg)
    assert full.orbits == grid.ncells
    e, e_full = sol.breakdown.total, full.breakdown.total
    assert abs(e - e_full) <= 1e-9 * abs(e_full)
