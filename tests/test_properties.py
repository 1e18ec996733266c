"""Properties checked on examples drawn by Hypothesis (skipped where it is
not installed). The draws are derandomized, so every run sees the same
examples."""

import numpy as np
import pytest

from fraclap import solver
from fraclap.certify import build_certificate, verify_certificate
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel, kernel_exponent
from fraclap.energy import gradient, load_from_array, seminorm_power, total_energy
from fraclap.geometry import (
    brute_force_cheeger,
    coarea_decompose,
    perimeter,
    threshold_cheeger,
    weighted_volume,
)

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
    # every layer, updated row by row from the one before, has the bits of
    # the perimeter of its own mask and of half the indicator's p = 1
    # seminorm power; the threshold search tabulates exactly these layers
    hypothesis.assume(np.any(u > 0))
    f = load_from_array(np.ones(16))
    layers = coarea_decompose(u, f, kern16)
    assert [layer.level for layer in layers] == sorted(set(u[u > 0].tolist()))
    for layer in layers:
        mask = u >= layer.level
        assert layer.perimeter == perimeter(mask, kern16)
        assert layer.perimeter == 0.5 * seminorm_power(mask.astype(float), kern16, 1.0)
    table = threshold_cheeger(u, f, kern16).table
    assert table == [
        (layer.level, layer.perimeter, layer.weighted_volume,
         layer.perimeter / layer.weighted_volume)
        for layer in layers
    ]


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


@hypothesis.settings(max_examples=24, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    cells=st.integers(8, 32),
    load=st.sampled_from([0.5, 1.0, 2.0]),
    p=st.sampled_from([1.3, 1.2, 1.1]),
)
@hypothesis.example(cells=12, load=2.0, p=1.1)
def test_fixed_point_stop_keeps_the_solution(cells, load, p):
    # the loop stops once an iteration leaves u and the next search's start
    # unchanged; running on to the stagnation stop ends at the same bits.
    # In the explicit example an iteration leaves u unchanged but restarts
    # the search from the full step, and the solve moves on from there
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
