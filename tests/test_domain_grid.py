"""Grid construction and kernel quadrature checks.

Closed-form oracle values are frozen here; anything labeled "exact" below is
arithmetic that can be verified by hand from the antiderivative
t^(2-alpha) / ((1-alpha)(2-alpha)).
"""

import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy
from scipy.integrate import IntegrationWarning, quad

from fraclap import domain_grid
from fraclap.domain_grid import (
    BALL_VOLUME,
    NEAR_SUBCELLS,
    OMEGA_N,
    DomainSpec,
    Grid,
    build_grid,
    build_kernel,
    kernel_exponent,
    _box_corners,
    _exact_pair_unit,
    _flatten,
    _hybrid_pair_unit,
    _k1d_exact,
    _k2d_exact,
    _near_offsets,
)

# unit-cell pair integrals at alpha = 1.5, from the antiderivative:
#   K(1) = 8 - 4*sqrt(2), K(2) = 4*(2*sqrt(2) - 1 - sqrt(3))
K1_ADJ_15 = 8.0 - 4.0 * math.sqrt(2.0)  # 2.3431457...
K1_OFF2_15 = 4.0 * (2.0 * math.sqrt(2.0) - 1.0 - math.sqrt(3.0))  # 0.3855361...

# single unit cell, full exterior tail: t(alpha) = 2 / ((alpha-1)(2-alpha))
T_UNIT_15 = 8.0
T_UNIT_18 = 12.5


def k2d_oracle(a, b, alpha):
    """Independent route for the 2-D pair integral: reduce one variable with
    the 1-D tent convolution, integrate the other adaptively."""

    def tentconv(t, k):
        # integral over [0,1]^2 of delta(x - y - t) against offset k: the
        # tent max(0, 1 - |t - k|)
        return max(0.0, 1.0 - abs(t - k))

    def inner(z2):
        lo, hi = a - 1.0, a + 1.0

        def f(z1):
            return (
                tentconv(z1, a)
                * (z1 * z1 + z2 * z2) ** (-alpha / 2.0)
            )

        val, _ = quad(f, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        return val * tentconv(z2, b)

    pieces = []
    for lo, hi in ((b - 1.0, float(b)), (float(b), b + 1.0)):
        val, _ = quad(inner, lo, hi, epsabs=1e-11, epsrel=1e-9, limit=200)
        pieces.append(val)
    return sum(pieces)


# ---------------------------------------------------------------------------
# exponents and admissibility
# ---------------------------------------------------------------------------


def test_kernel_exponent_identity():
    # n + s_p * p == (n + s) * p with s_p = n + s - n/p
    for n in (1, 2):
        for s in (0.3, 0.5, 0.7):
            for p in (1.0, 1.1, 1.25):
                s_p = n + s - n / p
                assert math.isclose(
                    n + s_p * p, kernel_exponent(n, s, p), rel_tol=1e-14
                )


def test_exponent_rejection():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.5))
    with pytest.raises(ValueError, match="kernel exponent out of admissible range"):
        build_kernel(grid, 2.25)
    with pytest.raises(ValueError, match="kernel exponent out of admissible range"):
        build_kernel(grid, 1.0)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_interval_grid():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.25))
    assert grid.ncells == 8
    assert grid.measure == pytest.approx(2.0)
    assert grid.centers[0, 0] == pytest.approx(-0.875)
    assert grid.centers[-1, 0] == pytest.approx(0.875)
    assert np.all(np.diff(grid.centers[:, 0]) > 0)


def test_box_grid_2d():
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 1.0, 0.5), 0.25))
    assert grid.ncells == 8
    assert grid.measure == pytest.approx(0.5)
    # lexicographic by (x, y)
    lat = grid.lattice
    order = sorted(map(tuple, lat))
    assert [tuple(r) for r in lat] == order


def test_ball_grid_2d_center_rule():
    grid = build_grid(DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.25))
    # strict center-in rasterization
    assert np.all(np.sum(grid.centers ** 2, axis=1) < 1.0)
    assert grid.measure == pytest.approx(
        BALL_VOLUME[2], rel=0.15
    )  # coarse rasterization


def test_union_grid_dedup():
    spec = DomainSpec(
        2, "union", (((0.0, 0.0, 1.0, 1.0)), ((0.5, 0.0, 1.5, 1.0))), 0.5
    )
    grid = build_grid(spec)
    # 2x2 + 2x2 boxes overlapping in one column: 6 cells
    assert grid.ncells == 6
    assert grid.measure == pytest.approx(1.5)


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError, match="degenerate domain"):
        build_grid(DomainSpec(1, "box", (0.0, 0.0), 0.1))
    with pytest.raises(ValueError, match="degenerate domain"):
        build_grid(DomainSpec(2, "ball", (0.0, 0.0, -1.0), 0.1))
    with pytest.raises(ValueError, match="degenerate domain"):
        build_grid(DomainSpec(1, "interval", (1.0, 0.0), 0.1))


@pytest.mark.parametrize(
    "shape, params",
    [
        ("interval", (0.0, math.inf)),
        ("box", (-math.inf, 1.0)),
        ("ball", (math.nan, 1.0)),
        ("ball", (0.0, math.inf)),
        ("union", ((0.0, 1.0), (2.0, math.inf))),
    ],
)
def test_nonfinite_coordinates_rejected(shape, params):
    with pytest.raises(ValueError, match="must be finite"):
        build_grid(DomainSpec(1, shape, params, 0.5))


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
def test_bad_resolution_rejected(h):
    with pytest.raises(ValueError, match="resolution h must be positive and finite"):
        DomainSpec(1, "interval", (0.0, 1.0), h)


def test_r_out_covers_domain():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.125))
    assert grid.r_out >= grid.diam


def _branchwise_build_grid(spec):
    """build_grid with one branch per shape and a Python loop over union
    cells: the construction before every shape went through the box path."""
    h = float(spec.h)
    if spec.shape == "interval":
        if spec.n != 1:
            raise ValueError("interval shape requires n=1")
        lo, hi = _box_corners(1, spec.params)
        lat = _branchwise_box_lattice(lo, hi, h)
        anchor = lo
    elif spec.shape == "box":
        lo, hi = _box_corners(spec.n, spec.params)
        lat = _branchwise_box_lattice(lo, hi, h)
        anchor = lo
    elif spec.shape == "ball":
        *c, radius = map(float, spec.params)
        if len(c) != spec.n:
            raise ValueError("ball params must be (center..., R)")
        if not all(map(math.isfinite, (*c, radius))):
            raise ValueError("ball center and radius must be finite")
        if radius <= 0:
            raise ValueError("degenerate domain: ball radius must be positive")
        lo = tuple(ci - radius for ci in c)
        hi = tuple(ci + radius for ci in c)
        lat = _branchwise_box_lattice(lo, hi, h)
        centers = lat * h + np.asarray(lo) + 0.5 * h
        inside = np.sum((centers - np.asarray(c)) ** 2, axis=1) < radius ** 2
        lat = lat[inside]
        anchor = lo
    else:
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
        anchor = tuple(min(b[0][k] for b in boxes) for k in range(spec.n))
        seen = set()
        rows = []
        for lo, hi in boxes:
            off = tuple(
                int(round((lo[k] - anchor[k]) / h)) for k in range(spec.n)
            )
            lat_b = _branchwise_box_lattice(lo, hi, h)
            for row in lat_b:
                cell = tuple(int(v) + off[k] for k, v in enumerate(row))
                if cell not in seen:
                    seen.add(cell)
                    rows.append(cell)
        lat = np.array(sorted(rows), dtype=np.int64).reshape(len(rows), spec.n)

    if lat.size == 0:
        raise ValueError("degenerate domain: no cells after snapping")

    lat = lat - lat.min(axis=0)
    order = np.lexsort(tuple(lat[:, k] for k in reversed(range(spec.n))))
    lat = lat[order]
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


def _branchwise_box_lattice(lo, hi, h):
    counts = [max(1, int(round((hi[k] - lo[k]) / h))) for k in range(len(lo))]
    ranges = [np.arange(c, dtype=np.int64) for c in counts]
    if len(counts) == 1:
        return ranges[0][:, None]
    gx, gy = np.meshgrid(ranges[0], ranges[1], indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _grid_or_error(build, spec):
    try:
        grid = build(spec)
    except (ValueError, TypeError) as err:
        return "%s: %s" % (type(err).__name__, err)
    return (
        grid.n, repr(grid.h), grid.centers.dtype, grid.centers.shape,
        grid.centers.tobytes(), grid.lattice.dtype, grid.lattice.shape,
        grid.lattice.tobytes(), repr(grid.measure), repr(grid.diam),
        repr(grid.r_out),
    )


_RESOLUTIONS = (0.1, 0.25, 0.3, 1.0 / 3.0, 0.5, 1.0)


def _random_specs(n, shape, count, seed):
    """Seeded specs of one shape. Half take corners and radii on a quarter
    grid, where (lo - anchor) / h and the widths meet round's half-way ties;
    the other half take them uniform."""
    rng = np.random.default_rng(seed)

    def coords(size, lo, hi):
        if rng.random() < 0.5:
            return tuple(float(v) for v in rng.integers(int(4 * lo), int(4 * hi), size) / 4.0)
        return tuple(float(v) for v in rng.uniform(lo, hi, size))

    def box():
        lo = coords(n, -2, 2)
        return lo + tuple(a + w for a, w in zip(lo, coords(n, 0.25, 3)))

    specs = []
    for _ in range(count):
        h = float(rng.choice(_RESOLUTIONS))
        if shape == "ball":
            params = coords(n, -2, 2) + coords(1, 0.25, 2)
        elif shape == "union":
            params = sum((box() for _ in range(rng.integers(1, 6))), ())
        else:
            params = box()
        specs.append(DomainSpec(n, shape, params, h))
    return specs


# the grids of the benchmark, the CLI probes and the tests above
_NAMED_SPECS = [
    DomainSpec(1, "interval", (-16.0, 16.0), 0.125),
    DomainSpec(1, "interval", (-32.0, 32.0), 0.25),
    DomainSpec(1, "interval", (-64.0, 64.0), 0.5),
    DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 32.0),
    DomainSpec(2, "box", (0.0, 0.0, 32.0, 32.0), 1.0),
    DomainSpec(2, "box", (0.0, 0.0, 48.0, 48.0), 1.0),
    DomainSpec(2, "box", (0.0, 0.0, 1.0, 1.0), 0.3),
    DomainSpec(2, "box", (0.0, 0.0, 3.5, 3.0), 0.5),
    DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.25),
    DomainSpec(1, "union", (0.0, 4.0, 6.0, 10.0), 0.5),
    DomainSpec(2, "union", ((0.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.5, 1.0)), 0.5),
    DomainSpec(1, "union", tuple((float(k), k + 1.0) for k in (3, 4, 9, 17, 29)), 1.0),
]


@pytest.mark.parametrize(
    "n, shape",
    [(1, "interval"), (1, "box"), (2, "box"), (1, "ball"), (2, "ball"),
     (1, "union"), (2, "union")],
)
def test_box_path_keeps_branchwise_grid_bits(n, shape):
    specs = _random_specs(n, shape, 60, seed=10 * n + len(shape))
    specs += [s for s in _NAMED_SPECS if (s.n, s.shape) == (n, shape)]
    for spec in specs:
        assert _grid_or_error(build_grid, spec) == _grid_or_error(
            _branchwise_build_grid, spec
        ), spec


@pytest.mark.parametrize(
    "n, shape, params, h",
    [
        (2, "interval", (0.0, 0.0, 1.0, 1.0), 0.5),
        (1, "interval", (0.0, 1.0, 2.0, 3.0), 0.5),
        (2, "box", (0.0, 1.0, 1.0, 0.5), 0.5),
        (1, "box", (0.0, math.nan), 0.5),
        (2, "ball", (0.0, 1.0), 0.5),
        (1, "ball", (), 0.5),
        (1, "ball", ((0.0,), 1.0), 0.5),
        (2, "ball", (0.0, math.inf, 1.0), 0.5),
        (1, "ball", (0.0, 0.0), 0.5),
        (2, "ball", (0.0, 0.0, 0.1), 1.0),
        (1, "union", (), 0.5),
        (2, "union", (0.0, 0.0, 1.0, 1.0, 2.0), 0.5),
        (1, "union", ((0.0, 1.0), (3.0, 2.0)), 0.5),
    ],
)
def test_box_path_keeps_branchwise_errors(n, shape, params, h):
    spec = DomainSpec(n, shape, params, h)
    error = _grid_or_error(_branchwise_build_grid, spec)
    assert isinstance(error, str)
    assert _grid_or_error(build_grid, spec) == error


@pytest.mark.parametrize(
    "n, params, h",
    [
        (1, (0.0, 1.0, 1e19, 1.0000000000000004e19), 1.0),
        (2, (0.0, 0.0, 1.0, 1.0, 0.0, 1e19, 1.0, 1.0000000000000004e19), 1.0),
        # one cell of one ulp at each end of the float range: the offset
        # between them overflows to inf
        (1, (-1e308, math.nextafter(-1e308, 0.0), 1e308, math.nextafter(1e308, math.inf)),
         math.ulp(1e308)),
    ],
    ids=["1e19", "2d-1e19", "span-overflows"],
)
def test_union_beyond_int64_lattice_is_rejected(n, params, h):
    # past int64 the lattice offsets would become floats whose far cells
    # round together (the first union came out as 4 cells, not 4097)
    with pytest.raises(ValueError, match="beyond the int64 cell lattice"):
        build_grid(DomainSpec(n, "union", params, h))


def test_union_near_int64_keeps_an_int64_lattice():
    grid = build_grid(DomainSpec(1, "union", (0.0, 1.0, 2.0 ** 61, 2.0 ** 61 + 512), 1.0))
    assert grid.lattice.dtype == np.int64
    assert grid.ncells == 513
    assert int(grid.lattice[-1, 0]) == 2 ** 61 + 511


# ---------------------------------------------------------------------------
# exact pair integrals
# ---------------------------------------------------------------------------


def test_k1d_frozen_values():
    assert _k1d_exact(1, 1.5) == pytest.approx(K1_ADJ_15, rel=1e-12)
    assert _k1d_exact(2, 1.5) == pytest.approx(K1_OFF2_15, rel=1e-12)


def test_k1d_matches_quadrature():
    for k in (1, 2):
        for alpha in (1.2, 1.5, 1.8):
            def outer(y, k=k, alpha=alpha):
                val, _ = quad(
                    lambda x: abs(x - y) ** (-alpha), k, k + 1.0,
                    epsabs=1e-12, limit=200,
                )
                return val

            ref, _ = quad(outer, 0.0, 1.0, epsabs=1e-11, limit=200)
            assert _k1d_exact(k, alpha) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("off", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_k2d_matches_independent_quadrature(off):
    alpha = 2.5
    val = _k2d_exact(off[0], off[1], alpha)
    ref = k2d_oracle(off[0], off[1], alpha)
    assert val == pytest.approx(ref, rel=1e-6)


def test_k2d_second_exponent():
    val = _k2d_exact(1, 1, 2.2)
    ref = k2d_oracle(1, 1, 2.2)
    assert val == pytest.approx(ref, rel=1e-6)


def test_k2d_symmetry():
    assert _k2d_exact(2, 1, 2.5) == pytest.approx(_k2d_exact(1, 2, 2.5), rel=1e-12)


# ---------------------------------------------------------------------------
# QUADPACK without scipy.integrate
# ---------------------------------------------------------------------------


def _with_quad(calls):
    """A stand-in for domain_grid._quadrature that records (its result,
    quad's on the same arguments) and hands on quad's."""
    quadrature = domain_grid._quadrature

    def both(func, a, b, epsabs, epsrel, limit):
        want = quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
        calls.append((quadrature(func, a, b, epsabs, epsrel, limit), want))
        return want

    return both


@pytest.mark.parametrize("alpha", [2.05, 2.3, 2.55, 2.95])
def test_k2d_quadrature_keeps_quad_bits(monkeypatch, alpha):
    # each panel's value and error estimate, and so every near integral,
    # has the bits scipy.integrate.quad gives
    offsets = list(_near_offsets(2).values())
    got = np.array([_k2d_exact.__wrapped__(a, b, alpha) for a, b in offsets])
    calls = []
    monkeypatch.setattr(domain_grid, "_quadrature", _with_quad(calls))
    want = np.array([_k2d_exact.__wrapped__(a, b, alpha) for a, b in offsets])
    assert len(calls) >= 2 * len(offsets)
    mine, quads = np.array(calls).transpose(1, 0, 2)
    assert mine.tobytes() == quads.tobytes()
    assert got.tobytes() == want.tobytes()


def _spike(x):
    """An integrand with an inverse square-root singularity at 0.3."""
    return 1.0 / math.sqrt(abs(x - 0.3)) if x != 0.3 else 0.0


def test_quadrature_warns_and_returns_quads_value_on_a_nonzero_ier():
    # three subintervals cannot resolve the spike: ier = 1, as quad reports
    with pytest.warns(UserWarning, match="ier = 1: the maximum number of subdivisions"):
        got = domain_grid._quadrature(_spike, 0.0, 1.0, 1.49e-8, 1.49e-8, 3)
    with pytest.warns(IntegrationWarning):
        want = quad(_spike, 0.0, 1.0, epsabs=1.49e-8, epsrel=1.49e-8, limit=3)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("epsabs, epsrel, limit", [(1e-13, 1e-11, 0), (0.0, 1e-20, 50)])
def test_quadrature_raises_value_error_on_invalid_input(epsabs, epsrel, limit):
    # QUADPACK's ier = 6: no subinterval, or no attainable tolerance
    with pytest.raises(ValueError, match="QUADPACK qagse rejected its input"):
        domain_grid._quadrature(math.sin, 0.0, 1.0, epsabs, epsrel, limit)
    with pytest.raises(ValueError):
        quad(math.sin, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=limit)


def test_missing_quadpack_raises_import_error_naming_scipy(monkeypatch):
    where = "scipy %s at %s has no " % (scipy.__version__, scipy.__file__)
    monkeypatch.setattr(domain_grid, "_QUADPACK", "scipy.integrate._noquadpack")
    with pytest.raises(ImportError) as err:
        domain_grid._quadpack.__wrapped__()
    assert str(err.value).endswith(where + "extension scipy.integrate._noquadpack")
    assert "scipy.integrate._noquadpack" not in sys.modules
    monkeypatch.setitem(sys.modules, domain_grid._QUADPACK, types.ModuleType("stub"))
    with pytest.raises(ImportError) as err:
        domain_grid._quadpack.__wrapped__()
    assert str(err.value).endswith(where + "_qagse in scipy.integrate._noquadpack")


_QUADPACK_ORDER = """\
import hashlib, importlib.util, sys, threading
import numpy as np
from fraclap import domain_grid
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel

NAME = "scipy.integrate._quadpack"
grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 4.0, 4.0), 1.0))
alphas = (2.05, 2.3, 2.55, 2.95)
# the loads fraclap's loader makes; the import system uses its own
# module_from_spec, so scipy's imports do not count here
loads = []
module_from_spec = importlib.util.module_from_spec


def counted(spec):
    loads.append(spec.name)
    return module_from_spec(spec)


def digest(alpha):
    kern = build_kernel(grid, alpha)
    return hashlib.sha256(kern.w.tobytes() + kern.t.tobytes()).hexdigest()


importlib.util.module_from_spec = counted
order = sys.argv[1]
if order == "scipy.integrate first":
    import scipy.integrate
    assert abs(scipy.integrate.quad(np.cos, 0.0, 1.0)[0] - np.sin(1.0)) < 1e-15
if order == "threads":
    # more threads than cores, switching often, all starting at once
    start = threading.Barrier(len(alphas))
    got = [None] * len(alphas)

    def first(k):
        start.wait()
        got[k] = digest(alphas[k])

    threads = [threading.Thread(target=first, args=(k,)) for k in range(len(alphas))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
digests = [digest(alpha) for alpha in alphas]
if order == "threads":
    assert got == digests, (got, digests)
if order == "scipy.integrate first":
    assert loads == [], loads
else:
    assert loads == [NAME], loads
    assert "scipy.integrate" not in sys.modules
    import scipy.integrate
assert sys.modules[NAME] is domain_grid._quadpack() is scipy.integrate._quadpack_py._quadpack
print(*digests)
"""


def test_quadpack_loads_once_in_any_order():
    # the kernel's QUADPACK registers under its full name, where a later
    # import of scipy.integrate finds it; a kernel after scipy.integrate
    # uses scipy's copy; four threads' first 2-D kernels, started at once,
    # load it once; w and t have the same bits in all three
    src = os.path.dirname(os.path.dirname(os.path.abspath(domain_grid.__file__)))
    outputs = []
    for order in ("kernel first", "scipy.integrate first", "threads"):
        proc = subprocess.run(
            [sys.executable, "-c", _QUADPACK_ORDER, order],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (order, proc.stderr)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2] and len(outputs[0].split()) == 4


# ---------------------------------------------------------------------------
# pair weights
# ---------------------------------------------------------------------------


def test_pair_weights_symmetry_zero_diag():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 0.1))
    kern = build_kernel(grid, 1.5)
    assert np.array_equal(kern.w, kern.w.T)
    assert np.all(np.diag(kern.w) == 0.0)
    assert np.all(kern.w[~np.eye(grid.ncells, dtype=bool)] > 0)


def test_adjacent_weight_accuracy_and_refinement():
    # exact adjacent integral on unit cells is K1_ADJ_15; the hybrid rule
    # must land within 5%
    grid = build_grid(DomainSpec(1, "interval", (0.0, 2.0), 1.0))
    kern = build_kernel(grid, 1.5)
    assert abs(kern.w[0, 1] - K1_ADJ_15) / K1_ADJ_15 <= 0.05


def test_offset2_weight_accuracy():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 3.0), 1.0))
    kern = build_kernel(grid, 1.5)
    assert abs(kern.w[0, 2] - K1_OFF2_15) / K1_OFF2_15 <= 0.02


def test_far_weights_are_midpoint():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 8.0), 1.0))
    kern = build_kernel(grid, 1.5)
    # offset 5 is beyond the near range: plain midpoint value 5^(-1.5)
    assert kern.w[0, 5] == pytest.approx(5.0 ** -1.5, rel=1e-14)


def test_pair_weight_scaling():
    # w scales as h^(2n - alpha) at fixed integer offset
    alpha = 1.5
    g1 = build_grid(DomainSpec(1, "interval", (0.0, 4.0), 1.0))
    g2 = build_grid(DomainSpec(1, "interval", (0.0, 2.0), 0.5))
    k1 = build_kernel(g1, alpha)
    k2 = build_kernel(g2, alpha)
    ratio = k2.w[0, 1] / k1.w[0, 1]
    assert ratio == pytest.approx(0.5 ** (2 - alpha), rel=1e-12)


def test_weights_2d_near_subcell_rule_and_far_midpoint():
    # near offsets (center distance <= 3 cells) carry the 4-per-axis subcell
    # rule, everything beyond the plain midpoint value
    h, alpha = 0.5, 2.5
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 3.5, 3.0), h))
    kern = build_kernel(grid, alpha)
    lat = grid.lattice
    near_seen = set()
    for i in range(grid.ncells):
        for j in range(grid.ncells):
            if i == j:
                continue
            a, b = sorted(abs(int(v)) for v in lat[i] - lat[j])[::-1]
            d2 = a * a + b * b
            if d2 <= 9:
                near_seen.add((a, b))
                ref = h ** (4 - alpha) * _hybrid_pair_unit((a, b), alpha, 4, 2)
                assert kern.w[i, j] == ref
            else:
                ref = h ** (4 - alpha) * d2 ** (-alpha / 2.0)
                assert kern.w[i, j] == pytest.approx(ref, rel=1e-14)
    assert near_seen == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)}


def _branchwise_hybrid_pair_unit(offset, alpha, subcells, n):
    """The near-pair rule as one branch per dimension: the byte reference
    for the n-D body of _hybrid_pair_unit."""
    r = int(subcells)
    d = 1.0 / r
    axes = []
    for ka in offset:
        orng = np.arange(ka * r - (r - 1), ka * r + r, dtype=np.int64)
        cnt = r - np.abs(orng - ka * r)
        axes.append((orng, cnt))
    if n == 1:
        orng, cnt = axes[0]
        vals = np.abs(orng).astype(float) ** (-alpha)
        touching = np.abs(orng) == 1
        if np.any(touching):
            vals[touching] = _k1d_exact(1, alpha)
        return d ** (2 * n - alpha) * float(np.sum(cnt * vals))
    (o1, c1), (o2, c2) = axes
    O1, O2 = np.meshgrid(o1, o2, indexing="ij")
    CNT = np.outer(c1, c2).astype(float)
    d2 = (O1 * O1 + O2 * O2).astype(float)
    vals = d2 ** (-alpha / 2.0)
    sup = np.maximum(np.abs(O1), np.abs(O2))
    for oa, ob in ((1, 0), (1, 1)):
        mask = (sup == 1) & (np.minimum(np.abs(O1), np.abs(O2)) == ob)
        if np.any(mask):
            vals[mask] = _k2d_exact(oa, ob, alpha)
    return d ** (2 * n - alpha) * float(np.sum(CNT * vals))


def _branchwise_near_offsets(n):
    """The near-offset table as one table per dimension."""
    if n == 1:
        return {k * k: (k,) for k in (1, 2, 3)}
    table = {}
    for a in range(0, 4):
        for b in range(0, a + 1):
            d2 = a * a + b * b
            if 0 < d2 <= 9:
                table[d2] = (a, b)
    return table


@pytest.mark.parametrize("n", [1, 2])
def test_near_offsets_keep_branchwise_table(n):
    # same keys, same order, same canonical offsets
    assert list(_near_offsets(n).items()) == list(_branchwise_near_offsets(n).items())


# the sweep exponents (n + s) * p at s = 1/2, the 2-D benchmark exponents,
# and grids inside each dimension's window
_BENCH_ALPHAS = {
    1: tuple(1.5 * c for c in (1.0, 1.02, 1.05, 1.1, 1.2, 1.3)),
    2: (2.5, 2.75),
}
_GRID_ALPHAS = {
    1: tuple(1.0 + k / 301.0 for k in range(1, 301)),
    2: tuple(2.0 + k / 41.0 for k in range(1, 41)),
}


@pytest.mark.parametrize("n", [1, 2])
def test_near_rule_keeps_branchwise_bits(n):
    # past the cache, every near offset at every exponent has the reference's
    # bits; in 1-D that pins (o^2) ** (-alpha / 2) to |o| ** (-alpha)
    alphas = _BENCH_ALPHAS[n] + _GRID_ALPHAS[n]
    got, want = [], []
    for alpha in alphas:
        for off in _branchwise_near_offsets(n).values():
            got.append(_hybrid_pair_unit.__wrapped__(off, alpha, NEAR_SUBCELLS, n))
            want.append(_branchwise_hybrid_pair_unit(off, alpha, NEAR_SUBCELLS, n))
    assert np.array_equal(
        np.array(got).view(np.int64), np.array(want).view(np.int64)
    )


def _full_fill_kernel(grid, alpha):
    """(w, t) through full N x N temporaries: the assembly before row blocks."""
    h, n = grid.h, grid.n
    sigma = alpha - n
    kmax = int(math.floor(grid.r_out / h))
    r_snap = (kmax + 0.5) * h
    scale = h ** (2 * n - alpha)
    offsets = _near_offsets(n)
    near = {dd: scale * _exact_pair_unit(off, alpha, n) for dd, off in offsets.items()}
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

    d2 = np.zeros((grid.ncells, grid.ncells), dtype=np.int64)
    for col in grid.lattice.T.astype(np.int64):
        diff = np.subtract.outer(col, col)
        diff *= diff
        d2 += diff
    w = np.zeros(d2.shape)
    far = d2 > 9
    w[far] = scale * d2[far].astype(float) ** (-alpha / 2.0)
    near_idx = {dd: np.flatnonzero(d2 == dd) for dd in offsets}
    for dd, idx in near_idx.items():
        w.flat[idx] = near[dd]
    tail = grid.cell_measure * OMEGA_N[n] / (sigma * r_snap ** sigma)
    t = lattice_sum - w.sum(axis=1) + tail
    for dd, idx in near_idx.items():
        w.flat[idx] = scale * _hybrid_pair_unit(offsets[dd], alpha, NEAR_SUBCELLS, n)
    return w, t


# 1-D cell counts around the 128-row assembly blocks, 2-D boxes of one
# partial, two and three blocks, and balls and unions (whose bounding boxes
# hold cells of no grid) at the sweeps' resolutions h = 0.125 and 0.5
_FULL_FILL_GRIDS = {
    **{"1d-%d" % c: (DomainSpec(1, "box", (0.0, float(c)), 1.0), (1.5, 1.8))
       for c in (1, 127, 128, 129, 300)},
    **{"2d-%dx%d" % box: (DomainSpec(2, "box", (0.0, 0.0) + box, 1.0), (2.5, 2.75))
       for box in ((7, 5), (12, 12), (17, 17))},
    "1d-ball-0.125": (DomainSpec(1, "ball", (0.0, 8.0), 0.125), (1.5, 1.8)),
    "1d-union-0.5": (DomainSpec(1, "union", (0.0, 16.0, 21.5, 40.0), 0.5), (1.5, 1.8)),
    "2d-ball-0.5": (DomainSpec(2, "ball", (0.0, 0.0, 4.0), 0.5), (2.5, 2.75)),
    "2d-ball-0.125": (DomainSpec(2, "ball", (0.0, 0.0, 1.0), 0.125), (2.5, 2.75)),
    "2d-union-0.125": (
        DomainSpec(2, "union", (0.0, 0.0, 1.0, 2.0, 1.5, 0.5, 3.0, 1.25), 0.125),
        (2.5, 2.75),
    ),
    "2d-union-0.5": (
        DomainSpec(2, "union", (0.0, 0.0, 4.0, 2.0, 2.0, 0.0, 5.0, 6.0), 0.5),
        (2.5, 2.75),
    ),
}


@pytest.mark.parametrize(
    "spec, alphas", list(_FULL_FILL_GRIDS.values()), ids=list(_FULL_FILL_GRIDS)
)
def test_blockwise_kernel_keeps_full_fill_bits(spec, alphas):
    grid = build_grid(spec)
    for alpha in alphas:
        kern = build_kernel(grid, alpha)
        w, t = _full_fill_kernel(grid, alpha)
        assert np.array_equal(kern.w.view(np.int64), w.view(np.int64))
        assert np.array_equal(kern.t.view(np.int64), t.view(np.int64))


def test_kernel_assembly_peaks_below_two_pair_arrays():
    # w is the only N x N array; one row block of scratch rides beside it
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 40.0, 40.0), 1.0))
    build_kernel(grid, 2.5)  # fills the per-offset caches outside the trace
    tracemalloc.start()
    try:
        kern = build_kernel(grid, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * kern.w.nbytes


@pytest.mark.parametrize(
    "n, params",
    [(1, (0.0, 1.0, sep, sep + 1.0)) for sep in (1e6, 1e12)]
    + [(2, (0.0, 0.0, 1.0, 1.0, sep, 0.0, sep + 1.0, 1.0)) for sep in (1e4, 1e6)],
    ids=["1d-1e6", "1d-1e12", "2d-1e4", "2d-1e6"],
)
def test_far_spread_union_is_rejected_before_its_lattice(monkeypatch, n, params):
    # two cells far apart pass the dense check, but the exterior lattice sum
    # and the per-offset tables follow the spread; with 16 MB of physical
    # memory each case is rejected before anything grows with its spread
    monkeypatch.setattr(
        os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}.__getitem__
    )
    grid = build_grid(DomainSpec(n, "union", params, 1.0))
    assert grid.ncells == 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            build_kernel(grid, n + 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_near_union_passes_the_lattice_check(monkeypatch):
    # the same two cells 50 apart need about 2.6 MB of the 16 MB: their
    # lattice sum runs 127 cells out
    monkeypatch.setattr(
        os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}.__getitem__
    )
    grid = build_grid(DomainSpec(2, "union", (0.0, 0.0, 1.0, 1.0, 50.0, 0.0, 51.0, 1.0), 1.0))
    kern = build_kernel(grid, 2.5)
    assert kern.w[0, 1] == kern.w[1, 0] == pytest.approx(50.0 ** -2.5, rel=1e-14)


# ---------------------------------------------------------------------------
# exterior tails
# ---------------------------------------------------------------------------


def test_single_cell_tail_closed_form():
    # one unit cell: t = 2 / ((alpha - 1)(2 - alpha)) exactly
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    for alpha, target in ((1.5, T_UNIT_15), (1.8, T_UNIT_18)):
        kern = build_kernel(grid, alpha)
        assert abs(kern.t[0] - target) / target <= 0.02


def test_tails_positive_and_boundary_dominant():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    kern = build_kernel(grid, 1.5)
    assert np.all(kern.t > 0)
    # boundary cells see more exterior than the center cell
    assert kern.t[0] > 3 * kern.t[grid.ncells // 2]
    # symmetry of the domain is reflected in the tails
    assert np.allclose(kern.t, kern.t[::-1], rtol=1e-9)


def test_interval_tail_against_direct_integral():
    # t_i for [0,1] cells at h=0.25: direct integral of the exact kernel
    # over C_i x R\[0,1] has the closed form below
    h = 0.25
    alpha = 1.5
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), h))
    kern = build_kernel(grid, alpha)

    def phi2(t):
        return t ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))

    def cell_tail(a, b):
        # integral over [a,b] x ((-inf,0] u [1,inf)) of |x-y|^(-alpha);
        # the left side integrates to (b^(2-alpha) - a^(2-alpha)) /
        # ((2-alpha)(alpha-1)) = phi2(a) - phi2(b), right side mirrored
        left = phi2(a) - phi2(b)
        right = phi2(1.0 - b) - phi2(1.0 - a)
        return left + right

    for i in range(grid.ncells):
        a = i * h
        ref = cell_tail(a, a + h)
        assert kern.t[i] == pytest.approx(ref, rel=5e-3)


def test_tail_2d_positive_and_symmetric():
    grid = build_grid(DomainSpec(2, "box", (0.0, 0.0, 1.0, 1.0), 0.25))
    kern = build_kernel(grid, 2.5)
    assert np.all(kern.t > 0)
    t = kern.t.reshape(4, 4)
    assert np.allclose(t, t[::-1, :], rtol=1e-9)
    assert np.allclose(t, t[:, ::-1], rtol=1e-9)
    assert np.allclose(t, t.T, rtol=1e-9)
    # the far field behind these tails integrates over the unit circle
    assert OMEGA_N[2] == pytest.approx(2.0 * math.pi)
