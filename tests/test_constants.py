"""Sharp-constant checks.

Oracle routes, all independent of the implementation under test:
  * 1-D chain: the interval perimeter has antiderivative closed form
    Per_s((0,1)) = 2/(s(1-s)), which forces S_{1,s} = s(1-s)/4 and
    C_{1,s,1} = 4*sqrt(2) at s = 1/2.
  * 2-D profile: brute-force trapezoid on the circle integral.
  * 2-D C: nested adaptive quadrature of the raw r-integral.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fraclap import constants
from fraclap.constants import (
    QuadratureError,
    SharpConstants,
    ball_cheeger,
    ball_perimeter,
    c_constant,
    calibrable_radius,
    phi,
    sharp_constants,
    sobolev_constant,
)
from fraclap.domain_grid import BALL_VOLUME

# frozen closed-form arithmetic: (1/2)^(-3/2) + (3/2)^(-3/2)
PHI_1D_HALF = 2.0 ** 1.5 + (2.0 / 3.0) ** 1.5  # 3.3727581786...

# frozen from two independent quadrature routes agreeing to 4e-10
C_2D_HALF = 29.665194837


def phi_2d_oracle(ps, r, npts=1_000_000):
    """Brute-force trapezoid for the circle integral
    2 * integral over (0, pi) of (1 - 2 r cos(th) + r^2)^(-(2+ps)/2)."""
    th = np.linspace(0.0, math.pi, npts)
    vals = (1.0 - 2.0 * r * np.cos(th) + r * r) ** (-(2.0 + ps) / 2.0)
    return 2.0 * float(np.trapezoid(vals, th))


def c_2d_oracle(s, p):
    ps = p * s
    beta = (2.0 - ps) / p

    def profile(r):
        f = lambda th: (1.0 - 2.0 * r * math.cos(th) + r * r) ** (
            -(2.0 + ps) / 2.0
        )
        v = quad(f, 0.0, math.pi, epsabs=1e-12, limit=200, full_output=1)[0]
        return 2.0 * v

    def integrand(r):
        return r ** (ps - 1.0) * (1.0 - r ** beta) * profile(r)

    v1 = quad(integrand, 0.0, 0.5, epsabs=1e-10, limit=300, full_output=1)[0]
    v2 = quad(integrand, 0.5, 1.0, epsabs=1e-10, limit=300, full_output=1)[0]
    return 2.0 * (v1 + v2)


# ---------------------------------------------------------------------------
# profile function
# ---------------------------------------------------------------------------


def test_phi_1d_closed_form():
    assert phi(1, 0.5, 1.0, 0.5) == pytest.approx(PHI_1D_HALF, rel=1e-12)


def test_phi_1d_limit_at_zero():
    # both terms tend to 1, so the profile tends to 2
    assert phi(1, 0.5, 1.0, 1e-12) == pytest.approx(2.0, rel=1e-9)
    assert phi(1, 0.3, 1.1, 1e-12) == pytest.approx(2.0, rel=1e-9)


def test_phi_2d_against_trapezoid_oracle():
    val = phi(2, 0.5, 1.0, 0.5)
    ref = phi_2d_oracle(0.5, 0.5)
    assert val == pytest.approx(ref, rel=1e-6)


def test_phi_domain_error():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            phi(1, 0.5, 1.0, bad)


def test_phi_positive():
    for r in (0.01, 0.25, 0.75, 0.99):
        assert phi(1, 0.5, 1.2, r) > 0
        assert phi(2, 0.5, 1.2, r) > 0


# ---------------------------------------------------------------------------
# C and S
# ---------------------------------------------------------------------------


def test_c_1d_closed_chain():
    # S = 0.0625 with S = 0.5 * (1/2)^0.5 / C forces C = 4*sqrt(2)
    assert c_constant(1, 0.5, 1.0) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-10)


def test_c_positive():
    for (n, s, p) in ((1, 0.3, 1.0), (1, 0.5, 1.2), (2, 0.5, 1.0), (2, 0.4, 1.3)):
        assert c_constant(n, s, p) > 0


def test_c_2d_against_nested_quadrature():
    val = c_constant(2, 0.5, 1.0)
    assert val == pytest.approx(C_2D_HALF, rel=1e-6)
    ref = c_2d_oracle(0.5, 1.0)
    assert val == pytest.approx(ref, rel=1e-4)


def test_sobolev_closed_form_1d():
    for s in (0.3, 0.5, 0.7):
        assert sobolev_constant(1, s, 1.0) == pytest.approx(
            s * (1.0 - s) / 4.0, abs=1e-4
        )
        # far tighter in practice; the chain is exact up to quadrature
        assert sobolev_constant(1, s, 1.0) == pytest.approx(
            s * (1.0 - s) / 4.0, rel=1e-9
        )


def test_critical_exponent_prefactor_at_p1():
    sc = sharp_constants(1, 0.5, 1.0)
    assert sc.p / sc.p_star == pytest.approx((1.0 - 0.5) / 1.0, rel=1e-14)
    sc2 = sharp_constants(2, 0.5, 1.0)
    assert sc2.p / sc2.p_star == pytest.approx((2.0 - 0.5) / 2.0, rel=1e-14)


def test_parameter_validation():
    with pytest.raises(ValueError):
        c_constant(1, 1.5, 1.0)
    with pytest.raises(ValueError):
        c_constant(1, 0.5, 0.8)
    with pytest.raises(ValueError):
        c_constant(1, 0.5, 2.5)  # ps >= 1
    with pytest.raises(ValueError):
        c_constant(3, 0.5, 1.0)


def test_nan_exponent_and_radius_are_rejected():
    # NaN fails the range checks, with a message naming p or the radius,
    # instead of failing inside the quadrature or returning NaN
    nan = float("nan")
    for call in (sharp_constants, c_constant, sobolev_constant):
        with pytest.raises(ValueError, match="p must satisfy p >= 1"):
            call(1, 0.5, nan)
    for call in (ball_cheeger, ball_perimeter):
        for n in (1, 2):
            with pytest.raises(ValueError, match="radius must be positive"):
                call(n, 0.5, nan)


# ---------------------------------------------------------------------------
# ball geometry chain
# ---------------------------------------------------------------------------


def test_interval_perimeter_closed_form():
    # Per_s((-1,1)) = 2^(1-s) * 2/(s(1-s)) = 8*sqrt(2) at s = 1/2
    assert ball_perimeter(1, 0.5, 1.0) == pytest.approx(
        8.0 * math.sqrt(2.0), rel=1e-9
    )


def test_perimeter_scaling():
    for n, s in ((1, 0.5), (2, 0.5), (1, 0.3)):
        ratio = ball_perimeter(n, s, 2.0) / ball_perimeter(n, s, 1.0)
        assert ratio == pytest.approx(2.0 ** (n - s), rel=1e-12)


def test_cheeger_scaling():
    for n, s in ((1, 0.5), (2, 0.7)):
        ratio = ball_cheeger(n, s, 2.0) / ball_cheeger(n, s, 1.0)
        assert ratio == pytest.approx(2.0 ** (-s), rel=1e-12)


def test_interval_cheeger_closed_form():
    # h_s(B_1) = 2^(1-s)/(s(1-s)) = 4*sqrt(2) at s = 1/2
    assert ball_cheeger(1, 0.5, 1.0) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-9)


def test_calibrable_radius_1d():
    assert calibrable_radius(1, 0.5) == pytest.approx(32.0, rel=1e-3)
    assert calibrable_radius(1, 0.5) == pytest.approx(32.0, rel=1e-8)


def test_calibrable_radius_identity():
    for n, s in ((1, 0.5), (1, 0.3), (2, 0.5)):
        r_star = calibrable_radius(n, s)
        assert r_star ** (-s) * ball_cheeger(n, s, 1.0) == pytest.approx(
            1.0, abs=1e-10
        )


def test_calibrable_radius_finite_positive():
    val = calibrable_radius(1, 0.3)
    assert math.isfinite(val) and val > 0


def test_isoperimetric_identity():
    # the closed-form ball perimeter against the quadrature route
    # |B_1|^((n-s)/n) / (2 S_{n,s,1}); the largest gap on this grid is
    # 1.8e-14 relative, at s = 0.65 in 2-D
    for n in (1, 2):
        for s in np.linspace(0.05, 0.95, 19)[1:-1]:
            quadrature = BALL_VOLUME[n] ** ((n - s) / n) / (2.0 * sobolev_constant(n, s, 1.0))
            assert ball_perimeter(n, s, 1.0) == pytest.approx(quadrature, rel=1e-13)
            assert ball_cheeger(n, s, 1.0) == pytest.approx(
                quadrature / BALL_VOLUME[n], rel=1e-13
            )


@pytest.mark.parametrize("call", [ball_perimeter, ball_cheeger])
def test_ball_constants_reject_bad_arguments(call):
    nan = float("nan")
    for n, s, radius, message in (
        (3, 0.5, 1.0, "dimension must be 1 or 2"),
        (0, 0.5, 1.0, "dimension must be 1 or 2"),
        (1, 0.0, 1.0, "order s must lie in"),
        (2, 1.0, 1.0, "order s must lie in"),
        (1, nan, 1.0, "order s must lie in"),
        (1, 0.5, 0.0, "radius must be positive"),
        (2, 0.5, -2.0, "radius must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            call(n, s, radius)


# ---------------------------------------------------------------------------
# record type and determinism
# ---------------------------------------------------------------------------


def test_sharp_constants_record():
    sc = sharp_constants(1, 0.5, 1.2)
    assert sc.p_star == pytest.approx(1.2 / (1.0 - 0.6), rel=1e-14)
    assert sc.p_star > sc.p
    assert sc.c > 0 and sc.sobolev > 0
    assert sc.omega_n == 2.0 and sc.ball_volume == 2.0


def test_sharp_constants_rejects_nonpositive():
    with pytest.raises(ValueError):
        SharpConstants(
            n=1, s=0.5, p=1.0, c=-1.0, sobolev=0.1, p_star=2.0,
            omega_n=2.0, ball_volume=2.0,
        )


def test_quadrature_determinism():
    a = c_constant(2, 0.5, 1.1)
    b = c_constant(2, 0.5, 1.1)
    assert a == b  # bit identical


@pytest.mark.parametrize("n, s, p", [
    (1, 0.5, 1.0), (1, 0.25, 2.0), (2, 0.5, 1.0), (2, 0.3, 1.5), (2, 0.5, 1.1),
])
def test_c_constant_keeps_quad_bits(monkeypatch, n, s, p):
    # both halves' values and error estimates, and so C, have the bits of
    # scipy.integrate.quad, and QUADPACK reports ier = 0 (no warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = c_constant(n, s, p)
        calls = []
        quadrature = constants._quadrature

        def both(func, a, b, epsabs, epsrel, limit):
            want = quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
            calls.append((quadrature(func, a, b, epsabs, epsrel, limit), want))
            return want

        monkeypatch.setattr(constants, "_quadrature", both)
        want = c_constant(n, s, p)
    assert len(calls) == 2
    mine, quads = np.array(calls).transpose(1, 0, 2)
    assert mine.tobytes() == quads.tobytes()
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_quadrature_error_type():
    err = QuadratureError("msg", 1.0, 2.0)
    assert err.value == 1.0 and err.estimate == 2.0
