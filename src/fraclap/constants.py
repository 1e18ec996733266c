"""Sharp constants of the fractional Sobolev inequality and ball geometry.

Everything here is continuum arithmetic: the profile function phi, the
one-dimensional r-integral C_{n,s,p}, the sharp constant S_{n,s,p}, and the
closed-form chain for ball perimeters, ball Cheeger constants, the
Faber-Krahn bound, and the calibrable critical radius. Quadrature is
adaptive Gauss-Kronrod with substitutions that absorb both endpoint
singularities: QUADPACK's qagse through domain_grid._quadrature, which
keeps quad's bits without importing scipy.integrate. scipy's hyp2f1 is
imported by the functions that call it, so the ball constants, which are
closed forms, load neither QUADPACK nor scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from fraclap.domain_grid import BALL_VOLUME, OMEGA_N, _quadrature


class QuadratureError(RuntimeError):
    """Raised when an adaptive integral fails its error tolerance.

    Carries the estimated value and error so callers can report them.
    """

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


def _validate(n: int, s: float, p: float) -> None:
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2, got %r" % (n,))
    if not (0.0 < s < 1.0):
        raise ValueError("order s must lie in (0, 1)")
    if not p >= 1.0:  # NaN fails too
        raise ValueError("integrability p must satisfy p >= 1")
    if p * s >= min(1.0, float(n)):
        raise ValueError("parameters out of range: need p*s < 1 and p*s < n")


def phi(n: int, s: float, p: float, r: float) -> float:
    """Angular profile of the sharp-constant integrand, r in (0, 1).

    n = 1: (1-r)^(-1-ps) + (1+r)^(-1-ps).
    n = 2: 2*pi*(1-r^2)^(-1-ps) * 2F1(-ps/2, -ps/2; 1; r^2), the closed form
    of the circle integral of |x - r*e|^(-2-ps) over the unit circle.
    """
    _validate(n, s, p)
    if not (0.0 < r < 1.0):
        raise ValueError("profile argument r must lie in (0, 1)")
    ps = p * s
    if n == 1:
        return (1.0 - r) ** (-1.0 - ps) + (1.0 + r) ** (-1.0 - ps)
    from scipy.special import hyp2f1

    r2 = r * r
    return 2.0 * math.pi * (1.0 - r2) ** (-1.0 - ps) * float(
        hyp2f1(-ps / 2.0, -ps / 2.0, 1.0, r2)
    )


def _bounded_profile(n: int, ps: float, q: float) -> float:
    """A(q) = q^(1+ps) * phi(1-q), finite on [0, 1/2]."""
    if n == 1:
        if q == 0.0:
            return 1.0
        return 1.0 + (q / (2.0 - q)) ** (1.0 + ps)
    if q == 0.0:
        return (
            2.0 * math.pi
            * 2.0 ** (-1.0 - ps)
            * math.gamma(1.0 + ps)
            / math.gamma(1.0 + ps / 2.0) ** 2
        )
    from scipy.special import hyp2f1

    omq = 1.0 - q
    return 2.0 * math.pi * (2.0 - q) ** (-1.0 - ps) * float(
        hyp2f1(-ps / 2.0, -ps / 2.0, 1.0, omq * omq)
    )


def c_constant(n: int, s: float, p: float) -> float:
    """C_{n,s,p} = 2 * integral over (0,1) of r^(ps-1) (1 - r^beta) phi(r) dr,
    beta = (n - ps)/p.

    Split at 1/2. Left half: substitute u = r^ps, which turns r^(ps-1) dr
    into du/ps and leaves a bounded smooth integrand. Right half: substitute
    q = 1 - r then v = q^(1-ps); the q^(-ps) factor is absorbed into dv and
    the rest is the bounded profile A(q) = q^(1+ps) phi(1-q). The factor
    1 - (1-q)^beta is evaluated as -expm1(beta*log1p(-q)) so it stays
    accurate down to q near machine zero.
    """
    _validate(n, s, p)
    ps = p * s
    beta = (n - ps) / p
    phi0 = OMEGA_N[n]  # phi(0): the unit sphere's boundary measure

    def left(u):
        r = u ** (1.0 / ps)
        if r == 0.0:
            return phi0 / ps
        return (1.0 - r ** beta) * phi(n, s, p, r) / ps

    def right(v):
        q = v ** (1.0 / (1.0 - ps))
        if q == 0.0:
            return beta * _bounded_profile(n, ps, 0.0) / (1.0 - ps)
        frac = -math.expm1(beta * math.log1p(-q)) / q
        return frac * _bounded_profile(n, ps, q) * (1.0 - q) ** (ps - 1.0) / (
            1.0 - ps
        )

    u_hi = 0.5 ** ps
    v_hi = 0.5 ** (1.0 - ps)
    val_l, err_l = _quadrature(left, 0.0, u_hi, 1e-12, 1e-11, 300)
    val_r, err_r = _quadrature(right, 0.0, v_hi, 1e-12, 1e-11, 300)
    value = 2.0 * (val_l + val_r)
    err = 2.0 * (err_l + err_r)
    if not math.isfinite(value) or err > max(1e-9, 1e-6 * abs(value)):
        raise QuadratureError(
            "non-convergent quadrature for C: estimated error %.3e" % err,
            value,
            err,
        )
    return value


def sobolev_constant(n: int, s: float, p: float) -> float:
    """S_{n,s,p} = (p/p*) (n/omega_n)^(sp/n) / C_{n,s,p}, p* = np/(n-sp)."""
    return sharp_constants(n, s, p).sobolev


def _unit_ball_perimeter(n: int, s: float) -> float:
    """Per_s(B_1) in closed form:

        2^(1-s) pi^((n-1)/2) Gamma((1-s)/2) omega_n / (s (n-s) Gamma((n-s)/2)),

    with omega_n = OMEGA_N[n]. It equals |B_1|^((n-s)/n) / (2 S_{n,s,1}),
    the quadrature route, which calibrable_radius checks it against.
    """
    _validate(n, s, 1.0)
    return (
        2.0 ** (1.0 - s)
        * math.pi ** ((n - 1) / 2.0)
        * math.gamma((1.0 - s) / 2.0)
        * OMEGA_N[n]
        / (s * (n - s) * math.gamma((n - s) / 2.0))
    )


def ball_perimeter(n: int, s: float, radius: float) -> float:
    """Fractional s-perimeter of the ball B_radius: radius^(n-s) Per_s(B_1)."""
    if not radius > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    return radius ** (n - s) * _unit_ball_perimeter(n, s)


def ball_cheeger(n: int, s: float, radius: float) -> float:
    """Weighted Cheeger constant of a ball under the unit load:
    Per_s(B_R)/|B_R| = R^(-s) Per_s(B_1)/|B_1|."""
    if not radius > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    return radius ** (-s) * _unit_ball_perimeter(n, s) / BALL_VOLUME[n]


def faber_krahn_bound(n: int, s: float, volume: float) -> float:
    """Unit-load Cheeger constant of the ball with the given volume,
    |Omega|^(-s/n) / (2 S_{n,s,1}): by the fractional Faber-Krahn
    inequality no domain of that volume has a smaller one. Taken through
    the radius, so an interval's length gives its own closed form."""
    return ball_cheeger(n, s, (volume / BALL_VOLUME[n]) ** (1.0 / n))


def calibrable_radius(n: int, s: float) -> float:
    """Radius R* with h_s(B_{R*}) = 1.

    Two algebraically equal routes are computed and cross-checked: the
    closed form h_s(B_1)^(1/s) and the quadrature route
    (2 S_{n,s,1})^(-1/s) |B_1|^(-1/n).
    """
    h1 = ball_cheeger(n, s, 1.0)
    r_a = h1 ** (1.0 / s)
    sob = sobolev_constant(n, s, 1.0)
    r_b = (2.0 * sob) ** (-1.0 / s) * BALL_VOLUME[n] ** (-1.0 / n)
    if abs(r_a - r_b) > 1e-8 * max(r_a, r_b):
        raise QuadratureError(
            "calibrable radius routes disagree", r_a, abs(r_a - r_b)
        )
    return r_a


@dataclass(frozen=True)
class SharpConstants:
    """Bundle of the constants for one (n, s, p) triple."""

    n: int
    s: float
    p: float
    c: float  # C_{n,s,p}
    sobolev: float  # S_{n,s,p}
    p_star: float  # np/(n - sp)
    omega_n: float
    ball_volume: float

    def __post_init__(self):
        if min(self.c, self.sobolev, self.p_star) <= 0:
            raise ValueError("sharp constants must be strictly positive")
        if self.p_star <= self.p:
            raise ValueError("critical exponent must exceed p")


def sharp_constants(n: int, s: float, p: float) -> SharpConstants:
    """Evaluate all constants for (n, s, p) into one immutable record."""
    _validate(n, s, p)
    c_val = c_constant(n, s, p)
    frac = (n - s * p) / n
    sob = frac * (n / OMEGA_N[n]) ** (s * p / n) / c_val
    return SharpConstants(
        n=n,
        s=s,
        p=p,
        c=c_val,
        sobolev=sob,
        p_star=n * p / (n - s * p),
        omega_n=OMEGA_N[n],
        ball_volume=BALL_VOLUME[n],
    )
