"""Correspondence between the momentum variable tau and the log-norm
coordinate s of the fiber.

On a profile p the two coordinates are linked by ds = dtau/phi(tau), and phi
is a cubic over tau with known roots,

    phi(tau) = cbar * (tau - 1) * (tau - alpha1) * (alpha2 - tau) / tau,   cbar = -leading,

so partial fractions integrate 1/phi in closed form:

    s = A log(tau - 1) - B log(alpha2 - tau) + C log(tau - alpha1) + const,

    A = 1 / (cbar (alpha2 - 1) (1 - alpha1))              (= 1/beta1),
    B = alpha2 / (cbar (alpha2 - 1) (alpha2 - alpha1))    (= 1/beta2),
    C = -alpha1 / (cbar (1 - alpha1) (alpha2 - alpha1)),

with A - B + C = 0 because 1/phi decays like 1/tau^2.  s diverges
logarithmically at both roots, with asymptotic slopes d(log phi)/ds -> beta1
at the lower end and -> -beta2 at the upper end.

The formula is evaluated in the stretched coordinate

    q = log(tau - 1) - log(alpha2 - tau),   tau = 1 + (alpha2 - 1) sigma(q),

with sigma the logistic function.  Since log sigma(q) = -softplus(-q) and
softplus(q) - softplus(-q) = q, it reads

    s = A q + C (log(tau - alpha1) + softplus(q)) + const.

As beta1 -> 0 no two large terms cancel (A grows like 1/beta1 while C stays
of order one).  Near n beta1 -> 2 they do: alpha2 grows without bound, and
C (log(tau - alpha1) + softplus(q) - c0) subtracts two logs of size
log(alpha2) (about 6 at (n, beta1) = (4, 0.4975), 23 at (2, 1 - 1e-10)), so
round trips s -> q -> s there miss s = +-1 by 10-12 eps, where elsewhere
they stay within a few ulp.

q also sidesteps a representability wall: at beta1 near 1, |s| >= 40
requires tau - 1 ~ exp(-40), far below the spacing of doubles around 1,
while q there is perfectly representable; only the cosmetic tau saturates.
So the map covers every finite s.  phi is formed from q as well
(tau_phi_of_s), with tau - 1 = (alpha2 - 1) sigma(q) and alpha2 - tau =
(alpha2 - 1) sigma(-q), so it keeps its relative accuracy where tau has
rounded onto a root, and is 0 only once sigma underflows, near |q| = 745.

The coefficients come from the stored roots and leading coefficient, never
from the beta fields, so a profile with tampered roots stays inconsistent
and the finite-difference Einstein check still sees it.

tau_of_s inverts the formula by safeguarded Newton in q with the analytic
density

    ds/dq = tau / ((alpha2 - 1) * cbar * (tau - alpha1)),

which rises monotonically from A at the lower root to B at the upper one
(alpha1 < 0, i.e. C > 0).  So |s| >= min(A, B) |q - q0| brackets every
solve, and the slopes A and B give the start on either side of the gauge
point tau0 = (1 + alpha2)/2, where s = 0.  Started there, Newton settles
within 5 steps for |s| up to 1e305 (checked at every power of ten on eight
profiles and at 80,000 random (n, beta1, s) draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError
from .profile import EinsteinProfile


@dataclass(frozen=True, eq=False)
class TauSMap:
    """Closed-form bijection between tau in (1, alpha2) and every finite s.

    The gauge puts s = 0 at the midpoint tau0 = (1 + alpha2)/2.  a, b, c are
    the partial-fraction coefficients A, B, C; q0 is the gauge point in the
    stretched coordinate and c0 the term C multiplies there.
    """

    profile: EinsteinProfile
    tau0: float
    q0: float
    a: float
    b: float
    c: float
    c0: float


def _sigma(q: float) -> float:
    """Stable logistic 1/(1 + exp(-q))."""
    t = math.exp(-abs(q))
    return 1.0 / (1.0 + t) if q >= 0.0 else t / (1.0 + t)


def _tau_phi_at_q(p: EinsteinProfile, q: float) -> tuple[float, float]:
    """(tau, phi) at the stretched coordinate q: the package's one phi.

    tau - 1, alpha2 - tau and tau - alpha1 are formed from q, never as a
    difference of tau and a root, so phi keeps its relative accuracy until
    sigma(q) or sigma(-q) underflows, near |q| = 745.
    """
    span = p.alpha2 - 1.0
    xi = span * _sigma(q)
    rho = span * _sigma(-q)
    d2 = (1.0 - p.alpha1) + xi
    tau = 1.0 + xi
    return tau, -p.leading * xi * rho * d2 / tau


def _q_from_tau(p: EinsteinProfile, tau: float) -> float:
    xi = tau - 1.0
    rho = p.alpha2 - tau
    if not (xi > 0.0 and rho > 0.0):
        # the map covers an open interval; s diverges at both endpoints
        raise RangeError(f"tau={tau} not interior to (1, {p.alpha2}); s is unbounded there")
    return math.log(xi) - math.log(rho)


def _dsdq(p: EinsteinProfile, q: float) -> float:
    """Analytic density ds/dq; the root factors of phi cancel exactly."""
    span = p.alpha2 - 1.0
    sig = _sigma(q)
    tau = 1.0 + span * sig
    d2 = (1.0 - p.alpha1) + span * sig    # tau - alpha1, no cancellation
    cbar = -p.leading
    return tau / (span * cbar * d2)


def _c_term(p: EinsteinProfile, q: float) -> float:
    """log(tau - alpha1) + softplus(q), the bracket C multiplies."""
    d2 = (1.0 - p.alpha1) + (p.alpha2 - 1.0) * _sigma(q)
    return math.log(d2) + max(q, 0.0) + math.log1p(math.exp(-abs(q)))


def build_map(p: EinsteinProfile) -> TauSMap:
    """The tau <-> s map gauged to s = 0 at tau0 = (1 + alpha2)/2."""
    tau0 = 0.5 * (1.0 + p.alpha2)
    q0 = _q_from_tau(p, tau0)
    cbar = -p.leading
    span = p.alpha2 - 1.0
    d1 = 1.0 - p.alpha1
    d12 = p.alpha2 - p.alpha1
    return TauSMap(profile=p, tau0=tau0, q0=q0,
                   a=1.0 / (cbar * span * d1), b=p.alpha2 / (cbar * span * d12),
                   c=-p.alpha1 / (cbar * d1 * d12), c0=_c_term(p, q0))


def _s_at_q(m: TauSMap, q: float) -> float:
    """The closed form s(q), zero at the gauge point q0."""
    return m.a * (q - m.q0) + m.c * (_c_term(m.profile, q) - m.c0)


def s_of_tau(m: TauSMap, tau: float) -> float:
    """Log-norm coordinate of a momentum value in the open interval (1, alpha2)."""
    return _s_at_q(m, _q_from_tau(m.profile, float(tau)))


def _q_of_s(m: TauSMap, s: float) -> float:
    s = float(s)
    if not math.isfinite(s):
        raise RangeError(f"s={s} is not finite; tau reaches a root only as |s| -> infinity")
    reach = abs(s) / min(m.a, m.b)
    lo, hi = m.q0 - reach, m.q0 + reach   # bracket with F(lo) <= 0 <= F(hi)
    q = m.q0 + s / (m.a if s < 0.0 else m.b)
    for _ in range(60):
        f = _s_at_q(m, q) - s
        if f < 0.0:
            lo = q
        else:
            hi = q
        qn = q - f / _dsdq(m.profile, q)
        if not lo <= qn <= hi:
            qn = 0.5 * (lo + hi)
        if abs(qn - q) <= 1e-12 * (1.0 + abs(q)):
            return qn                  # final polished Newton update
        q = qn
    return q


def tau_phi_of_s(m: TauSMap, s: float) -> tuple[float, float]:
    """Momentum value and profile value (tau, phi) at a finite s."""
    return _tau_phi_at_q(m.profile, _q_of_s(m, s))


def tau_of_s(m: TauSMap, s: float) -> float:
    """Momentum value at a finite log-norm coordinate."""
    return _tau_phi_at_q(m.profile, _q_of_s(m, s))[0]


def log_slope_at_end(m: TauSMap, end: str, s_probe: float) -> float:
    """Logarithmic slope d(log phi)/ds = phi'(tau(s)) deep in one tail.

    Converges to beta1 as s -> -infinity (end="lower") and to -beta2 as
    s -> +infinity (end="upper"); the leftover error decays like exp(-|s|
    beta).  The momentum is recovered in the stretched coordinate, so probes
    far beyond the floating-point resolution of tau itself remain exact.
    """
    if end not in ("lower", "upper"):
        raise DomainError(f"end must be 'lower' or 'upper', got {end!r}")
    s_probe = float(s_probe)
    if abs(s_probe) < 20.0:
        raise DomainError(f"slope probes need |s| >= 20, got {s_probe}")
    if (end == "lower") != (s_probe < 0.0):
        raise DomainError(f"end={end!r} expects s of the {'negative' if end == 'lower' else 'positive'} sign")
    q = _q_of_s(m, s_probe)
    p = m.profile
    tau, phi = _tau_phi_at_q(p, q)
    # log phi = log sigma(q) + log sigma(-q) + log(tau - alpha1) - log tau
    # + const, whose q-derivative is sigma(-q) - sigma(q) = -tanh(q/2) plus
    # alpha1 dtau/dq / ((tau - alpha1) tau); dtau/dq = phi ds/dq
    return -math.tanh(0.5 * q) / _dsdq(p, q) + p.alpha1 * phi / ((tau - p.alpha1) * tau)


def y_of_tau(p: EinsteinProfile, tau: float) -> float:
    """Collapse-rescaled fiber coordinate y = (tau - 1 - n b/2)/(n b^2/2).

    Centered at the small-angle fiber midpoint and scaled so the fiber stays
    order-one as beta1 -> 0; y(1) = -1/beta1 exactly.
    """
    tau = float(tau)
    tol = 16.0 * math.ulp(max(1.0, p.alpha2))
    if not 1.0 - tol <= tau <= p.alpha2 + tol:
        raise DomainError(f"tau={tau} outside [1, {p.alpha2}]")
    nb = p.n * p.beta1
    return (tau - 1.0 - 0.5 * nb) / (0.5 * nb * p.beta1)


def tau_of_y(p: EinsteinProfile, y: float) -> float:
    """Inverse of y_of_tau; y = 0 is tau = 1 + n*beta1/2 exactly."""
    y = float(y)
    nb = p.n * p.beta1
    y_top = y_of_tau(p, p.alpha2)
    tol = 16.0 * math.ulp(max(1.0, abs(y_top), 1.0 / p.beta1))
    if not -1.0 / p.beta1 - tol <= y <= y_top + tol:
        raise DomainError(f"y={y} outside [{-1.0 / p.beta1}, {y_top}]")
    return 1.0 + 0.5 * nb + y * (0.5 * nb * p.beta1)
