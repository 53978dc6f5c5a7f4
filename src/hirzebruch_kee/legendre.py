"""Correspondence between the momentum variable tau and the log-norm
coordinate s of the fiber.

On a profile p the two coordinates are linked by ds = dtau/phi(tau), and phi
is a cubic over tau with known roots,

    phi(tau) = cbar * (tau - 1) * (tau - alpha1) * (alpha2 - tau) / tau,   cbar = -leading,

so partial fractions integrate 1/phi in closed form:

    s = A log(tau - 1) - B log(alpha2 - tau) + C log(tau - alpha1) + const,

    A = 1 / (cbar span (1 - alpha1))            (= 1/beta1),
    B = alpha2 / (cbar span (alpha2 - alpha1))  (= 1/beta2),
    C = -alpha1 / (cbar (1 - alpha1) (alpha2 - alpha1)),

with span = alpha2 - 1 the profile's width of the fiber interval, and
A - B + C = 0 because 1/phi decays like 1/tau^2.  s diverges
logarithmically at both roots, with asymptotic slopes d(log phi)/ds -> beta1
at the lower end and -> -beta2 at the upper end.

The formula is evaluated in the stretched coordinate

    q = log(tau - 1) - log(alpha2 - tau),   tau = 1 + span sigma(q),

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
(tau_phi_of_s), with tau - 1 = span sigma(q) and alpha2 - tau =
span sigma(-q), so it keeps its relative accuracy where tau has
rounded onto a root, and is 0 only once sigma underflows, near |q| = 745.

The coefficients come from the stored roots and the leading coefficient,
which the profile derives from n and beta1, never from beta2, so a profile
with tampered roots stays inconsistent and the finite-difference Einstein
check still sees it.

tau_of_s inverts the formula by safeguarded Newton in q with the analytic
density

    ds/dq = tau / (span * cbar * (tau - alpha1)),

which rises monotonically from A at the lower root to B at the upper one
(alpha1 < 0, i.e. C > 0).  The map is gauged at q = 0, the midpoint
tau = 1 + span/2: s(q) is A q plus C times the change of the bracket from
q = 0, so s(0) = 0 exactly.  So |s| >= min(A, B) |q| brackets every
solve, and the slopes A and B give the start on either side of q = 0.
Started there, Newton settles within 5 steps for |s| up to 1e305 (checked
at every power of ten on eight profiles and at 80,000 random (n, beta1, s)
draws).  A caller that knows the root nearby, as the finite-difference
Ricci stencil of `geometry` does from its centre, may pass a warm start;
one that is not strictly inside the bracket (NaN and +-inf included) falls
back to the slope start, so the solve and its stopping rule stay the same.
A solve that has not settled after 60 steps raises RangeError naming s
rather than return an unconverged q.

One private function, _at_q, evaluates the map at q: tau, phi, ds/dq and
the bracket C multiplies, all from one exp(-|q|).  Each Newton step makes
one such evaluation, and tau_phi_of_s, tau_of_s, s_of_tau, build_map,
log_slope_at_end and both volume integrands in `geometry` read it too, so
the closed form s(q) is written once, in _s_at_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError
from .profile import EinsteinProfile


@dataclass(frozen=True, eq=False)
class TauSMap:
    """Closed-form bijection between tau in (1, alpha2) and every finite s.

    The gauge puts s = 0 at q = 0, the midpoint tau = 1 + span/2.  a, b, c
    are the partial-fraction coefficients A, B, C and c0 the term C
    multiplies at q = 0.
    """

    profile: EinsteinProfile
    a: float
    b: float
    c: float
    c0: float


def _at_q(p: EinsteinProfile, q: float) -> tuple[float, float, float, float]:
    """(tau, phi, ds/dq, log(tau - alpha1) + softplus(q)) at the stretched
    coordinate q: the one evaluation of the map there.

    sigma(q) and sigma(-q) come from one t = exp(-|q|), and tau - 1,
    alpha2 - tau and tau - alpha1 are formed from them, never as a
    difference of tau and a root, so phi keeps its relative accuracy as
    long as it is a normal double (at beta1 = 1 until |q| is about 708; at
    small beta1 the factor span^2 brings that point closer).  In
    ds/dq the root factors of phi cancel exactly; the last value is the
    bracket that C multiplies in s(q).
    """
    t = math.exp(-abs(q))
    big, small = 1.0 / (1.0 + t), t / (1.0 + t)     # sigma(|q|), sigma(-|q|)
    # sigma(q), sigma(-q) and max(q, 0), the last without a builtin call
    sig, sig_neg, q_pos = (big, small, q) if q >= 0.0 else (small, big, 0.0)
    span = p.span
    xi = span * sig
    d2 = (1.0 - p.alpha1) + xi          # tau - alpha1, no cancellation
    tau = 1.0 + xi
    cbar = -p.leading
    phi = cbar * xi * (span * sig_neg) * d2 / tau
    # softplus(q) = max(q, 0) + log1p(t)
    return tau, phi, tau / (span * cbar * d2), math.log(d2) + q_pos + math.log1p(t)


def build_map(p: EinsteinProfile) -> TauSMap:
    """The tau <-> s map gauged to s = 0 at q = 0, the midpoint tau = 1 + span/2."""
    cbar = -p.leading
    d1 = 1.0 - p.alpha1
    d12 = p.alpha2 - p.alpha1
    return TauSMap(profile=p, a=1.0 / (cbar * p.span * d1),
                   b=p.alpha2 / (cbar * p.span * d12),
                   c=-p.alpha1 / (cbar * d1 * d12), c0=_at_q(p, 0.0)[3])


def _s_at_q(m: TauSMap, q: float) -> tuple[float, float]:
    """The closed form s(q), exactly zero at q = 0, and its slope ds/dq."""
    _, _, dsdq, c_term = _at_q(m.profile, q)
    return m.a * q + m.c * (c_term - m.c0), dsdq


def s_of_tau(m: TauSMap, tau: float) -> float:
    """Log-norm coordinate of a momentum value in the open interval (1, alpha2)."""
    p, tau = m.profile, float(tau)
    xi, rho = tau - 1.0, p.alpha2 - tau
    if not (xi > 0.0 and rho > 0.0):
        # the map covers an open interval; s diverges at both endpoints
        raise RangeError(f"tau={tau} not interior to (1, {p.alpha2}); s is unbounded there")
    return _s_at_q(m, math.log(xi) - math.log(rho))[0]


def _q_of_s(m: TauSMap, s: float, start: float = math.nan) -> float:
    """The root q of s(q) = s, by Newton from start if it lies strictly
    inside the bracket, else from the slope start s/A or s/B."""
    s = float(s)
    if not math.isfinite(s):
        raise RangeError(f"s={s} is not finite; tau reaches a root only as |s| -> infinity")
    reach = abs(s) / min(m.a, m.b)
    lo, hi = -reach, reach      # bracket with F(lo) <= 0 <= F(hi)
    # NaN and +-inf fail the test, so they take the slope start
    q = start if lo < start < hi else s / (m.a if s < 0.0 else m.b)
    for _ in range(60):
        s_q, dsdq = _s_at_q(m, q)
        f = s_q - s
        if f < 0.0:
            lo = q
        else:
            hi = q
        qn = q - f / dsdq
        if not lo <= qn <= hi:
            qn = 0.5 * (lo + hi)
        if abs(qn - q) <= 1e-12 * (1.0 + abs(q)):
            return qn                  # final polished Newton update
        q = qn
    raise RangeError(f"the solve of s(q) = s did not settle in 60 steps at s={s}")


def tau_phi_of_s(m: TauSMap, s: float) -> tuple[float, float]:
    """Momentum value and profile value (tau, phi) at a finite s."""
    return _at_q(m.profile, _q_of_s(m, s))[:2]


def tau_of_s(m: TauSMap, s: float) -> float:
    """Momentum value at a finite log-norm coordinate."""
    return _at_q(m.profile, _q_of_s(m, s))[0]


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
    tau, phi, dsdq, _ = _at_q(p, q)
    # log phi = log sigma(q) + log sigma(-q) + log(tau - alpha1) - log tau
    # + const, whose q-derivative is sigma(-q) - sigma(q) = -tanh(q/2) plus
    # alpha1 dtau/dq / ((tau - alpha1) tau); dtau/dq = phi ds/dq
    return -math.tanh(0.5 * q) / dsdq + p.alpha1 * phi / ((tau - p.alpha1) * tau)
