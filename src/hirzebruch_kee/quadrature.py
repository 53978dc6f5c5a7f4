"""Checked trapezoid rule over the whole line, for integrands that decay.

The integrals left to this module are the fiber and total volumes, taken in
the map's stretched coordinate q, where the integrands are analytic in a
strip about the real line and decay like exp(-|q|) whatever the profile.
On such integrands the trapezoid rule converges exponentially in 1/h
(Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014), and the substitution q = 2 sinh t (after Takahasi
and Mori, 1974) makes the tails decay double exponentially in t, so a short
window |t| <= 3.75 reaches |q| = 42.5.

`quad_checked` sums the rule at the steps 1/4 and 1/8 in t, the fine level
reusing the coarse nodes, and returns the fine sum.  Halving h squares the
error of an exponentially convergent rule, so levels that agree to 1e-7 of
the integrand's mass leave the fine sum within about 1e-14; the volumes'
levels agree to about 1e-15.  It raises `QuadratureError` on a NaN or
infinite value, when the levels disagree (an integrand that oscillates, or
is singular near the line) and when the outermost terms are not below
rounding (an integrand that does not decay): the rule refuses to guess.
"""

from __future__ import annotations

import math
import sys

from .errors import QuadratureError

_H = 0.125                 # the fine step in t; the coarse step is 2 _H
_REL_TOL = 1e-7            # on |I_fine - I_coarse|, relative to the mass
# (q, dq/dt) at t = k _H, |t| <= 3.75
_NODES = tuple((2.0 * math.sinh(k * _H), 2.0 * math.cosh(k * _H)) for k in range(-30, 31))


def quad_checked(fun) -> float:
    """Integral of fun(q) over the whole real line, checked by halving h."""
    terms = [fun(q) * dqdt for q, dqdt in _NODES]
    for (q, _), term in zip(_NODES, terms):
        if not math.isfinite(term):
            raise QuadratureError(f"integrand is not finite at q = {q!r}: {term!r}")
    fine = _H * math.fsum(terms)
    coarse = 2.0 * _H * math.fsum(terms[::2])
    mass = _H * math.fsum(map(abs, terms))
    tail = _H * (abs(terms[0]) + abs(terms[-1]))
    if tail > sys.float_info.epsilon * mass:
        raise QuadratureError(f"integrand does not decay: the end terms at |q| = "
                              f"{_NODES[-1][0]:.4g} carry {tail / mass:.1e} of its mass")
    if abs(fine - coarse) > _REL_TOL * mass:
        raise QuadratureError(f"steps {2 * _H} and {_H} in t disagree by "
                              f"{abs(fine - coarse) / mass:.1e} of the mass")
    return fine
