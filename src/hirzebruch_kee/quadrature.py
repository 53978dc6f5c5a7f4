"""Checked Gauss-Legendre quadrature for analytic integrands.

The integrals left to this module are the fiber and total volumes, whose
integrands are polynomials in tau; the fiber lengths are closed forms in
`geometry`.  On analytic integrands a Gauss-Legendre rule converges
geometrically in its order, so `quad_checked` evaluates the rule (nodes by
Newton's method on the Legendre recurrence, computed once per order) at the
doubling orders 8, 16, ..., 256 and returns I_2N as soon as

    |I_2N - I_N| <= max(epsabs, epsrel * |I_2N|).

Nothing is subdivided.  An integrand that is singular or oscillatory on the
interval never settles and raises `QuadratureError` once the orders run
out, and so does any NaN or infinite value or error estimate: the rule
assumes an analytic integrand and refuses to guess when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import QuadratureError

ORDERS = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute/relative integration targets shared by all quadratures."""

    epsabs: float = 1e-12
    epsrel: float = 1e-10


DEFAULT_QUAD = QuadratureConfig()


def _legendre(order: int, x: float) -> tuple[float, float]:
    """P_order(x) and its derivative by the three-term recurrence."""
    p_prev, p = 1.0, x
    for j in range(2, order + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    # (x^2 - 1) P' = order (x P - P_prev); -(1 - x)(1 + x) keeps the digits
    # of x^2 - 1 near x = 1
    return p, order * (x * p - p_prev) / -((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def _rule(order: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of the even-order rule, nodes ascending.

    Newton's method polishes each positive root of P_order from the guess
    cos(pi (k + 3/4)/(order + 1/2)) until its step is within 4 ulp, about
    the rounding noise of the recurrence (it takes 2 to 5 steps at these
    orders); the weight is 2 / ((1 - x^2) P'(x)^2) at the final root.
    """
    upper = []
    for k in range(order // 2):
        x = math.cos(math.pi * (k + 0.75) / (order + 0.5))
        for _ in range(20):
            p, dp = _legendre(order, x)
            step = p / dp
            x -= step
            if abs(step) <= 4.0 * math.ulp(x):
                break
        _, dp = _legendre(order, x)
        upper.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    return [(-x, w) for x, w in upper] + upper[::-1]


def _gauss(fun, mid: float, half: float, order: int) -> float:
    # a NaN or inf value propagates into the sum, which the caller checks
    return half * sum([w * fun(mid + half * x) for x, w in _rule(order)])


def quad_checked(fun, a: float, b: float, cfg: QuadratureConfig | None = None) -> float:
    """Integral of a scalar function over [a, b] (signed), checked by doubling."""
    cfg = cfg or DEFAULT_QUAD
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    prev = _gauss(fun, mid, half, ORDERS[0])
    for order in ORDERS[1:]:
        value = _gauss(fun, mid, half, order)
        err = abs(value - prev)
        if not (math.isfinite(value) and math.isfinite(err)):
            raise QuadratureError(f"integration on [{a}, {b}] is not finite at order "
                                  f"{order}: value {value!r}, error estimate {err!r}")
        if err <= max(cfg.epsabs, cfg.epsrel * abs(value)):
            return value
        prev = value
    raise QuadratureError(f"integration on [{a}, {b}] did not converge by order "
                          f"{ORDERS[-1]}: |I_{ORDERS[-1]} - I_{ORDERS[-2]}| = {err:.3e}")
