"""Checked Gauss-Legendre quadrature for analytic integrands.

Every integral in this package is analytic on its closed interval: the
fiber lengths reach `quad_checked` only after `geometry` has removed their
inverse-square-root endpoint singularities by the substitutions
tau = 1 + t^2 and tau = alpha2 - t^2, and the volumes integrate polynomials.
On such integrands a Gauss-Legendre rule converges geometrically in its
order, so `quad_checked` evaluates the rule at the doubling orders
8, 16, ..., 256 and returns I_2N as soon as

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

from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

ORDERS = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute/relative integration targets shared by all quadratures."""

    epsabs: float = 1e-12
    epsrel: float = 1e-10


DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=None)
def _rule(order: int) -> list[tuple[float, float]]:
    # (node, weight) pairs as Python floats: for these few nodes a plain
    # sum beats building an array per call
    return list(zip(*(a.tolist() for a in leggauss(order))))


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
