import math
import sys

import mpmath as mp
import pytest

from hirzebruch_kee import QuadratureConfig, QuadratureError, quad_checked
from hirzebruch_kee.quadrature import ORDERS, _rule


def test_quad_checked_exact_polynomial():
    val = quad_checked(lambda x: 3.0 * x * x, 0.0, 2.0, QuadratureConfig())
    assert abs(val - 8.0) < 1e-12


def test_quad_checked_flags_exhausted_orders():
    # sin(1/x) oscillates without bound near 0: no order settles, and the
    # rule raises rather than subdividing
    cfg = QuadratureConfig(epsabs=1e-14, epsrel=1e-14)
    with pytest.raises(QuadratureError, match="did not converge"):
        quad_checked(lambda x: math.sin(1.0 / x), 1e-8, 1.0, cfg)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1.1e-14])
def test_quad_checked_meets_tolerance_on_exponential(tol):
    cfg = QuadratureConfig(epsabs=0.01 * tol, epsrel=tol)
    exact = math.e - 1.0
    assert abs(quad_checked(math.exp, 0.0, 1.0, cfg) - exact) <= tol * exact


def test_quad_checked_is_signed():
    assert quad_checked(math.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quad_checked_rejects_non_finite_integrand(bad):
    with pytest.raises(QuadratureError, match="not finite"):
        quad_checked(lambda x: bad, 0.0, 1.0)


def test_quad_checked_rejects_a_single_nan_node():
    # one poisoned node among otherwise smooth values must not be averaged away
    with pytest.raises(QuadratureError, match="not finite"):
        quad_checked(lambda x: math.nan if x > 0.99 else x, 0.0, 1.0)


@pytest.mark.parametrize("order", ORDERS)
def test_rule_matches_mpmath_newton(order):
    # reference: each root polished by Newton's method on mp.legendre at 40
    # digits (two steps from a double square the error twice).  Measured
    # worst: nodes 1.66 ulp (order 256), weights 0.59 eps absolute at every
    # order and 6.0 / 16.9 ulp relative at orders 8 / 16 (numpy's leggauss:
    # 58 / 63 ulp there, and 28 eps absolute at order 128)
    rule = _rule(order)
    assert [x for x, _ in rule] == sorted(-x for x, _ in rule)
    assert [w for _, w in rule] == [w for _, w in reversed(rule)]

    def p_and_dp(r):
        p = mp.legendre(order, r)
        return p, order * (r * p - mp.legendre(order - 1, r)) / (r * r - 1)

    with mp.workdps(40):
        for x, w in rule[order // 2:]:
            r = mp.mpf(x)
            for _ in range(2):
                p, dp = p_and_dp(r)
                r -= p / dp
            _, dp = p_and_dp(r)
            w_ref = 2 / ((1 - r * r) * dp * dp)
            assert abs(mp.mpf(x) - r) <= 2 * math.ulp(x)
            assert abs(mp.mpf(w) - w_ref) <= sys.float_info.epsilon
            if order <= 16:
                assert abs(mp.mpf(w) - w_ref) <= 20 * math.ulp(w)
