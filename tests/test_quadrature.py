import math

import pytest

from hirzebruch_kee import QuadratureConfig, QuadratureError, quad_checked


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
