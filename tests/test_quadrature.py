import math

import pytest

from hirzebruch_kee import QuadratureConfig, QuadratureError, quad_checked


def test_quad_checked_exact_polynomial():
    val = quad_checked(lambda x: 3.0 * x * x, 0.0, 2.0, QuadratureConfig())
    assert abs(val - 8.0) < 1e-12


def test_quad_checked_flags_exhausted_subdivisions():
    cfg = QuadratureConfig(epsabs=1e-14, epsrel=1e-14, limit=2)
    with pytest.raises(QuadratureError):
        quad_checked(lambda x: math.sin(1.0 / x), 1e-8, 1.0, cfg)
