import math

import mpmath as mp
import pytest

from hirzebruch_kee import (QuadratureError, fiber_volume, make_profile,
                            quad_checked, total_volume)

# the volume pairs span beta1 -> 0, beta1 = 1 and n beta1 -> 2
VOLUME_PAIRS = [(1, 1.0), (2, 1e-3), (1, 1e-6), (3, 0.4), (4, 0.4975),
                (2, 1.0 - 1e-10), (3, 1e-8), (1, 1e-12), (1, 0.0125),
                (2, 0.999999), (3, 0.666666), (4, 1e-3), (1, 0.5), (2, 0.6)]


@pytest.mark.parametrize("fun, exact", [
    (lambda q: 1.0 / (2.0 + 2.0 * math.cosh(q)), 1.0),   # sigma(q) sigma(-q)
    (lambda q: math.exp(-q * q), math.sqrt(math.pi)),
    (lambda q: 1.0 / math.cosh(q), math.pi),
], ids=["logistic", "gaussian", "sech"])
def test_quad_checked_exact_whole_line_integrals(fun, exact):
    assert quad_checked(fun) == pytest.approx(exact, rel=4e-16)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quad_checked_rejects_non_finite_integrand(bad):
    with pytest.raises(QuadratureError, match="not finite"):
        quad_checked(lambda q: bad)


def test_quad_checked_rejects_infinities_of_both_signs():
    # math.fsum raises ValueError on inf - inf; the rule must say
    # QuadratureError before it sums
    with pytest.raises(QuadratureError, match="not finite"):
        quad_checked(lambda q: math.inf if q > 0.0 else -math.inf)


def test_quad_checked_rejects_a_single_nan_node():
    # one poisoned node among otherwise smooth values must not be averaged
    # away; q = 2 sinh(3/8) is a node of the fine level only
    with pytest.raises(QuadratureError, match="not finite"):
        quad_checked(lambda q: math.nan if 0.7 < q < 0.8 else math.exp(-q * q))


def test_quad_checked_flags_an_oscillating_integrand():
    # cos(3 q)/cosh(q) oscillates faster than the coarse nodes resolve: the
    # fine sum misses pi/cosh(3 pi/2) by 4e-5 and the levels by 3e-4, so the
    # rule refuses it rather than return the fine sum
    with pytest.raises(QuadratureError, match="disagree"):
        quad_checked(lambda q: math.cos(3.0 * q) / math.cosh(q))


@pytest.mark.parametrize("fun", [lambda q: 1.0, lambda q: 1.0 / (1.0 + q * q)],
                         ids=["constant", "algebraic"])
def test_quad_checked_flags_an_integrand_that_does_not_decay(fun):
    # the rule sums a finite window, which is only the integral if the
    # integrand is negligible at its edges
    with pytest.raises(QuadratureError, match="does not decay"):
        quad_checked(fun)


@pytest.mark.parametrize("n, beta1", VOLUME_PAIRS)
def test_volumes_match_mpmath(n, beta1):
    # the closed forms 2 pi (alpha2 - 1) and 4 pi^2 n (alpha2^2 - 1) at
    # 40 digits from the stored root; measured worst 2.5e-16 relative
    p = make_profile(n, beta1)
    with mp.workdps(40):
        a2 = mp.mpf(p.alpha2)
        area = 2 * mp.pi * (a2 - 1)
        total = 4 * mp.pi ** 2 * n * (a2 ** 2 - 1)
        assert abs(fiber_volume(p) - area) <= 1e-14 * area
        assert abs(total_volume(p) - total) <= 1e-14 * total
