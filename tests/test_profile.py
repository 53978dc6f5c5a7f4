import dataclasses
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hirzebruch_kee as hk
from hirzebruch_kee import (DomainError, eval_phi, eval_phi_exact,
                            eval_phi_prime, make_profile, ode_residual)

SQRT3 = math.sqrt(3.0)


def sampled_profiles(count=20, seed=20260817):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        cap = min(1.0, 2.0 / n - 0.02)
        out.append(make_profile(n, float(rng.uniform(0.02, cap))))
    return out


def test_rigid_case_angles():
    p = make_profile(1, 1.0)
    assert abs(p.beta2 - (SQRT3 - 1.0)) < 1e-15
    assert abs(p.alpha2 - (1.0 + SQRT3)) < 1e-15
    assert abs(p.alpha1 - (1.0 - SQRT3)) < 1e-15
    assert p.lam == 1.0


def test_known_angle_pairs():
    # second angle halves with n at fixed n*beta1
    p = make_profile(2, 0.5)
    assert abs(p.beta2 - (SQRT3 - 1.0) / 2.0) < 1e-15
    # (1, 1/2): S = 1, upper root is the golden ratio
    p = make_profile(1, 0.5)
    assert abs(p.alpha2 - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-15
    assert abs(p.beta2 - (3.0 * math.sqrt(5.0) - 5.0) / 4.0) < 1e-15
    assert abs(p.lam - 1.5) < 1e-15


def test_second_angle_below_first():
    for p in sampled_profiles():
        assert 0.0 < p.beta2 < p.beta1


def test_lambda_positive_and_linear():
    for p in sampled_profiles():
        assert p.lam == pytest.approx(2.0 / p.n - p.beta1, abs=1e-15)
        assert p.lam > 0.0


def test_root_ordering():
    for p in sampled_profiles():
        assert p.alpha1 < 0.0 < 1.0 < p.alpha2


def test_vieta_relations():
    # the two free roots of the cubic factor satisfy sum = -product
    for p in sampled_profiles():
        s = p.alpha1 + p.alpha2
        assert abs(s + p.alpha1 * p.alpha2) < 1e-13 * max(1.0, abs(s))


def test_alpha2_closed_form():
    for p in sampled_profiles():
        want = (2.0 + p.n * p.beta2) / (2.0 - p.n * p.beta1)
        assert abs(p.alpha2 - want) < 1e-13 * want


def _mp_closed_forms(n, b1):
    # the closed forms restated at 30 digits, from the exact binary beta1
    with mp.workdps(30):
        b, nn = mp.mpf(b1), mp.mpf(n)
        x = nn * b
        ssum = (1 + x) / (2 - x)
        a2 = (ssum + mp.sqrt(ssum * (ssum + 4))) / 2
        b2 = (x - 3 + mp.sqrt(3 * (3 - x) * (1 + x))) / (2 * nn)
        return b2, -ssum / a2, a2


@pytest.mark.parametrize("n, b1", [(1, 1.0), (1, 0.999), (1, 0.5), (2, 1e-3),
                                   (1, 1e-6), (3, 0.4), (4, 0.4975), (3, 0.6666)])
def test_closed_forms_match_mpmath(n, b1):
    eps = sys.float_info.epsilon
    x = n * b1
    # n*beta1 is rounded before alpha2 sees it, and alpha2 amplifies that
    # rounding by x/(2 - x) as x -> 2
    bounds = (4 * eps, 4 * eps, 16 * eps * (1 + x / (2 - x)))
    p = make_profile(n, b1)
    for got, want, bound in zip((p.beta2, p.alpha1, p.alpha2), _mp_closed_forms(n, b1), bounds):
        assert abs((mp.mpf(got) - want) / want) <= bound


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), u=st.floats(1e-6, 1.0))
@example(n=1, u=1e-6)            # beta1 -> 0
@example(n=2, u=1.0 - 1e-6)      # n beta1 = 2 (1 - 1e-6)
@example(n=1, u=1.0)             # beta1 = 1
def test_roots_and_slopes_property(n, u):
    # u in (0, 1] scales the admissible range: (0, 1] for n = 1, else (0, 2/n)
    beta1 = u * min(1.0, 2.0 / n)
    assume(n * beta1 < 2.0)
    p = make_profile(n, beta1)
    assert 0.0 < p.beta2 < p.beta1
    # against the exact S = (1 + x)/(2 - x) of the binary x = n*beta1; its
    # rounding is amplified by x/(2 - x) as x -> 2.  alpha1 + alpha2 = S
    # cancels to 1/2 as beta1 -> 0, so its error scales with |alpha1| + alpha2
    x = n * Fraction(beta1)
    S = (1 + x) / (2 - x)
    scale = sys.float_info.epsilon * (1 + float(x / (2 - x)))
    a1, a2 = Fraction(p.alpha1), Fraction(p.alpha2)
    assert abs(a1 + a2 - S) <= 4 * scale * (a2 - a1)
    assert abs(a1 * a2 + S) <= 4 * scale * S
    assert abs(eval_phi_prime(p, 1.0) - p.beta1) <= 8 * scale
    assert abs(eval_phi_prime(p, p.alpha2) + p.beta2) <= 8 * scale


def test_domain_rejections():
    for n, b1 in [(1, 0.0), (1, -0.3), (1, 1.0001), (2, 1.0), (3, 0.7),
                  (4, 0.5), (1, float("nan")), (1, float("inf"))]:
        with pytest.raises(DomainError):
            make_profile(n, b1)
    for bad_n in [0, -1, 2.0, True]:
        with pytest.raises(DomainError):
            make_profile(bad_n, 0.1)


def test_n1_beta1_one_allowed_n2_not():
    make_profile(1, 1.0)
    with pytest.raises(DomainError):
        make_profile(2, 1.0)


def test_profile_vanishes_at_ends():
    for p in sampled_profiles():
        assert eval_phi(p, 1.0) == 0.0
        assert abs(eval_phi(p, p.alpha2)) < 1e-15


def test_profile_positive_inside():
    for p in sampled_profiles(count=10):
        for tau in np.linspace(1.0, p.alpha2, 101)[1:-1]:
            assert eval_phi(p, float(tau)) > 0.0


def test_known_interior_value():
    # tau = 2 for the rigid case gives exactly 1/3
    p = make_profile(1, 1.0)
    assert abs(eval_phi(p, 2.0) - 1.0 / 3.0) < 1e-15


def eval_phi_expanded(p, tau):
    """phi from the expanded rational form, a cross-check of the factored
    eval_phi: away from the roots they agree to about 1e-13 relative, and
    near the roots the subtractions (tau^2 - 1 etc.) shed digits."""
    return (tau * tau - 1.0) / (p.n * tau) + p.leading * (tau ** 3 - 1.0) / tau


def test_factored_matches_expanded():
    for p in sampled_profiles(count=10):
        for tau in np.linspace(1.0, p.alpha2, 37):
            a = eval_phi(p, float(tau))
            b = eval_phi_expanded(p, float(tau))
            assert abs(a - b) < 1e-14 * max(1.0, abs(a))


def test_exact_rational_route():
    # rational beta1 gives rational phi; the float route must agree
    val = eval_phi_exact(1, Fraction(1, 2), Fraction(5, 4))
    assert isinstance(val, Fraction)
    p = make_profile(1, 0.5)
    assert abs(float(val) - eval_phi(p, 1.25)) < 1e-16
    assert eval_phi_exact(2, Fraction(1, 4), Fraction(1)) == 0


def test_boundary_slopes():
    for p in sampled_profiles():
        assert abs(eval_phi_prime(p, 1.0) - p.beta1) < 1e-10
        assert abs(eval_phi_prime(p, p.alpha2) + p.beta2) < 1e-10


def test_ode_residual_tiny():
    for p in sampled_profiles(count=10):
        taus = np.linspace(1.0, p.alpha2, 1002)[1:-1]
        worst = max(abs(ode_residual(p, float(t))) for t in taus)
        assert worst < 1e-12


def test_ode_residual_is_the_public_terms_bit_for_bit():
    # ode_residual forms phi and phi' once; the sum must be the one built
    # from the two public evaluations, in the same order, to the last bit
    rng = np.random.default_rng(20261019)
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        beta1 = float(np.exp(rng.uniform(math.log(1e-9), math.log(min(1.0, 1.99 / n)))))
        p = make_profile(n, beta1)
        t = 1.0 + p.span * float(rng.uniform(1e-6, 1.0 - 1e-6))
        if not 1.0 < t < p.alpha2:
            continue
        want = eval_phi_prime(p, t) + eval_phi(p, t) / t - 2.0 / n - 3.0 * p.leading * t
        assert ode_residual(p, t) == want, (n, beta1, t)


def test_ode_residual_rejects_endpoints():
    p = make_profile(1, 0.5)
    with pytest.raises(DomainError):
        ode_residual(p, 1.0)
    with pytest.raises(DomainError):
        ode_residual(p, p.alpha2)


def test_eval_phi_outside_domain():
    p = make_profile(1, 0.5)
    with pytest.raises(DomainError):
        eval_phi(p, 0.99)
    with pytest.raises(DomainError):
        eval_phi(p, p.alpha2 + 1e-6)


def test_span_is_derived_from_alpha2():
    # leading and span are formed once, in __post_init__, so a replaced
    # alpha2 carries its own span and a caller can pass neither; lam is a
    # property of (n, beta1), and the inputs are n, beta1, the roots and beta2
    p = make_profile(1, 1.0)
    assert p.span == p.alpha2 - 1.0
    assert p.leading == (p.beta1 - 2.0 / p.n) / 3.0
    assert p.lam == 2.0 / p.n - p.beta1
    for a2 in (1.5, 3.25, 1.0 + 1e-12):
        q = dataclasses.replace(p, alpha2=a2)
        assert q.span == a2 - 1.0
        assert q.leading == p.leading
    for derived in ("leading", "span"):
        with pytest.raises(TypeError):
            hk.EinsteinProfile(n=1, beta1=1.0, alpha1=p.alpha1, alpha2=p.alpha2,
                               angles=p.angles, **{derived: 1.0})
    assert hk.EinsteinProfile(1, 1.0, p.alpha1, p.alpha2, p.angles) == p
    assert [f.name for f in dataclasses.fields(hk.ConeAngles)] == ["beta2"]


@pytest.mark.parametrize("n, beta1", [(1, 1e-16), (1, 1.1e-16), (3, 3e-17), (1, 5e-324)])
def test_empty_fiber_interval_is_refused(n, beta1):
    # below n*beta1 of about 1.1e-16 alpha2 rounds onto 1 and the fiber
    # interval is empty in doubles; nothing may divide by its width
    with pytest.raises(DomainError, match="fiber interval"):
        make_profile(n, beta1)
    assert make_profile(1, 2e-16).span > 0.0


def test_n_beyond_the_doubles_is_refused():
    # n * beta1 converts n to a double, which overflows past the largest one
    with pytest.raises(DomainError, match="largest double"):
        make_profile(10 ** 320, 1e-310)
    assert make_profile(10 ** 300, 1e-310).n == 10 ** 300


_RIGID = make_profile(1, 1.0)


@pytest.mark.parametrize("call", [
    lambda: hk.kee_class(1, math.nan, 0.5),
    lambda: hk.kee_class(1, 0.5, math.nan),
    lambda: hk.kee_class(1, 1.5, 0.1),              # beta1 outside (0, 1]
    lambda: hk.kee_class(1, 0.5, 0.6),              # beta2 > beta1
    lambda: hk.kee_class(2, 0.5, 0.0),
    lambda: hk.kee_class(True, 0.5, 0.4),
    lambda: hk.DivisorClass(0, 1, 0),
    lambda: hk.fiber_length_asymptote(1.0),
    lambda: hk.rescaled_phi_y(1, 0.5, math.nan),
    lambda: hk.rescaled_phi_y(1, math.nan, 0.0),
    lambda: eval_phi_exact(1, Fraction(1, 2), Fraction(0)),
    lambda: eval_phi_exact(1, Fraction(1, 2), Fraction(9, 10)),
    lambda: eval_phi_exact(1, Fraction(1, 2), Fraction(17, 10)),   # alpha2 = 1.618...
    lambda: eval_phi_exact(0, Fraction(1, 2), Fraction(1)),
    lambda: hk.fiber_length(_RIGID, math.nan, 1.5),
    lambda: hk.fiber_length(_RIGID, 1.5, math.inf),
    lambda: hk.y_of_tau(_RIGID, math.nan),
    lambda: hk.y_of_tau(_RIGID, _RIGID.alpha2 + 1e-9),
    lambda: hk.cone_angle_probe(_RIGID, "middle", 1.5),
    lambda: hk.alpha_series(1, 0.5, "alpha3"),
    lambda: hk.collapse_report(1, []),
    lambda: hk.rescaled_fiber_metric(1, 0.5, -2.0),     # phi is 0 at the band edge
    lambda: hk.DivisorClass(1, 1j, 0),
], ids=["kee-nan-beta1", "kee-nan-beta2", "kee-beta1-out", "kee-beta2-above-beta1",
        "kee-beta2-zero", "kee-bool-n", "class-n0", "asymptote-float-n", "rescaled-nan-y",
        "rescaled-nan-beta1", "exact-tau0", "exact-below-1", "exact-above-alpha2",
        "exact-n0", "length-nan", "length-inf", "y-nan", "y-above-alpha2",
        "probe-bad-end", "series-bad-root", "ladder-empty", "rescaled-band-edge",
        "class-complex-coeff"])
def test_domain_checks_refuse_bad_input(call):
    # every input domain is checked in profile, so NaN, inf, an angle out of
    # range or a momentum off [1, alpha2] raise DomainError, never return
    # NaN or raise ZeroDivisionError
    with pytest.raises(DomainError):
        call()
