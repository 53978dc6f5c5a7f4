import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hirzebruch_kee import (DomainError, GaugeChoice, RangeError, build_map,
                            eval_phi, log_slope_at_end, make_profile, s_of_tau,
                            tau_of_s, tau_of_y, y_of_tau)
from hirzebruch_kee.legendre import _q_of_s, _s_at_q


def test_build_basic():
    p = make_profile(1, 0.5)
    m = build_map(p)
    assert m.s_min == -42.0 and m.s_max == 42.0     # exactly |s| <= s_hull + 2
    assert m.s_hull == 40.0 and m.tau0 == 0.5 * (1.0 + p.alpha2)
    # A = 1/beta1 and B = 1/beta2, read off the roots rather than the angles
    assert m.a == pytest.approx(1.0 / p.beta1, rel=1e-14)
    assert m.b == pytest.approx(1.0 / p.beta2, rel=1e-14)
    assert m.a - m.b + m.c == pytest.approx(0.0, abs=1e-14)


def _mp_s_increment(p, tau_a, tau_b):
    # 30-digit integral of 1/phi, with phi built from the stored roots so
    # the check isolates the map from root-finding rounding
    with mp.workdps(30):
        a1, a2, cbar = mp.mpf(p.alpha1), mp.mpf(p.alpha2), -mp.mpf(p.leading)

        def inv_phi(t):
            return t / (cbar * (t - 1) * (t - a1) * (a2 - t))

        return mp.quad(inv_phi, [mp.mpf(tau_a), mp.mpf(tau_b)])


@pytest.mark.parametrize("n, b1", [(1, 1.0), (1, 0.999), (2, 0.5), (3, 0.4),
                                   (1, 0.0125), (2, 1e-3)])
def test_closed_form_matches_mpmath_quadrature(n, b1):
    p = make_profile(n, b1)
    m = build_map(p, s_hull=1e4)        # small angles put |s| in the thousands
    span = p.alpha2 - 1.0
    for u in (1e-4, 0.05, 0.3, 0.7, 0.95, 1.0 - 1e-4):
        tau = 1.0 + u * span
        got = s_of_tau(m, tau) - s_of_tau(m, m.tau0)
        want = _mp_s_increment(p, m.tau0, tau)
        assert abs(got - want) <= 1e-13 * abs(want), (u, got, want)


def test_round_trip_random():
    rng = np.random.default_rng(7)
    for n, b1 in [(1, 1.0), (2, 0.3), (3, 0.11)]:
        p = make_profile(n, b1)
        m = build_map(p)
        for u in rng.uniform(0.001, 0.999, size=25):
            tau = 1.0 + u * (p.alpha2 - 1.0)
            s = s_of_tau(m, tau)
            assert abs(tau_of_s(m, s) - tau) < 1e-12 * p.alpha2


def test_monotone():
    p = make_profile(2, 0.4)
    m = build_map(p)
    taus = np.linspace(1.0001, p.alpha2 - 0.0001, 50)
    ss = [s_of_tau(m, float(t)) for t in taus]
    assert all(a < b for a, b in zip(ss, ss[1:]))


def test_monotone_random_pairs():
    p = make_profile(1, 1.0)
    m = build_map(p)
    rng = np.random.default_rng(123)
    u = np.sort(rng.uniform(1e-4, 1.0 - 1e-4, size=(1000, 2)), axis=1)
    for ua, ub in u:
        if ua == ub:
            continue
        ta = 1.0 + ua * (p.alpha2 - 1.0)
        tb = 1.0 + ub * (p.alpha2 - 1.0)
        assert s_of_tau(m, ta) < s_of_tau(m, tb)


# frozen from an adaptive quadrature of 1/phi over [1.5, 2] and a
# partial-fraction antiderivative; four independent routes agree to 2e-16
S_INCREMENT_RIGID = 1.4782654955181438


def test_s_increment_against_independent_quadrature():
    p = make_profile(1, 1.0)
    m = build_map(p)
    got = s_of_tau(m, 2.0) - s_of_tau(m, 1.5)
    assert abs(got - S_INCREMENT_RIGID) < 1e-9


def test_gauge_point_maps_to_zero():
    p = make_profile(1, 0.8)
    m = build_map(p, gauge=GaugeChoice(tau0=1.3))
    assert abs(tau_of_s(m, 0.0) - 1.3) < 1e-12


def test_fd_derivative_is_phi():
    # dtau/ds = phi, checked by central differences at the gauge point
    from hirzebruch_kee import eval_phi
    p = make_profile(1, 0.8)
    m = build_map(p, gauge=GaugeChoice(tau0=1.4))
    h = 1e-5
    fd = (tau_of_s(m, h) - tau_of_s(m, -h)) / (2.0 * h)
    assert abs(fd - eval_phi(p, 1.4)) < 1e-6


def test_gauge_shifts_s_by_constant():
    p = make_profile(1, 0.7)
    m0 = build_map(p)
    m1 = build_map(p, gauge=GaugeChoice(tau0=1.2))
    offsets = [s_of_tau(m0, t) - s_of_tau(m1, t) for t in (1.1, 1.4, 1.9)]
    assert max(offsets) - min(offsets) < 1e-11
    # the gauge point sits at s = 0
    assert abs(s_of_tau(m1, 1.2)) < 1e-12


def test_hull_range_errors():
    p = make_profile(1, 0.5)
    m = build_map(p, s_hull=10.0)
    with pytest.raises(RangeError):
        tau_of_s(m, m.s_max + 1.0)
    with pytest.raises(RangeError):
        tau_of_s(m, m.s_min - 1.0)
    with pytest.raises(RangeError):
        s_of_tau(m, 1.0)          # endpoint maps to s = -infinity
    with pytest.raises(RangeError):
        s_of_tau(m, p.alpha2)


def test_s_of_tau_outside_interval():
    p = make_profile(1, 0.5)
    m = build_map(p)
    with pytest.raises((DomainError, RangeError)):
        s_of_tau(m, 0.5)
    with pytest.raises((DomainError, RangeError)):
        s_of_tau(m, p.alpha2 + 0.5)


def test_log_slopes_recover_angles():
    # d(log phi)/ds tends to beta1 at the lower end, -beta2 at the upper;
    # the next expansion term decays like e^(beta*s), so probe depth sets
    # the tolerance
    p = make_profile(1, 0.8)
    m = build_map(p)
    assert abs(log_slope_at_end(m, "lower", -30.0) - 0.8) < 1e-4
    p = make_profile(1, 1.0)
    m = build_map(p)
    assert abs(log_slope_at_end(m, "upper", 30.0) + (math.sqrt(3.0) - 1.0)) < 1e-4
    p = make_profile(2, 0.5)
    m = build_map(p)
    assert abs(log_slope_at_end(m, "lower", -40.0) - 0.5) < 1e-5


def test_log_slope_error_shrinks_with_depth():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        cap = min(1.0, 2.0 / n - 0.02)
        b1 = float(rng.uniform(0.4, cap))
        p = make_profile(n, b1)
        m = build_map(p)
        err30 = abs(log_slope_at_end(m, "lower", -30.0) - p.beta1)
        err40 = abs(log_slope_at_end(m, "lower", -40.0) - p.beta1)
        assert err30 <= 1e-3
        assert err40 < err30


def test_log_slope_argument_checks():
    p = make_profile(1, 0.5)
    m = build_map(p)
    with pytest.raises(DomainError):
        log_slope_at_end(m, "middle", -35.0)
    with pytest.raises(DomainError):
        log_slope_at_end(m, "lower", -5.0)   # too shallow
    with pytest.raises(DomainError):
        log_slope_at_end(m, "lower", 35.0)   # wrong sign for the end


def test_deep_hull_all_angles():
    # near beta1 = 1 the profile hits the representability wall in tau;
    # queries at |s| = 40 must still resolve
    p = make_profile(1, 0.999)
    m = build_map(p, s_hull=40.0)
    t_lo = tau_of_s(m, -40.0)
    t_hi = tau_of_s(m, 40.0)
    assert 1.0 <= t_lo < 1.0 + 1e-12
    assert p.alpha2 - 1e-12 < t_hi <= p.alpha2
    assert abs(log_slope_at_end(m, "lower", -39.0) - p.beta1) < 1e-7


@pytest.mark.parametrize("edge", [-1.0, 1.0])
def test_round_trip_at_hull_edges(edge):
    # at beta1 near 1 tau saturates at both edges, so the round trip runs in
    # the stretched coordinate q, where the map is exact at every depth
    p = make_profile(1, 0.999)
    m = build_map(p)
    s = edge * (m.s_hull + 2.0)
    q = _q_of_s(m, s)
    assert abs(_s_at_q(m, q) - s) <= 1e-14 * abs(s)
    assert 1.0 <= tau_of_s(m, s) <= p.alpha2
    with pytest.raises(RangeError):
        tau_of_s(m, math.nextafter(s, 2.0 * s))


def _valid_beta1(n, u):
    # u in (0, 1] scales the admissible range: (0, 1] for n = 1, else (0, 2/n)
    return u if n == 1 else u * (2.0 / n) * (1.0 - 1e-12)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 5), u=st.floats(1e-6, 1.0),
       fractions=st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=2, max_size=8))
@example(n=1, u=1e-6, fractions=[0.001, 0.5, 0.999])          # beta1 -> 0
@example(n=1, u=1.0, fractions=[0.001, 0.5, 0.999])           # beta1 = 1
@example(n=2, u=1.0, fractions=[0.001, 0.5, 0.999])           # n beta1 -> 2
@example(n=4, u=1.0 - 1e-9, fractions=[0.001, 0.5, 0.999])    # n beta1 -> 2
def test_round_trip_and_monotone_property(n, u, fractions):
    p = make_profile(n, _valid_beta1(n, u))
    m = build_map(p, s_hull=1e9)
    span = p.alpha2 - 1.0
    # distinct by at least 1e-6 of the interval, far above rounding in s
    taus = sorted({1.0 + round(f, 6) * span for f in fractions})
    ss = [s_of_tau(m, t) for t in taus]
    assert all(a < b for a, b in zip(ss, ss[1:]))
    for tau, s in zip(taus, ss):
        back = tau_of_s(m, s)
        # one ulp of s moves tau by about phi(tau) ulp(s)
        tol = 1e-12 * p.alpha2 + 4.0 * eval_phi(p, tau) * math.ulp(s)
        assert abs(back - tau) <= tol, (tau, s, back)


def test_y_coordinate_affine():
    p = make_profile(2, 0.1)
    # y is an affine rescaling centered at the interval midpoint scale
    assert y_of_tau(p, 1.0) == pytest.approx(-1.0 / p.beta1, rel=1e-14)
    mid = 1.0 + p.n * p.beta1 / 2.0
    assert y_of_tau(p, mid) == pytest.approx(0.0, abs=1e-12)
    assert tau_of_y(p, 0.0) == pytest.approx(mid, rel=1e-15)
    for y in (-5.0, -0.5, 2.0, 9.0):
        assert y_of_tau(p, tau_of_y(p, y)) == pytest.approx(y, abs=1e-10)


def test_y_domain_checks():
    p = make_profile(2, 0.1)
    with pytest.raises(DomainError):
        y_of_tau(p, 0.9)
    with pytest.raises(DomainError):
        tau_of_y(p, -1.0 / p.beta1 - 1e-6)


def test_build_rejects_bad_hull():
    p = make_profile(1, 0.5)
    with pytest.raises(DomainError):
        build_map(p, s_hull=0.5)
    with pytest.raises(DomainError):
        build_map(p, s_hull=float("nan"))


def test_build_rejects_gauge_outside():
    p = make_profile(1, 0.5)
    with pytest.raises(DomainError):
        build_map(p, gauge=GaugeChoice(tau0=1.0))
    with pytest.raises(DomainError):
        build_map(p, gauge=GaugeChoice(tau0=p.alpha2 + 0.1))
