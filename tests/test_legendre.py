import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hirzebruch_kee import (DomainError, RangeError, build_map, eval_phi,
                            log_slope_at_end, make_profile, s_of_tau,
                            tau_of_s, tau_of_y, y_of_tau)
from hirzebruch_kee import legendre
from hirzebruch_kee.legendre import _c_term, _q_of_s, _s_at_q

EPS = sys.float_info.epsilon


def test_build_basic():
    p = make_profile(1, 0.5)
    m = build_map(p)
    assert m.tau0 == 0.5 * (1.0 + p.alpha2)
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
    m = build_map(p)                    # small angles put |s| in the thousands
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
    # the gauge point is the midpoint of [1, alpha2]
    p = make_profile(1, 0.8)
    m = build_map(p)
    assert abs(tau_of_s(m, 0.0) - m.tau0) < 1e-12
    assert abs(s_of_tau(m, m.tau0)) < 1e-12


def test_fd_derivative_is_phi():
    # dtau/ds = phi, checked by central differences at the gauge point
    p = make_profile(1, 0.8)
    m = build_map(p)
    h = 1e-5
    fd = (tau_of_s(m, h) - tau_of_s(m, -h)) / (2.0 * h)
    assert abs(fd - eval_phi(p, m.tau0)) < 1e-6


def test_s_of_tau_outside_interval():
    p = make_profile(1, 0.5)
    m = build_map(p)
    for tau in (0.5, 1.0, p.alpha2, p.alpha2 + 0.5):   # s = -inf, +inf at the ends
        with pytest.raises(RangeError):
            s_of_tau(m, tau)


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


@pytest.mark.parametrize("n, b1", [(1, 1.0), (2, 1e-3), (1, 1e-6), (3, 1e-8),
                                   (4, 0.4975)])
def test_log_slope_matches_mpmath(n, b1):
    # phi'(tau) from the factored cubic at 40 digits, at the probe's own q;
    # tau - 1 and alpha2 - tau come from q, so no digit is lost at small
    # beta1 (through tau - 1 the slope missed by 4.7e-10 at (3, 1e-8));
    # measured worst 1.6 eps
    p = make_profile(n, b1)
    m = build_map(p)
    for s in (-1000.0, -40.0, -20.0, 20.0, 40.0, 1000.0):
        slope = log_slope_at_end(m, "lower" if s < 0.0 else "upper", s)
        with mp.workdps(40):
            q = mp.mpf(_q_of_s(m, s))
            a1, a2, cbar = mp.mpf(p.alpha1), mp.mpf(p.alpha2), -mp.mpf(p.leading)
            xi = (a2 - 1) / (1 + mp.exp(-q))
            rho = (a2 - 1) / (1 + mp.exp(q))
            d2, tau = 1 - a1 + xi, 1 + xi
            want = cbar * ((xi + d2) * rho - xi * d2) / tau - cbar * xi * rho * d2 / tau ** 2
            assert abs(slope - want) <= 8.0 * EPS * abs(want), (s, slope)


def test_deep_hull_all_angles():
    # near beta1 = 1 the profile hits the representability wall in tau;
    # queries at |s| = 40 must still resolve
    p = make_profile(1, 0.999)
    m = build_map(p)
    t_lo = tau_of_s(m, -40.0)
    t_hi = tau_of_s(m, 40.0)
    assert 1.0 <= t_lo < 1.0 + 1e-12
    assert p.alpha2 - 1e-12 < t_hi <= p.alpha2
    assert abs(log_slope_at_end(m, "lower", -39.0) - p.beta1) < 1e-7


_WHOLE_LINE_PAIRS = [(1, 1.0), (1, 0.999), (2, 1e-3), (1, 1e-6), (3, 0.4),
                     (4, 0.4975), (2, 1.0 - 1e-10), (3, 1e-8)]


@pytest.mark.parametrize("n, b1", _WHOLE_LINE_PAIRS)
def test_tau_of_s_on_whole_finite_line(n, b1, monkeypatch):
    # the map covers every finite s: at s = +-10^k up to 1e305 the solve in
    # q must reproduce s to the rounding of the terms s(q) sums, which is
    # about |s| once |s| >= 10, in at most 5 Newton steps, while tau stays
    # in [1, alpha2] (it saturates at a root, which q does not)
    steps = []
    dsdq = legendre._dsdq
    monkeypatch.setattr(legendre, "_dsdq", lambda p, q: steps.append(q) or dsdq(p, q))
    p = make_profile(n, b1)
    m = build_map(p)
    for k in range(306):
        for s in (10.0 ** k, -(10.0 ** k)):
            steps.clear()
            q = _q_of_s(m, s)
            assert len(steps) <= 5, (s, len(steps))
            terms = abs(m.a * (q - m.q0)) + m.c * (abs(_c_term(p, q)) + abs(m.c0))
            assert abs(_s_at_q(m, q) - s) <= 4.0 * EPS * terms, (s, q)
            assert 1.0 <= tau_of_s(m, s) <= p.alpha2
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(RangeError):
            tau_of_s(m, s)


@pytest.mark.parametrize("edge", [-1.0, 1.0])
def test_round_trip_at_hull_edges(edge):
    # at beta1 near 1 tau saturates at both edges of the old |s| <= 42 hull,
    # so the round trip runs in the stretched coordinate q, where the map is
    # exact at every depth; one step past the edge the map carries on
    p = make_profile(1, 0.999)
    m = build_map(p)
    s = edge * 42.0
    q = _q_of_s(m, s)
    assert abs(_s_at_q(m, q) - s) <= 1e-14 * abs(s)
    assert 1.0 <= tau_of_s(m, s) <= p.alpha2
    beyond = math.nextafter(s, 2.0 * s)
    assert edge * (_q_of_s(m, beyond) - q) > 0.0
    assert 1.0 <= tau_of_s(m, beyond) <= p.alpha2


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
    m = build_map(p)
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
