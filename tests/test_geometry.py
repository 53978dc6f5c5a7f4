import cmath
import dataclasses
import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hirzebruch_kee import (ChartPoint, DomainError, KeeError, PositivityError,
                            build_map, chart_grid, chart_s, collapse_entry,
                            cone_angle_probe, einstein_residual, eval_phi, fiber_length,
                            fiber_volume, fs_pullback, make_profile, metric_at,
                            ricci_fd, tau_of_s, tau_phi_of_s, tensor_deviation,
                            total_volume)
from hirzebruch_kee import geometry
from hirzebruch_kee.cli import main
from hirzebruch_kee.cohomology import class_volume, kee_class

TWO_PI = 2.0 * math.pi


def rigid():
    p = make_profile(1, 1.0)
    return p, build_map(p)


def perturbed_second_angle(p, delta=1e-2):
    # inconsistent angles: shift beta2 and rebuild the factored cubic
    b2 = p.beta2 + delta
    a2 = (2.0 + p.n * b2) / (2.0 - p.n * p.beta1)
    ang = dataclasses.replace(p.angles, beta2=b2)
    return dataclasses.replace(p, alpha2=a2, angles=ang)


def test_chart_point_rejects_zero_fiber_coordinate():
    with pytest.raises(Exception):
        ChartPoint(z=0.1 + 0.2j, w=0.0)


def test_chart_s_formula():
    pt = ChartPoint(z=0.5 + 0.5j, w=2.0 + 0.0j)
    want = math.log(4.0) + 2.0 * math.log(1.5)
    assert abs(chart_s(2, pt) - want) < 1e-14


@pytest.mark.parametrize("beta1, z, w", [
    (0.5, 0.0, 1e160), (0.5, 0.0, 1e-170),
    # at small beta1 phi is still positive there, so g_wz ~ 1e166
    (0.01, 0.7 + 0.2j, 1e-170),
    # |z|^2 overflows; s = 736.8, and with w = 1e-160 s = 0
    (0.5, 1e160, 1.0), (0.5, 1e160, 1e-160)])
def test_extreme_chart_points_give_a_form_or_a_kee_error(beta1, z, w):
    # |w|^2 or |z|^2 leaves the double range at these valid points; the
    # chart must not square either on the way, nor raise OverflowError,
    # ValueError or ZeroDivisionError
    p = make_profile(1, beta1)
    m = build_map(p)
    pt = ChartPoint(z=z, w=w)
    with mp.workdps(30):
        want = 2 * mp.log(w) + mp.log1p(mp.mpf(abs(z)) ** 2)
    assert chart_s(1, pt) == pytest.approx(float(want), rel=1e-15, abs=1e-15)
    for evaluate in (metric_at, ricci_fd, lambda p, m, pt: fs_pullback(pt)):
        try:
            form = evaluate(p, m, pt)
        except KeeError:
            continue
        assert isinstance(form, geometry.HermitianForm2)
        form.det()      # squares |g_wz|, which must not raise either


def test_entries_at_z_zero():
    p, m = rigid()
    pt = ChartPoint(z=0.0 + 0.0j, w=1.3 + 0.0j)
    g = metric_at(p, m, pt)
    tau = tau_of_s(m, chart_s(p.n, pt))
    phi = eval_phi(p, tau)
    assert g.g_wz == 0.0
    assert abs(g.g_zz - p.n * tau) < 1e-13 * p.n * tau
    assert abs(g.g_ww - phi / abs(pt.w) ** 2) < 1e-14


def test_determinant_identity_single_point():
    p, m = rigid()
    pt = ChartPoint(z=0.3 + 0.4j, w=0.9 + 0.0j)
    g = metric_at(p, m, pt)
    tau = tau_of_s(m, chart_s(p.n, pt))
    phi = eval_phi(p, tau)
    want = p.n * tau * phi / (abs(pt.w) ** 2 * (1.0 + abs(pt.z) ** 2) ** 2)
    assert abs(g.det() - want) < 1e-12 * want


def test_determinant_identity_grid():
    for n, b1 in [(1, 1.0), (2, 0.7), (3, 0.25)]:
        p = make_profile(n, b1)
        m = build_map(p)
        for pt in chart_grid(p):
            g = metric_at(p, m, pt)
            tau = tau_of_s(m, chart_s(p.n, pt))
            phi = eval_phi(p, tau)
            scale = abs(pt.w) ** 2 * (1.0 + abs(pt.z) ** 2) ** 2
            assert abs(g.det() * scale - p.n * tau * phi) < 1e-12 * p.n * tau * phi


def min_eigenvalue(g):
    """Smaller eigenvalue of a 2x2 Hermitian form, in closed form."""
    gap = math.hypot(g.g_ww - g.g_zz, 2.0 * abs(g.g_wz))
    return 0.5 * (g.g_ww + g.g_zz - gap)


def test_positive_definite_on_grid():
    p, m = rigid()
    for pt in chart_grid(p):
        g = metric_at(p, m, pt)
        assert min_eigenvalue(g) > 0.0


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 5), u=st.floats(1e-6, 1.0), s=st.floats(-5.0, 5.0),
       zabs=st.floats(0.0, 3.0), zarg=st.floats(-math.pi, math.pi),
       warg=st.floats(-math.pi, math.pi))
@example(n=1, u=1e-6, s=-5.0, zabs=3.0, zarg=0.3, warg=0.0)        # beta1 -> 0
@example(n=1, u=1.0, s=5.0, zabs=3.0, zarg=-1.0, warg=2.0)         # beta1 = 1
@example(n=2, u=1.0, s=5.0, zabs=3.0, zarg=2.0, warg=-1.0)         # n beta1 -> 2
@example(n=5, u=1.0, s=-5.0, zabs=0.0, zarg=0.0, warg=0.5)         # n beta1 -> 2
def test_metric_positive_with_det_identity_property(n, u, s, zabs, zarg, warg):
    # u in (0, 1] scales the admissible range: (0, 1] for n = 1, else (0, 2/n)
    beta1 = u if n == 1 else u * (2.0 / n) * (1.0 - 1e-12)
    p = make_profile(n, beta1)
    m = build_map(p)
    z = cmath.rect(zabs, zarg)
    w = cmath.rect(math.exp(0.5 * (s - n * math.log1p(zabs ** 2))), warg)
    pt = ChartPoint(z=z, w=w)
    g = metric_at(p, m, pt)
    assert g.g_ww > 0.0 and g.det() > 0.0 and min_eigenvalue(g) > 0.0
    # the (tau, phi) the metric is built from; eval_phi(tau_of_s) would
    # round through tau - alpha2 first, about 40 eps of phi at s = 5
    tau, phi = tau_phi_of_s(m, chart_s(n, pt))
    want = n * tau * phi
    got = g.det() * abs(w) ** 2 * (1.0 + zabs ** 2) ** 2
    # det = g_ww g_zz - |g_wz|^2 cancels g_ww g_zz down to n tau phi, a
    # factor 1 + n phi |z|^2/tau; past that, a few eps (4.2 eps at worst
    # over 20,000 random draws)
    cancel = 1.0 + n * phi * zabs ** 2 / tau
    assert abs(got - want) <= 8.0 * sys.float_info.epsilon * cancel * want


def _mp_phi_at_s(p, s):
    # 40-digit phi at log-norm s, gauged like the map (s = 0 at the
    # midpoint of [1, alpha2]); solved in log(tau - 1), so the depth of the
    # tail costs no digits
    a1, a2, cbar = mp.mpf(p.alpha1), mp.mpf(p.alpha2), -mp.mpf(p.leading)
    span = a2 - 1
    ca = 1 / (cbar * span * (1 - a1))
    cb = a2 / (cbar * span * (a2 - a1))
    cc = -a1 / (cbar * (1 - a1) * (a2 - a1))

    def s_of_xi(xi):
        return ca * mp.log(xi) - cb * mp.log(span - xi) + cc * mp.log(1 - a1 + xi)

    s0 = s_of_xi(span / 2)
    log_xi = mp.findroot(lambda lx: s_of_xi(mp.exp(lx)) - s0 - s, (s - s0) / ca)
    xi = mp.exp(log_xi)
    return cbar * xi * (span - xi) * (1 - a1 + xi) / (1 + xi)


@pytest.mark.parametrize("s", [-41.9, -700.0, -709.0])
def test_deep_lower_tail_gives_a_form_matching_mpmath(s):
    # at (1, 1.0), s = -41.9 already puts tau - 1 below the spacing of
    # doubles at 1, so tau rounds onto the root; phi is formed from the
    # map's q instead, and keeps its digits while sigma(q) is a normal
    # double.  At z = 0, g_ww = phi/|w|^2 = phi exp(-s); s itself is
    # only known to about |s| eps, and phi moves by beta1 = 1 times that
    # (measured at most 0.4 |s| eps)
    p, m = rigid()
    pt = ChartPoint(z=0.0 + 0.0j, w=complex(math.exp(0.5 * s)))
    assert tau_of_s(m, chart_s(p.n, pt)) == 1.0
    g = metric_at(p, m, pt)
    assert g.g_ww > 0.0 and g.det() > 0.0
    with mp.workdps(40):
        s_exact = 2 * mp.log(mp.mpf(pt.w.real))
        want = _mp_phi_at_s(p, s_exact) * mp.exp(-s_exact)
        assert abs(g.g_ww - want) <= 2.0 * abs(s) * sys.float_info.epsilon * want


@pytest.mark.parametrize("s", [-740.0, -745.0, -760.0])
def test_positivity_error_once_phi_leaves_the_normal_range(s):
    # below about s = -709 at (1, 1.0) and z = 0, sigma(q) = exp(s) is
    # subnormal and phi keeps too few digits (g_ww would be 0.7% off at
    # s = -740 and twice the true value at -745); at -760 it is 0
    p, m = rigid()
    pt = ChartPoint(z=0.0 + 0.0j, w=complex(math.exp(0.5 * s)))
    with pytest.raises(PositivityError):
        metric_at(p, m, pt)


@pytest.mark.parametrize("z, w", [(0.5, 8.8e-305), (0.0, 1e-170)])
@pytest.mark.parametrize("evaluate", [metric_at, ricci_fd, tensor_deviation],
                         ids=["metric_at", "ricci_fd", "tensor_deviation"])
def test_w_chart_refuses_an_entry_that_overflows(evaluate, z, w):
    # at (1, 0.01) phi is still normal this deep, but g_ww = phi/|w|^2 is
    # inf; at z = 0 g_wz is 0, so det = inf would pass a positivity test,
    # and an inf g_ww in the FD Ricci form would reach the Einstein residual
    p = make_profile(1, 0.01)
    m = build_map(p)
    with pytest.raises(PositivityError, match="double range"):
        evaluate(p, m, ChartPoint(z=complex(z), w=complex(w)))


def test_rotation_invariance_extracts_same_profile_inputs():
    # points sharing s must see the same (tau, phi) regardless of how the
    # norm is split between |w| and |z| or where the phases sit
    p, m = rigid()
    s_target = 0.37
    pts = []
    for zabs, zarg, warg in [(0.0, 0.0, 0.0), (0.5, 1.1, 0.4),
                             (1.2, -2.0, 2.9), (0.8, 0.3, -1.3)]:
        wabs = math.exp(0.5 * (s_target - p.n * math.log1p(zabs ** 2)))
        z = zabs * complex(math.cos(zarg), math.sin(zarg))
        w = wabs * complex(math.cos(warg), math.sin(warg))
        pts.append(ChartPoint(z=z, w=w))
    vals = []
    for pt in pts:
        g = metric_at(p, m, pt)
        phi = g.g_ww * abs(pt.w) ** 2
        zz = g.g_zz * (1.0 + abs(pt.z) ** 2) ** 2
        tau = (zz - p.n ** 2 * phi * abs(pt.z) ** 2) / p.n
        vals.append((tau, phi))
    t0, f0 = vals[0]
    for tau, phi in vals[1:]:
        assert abs(tau - t0) < 1e-12 * t0
        assert abs(phi - f0) < 1e-12 * max(f0, 1e-30)


def test_einstein_pointwise_rigid():
    p, m = rigid()
    pt = ChartPoint(z=0.3 + 0.1j, w=0.7 + 0.0j)
    g = metric_at(p, m, pt)
    ric = ricci_fd(p, m, pt, step=1e-3)
    assert ric.max_abs_diff(g.scaled(p.lam)) <= 1e-5


def test_einstein_pointwise_second_surface():
    p = make_profile(2, 0.6)
    m = build_map(p)
    w = 1.2 * complex(math.cos(0.3), math.sin(0.3))
    pt = ChartPoint(z=0.5 + 0.0j, w=w)
    g = metric_at(p, m, pt)
    ric = ricci_fd(p, m, pt, step=1e-3)
    assert ric.max_abs_diff(g.scaled(p.lam)) <= 1e-5


def test_fd_error_shrinks_with_step():
    # fourth-order after Richardson: halving the step should gain >= 4x
    # while the truncation error still dominates round-off
    p, m = rigid()
    pt = ChartPoint(z=0.4 + 0.2j, w=1.1 + 0.0j)
    g = metric_at(p, m, pt)
    coarse = ricci_fd(p, m, pt, step=4e-2).max_abs_diff(g.scaled(p.lam))
    fine = ricci_fd(p, m, pt, step=2e-2).max_abs_diff(g.scaled(p.lam))
    assert coarse / fine >= 4.0


def test_einstein_residual_grid_and_detector():
    p, m = rigid()
    grid = chart_grid(p)
    base = einstein_residual(p, m, grid, step=1e-3)
    assert base <= 1e-5
    pp = perturbed_second_angle(p)
    mp = build_map(pp)
    bad = einstein_residual(pp, mp, chart_grid(pp), step=1e-3)
    assert bad >= 1e-3


def test_einstein_residual_rejects_empty_grid():
    # a maximum over no points is no evidence, so it must not pass the gate
    p, m = rigid()
    assert chart_grid(p, 0) == []
    with pytest.raises(DomainError):
        einstein_residual(p, m, chart_grid(p, 0))


def test_ricci_fd_stencil_size(monkeypatch):
    # the log-chart form does not depend on arg w, so the stencil steps only
    # in (u, x, y): per step size 6 axis points and 4 for each of the pairs
    # (u, x) and (u, y) that L_Wzbar reads, over two step sizes that share
    # the centre, all straight from the kernel and none through metric_at
    calls = []
    kernel = geometry._log_chart_form
    monkeypatch.setattr(geometry, "_log_chart_form",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(geometry, "metric_at", None)
    p, m = rigid()
    ricci_fd(p, m, ChartPoint(z=0.3 + 0.1j, w=0.7 + 0.0j))
    assert len(calls) == 29


def test_stencil_builds_no_form_per_stencil_value(monkeypatch):
    # the kernel hands the stencil its det as a float, so a point costs a
    # few forms (the centre's, the Hessian in W and in w, and for verify
    # the w-chart metric and lam * g), not one for each of its 29 values
    made = []

    class Counted(geometry.HermitianForm2):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(geometry, "HermitianForm2", Counted)
    p = make_profile(2, 0.5)
    m = build_map(p)
    for run_point, most in ((lambda pt: ricci_fd(p, m, pt), 3),
                            (lambda pt: geometry._grid_point(p, m, pt, 1e-3), 5)):
        per_point = []
        for pt in chart_grid(p, 2):
            made.clear()
            run_point(pt)
            per_point.append(len(made))
        assert len(set(per_point)) == 1 and 0 < per_point[0] <= most, per_point


@pytest.mark.parametrize("step", [400.0, 800.0])
def test_ricci_fd_large_steps_give_a_form_or_a_kee_error(step):
    # a step in u = log|w| moves s by 2 step, and at 800 exp(u) is past
    # the largest double, so the stencil must never form w from u
    p = make_profile(1, 0.5)
    m = build_map(p)
    try:
        form = ricci_fd(p, m, ChartPoint(z=0.3 + 0.1j, w=0.7 + 0.0j), step=step)
    except KeeError:
        return
    assert isinstance(form, geometry.HermitianForm2)


@pytest.mark.parametrize("step", [1e-170, 2.9e-154, math.nan, math.inf, 0.0, -1e-3])
def test_ricci_fd_refuses_a_step_whose_square_underflows(step):
    # the second differences divide by (step/2)^2; below the normal doubles
    # that is 0 or a few bits, so the step is refused before it is used
    p, m = rigid()
    with pytest.raises(DomainError, match="step"):
        ricci_fd(p, m, ChartPoint(z=0.3 + 0.1j, w=0.7 + 0.0j), step=step)


def test_ricci_fd_smallest_step_gives_a_form():
    # (step/2)^2 = 4e-308 is a normal double: the differences are rounding
    # noise, but finite or inf, never a division by zero
    p, m = rigid()
    form = ricci_fd(p, m, ChartPoint(z=0.3 + 0.1j, w=0.7 + 0.0j), step=4e-154)
    assert isinstance(form, geometry.HermitianForm2)


def test_fiber_length_small_angle_near_asymptote():
    p = make_profile(2, 0.01)
    L = fiber_length(p, 1.0, p.alpha2)
    assert abs(L - math.pi) < 0.02 * math.pi


def test_fiber_length_degenerate_and_additive():
    p = make_profile(1, 1.0)
    assert fiber_length(p, 1.7, 1.7) == 0.0
    a, b, c = 1.0, 1.9, p.alpha2
    lab = fiber_length(p, a, b)
    lbc = fiber_length(p, b, c)
    lac = fiber_length(p, a, c)
    assert abs(lab + lbc - lac) < 1e-9


@pytest.mark.parametrize("x, y, z, p", [
    (0.0, 0.5, 1.0, 1.0), (0.25, 0.75, 1.0, 2.0), (0.0, 0.6, 1.0, 1e-6),
    (3e-4, 0.43, 2e-7, 4.2e6), (1e-12, 1e12, 1.0, 1e12), (2.0, 2.0, 2.0, 2.0)])
def test_carlson_matches_mpmath(x, y, z, p):
    # arguments with (p - x)(p - y)(p - z) >= 0, the case both fiber-length
    # forms produce, spread over 24 decades
    rf, rj = geometry._carlson_rf_rj(x, y, z, p)
    with mp.workdps(30):
        assert abs(rf - mp.elliprf(x, y, z)) <= 2e-15 * mp.elliprf(x, y, z)
        assert abs(rj - mp.elliprj(x, y, z, p)) <= 2e-15 * mp.elliprj(x, y, z, p)


def _vieta_roots(n, b1):
    # 30-digit alpha1, alpha2 and cbar = -leading from (n, beta1) alone, by
    # Vieta: alpha1 + alpha2 = -alpha1 alpha2 = (1 + n b1)/(2 - n b1)
    with mp.workdps(30):
        b = mp.mpf(b1)
        S = (1 + n * b) / (2 - n * b)
        root = mp.sqrt(S * S + 4 * S)
        return (S - root) / 2, (S + root) / 2, (2 / mp.mpf(n) - b) / 3


def _float_roots(p):
    # the profile's own float roots taken as exact: roots rebuilt from the
    # decimal beta1 carry the rounding of n*beta1, amplified by x/(2 - x)
    # as x = n*beta1 -> 2 and by 1/beta1 on the short pieces as beta1 -> 0,
    # which would swamp a 1e-13 check there
    return mp.mpf(p.alpha1), mp.mpf(p.alpha2), -mp.mpf(p.leading)


def _lengths_and_widths(p):
    # the package's full length and the two 1e-6 pieces the cone-angle
    # probes measure, with the exact float widths of those pieces
    lo_end, hi_start = 1.0 + 1e-6, p.alpha2 - 1e-6
    got = (fiber_length(p, 1.0, p.alpha2), fiber_length(p, 1.0, lo_end),
           fiber_length(p, hi_start, p.alpha2))
    return got, mp.mpf(lo_end) - 1, mp.mpf(p.alpha2) - mp.mpf(hi_start)


def _mp_fiber_lengths(roots, w_lo, w_hi):
    # 30-digit full length and the pieces [1, 1 + w_lo], [alpha2 - w_hi,
    # alpha2] by quadrature: tau = 1 + (alpha2 - 1) sin^2(th) removes both
    # endpoint singularities at once, a route independent of the package's
    # elliptic closed forms
    with mp.workdps(30):
        a1, a2, cbar = roots

        def F(th):
            tau = 1 + (a2 - 1) * mp.sin(th) ** 2
            return mp.sqrt(2 * tau / (cbar * (tau - a1)))

        def edge(w):
            return mp.asin(mp.sqrt(w / (a2 - 1)))

        return (mp.quad(F, [0, mp.pi / 2]), mp.quad(F, [0, edge(w_lo)]),
                mp.quad(F, [mp.pi / 2 - edge(w_hi), mp.pi / 2]))


def _mp_elliptic_lengths(roots, w_lo, w_hi):
    # the same three lengths from mpmath's Legendre ellipf/ellippi at 30
    # digits; with a = alpha1, d = alpha2, P = 2/sqrt(2 cbar d (1 - a)) and
    # m = -a (d - 1)/(d (1 - a)), the length over [1, t] is P Pi(N; phi|m),
    # N = (d - 1)/d, sin^2 phi = d (t - 1)/((d - 1) t), and over [t, d] it is
    # P [a F(phi|m) + (d - a) Pi(-B; phi|m)], B = (d - 1)/(1 - a),
    # sin^2 phi = (1 - a)(d - t)/((d - 1)(t - a))
    with mp.workdps(30):
        a, d, cbar = roots
        P = 2 / mp.sqrt(2 * cbar * d * (1 - a))
        m, N, B = -a * (d - 1) / (d * (1 - a)), (d - 1) / d, (d - 1) / (1 - a)
        phi_lo = mp.asin(mp.sqrt(d * w_lo / ((d - 1) * (1 + w_lo))))
        phi_hi = mp.asin(mp.sqrt((1 - a) * w_hi / ((d - 1) * (d - w_hi - a))))
        return (P * mp.ellippi(N, m), P * mp.ellippi(N, phi_lo, m),
                P * (a * mp.ellipf(phi_hi, m) + (d - a) * mp.ellippi(-B, phi_hi, m)))


def _assert_within(got, ref, rel=1e-13):
    for g, r in zip(got, ref):
        assert abs(g - r) <= rel * r, (g, r)


_ORACLE_PAIRS = [(1, 1.0), (1, 0.999), (2, 1e-3), (3, 0.4), (4, 0.4975)]


@pytest.mark.parametrize("n, b1", [*_ORACLE_PAIRS, (1, 1e-6)])
def test_fiber_length_matches_mpmath(n, b1):
    # full length and the two 1e-6 pieces the cone-angle probes measure
    p = make_profile(n, b1)
    # at beta1 = 1e-6 the Vieta roots' rounding would swamp the pieces
    roots = _float_roots(p) if b1 < 1e-3 else _vieta_roots(n, b1)
    got, w_lo, w_hi = _lengths_and_widths(p)
    _assert_within(got, _mp_fiber_lengths(roots, w_lo, w_hi))


@pytest.mark.parametrize("n, b1", _ORACLE_PAIRS)
def test_fiber_length_matches_mpmath_elliptic(n, b1):
    p = make_profile(n, b1)
    got, w_lo, w_hi = _lengths_and_widths(p)
    _assert_within(got, _mp_elliptic_lengths(_vieta_roots(n, b1), w_lo, w_hi))


@pytest.mark.parametrize("n, b1", [(2, 0.999999), (3, 0.666666)])
def test_fiber_length_near_degenerate(n, b1):
    # 2 - n*beta1 <= 2e-6: alpha2 is about 1.5e6 and the length some 4e3
    p = make_profile(n, b1)
    got, w_lo, w_hi = _lengths_and_widths(p)
    _assert_within(got, _mp_fiber_lengths(_float_roots(p), w_lo, w_hi))
    _assert_within(got, _mp_elliptic_lengths(_float_roots(p), w_lo, w_hi))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 4), u=st.floats(1e-6, 1.0),
       cuts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
@example(n=1, u=1e-6, cuts=[0.0, 1e-7, 1.0])               # beta1 -> 0
@example(n=2, u=1.0 - 1e-6, cuts=[1e-8, 0.5, 1.0])         # n beta1 -> 2
@example(n=2, u=1.0 - 1e-6, cuts=[0.0, 0.9, 1.0 - 1e-9])
@example(n=1, u=1.0, cuts=[0.2, 0.5, 0.8])                 # beta1 = 1
def test_fiber_length_additive_property(n, u, cuts):
    # u in (0, 1] scales the admissible range: (0, 1] for n = 1, else (0, 2/n)
    beta1 = u * min(1.0, 2.0 / n)
    assume(n * beta1 < 2.0)
    p = make_profile(n, beta1)
    a, b, c = sorted(1.0 + f * (p.alpha2 - 1.0) for f in cuts)
    whole = fiber_length(p, 1.0, p.alpha2)
    defect = fiber_length(p, a, b) + fiber_length(p, b, c) - fiber_length(p, a, c)
    assert abs(defect) <= 1e-13 * whole, (a, b, c, defect / whole)


def test_fiber_lengths_never_reach_quadrature(monkeypatch, capsys):
    # lengths, probes and the collapse ladder run with quad_checked refusing
    # every call, so no fiber length has a quadrature path, fallback included
    def refuse(*args, **kwargs):
        raise RuntimeError("quad_checked was called")

    monkeypatch.setattr(geometry, "quad_checked", refuse)
    p = make_profile(2, 0.5)
    with pytest.raises(RuntimeError):
        geometry.fiber_volume(p)            # the binding the volumes use
    assert fiber_length(p, 1.0, p.alpha2) > 0.0
    assert cone_angle_probe(p, "lower", 1.0 + 1e-6) > 0.0
    assert cone_angle_probe(p, "upper", p.alpha2 - 1e-6) > 0.0
    assert collapse_entry(1, 1e-3)["fiber_length"] > 0.0
    assert main(["limit", "--n", "3", "--beta1-seq", "0.666666,0.5"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 2 and not any("error" in r for r in rows)


def test_fiber_length_rejects_bad_interval():
    p = make_profile(1, 1.0)
    with pytest.raises(Exception):
        fiber_length(p, 0.5, 2.0)
    with pytest.raises(Exception):
        fiber_length(p, 2.0, 1.5)


def test_cone_angle_probes():
    p = make_profile(1, 1.0)
    lo = cone_angle_probe(p, "lower", 1.0 + 1e-6)
    hi = cone_angle_probe(p, "upper", p.alpha2 - 1e-6)
    assert abs(lo - TWO_PI) < 1e-3 * TWO_PI
    assert abs(hi - TWO_PI * (math.sqrt(3.0) - 1.0)) < 1e-3 * TWO_PI
    p = make_profile(2, 0.5)
    lo = cone_angle_probe(p, "lower", 1.0 + 1e-6)
    assert abs(lo - math.pi) < 1e-3 * TWO_PI


def test_cone_angle_converges_monotonically():
    p = make_profile(1, 0.8)
    defects = []
    for d in (1e-3, 1e-4, 1e-5):
        ang = cone_angle_probe(p, "lower", 1.0 + d)
        defects.append(abs(ang - TWO_PI * p.beta1))
    assert defects[0] > defects[1] > defects[2]


def test_fiber_volume_values():
    p = make_profile(1, 1.0)
    v = fiber_volume(p)
    assert abs(v - TWO_PI * math.sqrt(3.0)) < 1e-10
    assert abs(v - TWO_PI * (p.alpha2 - 1.0)) < 1e-10
    p = make_profile(2, 1e-3)
    v = fiber_volume(p)
    assert abs(v - TWO_PI * p.n * p.beta1) < 0.01 * TWO_PI * p.n * p.beta1
    assert v > 0.0


def test_total_volume_rigid():
    p = make_profile(1, 1.0)
    v = total_volume(p)
    want = 4.0 * math.pi ** 2 * (3.0 + 2.0 * math.sqrt(3.0))
    assert abs(v - want) < 1e-9 * want


def test_total_volume_matches_intersection_form():
    for n, b1 in [(1, 1.0), (2, 0.4), (3, 0.5)]:
        p = make_profile(n, b1)
        v = total_volume(p)
        cls = (TWO_PI ** 2) * float(class_volume(kee_class(n, p.beta1, p.beta2)))
        assert abs(v - cls) < 1e-9 * v


def test_fs_pullback_shape():
    pt = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)
    g = fs_pullback(pt)
    assert g.g_ww == 0.0 and g.g_wz == 0.0
    assert abs(g.g_zz - 1.0 / (1.0 + 0.25) ** 2) < 1e-15
