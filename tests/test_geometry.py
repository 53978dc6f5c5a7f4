import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from hirzebruch_kee import (ChartPoint, DEFAULT_QUAD, RangeError, build_map,
                            chart_grid, chart_s, cone_angle_probe,
                            einstein_residual, eval_phi, fiber_length,
                            fiber_metric_sample, fiber_volume, fs_pullback,
                            make_profile, metric_at, ricci_fd, tau_of_s,
                            total_volume)
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


def test_positive_definite_on_grid():
    p, m = rigid()
    for pt in chart_grid(p):
        g = metric_at(p, m, pt)
        assert g.min_eigenvalue() > 0.0


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


def test_einstein_residual_names_offending_point():
    p = make_profile(1, 0.5)
    m = build_map(p, s_hull=2.0)
    far = ChartPoint(z=0.1 + 0.0j, w=200.0 + 0.0j)   # s ~ 10.6, outside hull
    with pytest.raises(RangeError) as err:
        einstein_residual(p, m, [far], step=1e-3)
    assert "z=" in str(err.value) and "w=" in str(err.value)


def test_fiber_metric_sample():
    p = make_profile(1, 0.5)
    smp = fiber_metric_sample(p, 1.3)
    assert smp.radial_coeff > 0.0 and smp.angular_coeff > 0.0
    assert abs(smp.radial_coeff * smp.angular_coeff - 1.0) < 1e-14
    assert abs(smp.angular_coeff - 2.0 * eval_phi(p, 1.3)) < 1e-14


def test_fiber_length_small_angle_near_asymptote():
    p = make_profile(2, 0.01)
    L = fiber_length(p, 1.0, p.alpha2, DEFAULT_QUAD)
    assert abs(L - math.pi) < 0.02 * math.pi


def test_fiber_length_degenerate_and_additive():
    p = make_profile(1, 1.0)
    assert fiber_length(p, 1.7, 1.7, DEFAULT_QUAD) == 0.0
    a, b, c = 1.0, 1.9, p.alpha2
    lab = fiber_length(p, a, b, DEFAULT_QUAD)
    lbc = fiber_length(p, b, c, DEFAULT_QUAD)
    lac = fiber_length(p, a, c, DEFAULT_QUAD)
    assert abs(lab + lbc - lac) < 1e-9


def _mp_fiber_lengths(n, b1, w_lo, w_hi):
    # 30-digit fiber lengths from (n, beta1) alone: the roots come from
    # Vieta (alpha1 + alpha2 = -alpha1 alpha2 = (1 + n b1)/(2 - n b1)), and
    # tau = 1 + (alpha2 - 1) sin^2(th) removes both endpoint singularities at
    # once, a different route from the package's two one-sided substitutions
    with mp.workdps(30):
        b = mp.mpf(b1)
        S = (1 + n * b) / (2 - n * b)
        a1, a2 = (S - mp.sqrt(S * S + 4 * S)) / 2, (S + mp.sqrt(S * S + 4 * S)) / 2
        cbar = (2 / mp.mpf(n) - b) / 3

        def F(th):
            tau = 1 + (a2 - 1) * mp.sin(th) ** 2
            return mp.sqrt(2 * tau / (cbar * (tau - a1)))

        def edge(w):
            return mp.asin(mp.sqrt(w / (a2 - 1)))

        return (mp.quad(F, [0, mp.pi / 2]), mp.quad(F, [0, edge(w_lo)]),
                mp.quad(F, [mp.pi / 2 - edge(w_hi), mp.pi / 2]))


@pytest.mark.parametrize("n, b1", [(1, 1.0), (1, 0.999), (2, 1e-3), (3, 0.4), (4, 0.4975)])
def test_fiber_length_matches_mpmath(n, b1):
    # full length and the two 1e-6 pieces the cone-angle probes measure;
    # the pieces' widths are the exact float widths the package integrates
    p = make_profile(n, b1)
    lo_end, hi_start = 1.0 + 1e-6, p.alpha2 - 1e-6
    ref = _mp_fiber_lengths(n, b1, mp.mpf(lo_end) - 1, mp.mpf(p.alpha2) - mp.mpf(hi_start))
    got = (fiber_length(p, 1.0, p.alpha2), fiber_length(p, 1.0, lo_end),
           fiber_length(p, hi_start, p.alpha2))
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-13 * r


def test_fiber_length_rejects_bad_interval():
    p = make_profile(1, 1.0)
    with pytest.raises(Exception):
        fiber_length(p, 0.5, 2.0, DEFAULT_QUAD)
    with pytest.raises(Exception):
        fiber_length(p, 2.0, 1.5, DEFAULT_QUAD)


def test_cone_angle_probes():
    p = make_profile(1, 1.0)
    lo = cone_angle_probe(p, "lower", 1.0 + 1e-6, DEFAULT_QUAD)
    hi = cone_angle_probe(p, "upper", p.alpha2 - 1e-6, DEFAULT_QUAD)
    assert abs(lo - TWO_PI) < 1e-3 * TWO_PI
    assert abs(hi - TWO_PI * (math.sqrt(3.0) - 1.0)) < 1e-3 * TWO_PI
    p = make_profile(2, 0.5)
    lo = cone_angle_probe(p, "lower", 1.0 + 1e-6, DEFAULT_QUAD)
    assert abs(lo - math.pi) < 1e-3 * TWO_PI


def test_cone_angle_converges_monotonically():
    p = make_profile(1, 0.8)
    defects = []
    for d in (1e-3, 1e-4, 1e-5):
        ang = cone_angle_probe(p, "lower", 1.0 + d, DEFAULT_QUAD)
        defects.append(abs(ang - TWO_PI * p.beta1))
    assert defects[0] > defects[1] > defects[2]


def test_fiber_volume_values():
    p = make_profile(1, 1.0)
    v = fiber_volume(p, DEFAULT_QUAD)
    assert abs(v - TWO_PI * math.sqrt(3.0)) < 1e-10
    assert abs(v - TWO_PI * (p.alpha2 - 1.0)) < 1e-10
    p = make_profile(2, 1e-3)
    v = fiber_volume(p, DEFAULT_QUAD)
    assert abs(v - TWO_PI * p.n * p.beta1) < 0.01 * TWO_PI * p.n * p.beta1
    assert v > 0.0


def test_total_volume_rigid():
    p = make_profile(1, 1.0)
    v = total_volume(p, DEFAULT_QUAD)
    want = 4.0 * math.pi ** 2 * (3.0 + 2.0 * math.sqrt(3.0))
    assert abs(v - want) < 1e-9 * want


def test_total_volume_matches_intersection_form():
    for n, b1 in [(1, 1.0), (2, 0.4), (3, 0.5)]:
        p = make_profile(n, b1)
        v = total_volume(p, DEFAULT_QUAD)
        cls = (TWO_PI ** 2) * float(class_volume(kee_class(n, p.beta1, p.beta2)))
        assert abs(v - cls) < 1e-9 * v


def test_fs_pullback_shape():
    pt = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)
    g = fs_pullback(pt)
    assert g.g_ww == 0.0 and g.g_wz == 0.0
    assert abs(g.g_zz - 1.0 / (1.0 + 0.25) ** 2) < 1e-15
