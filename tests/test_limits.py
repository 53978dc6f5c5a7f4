import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirzebruch_kee import (ChartPoint, DomainError, alpha_series,
                            beta2_series, build_map, collapse_entry,
                            collapse_report, eval_phi, fiber_length_asymptote,
                            make_profile, metric_at, rescaled_fiber_metric,
                            rescaled_phi_y, tau_of_y, tensor_deviation)
from hirzebruch_kee.limits import DEFAULT_PROBE

BETA1_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def remainder_slope(n, values_fn):
    # log-log regression slope of the series remainder over the ladder
    errs = [values_fn(n, b1) for b1 in BETA1_LADDER]
    slope, _ = np.polyfit(np.log(BETA1_LADDER), np.log(errs), 1)
    return slope


def test_beta2_series_values():
    p = make_profile(1, 0.1)
    assert abs(beta2_series(1, 0.1, order=1) - 0.1) < 1e-15
    want2 = 0.1 - (1.0 / 3.0) * 0.01
    assert abs(beta2_series(1, 0.1, order=2) - want2) < 1e-15
    assert abs(p.beta2 - beta2_series(1, 0.1, order=2)) < 0.5 * 0.1 ** 3


def test_beta2_series_rejects_bad_order():
    with pytest.raises(DomainError):
        beta2_series(1, 0.1, order=3)


@pytest.mark.parametrize("series, n, beta1", [
    (beta2_series, 1, math.nan), (alpha_series, 0, 0.5), (beta2_series, 3, 5.0),
])
def test_series_refuse_inputs_outside_the_domain(series, n, beta1):
    # the same (n, beta1) domain as make_profile, checked in one place
    with pytest.raises(DomainError):
        series(n, beta1)


def test_alpha2_series_value():
    p = make_profile(1, 0.1)
    approx = alpha_series(1, 0.1, which="alpha2")
    assert abs(approx - 1.1033333333333333) < 1e-12
    assert abs(p.alpha2 - approx) <= 0.3 * 0.1 ** 3


def test_alpha1_series_limit():
    # leading term of the lower root is -1/2
    for b1 in (1e-2, 1e-3):
        assert abs(make_profile(1, b1).alpha1 + 0.5) < b1


def test_remainder_slopes():
    # order-2 remainders decay cubically, the order-1 beta2 remainder
    # quadratically
    for n in (1, 2):
        s = remainder_slope(n, lambda n, b: abs(make_profile(n, b).beta2
                                                - beta2_series(n, b, order=2)))
        assert abs(s - 3.0) <= 0.1
        s = remainder_slope(n, lambda n, b: abs(make_profile(n, b).alpha2
                                                - alpha_series(n, b, "alpha2")))
        assert abs(s - 3.0) <= 0.1
        s = remainder_slope(n, lambda n, b: abs(make_profile(n, b).alpha1
                                                - alpha_series(n, b, "alpha1")))
        assert abs(s - 3.0) <= 0.1
        s = remainder_slope(n, lambda n, b: abs(make_profile(n, b).beta2
                                                - beta2_series(n, b, order=1)))
        assert abs(s - 2.0) <= 0.05


def test_beta2_remainder_ratio_bounded():
    # |beta2 - (beta1 - n beta1^2/3)| / beta1^3 stays bounded on the ladder
    for n in (1, 2, 3):
        ratios = []
        for b1 in np.geomspace(1e-4, 1e-1, 13):
            rem = abs(make_profile(n, float(b1)).beta2 - beta2_series(n, float(b1), order=2))
            ratios.append(rem / b1 ** 3)
        assert max(ratios) < 2.0


# Measured sup of |remainder|/(n beta1)^3 over n = 1..5 and n beta1 in
# [1e-3, 1] (20,000 geometric points): beta2 0.1110 (-> 1/(9n)), alpha1
# 0.0347, alpha2 0.3987 (at n beta1 = 1; alpha2 has a pole at n beta1 = 2,
# so the small-angle bound stops at n beta1 = 1).  As C beta1^3 the constant
# is C = c n^3 with c below.
_SERIES_C = {"beta2": 0.12, "alpha1": 0.04, "alpha2": 0.41}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), x=st.floats(1e-12, 1.0))
@example(n=1, x=1e-12)         # beta1 -> 0, where only rounding is left
@example(n=1, x=1.0)           # beta1 = 1
@example(n=2, x=1.0)           # the largest n beta1 the bound covers
@example(n=5, x=1.0)
def test_series_remainders_cubic_property(n, x):
    beta1 = x / n
    p = make_profile(n, beta1)
    for name, exact, series in [
            ("beta2", p.beta2, beta2_series(n, beta1, order=2)),
            ("alpha1", p.alpha1, alpha_series(n, beta1, "alpha1")),
            ("alpha2", p.alpha2, alpha_series(n, beta1, "alpha2"))]:
        bound = _SERIES_C[name] * n ** 3 * beta1 ** 3
        # the exact roots carry their own rounding, 2 eps of |exact| at most
        assert abs(exact - series) <= bound + 4.0 * sys.float_info.epsilon * abs(exact), name


def test_rescaled_profile_values():
    val = rescaled_phi_y(2, 0.01, 0.0)
    want = (2.0 - 0.02) / 4.0 * (2.0 * 0.01) ** 2 / 4.0
    assert abs(val - want) < 1e-18
    assert abs(val - 4.95e-5) < 1e-9


def test_rescaled_profile_tracks_exact_profile():
    # the parabola model sits within C*beta1^3 of the exact profile; the
    # observed constant is n^2/3, attained near the interval edges
    for n, b1 in [(2, 0.01), (1, 0.05), (3, 0.02)]:
        p = make_profile(n, b1)
        worst = 0.0
        for y in np.linspace(-0.999 / b1, 0.999 / b1, 41):
            gap = abs(rescaled_phi_y(n, b1, float(y))
                      - eval_phi(p, tau_of_y(p, float(y))))
            worst = max(worst, gap)
        assert worst <= 1.05 * (n * n / 3.0) * b1 ** 3


def test_rescaled_profile_boundary_and_symmetry():
    assert rescaled_phi_y(2, 0.01, 1.0 / 0.01) == 0.0
    assert rescaled_phi_y(2, 0.01, -1.0 / 0.01) == 0.0
    for y in (0.3, 5.0, 40.0):
        assert rescaled_phi_y(2, 0.01, y) == rescaled_phi_y(2, 0.01, -y)


def test_rescaled_profile_domain():
    with pytest.raises(DomainError):
        rescaled_phi_y(2, 0.01, 1.0 / 0.01 + 1.0)


def test_rescaled_fiber_metric_converges():
    cy, ct = rescaled_fiber_metric(2, 1e-3, 0.0)
    assert abs(cy - 1.0) < 1e-3
    assert abs(ct - 1.0) < 1e-3
    cy, ct = rescaled_fiber_metric(1, 1e-3, 5.0)
    assert abs(cy - 0.5) < 2e-3 * 0.5
    assert abs(ct - 0.5) < 2e-3 * 0.5


def test_rescaled_fiber_metric_product_identity():
    for n, b1, y in [(1, 0.2, 0.0), (2, 0.05, 3.0), (3, 0.01, -7.0)]:
        cy, ct = rescaled_fiber_metric(n, b1, y)
        assert abs(cy * ct - n * n / 4.0) < 1e-13 * n * n


def test_rescaled_fiber_metric_linear_error_in_beta1():
    # |coeff - n/2| <= C(y) * beta1 with a y-dependent constant
    for y in (0.0, 4.0, 10.0):
        for b1 in (0.02, 0.01, 0.005):
            cy, ct = rescaled_fiber_metric(1, b1, y)
            bound = (1.0 + y * y / 25.0) * b1
            assert abs(cy - 0.5) <= bound
            assert abs(ct - 0.5) <= bound


def test_isothermal_in_the_limit():
    # the two coefficients agree within twice the larger deviation from n/2
    for n in (1, 2):
        cy, ct = rescaled_fiber_metric(n, 1e-3, 1.0)
        dev = max(abs(cy - n / 2.0), abs(ct - n / 2.0))
        assert abs(cy - ct) <= 2.0 * dev


def test_tensor_deviation_monotone_and_small():
    probe = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)
    devs = []
    for b1 in (0.2, 0.05, 0.0125):
        p = make_profile(1, b1)
        m = build_map(p)
        devs.append(tensor_deviation(p, m, probe))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.05


def test_tensor_entries_near_limit():
    probe = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)
    p = make_profile(1, 0.0125)
    m = build_map(p)
    g = metric_at(p, m, probe)
    fs = p.n / (1.0 + abs(probe.z) ** 2) ** 2
    assert abs(g.g_zz - fs) < 0.02 * fs
    assert g.g_ww * abs(probe.w) ** 2 <= p.n * p.beta1 ** 2 / 3.0


def test_fiber_length_asymptote_values():
    assert abs(fiber_length_asymptote(2) - math.pi) < 1e-15
    assert abs(fiber_length_asymptote(1) - math.pi / math.sqrt(2.0)) < 1e-15


def test_collapse_report_columns():
    entries = collapse_report(1, (0.2, 0.1, 0.05))
    assert [e["beta1"] for e in entries] == [0.2, 0.1, 0.05]
    cy = [e["rescaled_coeff_y"] for e in entries]
    assert abs(cy[2] - 0.5) < abs(cy[1] - 0.5) < abs(cy[0] - 0.5)
    for e in entries:
        assert e["beta2"] < e["beta1"]
        assert abs(e["fiber_length"] - math.pi / math.sqrt(2.0)) < 2.0 * e["beta1"]
        assert e["rescaled_length"] == pytest.approx(e["fiber_length"] / e["beta1"])


@pytest.mark.parametrize("n, beta1", [(10 ** 200, 1e-200), (10 ** 300, 1e-310)])
def test_collapse_coordinate_refuses_an_underflowing_scale(n, beta1):
    # valid angles for huge n, but y scales by beta1^2, which underflows
    assert make_profile(n, beta1).span > 0.0
    with pytest.raises(DomainError, match="beta1\\^2"):
        rescaled_fiber_metric(n, beta1, 0.0)
    with pytest.raises(DomainError):
        collapse_entry(n, beta1)
    assert tau_of_y(make_profile(1, 1.5e-10), 0.0) > 1.0


def test_collapse_report_rejects_unordered():
    with pytest.raises(DomainError):
        collapse_report(1, (0.1, 0.2))
    with pytest.raises(DomainError):
        collapse_report(1, (0.1, 0.1))


def test_collapse_entry_fields():
    e = collapse_entry(2, 0.05)
    p = make_profile(2, 0.05)
    assert e["beta2"] == p.beta2
    assert e["alpha2"] == p.alpha2
    assert e["tensor_deviation"] > 0.0
    # the probe columns sit right after beta1 and give the point at which
    # the tensor deviation is measured
    assert list(e)[:6] == ["beta1", "probe_z_re", "probe_z_im", "probe_w_re", "probe_w_im",
                           "beta2"]
    pt = ChartPoint(z=complex(e["probe_z_re"], e["probe_z_im"]),
                    w=complex(e["probe_w_re"], e["probe_w_im"]))
    assert pt == DEFAULT_PROBE
    assert e["tensor_deviation"] == tensor_deviation(p, build_map(p), pt)
