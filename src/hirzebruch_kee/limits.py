"""Small-angle asymptotics and collapse diagnostics.

As beta1 -> 0 the derived quantities expand as

    beta2  = beta1 - (n/3) beta1^2 + O(beta1^3),
    alpha2 = 1 + n beta1 + (n^2/3) beta1^2 + O(beta1^3),
    alpha1 = -1/2 - (n/4) beta1 + (n^2/24) beta1^2 + O(beta1^3),

each remainder cubically small (checked downstream by log-log regression of
the remainders, slopes 3.0).  The alpha1 series follows from expanding the
exact root alpha1 = -S/alpha2, S = (1 + n beta1)/(2 - n beta1); note the
signs, which differ from a commonly miscopied form with +n beta1/2.

In the rescaled fiber coordinate y = (tau - 1 - n beta1/2)/(n beta1^2/2) the
profile concentrates as

    phi = ((2 - n beta1)/(2n)) * (n^2 beta1^2/4) * (1 - beta1^2 y^2) + O(beta1^3)

and the fiber metric dtau^2/(2 phi) + 2 phi dtheta^2, written in y and
divided by beta1^2, becomes coeff_y dy^2 + coeff_theta dtheta^2 with

    coeff_y     = n^2 beta1^2 / (8 phi),
    coeff_theta = 2 phi / beta1^2.

Both tend to n/2, so in y the rescaled fiber metric is (n/2)(dy^2 + dtheta^2)
on |y| < 1/beta1: a flat cylinder whose length grows like 1/beta1.  Without
the rescaling the fiber collapses to an interval, its length tending to
pi*sqrt(n/2) while its circumference 2 pi sqrt(2 phi) tends to 0, and the
total space converges, as tensors at fixed chart points, to n times the
pullback of the Fubini-Study metric of the base.  Two diagnostics
are reported side by side without adjudication: the unrescaled fiber length
(which stays order one, approaching pi*sqrt(n/2)) and the pointwise tensor
deviation from the Fubini-Study pullback (which decays like beta1).
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .geometry import ChartPoint, fiber_length, fs_pullback, metric_at
from .legendre import build_map
from .profile import (EinsteinProfile, _checked_tau, _validate_n, _validate_n_beta1,
                      eval_phi, make_profile)

# the chart point at which the collapse diagnostics measure the tensor deviation
DEFAULT_PROBE = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)


def beta2_series(n: int, beta1: float, order: int = 2) -> float:
    """Small-angle series for beta2, truncated at the given order (1 or 2)."""
    _validate_n_beta1(n, beta1)
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    if order == 1:
        return beta1
    return beta1 - n * beta1 ** 2 / 3.0


def alpha_series(n: int, beta1: float, which: str = "alpha2") -> float:
    """Second-order small-angle series for either non-unit root."""
    _validate_n_beta1(n, beta1)
    if which == "alpha2":
        return 1.0 + n * beta1 + (n * beta1) ** 2 / 3.0
    if which == "alpha1":
        return -0.5 - n * beta1 / 4.0 + (n * beta1) ** 2 / 24.0
    raise DomainError(f"which must be 'alpha1' or 'alpha2', got {which!r}")


def y_of_tau(p: EinsteinProfile, tau: float) -> float:
    """Collapse-rescaled fiber coordinate y = (tau - 1 - n b/2)/(n b^2/2).

    Centered at the small-angle fiber midpoint and scaled so the fiber stays
    order-one as beta1 -> 0; y(1) = -1/beta1 exactly.  DomainError once
    beta1^2 leaves the normal doubles (beta1 below about 1.5e-154, a valid
    angle only for n above about 1e138), where the scale and the rescaled
    metric's division by beta1^2 would round to 0.
    """
    tau = _checked_tau(p, tau)
    if not p.beta1 * p.beta1 >= sys.float_info.min:
        raise DomainError(f"y scales by beta1^2, not a normal double at beta1={p.beta1}")
    nb = p.n * p.beta1
    return (tau - 1.0 - 0.5 * nb) / (0.5 * nb * p.beta1)


def tau_of_y(p: EinsteinProfile, y: float) -> float:
    """Inverse of y_of_tau; y = 0 is tau = 1 + n*beta1/2 exactly."""
    y = float(y)
    nb = p.n * p.beta1
    y_top = y_of_tau(p, p.alpha2)
    tol = 16.0 * math.ulp(max(1.0, abs(y_top), 1.0 / p.beta1))
    if not -1.0 / p.beta1 - tol <= y <= y_top + tol:
        raise DomainError(f"y={y} outside [{-1.0 / p.beta1}, {y_top}]")
    return 1.0 + 0.5 * nb + y * (0.5 * nb * p.beta1)


def rescaled_phi_y(n: int, beta1: float, y: float) -> float:
    """Leading collapse profile ((2-n b)/(2n)) (n^2 b^2/4)(1 - b^2 y^2).

    Defined on the closed band |y| <= 1/beta1 (zero at the ends); agrees
    with the exact phi at tau_of_y(y) to O(beta1^3).
    """
    _validate_n_beta1(n, beta1)
    beta1, y = float(beta1), float(y)
    if not abs(y) <= 1.0 / beta1 + 16.0 * math.ulp(1.0 / beta1):
        raise DomainError(f"y={y} outside the band |y| <= 1/beta1={1.0 / beta1}")
    by = beta1 * y
    return ((2.0 - n * beta1) / (2.0 * n)) * (n * beta1) ** 2 / 4.0 * (1.0 - by * by)


def rescaled_fiber_metric(n: int, beta1: float, y: float) -> tuple[float, float]:
    """Collapse-rescaled fiber metric coefficients (coeff_y, coeff_theta).

    Uses the exact profile value at tau_of_y(y); both coefficients tend to
    n/2 as beta1 -> 0, and their product is n^2/4 identically (the phi
    factors cancel), which is the flatness of the rescaled fiber shape.
    """
    p = make_profile(n, beta1)
    phi = eval_phi(p, tau_of_y(p, y))
    if phi <= 0.0:
        raise DomainError(f"rescaled metric needs |y| < 1/beta1 strictly, got y={y}")
    coeff_y = (n * beta1) ** 2 / (8.0 * phi)
    coeff_theta = 2.0 * phi / beta1 ** 2
    return coeff_y, coeff_theta


def tensor_deviation(p: EinsteinProfile, m, pt: ChartPoint) -> float:
    """Entrywise distance of the metric from n times the Fubini-Study pullback."""
    return metric_at(p, m, pt).max_abs_diff(fs_pullback(pt).scaled(float(p.n)))


def fiber_length_asymptote(n: int) -> float:
    """Limit of the full fiber length as beta1 -> 0: pi sqrt(n/2)."""
    _validate_n(n)
    return math.pi * math.sqrt(n / 2.0)


def collapse_entry(n: int, beta1: float) -> dict:
    """One row of the `limit` report at a fixed beta1, keyed by its columns.

    The tensor deviation is measured at DEFAULT_PROBE, whose coordinates the
    four probe columns after beta1 give.
    """
    p = make_profile(n, beta1)
    m = build_map(p)
    full = fiber_length(p, 1.0, p.alpha2)
    cy, cth = rescaled_fiber_metric(n, beta1, 0.0)
    z, w = DEFAULT_PROBE.z, DEFAULT_PROBE.w
    return {
        "beta1": p.beta1, "probe_z_re": z.real, "probe_z_im": z.imag,
        "probe_w_re": w.real, "probe_w_im": w.imag, "beta2": p.beta2, "alpha2": p.alpha2,
        "fiber_length": full, "rescaled_length": full / p.beta1,
        "rescaled_coeff_y": cy, "rescaled_coeff_theta": cth,
        "tensor_deviation": tensor_deviation(p, m, DEFAULT_PROBE),
    }


def _checked_ladder(beta1_list) -> tuple[float, ...]:
    """The ladder as floats; DomainError unless it is non-empty and strictly decreasing."""
    values = tuple(float(b) for b in beta1_list)
    if not values:
        raise DomainError("the beta1 ladder must list at least one value")
    if any(b2 >= b1 for b1, b2 in zip(values, values[1:])):
        raise DomainError(f"the beta1 ladder must decrease strictly, got {list(values)}")
    return values


def collapse_report(n: int, beta1_list) -> tuple[dict, ...]:
    """The `limit` report's rows along a strictly decreasing ladder of beta1
    values, one collapse_entry a rung, each measured at DEFAULT_PROBE."""
    return tuple(collapse_entry(n, b) for b in _checked_ladder(beta1_list))
