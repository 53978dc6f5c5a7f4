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
from dataclasses import dataclass

from .errors import DomainError
from .geometry import ChartPoint, fiber_length, fs_pullback, metric_at
from .legendre import build_map, tau_of_y
from .profile import EinsteinProfile, eval_phi, make_profile

_DEFAULT_PROBE = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)


def beta2_series(n: int, beta1: float, order: int = 2) -> float:
    """Small-angle series for beta2, truncated at the given order (1 or 2)."""
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    if order == 1:
        return beta1
    return beta1 - n * beta1 ** 2 / 3.0


def alpha_series(n: int, beta1: float, which: str = "alpha2") -> float:
    """Second-order small-angle series for either non-unit root."""
    if which == "alpha2":
        return 1.0 + n * beta1 + (n * beta1) ** 2 / 3.0
    if which == "alpha1":
        return -0.5 - n * beta1 / 4.0 + (n * beta1) ** 2 / 24.0
    raise DomainError(f"which must be 'alpha1' or 'alpha2', got {which!r}")


def rescaled_phi_y(n: int, beta1: float, y: float) -> float:
    """Leading collapse profile ((2-n b)/(2n)) (n^2 b^2/4)(1 - b^2 y^2).

    Defined on the closed band |y| <= 1/beta1 (zero at the ends); agrees
    with the exact phi at tau_of_y(y) to O(beta1^3).
    """
    p = make_profile(n, beta1)  # validates (n, beta1)
    y = float(y)
    tol = 16.0 * math.ulp(1.0 / beta1)
    if abs(y) > 1.0 / p.beta1 + tol:
        raise DomainError(f"|y|={abs(y)} exceeds the band edge 1/beta1={1.0 / beta1}")
    by = p.beta1 * y
    return ((2.0 - n * p.beta1) / (2.0 * n)) * (n * p.beta1) ** 2 / 4.0 * (1.0 - by * by)


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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return math.pi * math.sqrt(n / 2.0)


@dataclass(frozen=True)
class CollapseEntry:
    """One row of collapse diagnostics at a fixed beta1."""

    beta1: float
    beta2: float
    alpha2: float
    fiber_length: float
    rescaled_length: float
    rescaled_coeff_y: float
    rescaled_coeff_theta: float
    tensor_deviation_at_probe: float


@dataclass(frozen=True)
class CollapseReport:
    n: int
    probe: ChartPoint
    entries: tuple[CollapseEntry, ...]


def collapse_entry(n: int, beta1: float, probe: ChartPoint = _DEFAULT_PROBE) -> CollapseEntry:
    p = make_profile(n, beta1)
    m = build_map(p)
    full = fiber_length(p, 1.0, p.alpha2)
    cy, cth = rescaled_fiber_metric(n, beta1, 0.0)
    return CollapseEntry(
        beta1=p.beta1,
        beta2=p.beta2,
        alpha2=p.alpha2,
        fiber_length=full,
        rescaled_length=full / p.beta1,
        rescaled_coeff_y=cy,
        rescaled_coeff_theta=cth,
        tensor_deviation_at_probe=tensor_deviation(p, m, probe),
    )


def collapse_report(n: int, beta1_list, probe: ChartPoint = _DEFAULT_PROBE) -> CollapseReport:
    """Diagnostics along a strictly decreasing ladder of beta1 values."""
    values = [float(b) for b in beta1_list]
    if not values:
        raise DomainError("beta1_list must be non-empty")
    if any(b2 >= b1 for b1, b2 in zip(values, values[1:])):
        raise DomainError(f"beta1_list must decrease strictly, got {values}")
    entries = tuple(collapse_entry(n, b, probe=probe) for b in values)
    return CollapseReport(n=n, probe=probe, entries=entries)
