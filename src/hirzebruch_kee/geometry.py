"""Metric tensor, curvature checks, and fiber geometry in the affine chart.

Points live in the chart (w, z) with w != 0 the fiber coordinate and z the
base coordinate; the invariant combination is s = log|w|^2 + n log(1+|z|^2).
With f the potential of the profile (f' = tau, f'' = phi as functions of s),
the Kahler metric has Hermitian matrix

    g_ww = phi/|w|^2,
    g_wz = n phi z / (w (1+|z|^2)),
    g_zz = (n tau + n^2 phi |z|^2) / (1+|z|^2)^2,

with the exact determinant identity det g * |w|^2 (1+|z|^2)^2 = n tau phi.
The Ricci form is recovered purely numerically as -dd^c log det g via central
second differences in (log|w|, arg w, Re z, Im z) with Richardson
extrapolation, and compared against lam * g; nothing of the closed-form
curvature enters that check, which is the point.

Restricted to a fiber the metric is dtau^2/(2 phi) + 2 phi dtheta^2, so the
radial arclength element is dtau/sqrt(2 phi).  The factor 2 is kept exactly
throughout (dropping it, as rough estimates sometimes do, would scale every
fiber length by sqrt(2)).  Fiber lengths are elliptic integrals in the
roots alpha1 < 0 < 1 < alpha2 of the profile's cubic, taken in closed form
through Carlson's R_F and R_J, so no quadrature reaches them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PositivityError
from .legendre import TauSMap, tau_of_s
from .profile import EinsteinProfile, eval_phi
from .quadrature import quad_checked


@dataclass(frozen=True)
class ChartPoint:
    """A point of the affine chart; w = 0 (the zero section) is excluded."""

    z: complex
    w: complex

    def __post_init__(self):
        if self.w == 0:
            raise DomainError("chart points need w != 0 (w = 0 is the zero section)")


def chart_s(n: int, pt: ChartPoint) -> float:
    """Invariant coordinate s = log|w|^2 + n log(1+|z|^2)."""
    return math.log(abs(pt.w) ** 2) + n * math.log1p(abs(pt.z) ** 2)


@dataclass(frozen=True)
class HermitianForm2:
    """A 2x2 Hermitian form in the (w, z) chart basis.

    Only the upper triangle is stored: the diagonal entries are real and the
    (z, w) entry is the conjugate of g_wz.
    """

    g_ww: float
    g_wz: complex
    g_zz: float

    def det(self) -> float:
        return self.g_ww * self.g_zz - abs(self.g_wz) ** 2

    def min_eigenvalue(self) -> float:
        tr = self.g_ww + self.g_zz
        gap = math.hypot(self.g_ww - self.g_zz, 2.0 * abs(self.g_wz))
        return 0.5 * (tr - gap)

    def scaled(self, k: float) -> "HermitianForm2":
        return HermitianForm2(k * self.g_ww, k * self.g_wz, k * self.g_zz)

    def max_abs_diff(self, other: "HermitianForm2") -> float:
        # np.max keeps a NaN entry, which max() would drop
        return float(np.max([abs(self.g_ww - other.g_ww),
                             abs(self.g_wz - other.g_wz),
                             abs(self.g_zz - other.g_zz)]))


@dataclass(frozen=True)
class FiberMetricSample:
    """Coefficients of the fiber metric dtau^2/(2 phi) + 2 phi dtheta^2."""

    tau: float
    radial_coeff: float
    angular_coeff: float


def fiber_metric_sample(p: EinsteinProfile, tau: float) -> FiberMetricSample:
    phi = eval_phi(p, tau)
    if phi <= 0.0:
        raise DomainError(f"fiber metric sample needs interior tau, got tau={tau}")
    return FiberMetricSample(tau=float(tau), radial_coeff=1.0 / (2.0 * phi),
                             angular_coeff=2.0 * phi)


def metric_at(p: EinsteinProfile, m: TauSMap, pt: ChartPoint) -> HermitianForm2:
    """Kahler metric at a chart point.

    Every chart point has a finite s, so the map always answers.  Where |s|
    is so large that tau rounds onto a root, phi is 0, the form is singular
    and PositivityError is raised: at (n, beta1) = (1, 1.0) and z = 0 that
    is every s below about -37.7, s = -41.9 among them.
    """
    s = chart_s(p.n, pt)
    tau = tau_of_s(m, s)
    phi = eval_phi(p, tau)
    az = 1.0 + abs(pt.z) ** 2
    g_ww = phi / abs(pt.w) ** 2
    g_wz = p.n * phi * pt.z / (pt.w * az)
    g_zz = (p.n * tau + p.n ** 2 * phi * abs(pt.z) ** 2) / az ** 2
    form = HermitianForm2(g_ww=g_ww, g_wz=complex(g_wz), g_zz=g_zz)
    if not (form.g_ww > 0.0 and form.det() > 0.0):
        raise PositivityError(f"metric lost positivity at z={pt.z}, w={pt.w}: "
                              f"g_ww={form.g_ww}, det={form.det()}")
    return form


def fs_pullback(pt: ChartPoint) -> HermitianForm2:
    """Pullback of the Fubini-Study form of the base: only g_zz survives."""
    az = 1.0 + abs(pt.z) ** 2
    return HermitianForm2(g_ww=0.0, g_wz=0.0 + 0.0j, g_zz=1.0 / az ** 2)


def _log_det_at(p: EinsteinProfile, m: TauSMap, u: float, th: float,
                x: float, y: float) -> float:
    pt = ChartPoint(z=complex(x, y), w=cmath.exp(complex(u, th)))
    return math.log(metric_at(p, m, pt).det())


def _complex_hessian(p: EinsteinProfile, m: TauSMap, pt: ChartPoint,
                     h: float) -> tuple[float, complex, float]:
    """Central-difference complex Hessian of log det g at one step size.

    Real steps are taken in (log|w|, arg w, Re z, Im z); the holomorphic
    coordinate W = log w then satisfies d/dW = (d_u - i d_th)/2, so
    L_WWbar = (L_uu + L_thth)/4, L_Wzbar = ((L_ux + L_thy) + i(L_uy - L_thx))/4
    and L_zzbar = (L_xx + L_yy)/4.
    """
    u0 = math.log(abs(pt.w))
    th0 = cmath.phase(pt.w)
    x0, y0 = pt.z.real, pt.z.imag

    def L(du=0.0, dth=0.0, dx=0.0, dy=0.0):
        return _log_det_at(p, m, u0 + du, th0 + dth, x0 + dx, y0 + dy)

    c = L()
    dd = {}
    for ax in ("u", "th", "x", "y"):
        plus = L(**{f"d{ax}": h})
        minus = L(**{f"d{ax}": -h})
        dd[ax, ax] = (plus - 2.0 * c + minus) / h ** 2
    # only the pairs mixing the fiber (u, th) with the base (x, y) enter L_Wzbar
    for ax in ("u", "th"):
        for bx in ("x", "y"):
            pp = L(**{f"d{ax}": h, f"d{bx}": h})
            pm = L(**{f"d{ax}": h, f"d{bx}": -h})
            mp = L(**{f"d{ax}": -h, f"d{bx}": h})
            mm = L(**{f"d{ax}": -h, f"d{bx}": -h})
            dd[ax, bx] = (pp - pm - mp + mm) / (4.0 * h ** 2)
    l_ww = 0.25 * (dd["u", "u"] + dd["th", "th"])
    l_wz = 0.25 * complex(dd["u", "x"] + dd["th", "y"],
                          dd["u", "y"] - dd["th", "x"])
    l_zz = 0.25 * (dd["x", "x"] + dd["y", "y"])
    return l_ww, l_wz, l_zz


def ricci_fd(p: EinsteinProfile, m: TauSMap, pt: ChartPoint,
             step: float = 1e-3) -> HermitianForm2:
    """Ricci form by finite differences of log det g, no closed form used.

    Richardson-extrapolates the second differences over steps (h, h/2),
    cancelling the O(h^2) truncation, then maps the Hessian in W = log w
    back to the w coordinate (d/dw = (1/w) d/dW).
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")
    a = _complex_hessian(p, m, pt, step)
    b = _complex_hessian(p, m, pt, 0.5 * step)
    l_ww, l_wz, l_zz = ((4.0 * bb - aa) / 3.0 for aa, bb in zip(a, b))
    ric_ww = -l_ww / abs(pt.w) ** 2
    ric_wz = -l_wz / pt.w
    ric_zz = -l_zz
    return HermitianForm2(g_ww=ric_ww, g_wz=complex(ric_wz), g_zz=ric_zz)


def chart_grid(p: EinsteinProfile, n_abs: int = 5, n_arg: int = 5, n_s: int = 3,
               s_lo: float = -2.0, s_hi: float = 2.0) -> list[ChartPoint]:
    """Deterministic interior grid in (|z|, arg z, s) for residual sweeps.

    |w| is solved from the target s, so the points sample the s-range evenly
    regardless of n; arg w is held fixed (the metric entries depend on it
    only through phases that the Einstein comparison sees anyway).
    """
    pts = []
    for zabs in np.linspace(0.2, 1.5, n_abs):
        for k in range(n_arg):
            zarg = 0.15 + 2.0 * math.pi * k / n_arg
            z = cmath.rect(zabs, zarg)
            for s in np.linspace(s_lo, s_hi, n_s):
                logw2 = s - p.n * math.log1p(abs(z) ** 2)
                w = cmath.rect(math.exp(0.5 * logw2), 0.4)
                pts.append(ChartPoint(z=z, w=w))
    return pts


def einstein_residual(p: EinsteinProfile, m: TauSMap, grid: list[ChartPoint],
                      step: float = 1e-3) -> float:
    """max over the grid of || ricci_fd - lam * g ||_max (entrywise).

    A NaN residual anywhere makes the result NaN, so it can never pass a
    threshold comparison, and an empty grid is a DomainError rather than a
    vacuous pass.
    """
    if not grid:
        raise DomainError("einstein_residual needs at least one grid point")
    residuals = []
    for pt in grid:
        g = metric_at(p, m, pt)
        residuals.append(ricci_fd(p, m, pt, step=step).max_abs_diff(g.scaled(p.lam)))
    return float(np.max(residuals))


# Carlson's duplication stops once 4^-m Q < A, which bounds the relative
# truncation of the series below by r; these are his factors
# (3r)^(-1/6) for R_F and (r/4)^(-1/6) for R_J at r = float eps
_RF_Q = (3.0 * sys.float_info.epsilon) ** (-1.0 / 6.0)
_RJ_Q = (0.25 * sys.float_info.epsilon) ** (-1.0 / 6.0)


def _carlson_rf_rj(x: float, y: float, z: float, p: float) -> tuple[float, float]:
    """R_F(x, y, z) and R_J(x, y, z, p) by Carlson's duplication.

    B. C. Carlson, "Numerical computation of real or complex elliptic
    integrals", Numer. Algorithms 10 (1995).  All arguments are positive,
    except that one of x, y, z may be 0, and (p - x)(p - y)(p - z) >= 0, as
    in both fiber-length forms; then each R_C(1, 1 + r^2) in the sum is
    atan(r)/r, which keeps its digits as r -> 0 where acos forms do not.
    Both integrals iterate the same x, y, z, so one loop serves both.
    """
    af = a0f = (x + y + z) / 3.0
    aj = a0j = (x + y + z + 2.0 * p) / 5.0
    qf = _RF_Q * max(abs(a0f - x), abs(a0f - y), abs(a0f - z))
    qj = _RJ_Q * max(abs(a0j - x), abs(a0j - y), abs(a0j - z), abs(a0j - p))
    delta = (p - x) * (p - y) * (p - z)
    x0, y0, z0 = x, y, z
    fac, tail = 1.0, 0.0    # fac = 4^-m
    while fac * qf >= af or fac * qj >= aj:
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        dm = (sp + sx) * (sp + sy) * (sp + sz)
        r = math.sqrt(fac ** 3 * delta) / dm
        tail += fac / dm * (math.atan(r) / r if r > 0.0 else 1.0)
        fac *= 0.25
        x, y, z, p = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (p + lam)
        af, aj = 0.25 * (af + lam), 0.25 * (aj + lam)
    X, Y = (a0f - x0) * fac / af, (a0f - y0) * fac / af
    e2, e3 = X * Y - (X + Y) ** 2, -X * Y * (X + Y)
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(af)
    X, Y, Z = (a0j - x0) * fac / aj, (a0j - y0) * fac / aj, (a0j - z0) * fac / aj
    P = -0.5 * (X + Y + Z)
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = X * Y * Z + 2.0 * e2 * P + 4.0 * P ** 3
    e4 = (2.0 * X * Y * Z + e2 * P + 3.0 * P ** 3) * P
    e5 = X * Y * Z * P * P
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, fac * series / (aj * math.sqrt(aj)) + 6.0 * tail


# With a = alpha1, d = alpha2, cbar = -leading, P = 2/sqrt(2 cbar d (1 - a))
# and m = -a (d - 1)/(d (1 - a)), each length below is P times a Legendre
# form: F(phi|m) = s R_F(c^2, Delta^2, 1) and Pi(n; phi|m) is that plus
# (n/3) s^3 R_J(c^2, Delta^2, 1, 1 - n s^2), with s = sin phi, c = cos phi
# and Delta^2 = 1 - m s^2.  Every complement is formed from the roots,
# never as 1 - x.  At the anchor itself s = 0 and the length is exactly 0.

def _length_from_one(p: EinsteinProfile, t: float) -> float:
    # length over [1, t], divided by P: Pi(N; phi|m), N = (d - 1)/d, with
    # sin^2 phi = d (t - 1)/((d - 1) t), so that N sin^2 phi = (t - 1)/t
    a, d = p.alpha1, p.alpha2
    rf, rj = _carlson_rf_rj((d - t) / ((d - 1.0) * t), (t - a) / ((1.0 - a) * t),
                            1.0, 1.0 / t)
    s = math.sqrt(d * (t - 1.0) / ((d - 1.0) * t))
    return s * (rf + (t - 1.0) / (3.0 * t) * rj)


def _length_to_alpha2(p: EinsteinProfile, t: float) -> float:
    # length over [t, alpha2], divided by P: a F(phi|m) + (d - a) Pi(-B; phi|m),
    # B = (d - 1)/(1 - a), with sin^2 phi = (1 - a)(d - t)/((d - 1)(t - a)),
    # so that B sin^2 phi = (d - t)/(t - a)
    a, d = p.alpha1, p.alpha2
    rf, rj = _carlson_rf_rj((d - a) * (t - 1.0) / ((d - 1.0) * (t - a)),
                            t * (d - a) / (d * (t - a)), 1.0, (d - a) / (t - a))
    s = math.sqrt((1.0 - a) * (d - t) / ((d - 1.0) * (t - a)))
    return s * (d * rf - (d - a) * (d - t) / (3.0 * (t - a)) * rj)


def fiber_length(p: EinsteinProfile, tau_a: float, tau_b: float) -> float:
    """Arclength of the fiber segment [tau_a, tau_b]: integral of dtau/sqrt(2 phi).

    Endpoints are allowed.  The length is the difference of two closed-form
    lengths anchored at one root, so a piece that starts at a root is taken
    directly.  The anchor is alpha2 only when the whole segment lies in the
    upper half of [1, alpha2]: there B sin^2 phi < 1, so the R_J term of the
    upper form cancels at most half of its R_F term.  Anchored at alpha2
    from a point near 1, the two would cancel to about 1/sqrt(alpha2).
    """
    tol = 16.0 * math.ulp(max(1.0, p.alpha2))
    a, b = float(tau_a), float(tau_b)
    if not (1.0 - tol <= a <= b <= p.alpha2 + tol):
        raise DomainError(f"need 1 <= tau_a <= tau_b <= alpha2, got [{tau_a}, {tau_b}]")
    a = min(max(a, 1.0), p.alpha2)
    b = min(max(b, 1.0), p.alpha2)
    if a == b:
        return 0.0
    scale = math.sqrt(2.0 / (-p.leading * p.alpha2 * (1.0 - p.alpha1)))
    if a >= 0.5 * (1.0 + p.alpha2):
        return scale * (_length_to_alpha2(p, a) - _length_to_alpha2(p, b))
    return scale * (_length_from_one(p, b) - _length_from_one(p, a))


def cone_angle_probe(p: EinsteinProfile, end: str, tau_probe: float) -> float:
    """Geodesic-circle angle estimate 2 pi sqrt(2 phi)/radius near one end.

    radius is the fiber arclength from the chosen root to tau_probe and
    2 pi sqrt(2 phi(tau_probe)) is the circumference of the theta-circle, so
    the ratio tends to 2 pi beta1 (lower end) or 2 pi beta2 (upper end) as
    the probe approaches the root: a purely metric measurement of the cone
    angles, independent of the boundary-slope identities.
    """
    tau_probe = float(tau_probe)
    if not 1.0 < tau_probe < p.alpha2:
        raise DomainError(f"probe tau={tau_probe} not interior to (1, {p.alpha2})")
    circumference = 2.0 * math.pi * math.sqrt(2.0 * eval_phi(p, tau_probe))
    if end == "lower":
        radius = fiber_length(p, 1.0, tau_probe)
    elif end == "upper":
        radius = fiber_length(p, tau_probe, p.alpha2)
    else:
        raise DomainError(f"end must be 'lower' or 'upper', got {end!r}")
    return circumference / radius


def fiber_volume(p: EinsteinProfile) -> float:
    """Area of one fiber by quadrature of its area form.

    The area density sqrt(radial * angular) is identically 1 in (tau, theta),
    so the result equals 2 pi (alpha2 - 1); the quadrature still assembles it
    from the metric coefficients as a consistency route.
    """
    def density(tau):
        s = fiber_metric_sample(p, tau)
        return math.sqrt(s.radial_coeff * s.angular_coeff)

    return 2.0 * math.pi * quad_checked(density, 1.0, p.alpha2)


def total_volume(p: EinsteinProfile) -> float:
    """Total volume of the surface: 2 n (2 pi)^2 integral of tau dtau.

    The mixed volume density is 2 n tau phi against the product of the base
    area form (total mass 2 pi) and ds dtheta on the fibers; since
    phi ds = dtau, the s-integral collapses to the momentum integral of
    2 tau, giving 4 pi^2 n (alpha2^2 - 1).  Matches (2 pi)^2 times the
    self-intersection of the Kahler class, the single place the 2 pi class
    normalization enters this package.
    """
    moment = quad_checked(lambda tau: tau, 1.0, p.alpha2)
    return 2.0 * p.n * (2.0 * math.pi) ** 2 * moment
