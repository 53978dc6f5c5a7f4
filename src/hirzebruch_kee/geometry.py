"""Metric tensor, curvature checks, and fiber geometry in the affine chart.

Points live in the chart (w, z) with w != 0 the fiber coordinate and z the
base coordinate; the invariant combination is s = log|w|^2 + n log(1+|z|^2).
With f the potential of the profile (f' = tau, f'' = phi as functions of s),
the Kahler metric has Hermitian matrix

    g_ww = phi/|w|^2,
    g_wz = n phi z / (w (1+|z|^2)),
    g_zz = (n tau + n^2 phi |z|^2) / (1+|z|^2)^2,

with the exact determinant identity det g * |w|^2 (1+|z|^2)^2 = n tau phi.
In the log chart (W = log w, z) the same metric reads g_WW = phi,
g_Wz = n phi z/(1+|z|^2) and the same g_zz: functions of s and z alone,
with no power of |w| and no arg w, as the fiber rotation invariance of the
Calabi ansatz requires.  One kernel assembles that form's entries and
its determinant as plain numbers, and the Ricci form is recovered from
them purely numerically as -dd^c log det g, by central second differences
in (log|w|, Re z, Im z) with Richardson extrapolation, and compared
against lam * g.  The stencil reads the kernel's determinant and builds no
form per stencil value; only its centre is wrapped in a HermitianForm2.
Nothing of the closed-form curvature enters that check, which is the
point.  Both the metric and the Ricci form leave the log chart through one
map to the w chart, which refuses an entry that overflows.

Restricted to a fiber the metric is dtau^2/(2 phi) + 2 phi dtheta^2, so the
radial arclength element is dtau/sqrt(2 phi).  The factor 2 is kept exactly
throughout (dropping it, as rough estimates sometimes do, would scale every
fiber length by sqrt(2)).  Fiber lengths are elliptic integrals in the
roots alpha1 < 0 < 1 < alpha2 of the profile's cubic, taken in closed form
through Carlson's R_F and R_J, so no quadrature reaches them.

Every value of phi at a fiber point comes from the map's stretched
coordinate q (legendre._q_of_s, then legendre._at_q), never from a rounded
tau.  A chart point's q is solved once, in _centre, and the metric, the
determinant defect of `verify` and the centre of the Ricci stencil all read
that one solve; the stencil's other solves start from it.  `verify`'s two
per-point values, the relative defect of the determinant identity above
and the Einstein residual, are both formed in _grid_point.  The two volumes
are integrals over the whole q-line: the fiber area is 2 pi times the
integral of phi ds, and the total volume 2 n (2 pi)^2 times that of
tau phi ds, each by the checked trapezoid rule of `quadrature`.  Their
integrands read tau, phi and ds/dq from legendre._at_q, the same one
evaluation of the map at q that the Newton solve uses.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from ._floats import linspace, max_keep_nan
from .errors import DomainError, PositivityError
from .legendre import TauSMap, _at_q, _q_of_s
from .profile import EinsteinProfile, _checked_tau, eval_phi
from .quadrature import quad_checked


@dataclass(frozen=True)
class ChartPoint:
    """A point of the affine chart; w = 0 (the zero section) is excluded."""

    z: complex
    w: complex

    def __post_init__(self):
        if self.w == 0:
            raise DomainError("chart points need w != 0 (w = 0 is the zero section)")


def _log1p_abs2(z: complex) -> float:
    """log(1 + |z|^2), finite for every finite z.

    |z| |z| overflows to inf where abs(z) ** 2 would raise; past that point
    log1p(|z|^-2) is below the last bit of 2 log|z|, which is then the log.
    """
    az = abs(z)
    az2 = az * az
    return math.log1p(az2) if az2 < math.inf else 2.0 * math.log(az)


def chart_s(n: int, pt: ChartPoint) -> float:
    """Invariant coordinate s = log|w|^2 + n log(1+|z|^2)."""
    # 2 log|w|, not log(|w|^2): the square overflows or underflows long
    # before its log does
    return 2.0 * math.log(abs(pt.w)) + n * _log1p_abs2(pt.z)


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
        # a product overflows to inf where a float ** 2 would raise
        return self.g_ww * self.g_zz - abs(self.g_wz) * abs(self.g_wz)

    def scaled(self, k: float) -> "HermitianForm2":
        return HermitianForm2(k * self.g_ww, k * self.g_wz, k * self.g_zz)

    def max_abs_diff(self, other: "HermitianForm2") -> float:
        return max_keep_nan([abs(self.g_ww - other.g_ww),
                             abs(self.g_wz - other.g_wz),
                             abs(self.g_zz - other.g_zz)])


def _to_w_chart(f: HermitianForm2, w: complex) -> HermitianForm2:
    """A form in the log chart (W = log w, z) written in the w chart.

    d/dw = (1/w) d/dW gives g_ww = f_WW/|w|^2 and g_wz = f_Wz/w; g_zz is
    unchanged.  The product |w| |w| rounds exactly as abs(w) ** 2 does, but
    overflows to inf instead of raising OverflowError; below the normal
    range, where it would lose digits or divide by zero, |w| is divided out
    twice.  PositivityError is raised unless every entry is finite: near
    the zero section an entry can overflow (at z = 0, |w| = 1e-170 at
    (n, beta1) = (1, 0.01), g_ww is inf while g_wz is 0, so the
    determinant is inf and would pass a positivity test).
    """
    aw = abs(w)
    aw2 = aw * aw
    g_ww = f.g_ww / aw2 if aw2 >= sys.float_info.min else f.g_ww / aw / aw
    g_wz = f.g_wz / w
    if not (math.isfinite(g_ww) and cmath.isfinite(g_wz) and math.isfinite(f.g_zz)):
        raise PositivityError(f"form leaves the double range in the w chart at w={w}: "
                              f"g_ww={g_ww}, g_wz={g_wz}, g_zz={f.g_zz}")
    return HermitianForm2(g_ww, g_wz, f.g_zz)


def _log_chart_form(p: EinsteinProfile, s: float, z: complex,
                    tau: float, phi: float) -> tuple[float, complex, float, float]:
    """(g_WW, g_Wz, g_zz, det) of the metric in the log chart (W = log w, z)
    from the map's tau and phi at s: the one place its entries and their
    determinant are assembled, as plain numbers, so that the Ricci stencil
    reads det without building a form.

    There g_WW = phi, g_Wz = n phi z/(1+|z|^2) and g_zz as in the w chart;
    they depend on w only through s, so neither |w| nor arg w enters.  det
    is formed as HermitianForm2.det forms it.  PositivityError is raised
    once phi is below the normal double range (sigma(q) subnormal or 0: at
    (n, beta1) = (1, 1.0) and z = 0, s below about -709), where it would
    keep too few digits to be trusted, or where the form is no longer
    positive in floating point.
    """
    z2 = abs(z) * abs(z)    # a product overflows to inf where ** 2 would raise
    az = 1.0 + z2
    g_wz = complex(p.n * phi * z / az)
    g_zz = (p.n * tau + p.n ** 2 * phi * z2) / (az * az)
    det = phi * g_zz - abs(g_wz) * abs(g_wz)
    if not (phi >= sys.float_info.min and det > 0.0):
        raise PositivityError(f"metric lost positivity at s={s}, z={z}: "
                              f"phi={phi}, det={det}")
    return phi, g_wz, g_zz, det


def _centre(p: EinsteinProfile, m: TauSMap, pt: ChartPoint) -> tuple:
    """(s, q, tau, phi, ds/dq, log-chart form) at a chart point: the one
    solve of the map there, which the metric, the determinant defect of
    `verify` and the centre of the Ricci stencil all read."""
    s = chart_s(p.n, pt)
    q = _q_of_s(m, s)
    tau, phi, dsdq, _ = _at_q(p, q)
    return s, q, tau, phi, dsdq, HermitianForm2(*_log_chart_form(p, s, pt.z, tau, phi)[:3])


def _w_chart_metric(form: HermitianForm2, pt: ChartPoint) -> HermitianForm2:
    """A log-chart metric form at pt in the w chart, refused unless positive there."""
    form = _to_w_chart(form, pt.w)
    if not (form.g_ww > 0.0 and form.det() > 0.0):
        raise PositivityError(f"metric lost positivity at z={pt.z}, w={pt.w}: "
                              f"g_ww={form.g_ww}, det={form.det()}")
    return form


def metric_at(p: EinsteinProfile, m: TauSMap, pt: ChartPoint) -> HermitianForm2:
    """Kahler metric at a chart point, in the (w, z) basis.

    The log-chart form at s = chart_s(pt), taken to the w chart by
    _to_w_chart.  phi comes from the map's q, so the form keeps its digits
    where tau has rounded onto a root: at (n, beta1) = (1, 1.0) and z = 0
    that is every s below about -37.7, and s = -700 still gives an accurate
    form.  PositivityError is raised where phi leaves the normal double
    range (s below about -709 there), where an entry overflows, or where an
    entry underflows so that the form is no longer positive in floating
    point.
    """
    return _w_chart_metric(_centre(p, m, pt)[5], pt)


def fs_pullback(pt: ChartPoint) -> HermitianForm2:
    """Pullback of the Fubini-Study form of the base: only g_zz survives."""
    az = 1.0 + abs(pt.z) * abs(pt.z)
    return HermitianForm2(g_ww=0.0, g_wz=0.0 + 0.0j, g_zz=1.0 / (az * az))


def ricci_fd(p: EinsteinProfile, m: TauSMap, pt: ChartPoint,
             step: float = 1e-3) -> HermitianForm2:
    """Ricci form by finite differences of log det g, no closed form used.

    Central second differences of L = log(det g_log / det at the centre)
    over real steps in (u, x, y) = (log|w|, Re z, Im z), with g_log the
    log-chart form at s = 2u + n log(1+|z|^2).  That form does not depend
    on arg w, so with d/dW = (d_u - i d_arg)/2 the complex Hessian is
    L_WWbar = L_uu/4, L_Wzbar = (L_ux + i L_uy)/4, L_zzbar = (L_xx + L_yy)/4;
    log|w|^2 = W + Wbar, the difference between the two charts' log det,
    is pluriharmonic and drops out.  The differences are Richardson-
    extrapolated over steps (h, h/2), cancelling the O(h^2) truncation, and
    the Hessian in W goes to the w chart by _to_w_chart, which refuses an
    entry that overflows but, unlike metric_at, tests no positivity: the
    Ricci form of a tampered profile need not be positive.  The ratio to
    the centre keeps each value near 0, where its rounding is about eps;
    the constant it removes cancels in every difference.  Each value reads
    the kernel's determinant directly, so no form is built per stencil
    value: a call builds three, the centre's and the Hessian in W and in w.

    The centre is solved once, cold.  Each of the 28 off-centre solves
    starts from the centre's tangent, q_c + (s - s_c)/(ds/dq)_c, which is
    within O(step^2) of its root: at the default step Newton settles there
    within 2 steps (checked over chart_grid(p, 5) on eight profiles), where
    the start from the gauge point takes about 4.
    """
    return _stencil(p, m, pt, step, _centre(p, m, pt))


def _stencil(p: EinsteinProfile, m: TauSMap, pt: ChartPoint, step: float,
             centre: tuple) -> HermitianForm2:
    """ricci_fd about a centre already solved by _centre."""
    # the second differences divide by (step/2)^2, which must be a normal double
    if not (0.0 < step < math.inf and step * step >= 4.0 * sys.float_info.min):
        raise DomainError(f"step must be finite with (step/2)^2 a normal double, got {step}")
    s_c, q_c, _, _, dsdq_c, form_c = centre
    det_c = form_c.det()
    u0, x0, y0 = math.log(abs(pt.w)), pt.z.real, pt.z.imag

    def L(du: float, dx: float, dy: float) -> float:
        z = complex(x0 + dx, y0 + dy)
        s = 2.0 * (u0 + du) + p.n * _log1p_abs2(z)
        tau, phi, _, _ = _at_q(p, _q_of_s(m, s, q_c + (s - s_c) / dsdq_c))
        return math.log(_log_chart_form(p, s, z, tau, phi)[3] / det_c)

    def hessian(h: float) -> tuple[float, complex, float]:
        # L is 0 at the centre, so a second difference is (L(+h) + L(-h))/h^2
        h2 = h * h
        l_uu = (L(h, 0.0, 0.0) + L(-h, 0.0, 0.0)) / h2
        l_xx = (L(0.0, h, 0.0) + L(0.0, -h, 0.0)) / h2
        l_yy = (L(0.0, 0.0, h) + L(0.0, 0.0, -h)) / h2
        l_ux = (L(h, h, 0.0) - L(h, -h, 0.0) - L(-h, h, 0.0) + L(-h, -h, 0.0)) / (4.0 * h2)
        l_uy = (L(h, 0.0, h) - L(h, 0.0, -h) - L(-h, 0.0, h) + L(-h, 0.0, -h)) / (4.0 * h2)
        return 0.25 * l_uu, 0.25 * complex(l_ux, l_uy), 0.25 * (l_xx + l_yy)

    a = hessian(step)
    b = hessian(0.5 * step)
    l_ww, l_wz, l_zz = ((4.0 * bb - aa) / 3.0 for aa, bb in zip(a, b))
    return _to_w_chart(HermitianForm2(-l_ww, -l_wz, -l_zz), pt.w)


def chart_grid(p: EinsteinProfile, size: int = 5) -> list[ChartPoint]:
    """Deterministic interior grid of size x size x 3 points in (|z|, arg z, s).

    size values of |z| in [0.2, 1.5], size of arg z, and s in (-2, 0, 2).
    |w| is solved from the target s, so the points sample the s-range evenly
    regardless of n; arg w is held fixed (the metric entries depend on it
    only through phases that the Einstein comparison sees anyway).
    """
    pts = []
    for zabs in linspace(0.2, 1.5, size):
        for k in range(size):
            zarg = 0.15 + 2.0 * math.pi * k / size
            z = cmath.rect(zabs, zarg)
            for s in (-2.0, 0.0, 2.0):
                logw2 = s - p.n * _log1p_abs2(z)
                w = cmath.rect(math.exp(0.5 * logw2), 0.4)
                pts.append(ChartPoint(z=z, w=w))
    return pts


def _grid_point(p: EinsteinProfile, m: TauSMap, pt: ChartPoint,
                step: float) -> tuple[float, float]:
    """(det defect, || ricci_fd - lam * g ||_max) at one chart point, both
    from one solve of the map at the point.

    The det defect is the relative defect of the identity
    det g * |w|^2 (1+|z|^2)^2 = n tau phi, with g the w-chart metric.
    """
    centre = _centre(p, m, pt)
    _, _, tau, phi, _, form = centre
    g = _w_chart_metric(form, pt)
    target = p.n * tau * phi
    # products overflow to inf where ** 2 would raise
    aw, az = abs(pt.w), 1.0 + abs(pt.z) * abs(pt.z)
    defect = abs(g.det() * (aw * aw * (az * az)) - target) / target
    return defect, _stencil(p, m, pt, step, centre).max_abs_diff(g.scaled(p.lam))


def einstein_residual(p: EinsteinProfile, m: TauSMap, grid: list[ChartPoint],
                      step: float = 1e-3) -> float:
    """max over the grid of || ricci_fd - lam * g ||_max (entrywise).

    Each point's centre is solved once, for the metric and the stencil
    alike.  A NaN residual anywhere makes the result NaN, so it can never
    pass a threshold comparison, and an empty grid is a DomainError rather
    than a vacuous pass.
    """
    if not grid:
        raise DomainError("einstein_residual needs at least one grid point")
    return max_keep_nan([_grid_point(p, m, pt, step)[1] for pt in grid])


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
# never as 1 - x, and d - 1 is the profile's span.  At the anchor itself
# s = 0 and the length is exactly 0.

def _length_from_one(p: EinsteinProfile, t: float) -> float:
    # length over [1, t], divided by P: Pi(N; phi|m), N = (d - 1)/d, with
    # sin^2 phi = d (t - 1)/((d - 1) t), so that N sin^2 phi = (t - 1)/t
    a, d, span = p.alpha1, p.alpha2, p.span
    rf, rj = _carlson_rf_rj((d - t) / (span * t), (t - a) / ((1.0 - a) * t), 1.0, 1.0 / t)
    s = math.sqrt(d * (t - 1.0) / (span * t))
    return s * (rf + (t - 1.0) / (3.0 * t) * rj)


def _length_to_alpha2(p: EinsteinProfile, t: float) -> float:
    # length over [t, alpha2], divided by P: a F(phi|m) + (d - a) Pi(-B; phi|m),
    # B = (d - 1)/(1 - a), with sin^2 phi = (1 - a)(d - t)/((d - 1)(t - a)),
    # so that B sin^2 phi = (d - t)/(t - a)
    a, d, span = p.alpha1, p.alpha2, p.span
    rf, rj = _carlson_rf_rj((d - a) * (t - 1.0) / (span * (t - a)),
                            t * (d - a) / (d * (t - a)), 1.0, (d - a) / (t - a))
    s = math.sqrt((1.0 - a) * (d - t) / (span * (t - a)))
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
    a, b = _checked_tau(p, tau_a), _checked_tau(p, tau_b)
    if a > b:
        raise DomainError(f"need tau_a <= tau_b, got [{tau_a}, {tau_b}]")
    if a == b:
        return 0.0
    scale = math.sqrt(2.0 / (-p.leading * p.alpha2 * (1.0 - p.alpha1)))
    if a >= 1.0 + 0.5 * p.span:
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
    """Area of one fiber: 2 pi times the integral of phi ds over the line.

    The area form of the fiber metric is dtau dtheta = phi ds dtheta, so the
    result equals 2 pi span, span = alpha2 - 1 the width of the fiber
    interval.  It is taken in the stretched coordinate q, from the metric's
    phi and the map's density ds/dq at each node, so it checks both against
    that closed form.
    """
    def density(q):
        _, phi, dsdq, _ = _at_q(p, q)
        return phi * dsdq

    return 2.0 * math.pi * quad_checked(density)


def total_volume(p: EinsteinProfile) -> float:
    """Total volume of the surface: 2 n (2 pi)^2 times the integral of tau phi ds.

    The mixed volume density is 2 n tau phi against the product of the base
    area form (total mass 2 pi) and ds dtheta on the fibers; since
    phi ds = dtau, the integral is that of tau over [1, alpha2], giving
    4 pi^2 n (alpha2^2 - 1).  Matches (2 pi)^2 times the self-intersection
    of the Kahler class, the single place the 2 pi class normalization
    enters this package.  Taken in q like `fiber_volume`.
    """
    def density(q):
        tau, phi, dsdq, _ = _at_q(p, q)
        return tau * phi * dsdq

    return 2.0 * p.n * (2.0 * math.pi) ** 2 * quad_checked(density)
