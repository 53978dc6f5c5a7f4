"""Intersection arithmetic on the second cohomology of a Hirzebruch surface.

Classes are written in the basis (Z, F): Z the zero section with Z.Z = -n,
F the fiber with F.F = 0 and Z.F = 1 (Gram determinant -1, signature (1,1)).
The infinity section is Z_inf = Z + n F with Z_inf.Z_inf = +n.  Rational
coefficients stay exact Fractions end to end; the distinguished Einstein
class has irrational coefficients and is the one place floats are admitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import DomainError
from .profile import _validate_n, _validate_n_beta1, make_profile

Coeff = Rational | float


def _as_coeff(v) -> Coeff:
    if isinstance(v, float):
        return v
    if isinstance(v, Rational):
        return Fraction(v)
    raise DomainError(f"coefficients must be rational or float, got {v!r}")


@dataclass(frozen=True)
class DivisorClass:
    """a*Z + b*F on the Hirzebruch surface of index n."""

    n: int
    a: Coeff
    b: Coeff

    def __post_init__(self):
        _validate_n(self.n)
        object.__setattr__(self, "a", _as_coeff(self.a))
        object.__setattr__(self, "b", _as_coeff(self.b))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_surface(self, other)
        return DivisorClass(self.n, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_surface(self, other)
        return DivisorClass(self.n, self.a - other.a, self.b - other.b)

    def __rmul__(self, k) -> "DivisorClass":
        k = _as_coeff(k)
        return DivisorClass(self.n, k * self.a, k * self.b)


def _same_surface(x: DivisorClass, y: DivisorClass) -> None:
    if x.n != y.n:
        raise DomainError(f"classes live on different surfaces: n={x.n} vs n={y.n}")


def zero_section(n: int) -> DivisorClass:
    return DivisorClass(n, Fraction(1), Fraction(0))


def infinity_section(n: int) -> DivisorClass:
    # Z + n F; self-intersection +n
    return DivisorClass(n, Fraction(1), Fraction(n))


def fiber_class(n: int) -> DivisorClass:
    return DivisorClass(n, Fraction(0), Fraction(1))


def canonical_class(n: int) -> DivisorClass:
    """K = -2 Z - (n+2) F; satisfies adjunction against both sections."""
    return DivisorClass(n, Fraction(-2), Fraction(-(n + 2)))


def intersect(x: DivisorClass, y: DivisorClass):
    """Intersection number via Z.Z = -n, Z.F = 1, F.F = 0.

    Exact (Fraction) whenever both classes are rational.
    """
    _same_surface(x, y)
    return -x.n * x.a * y.a + x.a * y.b + x.b * y.a


def section_coefficients(x: DivisorClass) -> tuple[Coeff, Coeff]:
    """Coefficients (u, v) with x = u*Z + v*Z_inf (exact for rational input:
    a Fraction divided by an int is a Fraction)."""
    v = x.b / x.n
    return x.a - v, v


def is_kahler(x: DivisorClass) -> bool:
    """Kahler cone test: x = -u*Z + v*Z_inf with v > u > 0.

    Boundary classes (u = 0 or v = u) are not Kahler; comparisons are exact
    for rational coefficients.
    """
    u, v = section_coefficients(x)
    return v > -u > 0


def kee_class(n: int, beta1: float, beta2: float) -> DivisorClass:
    """Kahler class of the Einstein edge metric with the given angles.

    Equals c*Z_inf - Z with c = (2 + n beta2)/(2 - n beta1), i.e. in the
    (Z, F) basis a = n(beta1 + beta2)/(2 - n beta1), b = n(2 + n beta2)/
    (2 - n beta1).  Coefficients are generically irrational, so this class
    is built with floats (exactness waived here by design).  (n, beta1) must
    be a valid profile's, and 0 < beta2 <= beta1 as for every profile.
    """
    _validate_n_beta1(n, beta1)
    beta1, beta2 = float(beta1), float(beta2)
    if not 0.0 < beta2 <= beta1:
        raise DomainError(f"need 0 < beta2 <= beta1, got beta1={beta1}, beta2={beta2}")
    den = 2.0 - n * beta1
    return DivisorClass(n, n * (beta1 + beta2) / den, n * (2.0 + n * beta2) / den)


def class_volume(x: DivisorClass):
    """Self-intersection x.x (the cohomological volume, no 2 pi factors)."""
    return intersect(x, x)


def proportionality_check(n: int, beta1: float, beta2: float) -> float:
    """Defect of lam * [omega] = -K - (1-beta1)[C1] - (1-beta2)[C2].

    C1 and C2 are the zero and infinity sections.  The class side is built
    from the profile that beta1 actually determines, while the currents
    side uses the (beta1, beta2) pair as claimed; feeding both sides the
    same free beta2 would make the identity a tautology and the check
    blind.  For the true angle pair the max coefficient defect is
    rounding-level; a wrong beta2 shows up at its own magnitude.
    """
    p = make_profile(n, beta1)
    lhs = p.lam * kee_class(n, p.beta1, p.beta2)
    rhs = (-1 * canonical_class(n)
           - (1.0 - beta1) * zero_section(n)
           - (1.0 - beta2) * infinity_section(n))
    return max(abs(lhs.a - rhs.a), abs(lhs.b - rhs.b))
