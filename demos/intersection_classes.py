"""
Divisor classes and the cohomological identity
==============================================

Exact intersection arithmetic on the rank-two Picard lattice: adjunction for
both distinguished sections, the Kahler cone test, and the identity pinning
the metric's class to the canonical class plus angle-weighted boundary
divisors.  Everything here is rational until the very last volume check.
"""

import math

from hirzebruch_kee import (canonical_class, class_volume, fiber_class,
                            infinity_section, intersect, is_kahler,
                            kee_class, make_profile, proportionality_check,
                            total_volume, zero_section)


def main():
    n = 2
    z, zi, f = zero_section(n), infinity_section(n), fiber_class(n)
    k = canonical_class(n)

    print(f"twist n = {n}")
    print(f"  Z.Z   = {intersect(z, z)},  Z.F = {intersect(z, f)},  F.F = {intersect(f, f)}")
    print(f"  Zinf  = {zi}  with Zinf.Zinf = {intersect(zi, zi)}")
    print(f"  K     = {k}")

    # adjunction: both sections are rational curves of self-explanatory genus
    print(f"  (K+Z).Z       = {intersect(k + z, z)}")
    print(f"  (K+Zinf).Zinf = {intersect(k + zi, zi)}")

    p = make_profile(n, 0.5)
    c = kee_class(n, p.beta1, p.beta2)
    print(f"\nmetric class for beta1 = 0.5: {c}")
    print(f"  inside the Kahler cone: {is_kahler(c)}")
    print(f"  class volume (exact rational in the angles): {class_volume(c)!r}")

    # lambda [omega] = -K - (1-beta1) Z - (1-beta2) Zinf, coefficient by
    # coefficient; the residual is zero up to rounding in beta2
    gap = proportionality_check(n, p.beta1, p.beta2)
    print(f"  proportionality residual: {gap:.3e}")

    wrong = proportionality_check(n, p.beta1, p.beta2 + 1e-3)
    print(f"  same check with beta2 off by 1e-3: {wrong:.3e}")

    # the analytic volume agrees with the purely cohomological one
    vol = total_volume(p)
    coh = (2.0 * math.pi) ** 2 * float(class_volume(c))
    print(f"\n  quadrature volume    = {vol!r}")
    print(f"  (2 pi)^2 . [omega]^2 = {coh!r}")
    print(f"  relative gap         = {abs(vol-coh)/vol:.3e}")


if __name__ == "__main__":
    main()
