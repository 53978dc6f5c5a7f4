"""
Momentum profile and cone angles
================================

Walk through the explicit profile on the twist-n line bundle compactified
over the projective line: factor the cubic, read off the boundary slopes,
then measure both cone angles geodesically and watch the probe converge.
"""

import math

import numpy as np

from hirzebruch_kee import (cone_angle_probe, eval_phi, eval_phi_prime,
                            make_profile, ode_residual)


def main():
    n, beta1 = 1, 1.0
    p = make_profile(n, beta1)

    print(f"twist n = {n}, prescribed angle 2*pi*beta1 with beta1 = {beta1}")
    print(f"  beta2   = {p.beta2!r}   (sqrt(3)-1 = {math.sqrt(3)-1!r})")
    print(f"  lambda  = {p.lam!r}")
    print(f"  roots   = 1, {p.alpha1!r}, {p.alpha2!r}")
    print(f"  leading = {p.leading!r}  (negative, so phi > 0 between the roots)")

    # the profile vanishes at both ends and stays positive in between
    taus = np.linspace(1.0, p.alpha2, 9)
    print("\n  tau        phi(tau)")
    for t in taus:
        print(f"  {t:8.5f}  {eval_phi(p, float(t)): .10f}")

    # boundary slopes carry the cone angles
    print(f"\nphi'(1)      = {eval_phi_prime(p, 1.0)!r}  (should be  beta1 = {p.beta1})")
    print(f"phi'(alpha2) = {eval_phi_prime(p, p.alpha2)!r}  (should be -beta2 = {-p.beta2})")

    # the same angles measured metrically: circumference over radius of
    # small geodesic circles around each degenerate fiber end
    print("\nprobe depth   lower angle / 2pi   upper angle / 2pi")
    for depth in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        lo = cone_angle_probe(p, "lower", 1.0 + depth)
        hi = cone_angle_probe(p, "upper", p.alpha2 - depth)
        print(f"  {depth:8.0e}   {lo/(2*math.pi):.12f}      {hi/(2*math.pi):.12f}")
    print(f"  target       {p.beta1:.12f}      {p.beta2:.12f}")

    # and the defining first-order ODE holds to rounding on the whole interval
    grid = np.linspace(1.0, p.alpha2, 1002)[1:-1]
    worst = max(abs(ode_residual(p, float(t))) for t in grid)
    print(f"\nmax ODE residual on 1000 interior points: {worst:.3e}")


if __name__ == "__main__":
    main()
