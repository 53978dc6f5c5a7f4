"""
Fiber geometry and volumes
==========================

Each fiber over the base projective line is a two-sphere of revolution with
cone points at both poles.  This script tabulates the fiber metric along the
arclength coordinate, takes meridian lengths in closed form, integrates
areas, and checks the two closed-form volumes.
"""

import math

import numpy as np

from hirzebruch_kee import (build_map, eval_phi, fiber_length,
                            fiber_metric_sample, fiber_volume, make_profile,
                            tau_of_s, total_volume)


def main():
    n, beta1 = 2, 0.5
    p = make_profile(n, beta1)
    m = build_map(p)

    print(f"n = {n}, beta1 = {beta1}: fiber interval tau in [1, {p.alpha2!r}]")

    # metric coefficients along the fiber, sampled in arclength gauge;
    # ds^2 = dtau^2/(2 phi) + 2 phi dtheta^2, so the theta coefficient is the
    # squared radius of the revolution circle
    print("\n  s       tau        2*phi (circle radius^2)")
    for s in np.linspace(-6.0, 6.0, 9):
        t = tau_of_s(m, float(s))
        print(f"  {s:5.1f}  {t:9.6f}   {2*eval_phi(p, t):.8f}")

    # meridian length from pole to pole, in two halves that must add up
    mid = 0.5 * (1.0 + p.alpha2)
    whole = fiber_length(p, 1.0, p.alpha2)
    halves = fiber_length(p, 1.0, mid) + fiber_length(p, mid, p.alpha2)
    print(f"\nmeridian length  = {whole!r}")
    print(f"sum of halves    = {halves!r}   (diff {abs(whole-halves):.2e})")

    # fiber area has the closed form 2 pi (alpha2 - 1)
    area = fiber_volume(p)
    print(f"\nfiber area       = {area!r}")
    print(f"2 pi (alpha2-1)  = {2*math.pi*(p.alpha2-1.0)!r}")

    # total volume against the cohomological prediction
    vol = total_volume(p)
    print(f"\ntotal volume             = {vol!r}")
    print(f"4 pi^2 n (alpha2^2 - 1)  = {4*math.pi**2*n*(p.alpha2**2-1.0)!r}")

    # near the small-angle limit the fiber keeps a finite length
    print("\nmeridian length as beta1 shrinks (n = 2):")
    for b1 in (0.1, 0.01, 0.001):
        q = make_profile(2, b1)
        L = fiber_length(q, 1.0, q.alpha2)
        print(f"  beta1 = {b1:<6}: length = {L:.8f}")
    print(f"  limit pi*sqrt(n/2) = {math.pi:.8f}")


if __name__ == "__main__":
    main()
