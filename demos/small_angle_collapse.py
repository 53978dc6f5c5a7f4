"""
Small-angle collapse
====================

As beta1 -> 0 the second angle, the interval endpoint, and the whole fiber
geometry admit power series in beta1.  This script measures the remainder
slopes on a log-log ladder, then rescales the fiber metric and watches it
converge to the flat model with coefficient n/2 in both directions.
"""

import math

import numpy as np

from hirzebruch_kee import (ChartPoint, alpha_series, beta2_series, build_map,
                            collapse_report, make_profile,
                            rescaled_fiber_metric, tensor_deviation)


def main():
    n = 2
    ladder = np.array([1e-1, 1e-2, 1e-3, 1e-4])

    # remainder of each truncated series, fit err ~ C * beta1^slope
    print(f"series remainders at n = {n}:")
    for label, err in [
        ("beta2 through order 1",
         lambda p: abs(p.beta2 - beta2_series(n, p.beta1, order=1))),
        ("beta2 through order 2",
         lambda p: abs(p.beta2 - beta2_series(n, p.beta1, order=2))),
        ("alpha2 through order 2",
         lambda p: abs(p.alpha2 - alpha_series(n, p.beta1, "alpha2"))),
        ("alpha1 through order 2",
         lambda p: abs(p.alpha1 - alpha_series(n, p.beta1, "alpha1"))),
    ]:
        errs = [err(make_profile(n, float(b))) for b in ladder]
        slope = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
        print(f"  {label:24s} slope = {slope:.3f}")

    # rescaled fiber metric in the blown-up coordinate y: both coefficients
    # approach n/2, linearly in beta1
    print(f"\nrescaled metric coefficients at y = 0 (target n/2 = {n/2}):")
    for b1 in (0.1, 0.05, 0.025, 0.0125):
        cy, ct = rescaled_fiber_metric(n, b1, 0.0)
        print(f"  beta1 = {b1:<7}: dy^2 coeff {cy:.6f},  dtheta^2 coeff {ct:.6f}")

    # away from the fiber the full tensor approaches the product model;
    # deviation measured at a fixed chart point
    probe = ChartPoint(z=0.5 + 0.0j, w=1.0 + 0.0j)
    print("\nfull-tensor deviation from the product model at (z, w) = (0.5, 1):")
    for b1 in (0.2, 0.1, 0.05, 0.025, 0.0125):
        p = make_profile(1, b1)
        dev = tensor_deviation(p, build_map(p), probe)
        print(f"  beta1 = {b1:<7}: {dev:.4f}")

    # one-call summary table
    entries = collapse_report(1, [0.2, 0.1, 0.05])
    print("\ncollapse report at n = 1:")
    print("  beta1    beta2        fiber length   length/beta1")
    for e in entries:
        print(f"  {e['beta1']:<7}  {e['beta2']:.8f}   {e['fiber_length']:.8f}     "
              f"{e['rescaled_length']:.4f}")
    print(f"  fiber length limit: pi*sqrt(1/2) = {math.pi/math.sqrt(2):.8f}")


if __name__ == "__main__":
    main()
