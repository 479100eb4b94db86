#!/usr/bin/env python3
"""Sweeping a family through its symmetry-breaking (exceptional) point.

The two-level families have real spectra while c^2 > b^2 (H5/H6/H7) or
c^2 + d^2 > b^2 (H8).  Sweeping b localizes the transition as a bracket
between grid points, and metrics whose canonical form never changes
across the real phase are reported as secular (parameter independent).
"""

import numpy as np

from pseudoherm.sweep import sweep_family, sweep_values


def show(result, expected):
    print(f"\n=== {result.family}: sweep {result.parameter}, fixed {result.fixed} ===")
    print(f"{'b':>6} {'max|Im|':>10}  real  holding metrics")
    for point in result.points[:: max(1, len(result.points) // 12)]:
        names = ",".join(sorted(n for n, m in point.metrics.items() if m.holds))
        print(f"{point.value:6.2f} {point.max_imag:10.2e}  {str(point.spectrum_real):5} {names}")
    if result.breaking_point:
        lo, hi = result.breaking_point
        print(f"breaking bracket: [{lo:.2f}, {hi:.2f}]  (exact threshold {expected:.4f})")
    else:
        print("no breaking point in range")
    print(f"secular metrics: {sorted(result.secular_metrics)}")


def main():
    result = sweep_family("H5", "b", sweep_values(0.0, 2.0, 0.05),
                          {"a": 0.0, "c": 1.0})
    show(result, expected=1.0)
    print("sigma_x certifies pseudo-reality at every value of b, broken or")
    print("not, and never changes: the necessary condition for reality is")
    print("parameter free, while reality itself is lost at b = c.")

    result = sweep_family("H8", "b", sweep_values(0.0, 3.0, 0.05),
                          {"a": 0.0, "c": 2.0, "d": 1.0})
    show(result, expected=np.sqrt(5.0))
    print("the closed-form metrics depend on b (theta = arctan(b/e)), so")
    print("they certify without being secular; sigma_x again is.")


if __name__ == "__main__":
    main()
