"""Audit every shipped error bound against observed operator errors.

For each catalog function with enough derivative data the script evaluates
the rate bound, the second-order remainder bound, and the boolean-sum
bounds, then measures the true sup error on an interior grid.  A bound that
comes out below the observed error is reported as VIOLATION and flips the
exit code, so the script doubles as a regression check.
"""

import argparse

import numpy as np

from kanto import (
    CATALOG,
    EvalGrid,
    FunctionProfile,
    MomentTable,
    TensorKernel2D,
    UnsupportedOrder,
    apply_gbs,
    apply_gw,
    build_bound_report,
    construct_combination_kernel,
    fn_lookup,
    gbs_modulus_bound,
    interior_margin,
    mixed_modulus_estimate,
    representation_residual,
)

BOX = (-1.0, -1.0, 2.0, 2.0)

# a bound of exactly 0 means the operator is exact in exact arithmetic;
# rounding still leaves a residue of a few ulps per window term
FLOAT_FLOOR = 1e-12


def observed_error(operator, f, kernel, w, grid_n):
    margin = interior_margin(kernel, w)
    grid = EvalGrid.regular(BOX, grid_n, w, margin=margin)
    approx = operator(f, kernel, grid)
    return float(np.abs(approx - grid.sample(f)).max()), grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--w", type=float, default=10.0)
    parser.add_argument("--grid-n", type=int, default=12)
    args = parser.parse_args()

    axis = construct_combination_kernel(3, (2.0, 3.0, 4.0))
    kernel = TensorKernel2D(axis, axis)
    moments = MomentTable.compute(kernel, eta_max=2)
    w = args.w

    failures = 0
    print(f"{'function':>16} {'check':>16} {'observed':>12} {'bound':>12}  status")
    for name in sorted(CATALOG):
        f = fn_lookup(name)
        try:
            profile = FunctionProfile.from_function(f, box=BOX)
            report = build_bound_report(kernel, w, profile)
        except UnsupportedOrder:
            continue

        err, grid = observed_error(apply_gw, f, kernel, w, args.grid_n)
        checks = [("rate_bound", err, report.constants["rate_bound"])]

        residual = float(np.abs(representation_residual(f, kernel, grid)).max())
        checks.append(("remainder", residual, report.constants["remainder"]))

        gbs_err, _ = observed_error(apply_gbs, f, kernel, w, args.grid_n)
        delta = 1.0 / w
        omega = mixed_modulus_estimate(f, delta, delta, BOX)
        mod_bound = gbs_modulus_bound(moments, w, delta, delta, omega)
        checks.append(("gbs_modulus", gbs_err, mod_bound))

        for label, observed, bound in checks:
            if bound == 0.0:
                ok = observed <= FLOAT_FLOOR
                status = "exact" if ok else "VIOLATION"
            else:
                ok = observed <= bound
                status = "ok" if ok else "VIOLATION"
            failures += 0 if ok else 1
            print(f"{name:>16} {label:>16} {observed:12.4e} {bound:12.4e}  {status}")

    if failures:
        print(f"{failures} bound violation(s)")
        return 1
    print("all bounds dominate the observed errors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
