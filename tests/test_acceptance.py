"""Acceptance gate: one test per advertised guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Each criterion states a quantitative property of the shipped operators and
bounds at desk scale; tolerances are part of the contract, not tuning knobs.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kanto import (
    EvalGrid,
    FunctionProfile,
    apply_gbs,
    apply_gw,
    apply_sw,
    cell_average,
    convergence_study,
    fn_lookup,
    gbs_differential_bound,
    gbs_modulus_bound,
    gw_error_bound,
    inverse_result_probe,
    kfunctional_constants,
    partition_of_unity_check,
    polynomial_reproduction_check,
    representation_residual,
    sw_remainder_bound,
)
from kanto.kernel2d import MomentTable

UNIT_BOX = (0.0, 0.0, 1.0, 1.0)
WIDE_BOX = (-1.0, -1.0, 2.0, 2.0)


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def sup_error(operator, f, kernel, grid):
    approx = operator(f, kernel, grid)
    exact = np.array([float(f(x, y)) for x, y in grid.points])
    return float(np.abs(approx - exact).max())


def test_01_partition_and_low_moment_constancy(chibar3):
    deviation = partition_of_unity_check(chibar3, 64)
    table = MomentTable.compute(chibar3, eta_max=2, grid_n=64)
    ok = deviation <= 1e-10
    worst = deviation
    for pair in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        mean = abs(table.algebraic_mean[pair])
        spread = table.algebraic_spread[pair]
        ok = ok and mean <= 1e-9 and spread <= 1e-9
        worst = max(worst, mean, spread)
    report(1, "kernel-admissibility", ok, f"worst deviation {worst:.3e}")


def test_02_sample_series_reproduces_low_degrees(chibar3):
    worst = polynomial_reproduction_check(
        chibar3, 3, 10.0, WIDE_BOX, grid_n=20, operator="gw"
    )
    report(2, "monomial-reproduction", worst <= 1e-9, f"max deviation {worst:.3e}")


def test_03_average_series_linear_shift(chibar3):
    f = fn_lookup("x_plus_y")
    table = convergence_study(
        f, chibar3, "sw", [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=5
    )
    ok = all(abs(e - 1.0 / w) <= 1e-9 for w, e in table.rows)
    ok = ok and abs(table.fitted_slope + 1.0) <= 1e-3
    report(
        3,
        "average-series-shift",
        ok,
        f"rows {table.rows}, slope {table.fitted_slope:.6f}",
    )


def test_04_remainder_bound_covers_residual(chibar3, chibar3_moments):
    ok = True
    detail = []
    for name in ("x2", "xy", "sin_x_cos_y"):
        f = fn_lookup(name)
        profile = FunctionProfile.from_function(f)
        for w in (5.0, 10.0, 20.0):
            grid = EvalGrid.regular(UNIT_BOX, 6, w)
            residual = float(np.abs(representation_residual(f, chibar3, grid)).max())
            bound = sw_remainder_bound(profile, chibar3_moments, w)
            ok = ok and residual <= bound
            detail.append(f"{name}@w={w:g}: {residual:.3e} vs {bound:.3e}")
    report(4, "second-order-residual-bound", ok, "; ".join(detail))


def test_05_third_order_rate_with_dominating_bound(chibar3):
    f = fn_lookup("sin_x_cos_y")
    profile = FunctionProfile.from_function(f)
    table = convergence_study(
        f, chibar3, "gw", [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=6
    )
    moments = MomentTable.compute(chibar3, eta_max=3, grid_n=64)
    ok = -3.5 <= table.fitted_slope <= -2.5
    for w, e in table.rows:
        ok = ok and e <= gw_error_bound(profile, moments, 3, w)
    report(
        5,
        "third-order-rate-and-bound",
        ok,
        f"slope {table.fitted_slope:.3f}, rows {table.rows}",
    )


def test_06_ridge_functions_beat_generic_rate(chibar3):
    probe = inverse_result_probe(
        np.sin, chibar3, [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=5
    )
    generic = convergence_study(
        fn_lookup("x_plus_y"), chibar3, "sw", [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=5
    )
    ok = probe.fitted_slope <= -1.7 and probe.w_error_decreasing
    ok = ok and all(abs(w * e - 1.0) <= 1e-6 for w, e in generic.rows)
    report(
        6,
        "ridge-superconvergence",
        ok,
        f"ridge slope {probe.fitted_slope:.3f}, ridge w*e {probe.w_times_error}, "
        f"generic w*e {generic.w_times_error}",
    )


def test_07_boolean_sum_exact_on_additive(chibar3):
    f = fn_lookup("sin_x_plus_cos_y")
    grid = EvalGrid.regular(UNIT_BOX, 4, 10.0)
    err = sup_error(apply_gbs, f, chibar3, grid)
    report(7, "boolean-sum-additive-exactness", err <= 1e-10, f"error {err:.3e}")


def test_08_boolean_sum_modulus_bound(m3_tensor, m3_moments):
    f = fn_lookup("xy")
    ok = True
    detail = []
    for w in (5.0, 10.0, 20.0):
        delta = 1.0 / w
        grid = EvalGrid.regular(UNIT_BOX, 5, w)
        err = sup_error(apply_gbs, f, m3_tensor, grid)
        bound = gbs_modulus_bound(m3_moments, w, delta, delta, delta * delta)
        ok = ok and err <= bound
        detail.append(f"w={w:g}: {err:.3e} vs {bound:.3e}")
    report(8, "boolean-sum-modulus-bound", ok, "; ".join(detail))


def test_09_boolean_sum_differential_bound(m3_tensor, m3_moments):
    f = fn_lookup("xy")
    ok = True
    detail = []
    for w in (5.0, 10.0, 20.0):
        grid = EvalGrid.regular(UNIT_BOX, 5, w)
        err = sup_error(apply_gbs, f, m3_tensor, grid)
        # the mixed differential of uv is constantly 1, so its modulus is 0
        bound = gbs_differential_bound(m3_moments, w, 1.0 / w, 1.0 / w, 1.0, 0.0)
        ok = ok and err <= bound
        detail.append(f"w={w:g}: {err:.3e} vs {bound:.3e}")
    report(9, "boolean-sum-differential-bound", ok, "; ".join(detail))


def test_10_squared_offset_identities_and_scaling(chibar3, m3_tensor, chibar3_moments):
    gen = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for kernel in (chibar3, m3_tensor):
        kf = kfunctional_constants(MomentTable.compute(kernel, eta_max=4), 10.0)
        for x0, y0 in gen.uniform(0.2, 0.8, size=(10, 2)):
            single = EvalGrid(points=[(x0, y0)], w=10.0)
            direct_x = apply_sw(lambda u, v, x0=x0: (u - x0) ** 2, kernel, single)[0]
            direct_y = apply_sw(lambda u, v, y0=y0: (v - y0) ** 2, kernel, single)[0]
            direct_xy = apply_sw(
                lambda u, v, x0=x0, y0=y0: (u - x0) ** 2 * (v - y0) ** 2,
                kernel,
                single,
            )[0]
            for got, want in (
                (kf.sq_x, direct_x),
                (kf.sq_y, direct_y),
                (kf.sq_xy, direct_xy),
            ):
                ok = ok and abs(got - want) <= 1e-8
                worst = max(worst, abs(got - want))
    k10 = kfunctional_constants(chibar3_moments, 10.0)
    k20 = kfunctional_constants(chibar3_moments, 20.0)
    ok = ok and abs(k10.sq_x / k20.sq_x - 4.0) <= 1e-12 * 4.0
    ok = ok and abs(k10.sq_xy / k20.sq_xy - 16.0) <= 1e-12 * 16.0
    report(
        10,
        "squared-offset-identities",
        ok,
        f"worst identity gap {worst:.3e}, ratios "
        f"{k10.sq_x / k20.sq_x:.15f}, {k10.sq_xy / k20.sq_xy:.15f}",
    )


def test_11_windowed_sums_match_dense_patch_bitwise(chibar3, m3_tensor):
    f = fn_lookup("sin_x_cos_y")
    w = 10.0

    def oracle(kernel, value, x, y):
        lox, hix = kernel.support_x
        loy, hiy = kernel.support_y
        ks = range(math.ceil(w * x - hix), math.floor(w * x - lox) + 1)
        js = range(math.ceil(w * y - hiy), math.floor(w * y - loy) + 1)
        acc = 0.0
        for k in ks:
            a = kernel.kx(w * x - float(k))
            for j in js:
                b = kernel.ky(w * y - float(j))
                acc += (a * b) * value(k, j)
        return acc, ks

    ok = True
    for kernel, x0 in ((chibar3, 0.33), (m3_tensor, 0.0)):
        grid = EvalGrid(points=[(x0, x0)], w=w)
        want_gw, ks = oracle(kernel, lambda k, j: f(k / w, j / w), x0, x0)
        want_sw, _ = oracle(kernel, lambda k, j: cell_average(f, k, j, w), x0, x0)
        got_gw = apply_gw(f, kernel, grid)[0]
        got_sw = apply_sw(f, kernel, grid)[0]
        ok = ok and got_gw == want_gw and got_sw == want_sw
        if kernel is chibar3:
            ok = ok and list(ks) == [-2, -1, 0, 1, 2]
    report(11, "dense-patch-bitwise-agreement", ok)


def test_12_cli_output_independent_of_thread_count():
    def run(threads, *args):
        env = os.environ.copy()
        env["KANTO_THREADS"] = threads
        return subprocess.run(
            [sys.executable, "-m", "kanto", *args],
            capture_output=True,
            env=env,
            timeout=300,
        )

    args_list = [
        (
            "reconstruct", "--fn", "sin_x_cos_y", "--op", "sw",
            "--w", "10", "--box", "0,0,1,1", "--grid-n", "5",
        ),
        ("moments", "--eta-max", "2"),
    ]
    ok = True
    for args in args_list:
        single = run("1", *args)
        pooled = run("8", *args)
        ok = ok and single.returncode == 0 and pooled.returncode == 0
        ok = ok and single.stdout == pooled.stdout
    report(12, "thread-count-determinism", ok)
