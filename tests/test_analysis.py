"""Bound evaluators: exact identities, scaling laws, and dominance checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanto import (
    CentralBSpline,
    EvalGrid,
    FunctionProfile,
    TensorKernel2D,
    UnsupportedOrder,
    apply_gbs,
    apply_gw,
    apply_sw,
    build_bound_report,
    convergence_study,
    fn_lookup,
    gbs_differential_bound,
    gbs_modulus_bound,
    gw_error_bound,
    interior_margin,
    inverse_result_probe,
    kfunctional_constants,
    mixed_modulus_estimate,
    polynomial_reproduction_check,
    sw_remainder_bound,
)
from kanto import operators
from kanto.functions import DEFAULT_BOX
from kanto.kernel2d import MomentTable

rng = np.random.default_rng(3)

UNIT_BOX = (0.0, 0.0, 1.0, 1.0)
# wide enough that the interior margin of the widest kernel at w=5 stays real
WIDE_BOX = (-1.0, -1.0, 2.0, 2.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def interior_points(n=10, seed=4):
    gen = np.random.default_rng(seed)
    return gen.uniform(0.2, 0.8, size=(n, 2))


class TestFunctionProfile:
    def test_polynomial_entries(self):
        profile = FunctionProfile.from_function(fn_lookup("x2"))
        assert profile.entry((2, 0)) == pytest.approx(2.0, abs=1e-12)
        assert profile.entry((1, 0)) == pytest.approx(4.0, abs=1e-9)
        assert profile.entry((0, 2)) == 0.0
        assert profile.second_order_max == pytest.approx(2.0, abs=1e-12)

    def test_box_override(self):
        profile = FunctionProfile.from_function(fn_lookup("x2"), box=UNIT_BOX)
        # sup of the first partial 2x over [0,1]^2 instead of the default box
        assert profile.entry((1, 0)) == pytest.approx(2.0, abs=1e-9)
        assert profile.box == UNIT_BOX

    def test_missing_entry(self):
        empty = FunctionProfile(sup_norms={}, box=UNIT_BOX)
        with pytest.raises(UnsupportedOrder, match=re.escape("order (2, 0)")):
            empty.entry((2, 0))

    def test_profile_covers_bound_orders(self):
        profile = FunctionProfile.from_function(fn_lookup("sin_x_cos_y"))
        for idx in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3), (2, 2)]:
            assert profile.entry(idx) >= 0.0


class TestRateBound:
    def test_zero_for_constant(self, chibar3_moments):
        profile = FunctionProfile.from_function(fn_lookup("const1"))
        assert gw_error_bound(profile, chibar3_moments, 3, 10.0) == 0.0

    def test_derivative_factor_composition(self, chibar3):
        # H = A_r + B_r + sum_i C(r,i) A_{r-i} B_i with all sups equal to 1
        ones = {idx: 1.0 for idx in [(1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)]}
        profile = FunctionProfile(sup_norms=ones, box=UNIT_BOX)
        table = MomentTable.compute(chibar3, eta_max=3, grid_n=16)
        got = gw_error_bound(profile, table, 3, 1.0)
        h = 1.0 + 1.0 + math.comb(3, 1) + math.comb(3, 2)
        c = table.rth_moment_constant(3)
        m3 = table.max_by_order[3]
        assert got == pytest.approx(c * m3 * h / 6.0, rel=1e-12)

    def test_rate_scaling_is_exact(self, chibar3_moments):
        profile = FunctionProfile.from_function(fn_lookup("sin_x_cos_y"))
        b10 = gw_error_bound(profile, chibar3_moments, 3, 10.0)
        b20 = gw_error_bound(profile, chibar3_moments, 3, 20.0)
        assert b10 / b20 == pytest.approx(8.0, rel=1e-12)

    def test_invalid_order(self, chibar3_moments):
        profile = FunctionProfile.from_function(fn_lookup("x2"))
        with pytest.raises(ValueError):
            gw_error_bound(profile, chibar3_moments, 0, 10.0)

    def test_order_above_the_table(self, chibar3):
        profile = FunctionProfile.from_function(fn_lookup("sin_x_cos_y"))
        table = MomentTable.compute(chibar3, eta_max=2)
        with pytest.raises(ValueError, match="orders <= 2"):
            gw_error_bound(profile, table, 3, 10.0)

    def test_dominates_observed_error(self, chibar3):
        f = fn_lookup("sin_x_cos_y")
        profile = FunctionProfile.from_function(f)
        table = MomentTable.compute(chibar3, eta_max=3, grid_n=64)
        for w in (5.0, 10.0, 20.0):
            grid = EvalGrid.regular(UNIT_BOX, 8, w)
            err = np.abs(
                apply_gw(f, chibar3, grid)
                - np.array([float(f(x, y)) for x, y in grid.points])
            ).max()
            assert err <= gw_error_bound(profile, table, 3, w)


class TestRemainderBound:
    def test_formula(self, m3_tensor):
        profile = FunctionProfile.from_function(fn_lookup("x2"))
        w = 10.0
        table = MomentTable.compute(m3_tensor, eta_max=0, grid_n=64)
        mass = table.absolute_sup[(0, 0)]
        expected = (7.0 * 2.0 / (12.0 * w * w)) * mass
        assert sw_remainder_bound(profile, table, w) == pytest.approx(
            expected, rel=1e-12
        )

    def test_scaling(self, chibar3_moments):
        profile = FunctionProfile.from_function(fn_lookup("xy"))
        b10 = sw_remainder_bound(profile, chibar3_moments, 10.0)
        b20 = sw_remainder_bound(profile, chibar3_moments, 20.0)
        assert b10 / b20 == pytest.approx(4.0, rel=1e-12)


class TestKFunctionalConstants:
    def test_combination_kernel_closed_form(self, chibar3_moments):
        w = 10.0
        kf = kfunctional_constants(chibar3_moments, w)
        assert kf.sq_x == pytest.approx(1.0 / (3.0 * w * w), abs=1e-12)
        assert kf.sq_y == pytest.approx(1.0 / (3.0 * w * w), abs=1e-12)
        assert kf.sq_xy == pytest.approx(1.0 / (9.0 * w**4), abs=1e-14)

    def test_plain_spline_closed_form(self, m3_moments):
        w = 10.0
        kf = kfunctional_constants(m3_moments, w)
        assert kf.sq_x == pytest.approx(7.0 / (12.0 * w * w), abs=1e-14)

    def test_identity_against_direct_application(self, chibar3, m3_tensor):
        # the constants are exact values of the average series applied to
        # squared offsets, so recompute them operator-side at random points
        w = 10.0
        for kernel in (chibar3, m3_tensor):
            kf = kfunctional_constants(MomentTable.compute(kernel, eta_max=4), w)
            for x0, y0 in interior_points(5):
                single = EvalGrid(points=[(x0, y0)], w=w)
                sq_x = apply_sw(
                    lambda u, v, x0=x0: (u - x0) ** 2, kernel, single
                )[0]
                sq_xy = apply_sw(
                    lambda u, v, x0=x0, y0=y0: (u - x0) ** 2 * (v - y0) ** 2,
                    kernel,
                    single,
                )[0]
                assert kf.sq_x == pytest.approx(sq_x, abs=1e-8)
                assert kf.sq_xy == pytest.approx(sq_xy, abs=1e-8)

    def test_scaling_laws(self, chibar3_moments):
        k10 = kfunctional_constants(chibar3_moments, 10.0)
        k20 = kfunctional_constants(chibar3_moments, 20.0)
        assert k10.sq_x / k20.sq_x == pytest.approx(4.0, rel=1e-12)
        assert k10.sq_xy / k20.sq_xy == pytest.approx(16.0, rel=1e-12)


class TestModulusMachinery:
    def test_product_modulus_exact_on_grid_multiples(self):
        f = fn_lookup("xy")
        got = mixed_modulus_estimate(f, 0.25, 0.5, UNIT_BOX, grid_n=33)
        assert got == pytest.approx(0.125, abs=1e-14)

    def test_estimate_is_lower_bound_for_product(self):
        f = fn_lookup("xy")
        for d1, d2 in [(0.1, 0.1), (0.3, 0.2), (0.07, 0.6)]:
            got = mixed_modulus_estimate(f, d1, d2, UNIT_BOX, grid_n=33)
            assert got <= d1 * d2 + 1e-14

    def test_zero_for_additive_functions(self):
        f = fn_lookup("sin_x_plus_cos_y")
        assert mixed_modulus_estimate(f, 0.5, 0.5, UNIT_BOX) <= 1e-14

    @pytest.mark.parametrize("name", ["x_plus_y", "y_minus_x", "sin_x_plus_cos_y"])
    @pytest.mark.parametrize("w", [1.0, 10.0, 20.0, 40.0, 2000.0])
    def test_exactly_zero_for_separable_functions(self, name, w):
        f = fn_lookup(name)
        for box in (f.default_box, UNIT_BOX, (-0.98, -1.013, 2.017, 1.99)):
            assert mixed_modulus_estimate(f, 1 / w, 1 / w, box) == 0.0
            assert mixed_modulus_estimate(f, 1 / w, 1 / w, box, grid_n=17) == 0.0

    def test_rounding_cut_leaves_other_estimates_unchanged(self):
        # the estimates at delta = 1/20 before differences within rounding
        # error counted as 0
        pinned = {
            "gaussian": "0x1.e1a28db797d00p-10",
            "sin_x_cos_y": "0x1.4727f667abde3p-9",
            "sin_y_minus_x": "0x1.479c0f1e1ea00p-9",
            "x2y2": "0x1.3f8a0902de000p-5",
            "xy": "0x1.47ae147ae1800p-9",
        }
        for name, value in pinned.items():
            f = fn_lookup(name)
            got = mixed_modulus_estimate(f, 0.05, 0.05, f.default_box)
            assert got == float.fromhex(value), name

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.floats(min_value=0.01, max_value=0.9),
        d2=st.floats(min_value=0.01, max_value=0.9),
        grow1=st.floats(min_value=0.0, max_value=0.5),
        grow2=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_monotone_in_both_deltas(self, d1, d2, grow1, grow2):
        f = fn_lookup("sin_x_cos_y")
        small = mixed_modulus_estimate(f, d1, d2, UNIT_BOX, grid_n=17)
        large = mixed_modulus_estimate(f, d1 + grow1, d2 + grow2, UNIT_BOX, grid_n=17)
        assert small <= large + 1e-15

    @pytest.mark.parametrize("w", [11.0, 20.0, 40.0])
    def test_default_grid_resolves_small_deltas(self, w):
        # xy has mixed modulus exactly delta1 * delta2; a fixed 33-point grid
        # on the 3-wide default box fits no offset once delta < 3/32
        delta = 1.0 / w
        got = mixed_modulus_estimate(fn_lookup("xy"), delta, delta, DEFAULT_BOX)
        assert 0.25 * delta * delta <= got <= delta * delta + 1e-14

    def test_default_grid_cost_does_not_depend_on_delta(self):
        counts = []
        for w in (11.0, 2000.0, 20000.0):
            sizes = []

            def f(x, y):
                sizes.append(np.broadcast(x, y).size)
                return x * y

            mixed_modulus_estimate(f, 1.0 / w, 1.0 / w, DEFAULT_BOX)
            counts.append(sum(sizes))
        assert counts[0] == counts[1] == counts[2] <= 33 * 33 + 99 * 99

    @pytest.mark.parametrize("name", ["x", "y", "x2", "y2", "const1"])
    def test_single_variable_functions_have_zero_modulus(self, name):
        got = mixed_modulus_estimate(fn_lookup(name), 0.05, 0.05, DEFAULT_BOX)
        assert got == 0.0

    def test_non_finite_values_are_an_error(self):
        # was an estimate that read every NaN mixed difference as 0
        box = (0.0, 0.0, 1e300, 1.0)
        with pytest.raises(ValueError, match="not finite at .* in box"):
            mixed_modulus_estimate(fn_lookup("x2y2"), 0.1, 0.1, box)

    @pytest.mark.parametrize("grid_n", [None, 5])
    def test_values_too_large_to_difference_are_an_error(self, grid_n):
        # finite values whose summed magnitudes overflow: the rounding level
        # was inf, which hid every difference, so the estimate read 0
        def f(x, y):
            return 1.5e308 * np.cos(3.0 * x * y)

        with pytest.raises(ValueError, match="function is above 4.49e[+]307 in"):
            mixed_modulus_estimate(f, 0.5, 0.5, UNIT_BOX, grid_n=grid_n)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mixed_modulus_estimate(fn_lookup("xy"), -0.1, 0.1, UNIT_BOX)


class TestBooleanSumBounds:
    def test_modulus_bound_dominates_product_error(self, m3_tensor, m3_moments):
        f = fn_lookup("xy")
        for w in (5.0, 10.0, 20.0):
            delta = 1.0 / w
            grid = EvalGrid.regular(UNIT_BOX, 5, w)
            err = np.abs(
                apply_gbs(f, m3_tensor, grid)
                - np.array([x * y for x, y in grid.points])
            ).max()
            bound = gbs_modulus_bound(m3_moments, w, delta, delta, delta * delta)
            assert err <= bound

    def test_modulus_bound_scaling_pieces(self, m3_moments):
        # with omega fixed, the three kernel constants scale as 1/w, 1/w, 1/w^2
        b10 = gbs_modulus_bound(m3_moments, 10.0, 0.1, 0.1, 1.0) - 1.0
        b20 = gbs_modulus_bound(m3_moments, 20.0, 0.1, 0.1, 1.0) - 1.0
        assert b10 > b20
        with pytest.raises(ValueError):
            gbs_modulus_bound(m3_moments, 10.0, 0.0, 0.1, 1.0)

    def test_differential_bound_with_vanishing_modulus(self, m3_tensor):
        # a target with constant mixed differential: only the first term is live
        w = 10.0
        table = MomentTable.compute(m3_tensor, eta_max=4, grid_n=64)
        bound = gbs_differential_bound(table, w, 0.1, 0.1, 1.0, 0.0)
        mom = table.absolute_sup
        bilin = (
            mom[(0, 0)] + 2 * mom[(1, 0)] + 2 * mom[(0, 1)] + 4 * mom[(1, 1)]
        ) / (4 * w * w)
        assert bound == pytest.approx(3.0 * bilin, rel=1e-12)

    def test_differential_bound_dominates_product_error(self, m3_tensor, m3_moments):
        f = fn_lookup("xy")
        for w in (5.0, 10.0):
            grid = EvalGrid.regular(UNIT_BOX, 5, w)
            err = np.abs(
                apply_gbs(f, m3_tensor, grid)
                - np.array([x * y for x, y in grid.points])
            ).max()
            bound = gbs_differential_bound(m3_moments, w, 1.0 / w, 1.0 / w, 1.0, 0.0)
            assert err <= bound


class TestConvergence:
    def test_linear_average_series_slope(self, chibar3):
        f = fn_lookup("x_plus_y")
        table = convergence_study(
            f, chibar3, "sw", [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=5
        )
        assert table.fitted_slope == pytest.approx(-1.0, abs=1e-3)
        assert table.fit_residual <= 1e-6
        for w, e in table.rows:
            assert w * e == pytest.approx(1.0, abs=1e-6)

    def test_sample_series_third_order(self, chibar3):
        f = fn_lookup("sin_x_cos_y")
        table = convergence_study(
            f, chibar3, "gw", [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=6
        )
        assert -3.5 <= table.fitted_slope <= -2.5

    def test_ridge_function_superconvergence(self, chibar3):
        probe = inverse_result_probe(
            np.sin, chibar3, [5.0, 10.0, 20.0, 40.0], WIDE_BOX, grid_n=5
        )
        assert probe.fitted_slope <= -1.7
        assert probe.w_error_decreasing

    def test_rows_and_csv(self, tmp_path, m3_tensor):
        f = fn_lookup("sin_x_cos_y")
        table = convergence_study(f, m3_tensor, "gw", [5.0, 10.0], WIDE_BOX, grid_n=4)
        path = tmp_path / "conv.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "w,sup_error"
        assert lines[1].startswith("5,")
        assert lines[-1].startswith("slope,")
        assert len(lines) == 4

    @pytest.mark.parametrize("op", ["gw", "sw", "gbs"])
    def test_one_grid_gives_the_bits_of_a_grid_per_rate(self, chibar3, monkeypatch, op):
        f = fn_lookup("sin_x_cos_y")
        rates = [5.0, 10.0, 20.0]
        box = (-1.01, -0.98, 2.03, 1.99)
        margin = interior_margin(chibar3, rates[0])
        apply = {"gw": apply_gw, "sw": apply_sw, "gbs": apply_gbs}[op]
        rows = []
        for w in rates:
            grid = EvalGrid.regular(box, 4, w, margin)
            err = np.abs(apply(f, chibar3, grid) - grid.sample(f)).max()
            rows.append((w, float(err)))
        logw, loge = np.log(rates), np.log([e for _, e in rows])
        coeffs = np.polyfit(logw, loge, 1)
        residual = np.sqrt(np.mean((np.polyval(coeffs, logw) - loge) ** 2))
        # one regular grid, whose axes every rate reuses: no axis is found
        # again from the points
        grids, factors = [], []
        regular = EvalGrid.regular.__func__
        monkeypatch.setattr(
            EvalGrid, "regular", classmethod(lambda *a: grids.append(a) or regular(*a))
        )
        factor = operators._factor
        monkeypatch.setattr(operators, "_factor", lambda t: factors.append(t) or factor(t))
        table = convergence_study(f, chibar3, op, rates, box, grid_n=4)
        assert len(grids) == 1 and factors == []
        assert bits(table.rows) == bits(rows)
        assert bits([table.fitted_slope, table.fit_residual]) == bits([coeffs[0], residual])

    # a study stops where one operator call per rate stopped: at the first
    # failing rate in list order, with that rate's own message (taken from
    # the code that made such calls), though every rate runs in one pass
    PASS_ERRORS = {
        # rates 5 and 10 pass 2**53; rate 5's bad values are all negative,
        # so rate 10's positive ones have the smaller bit patterns
        "2**53": (
            lambda x, y: x + y, "gw", [1.0, 5.0, 10.0], (-3e15, 0.0, 1e15, 20.0),
            "scaled coordinate -1.4999999999999968e+16 (lattice rate times a point "
            "coordinate) must be finite and below 2**53 in magnitude, where lattice "
            "indices stop being exact; lower the rate or move the box toward 0",
        ),
        "table_gw": (
            lambda x, y: np.log(x) + y, "gw", [5.0, 10.0, 20.0], (-5.0, 0.0, 5.0, 5.0),
            "source is not finite at lattice cell (-24, 1), near (-4.8, 0.2), at "
            "lattice rate 5.0; choose a rate at which the source is finite on the "
            "cells k/w",
        ),
        "table_sw": (
            lambda x, y: np.log(x) + y, "sw", [5.0, 10.0, 20.0], (-5.0, 0.0, 5.0, 5.0),
            "source is not finite at lattice cell (-24, 1), near (-4.8, 0.2), at "
            "lattice rate 5.0; choose a rate at which the source is finite on the "
            "cells k/w",
        ),
        # rate 1 fails its table, and rate 10, whose windows are taken first
        # in a pass, the 2**53 check
        "table_before_2**53": (
            lambda x, y: np.exp(x) + y, "gbs", [1.0, 10.0], (1e15, 0.0, 1.5e15, 20.0),
            "source is not finite at lattice cell (1000000000000001, 1), near "
            "(1e+15, 1), at lattice rate 1.0; choose a rate at which the source is "
            "finite on the cells k/w",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PASS_ERRORS))
    def test_a_failing_pass_names_the_first_failing_rate(self, chibar3, monkeypatch, case):
        f, op, rates, box, message = self.PASS_ERRORS[case]
        calls = []
        apply = operators.OPERATORS[op]
        monkeypatch.setitem(
            operators.OPERATORS, op, lambda *a: calls.append(len(a[2].rates)) or apply(*a)
        )
        with pytest.raises(ValueError) as err:
            convergence_study(f, chibar3, op, rates, box, grid_n=4)
        assert str(err.value) == message
        # the pass of every rate, then one call per rate up to the failing one
        failing = {"2**53": 2, "table_gw": 1, "table_sw": 1, "table_before_2**53": 1}
        assert calls == [len(rates)] + [1] * failing[case]

    def test_input_validation(self, m3_tensor):
        f = fn_lookup("x")
        with pytest.raises(ValueError):
            convergence_study(f, m3_tensor, "gw", [10.0], UNIT_BOX)
        with pytest.raises(ValueError):
            convergence_study(f, m3_tensor, "gw", [10.0, 5.0], UNIT_BOX)
        with pytest.raises(ValueError):
            convergence_study(f, m3_tensor, "nope", [5.0, 10.0], UNIT_BOX)


class TestPolynomialReproduction:
    def test_sample_series_exact(self, chibar3):
        worst = polynomial_reproduction_check(chibar3, 3, 10.0, WIDE_BOX)
        assert worst <= 1e-9

    def test_average_series_image_stays_polynomial(self, chibar3):
        worst = polynomial_reproduction_check(
            chibar3, 3, 10.0, WIDE_BOX, operator="sw"
        )
        assert worst <= 1e-8

    def test_plain_spline_sample_series(self, m3_tensor):
        worst = polynomial_reproduction_check(m3_tensor, 2, 8.0, UNIT_BOX)
        assert worst <= 1e-10

    def test_unknown_operator(self, m3_tensor):
        with pytest.raises(ValueError):
            polynomial_reproduction_check(m3_tensor, 2, 8.0, UNIT_BOX, operator="gbs")


def spy_on_tables(monkeypatch):
    """Record every table that ``MomentTable.compute`` returns from now on."""
    tables = []
    compute = MomentTable.compute

    def spy(cls, *args, **kwargs):
        tables.append(compute(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(MomentTable, "compute", classmethod(spy))
    return tables


class TestBoundReport:
    EXPECTED_KEYS = [
        "rate_deriv_factor",
        "rate_bound",
        "remainder",
        "mod_lin_x",
        "mod_lin_y",
        "mod_bilin",
        "diff_bilin",
        "diff_x",
        "diff_y",
        "diff_bilin2",
        "kfun_x",
        "kfun_y",
        "kfun_xy",
    ]

    def test_keys_and_positivity(self, chibar3):
        profile = FunctionProfile.from_function(fn_lookup("sin_x_cos_y"))
        report = build_bound_report(chibar3, 10.0, profile)
        assert list(report.constants) == self.EXPECTED_KEYS
        for key in ("rate_bound", "remainder", "mod_bilin", "diff_bilin2"):
            assert report.constants[key] > 0.0
        assert report.inputs["w"] == 10.0
        assert report.inputs["r"] == 3.0

    def test_symmetric_kernel_symmetric_constants(self, m3_tensor):
        profile = FunctionProfile.from_function(fn_lookup("gaussian"))
        report = build_bound_report(m3_tensor, 10.0, profile)
        assert report.constants["mod_lin_x"] == report.constants["mod_lin_y"]
        assert report.constants["diff_x"] == report.constants["diff_y"]
        assert report.constants["kfun_x"] == report.constants["kfun_y"]

    def test_csv_output(self, tmp_path, m3_tensor):
        profile = FunctionProfile.from_function(fn_lookup("x2"))
        report = build_bound_report(m3_tensor, 10.0, profile)
        path = tmp_path / "bounds.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value"
        assert lines[1].split(",")[0] == "rate_deriv_factor"
        assert any(line.startswith("input_w,") for line in lines)

    @pytest.mark.parametrize("kernel_name", ["chibar3", "m3_tensor", "m2", "m4"])
    @pytest.mark.parametrize("fn_name", ["gaussian", "sin_x_cos_y", "xy", "x2y2"])
    def test_constants_equal_the_standalone_bounds(
        self, kernel_name, fn_name, request, monkeypatch
    ):
        if kernel_name in ("m2", "m4"):
            axis = CentralBSpline(int(kernel_name[1]))
            kernel = TensorKernel2D(axis, axis)
        else:
            kernel = request.getfixturevalue(kernel_name)
        profile = FunctionProfile.from_function(fn_lookup(fn_name))
        r = kernel.moment_order
        d1, d2, omega, db = 0.3, 0.7, 1.3, 2.1
        tables = spy_on_tables(monkeypatch)
        for w in (3.0, 10.0, 37.5):
            k = build_bound_report(kernel, w, profile).constants
            # the report's own table
            table = tables[-1]
            assert k["rate_bound"] == gw_error_bound(profile, table, r, w)
            assert k["remainder"] == sw_remainder_bound(profile, table, w)
            assert gbs_modulus_bound(table, w, d1, d2, omega) == (
                1.0 + k["mod_lin_x"] / d1 + k["mod_lin_y"] / d2
                + k["mod_bilin"] / (d1 * d2)
            ) * omega
            assert gbs_differential_bound(table, w, d1, d2, db, omega) == (
                k["diff_bilin"] * (3.0 * db + omega)
                + (k["diff_x"] / d1 + k["diff_y"] / d2 + k["diff_bilin2"] / (d1 * d2))
                * omega
            )

    def test_builds_one_moment_table(self, chibar3, monkeypatch):
        # was four: its own, then one each in the rate, remainder and
        # K-functional bounds
        profile = FunctionProfile.from_function(fn_lookup("gaussian"))
        tables = spy_on_tables(monkeypatch)
        build_bound_report(chibar3, 10.0, profile)
        assert len(tables) == 1
        assert tables[0].eta_max == 4

    def test_plain_spline_uses_its_own_order(self, m3_tensor):
        profile = FunctionProfile.from_function(fn_lookup("sin_x_cos_y"))
        report = build_bound_report(m3_tensor, 10.0, profile)
        assert report.inputs["r"] == 2.0
        assert report.constants["kfun_x"] == pytest.approx(
            7.0 / 1200.0, abs=1e-14
        )
