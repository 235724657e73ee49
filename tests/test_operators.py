"""Sampling operators against brute-force oracles and exact identities.

The dense-patch oracle replays the windowed accumulation with plain scalar
arithmetic in the same (k ascending, j ascending) order, so analytic cases
must match bit for bit, not just approximately.
"""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanto import (
    EvalGrid,
    LatticeField,
    MissingData,
    TensorKernel2D,
    UnsupportedOrder,
    admissible_box,
    apply_gbs,
    apply_gw,
    apply_sw,
    cell_average,
    fn_lookup,
    read_lattice_csv,
    read_pgm,
    representation_residual,
    write_lattice_csv,
)
from kanto.functions import TestFunction as CatalogEntry
from kanto.operators import KIND_CELL_AVERAGES, KIND_SAMPLES, QUAD_ORDER_MAX

rng = np.random.default_rng(2)


def dense_patch_oracle(kernel, value, x, y, w):
    """Scalar replay of the windowed sum at one point; same iteration order."""
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    t1 = w * x
    t2 = w * y
    ks = range(math.ceil(t1 - hix), math.floor(t1 - lox) + 1)
    js = range(math.ceil(t2 - hiy), math.floor(t2 - loy) + 1)
    acc = 0.0
    for k in ks:
        a = kernel.kx(t1 - float(k))
        for j in js:
            b = kernel.ky(t2 - float(j))
            acc += (a * b) * value(k, j)
    return acc


class TestCellAverage:
    def test_linear_mean(self):
        got = cell_average(lambda u, v: u, 3, 7, 10.0)
        assert got == pytest.approx(0.35, abs=1e-14)

    def test_product_mean_unit_cell(self):
        got = cell_average(lambda u, v: u * v, 0, 0, 1.0)
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_high_degree_exactness(self):
        # order-5 Gauss rule integrates degree 9 exactly per axis
        got = cell_average(lambda u, v: u**5 * v**3, 0, 0, 1.0)
        assert got == pytest.approx(1.0 / 24.0, abs=1e-14)

    def test_negative_cell(self):
        got = cell_average(lambda u, v: v, -4, -4, 8.0)
        assert got == pytest.approx((-4 + 0.5) / 8.0, abs=1e-14)

    def test_cells_with_a_rate_each(self):
        # 1-d cells, each at its own rate, no cells at all included
        k, j = np.array([3, -4, 0]), np.array([7, -4, 0])
        w = np.array([10.0, 8.0, 1.0])
        f = lambda u, v: u * v  # noqa: E731
        got = cell_average(f, k, j, w)
        assert got.tolist() == [cell_average(f, *cell) for cell in zip(k, j, w)]
        empty = np.array([], dtype=int)
        assert cell_average(f, empty, empty, np.array([])).shape == (0,)

    def test_order_at_the_cap(self):
        got = cell_average(lambda u, v: u * v, 0, 0, 1.0, QUAD_ORDER_MAX)
        assert got == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("order", [0, QUAD_ORDER_MAX + 1])
    def test_order_outside_the_cap(self, order, chibar3):
        # the Gauss rule costs the cube of its order: 1600 took 5.9 s and 71 MB
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 2, 1.0)
        message = re.escape(f"quad_order must be in 1..{QUAD_ORDER_MAX}, got {order}")
        with pytest.raises(ValueError, match=message):
            cell_average(lambda u, v: u, 0, 0, 1.0, order)
        for op in (apply_sw, apply_gbs):
            with pytest.raises(ValueError, match=message):
                op(fn_lookup("x"), chibar3, grid, order)


class TestEvalGrid:
    def test_row_major_order(self):
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 2, 1.0)
        assert grid.points.tolist() == [
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [1.0, 1.0],
        ]

    def test_margin(self):
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 3, 1.0, margin=0.25)
        assert grid.points[0].tolist() == [0.25, 0.25]
        assert grid.points[-1].tolist() == [0.75, 0.75]

    def test_empty_interior_rejected(self):
        with pytest.raises(ValueError):
            EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 3, 1.0, margin=0.6)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            EvalGrid(points=[(0.0, 0.0)], w=0.0)

    @pytest.mark.parametrize("w", [-1.0, math.inf, math.nan])
    def test_non_finite_or_negative_rate_rejected(self, w):
        with pytest.raises(ValueError):
            EvalGrid(points=[(0.0, 0.0)], w=w)
        with pytest.raises(ValueError):
            LatticeField(w=w, kind=KIND_SAMPLES, values=np.zeros((2, 2)), kmin=0, jmin=0)

    def test_regular_matches_nested_loop(self):
        box = (-1.0, -0.5, 2.0, 1.5)
        grid = EvalGrid.regular(box, 7, 3.0, margin=0.1)
        xs = np.linspace(-0.9, 1.9, 7)
        ys = np.linspace(-0.4, 1.4, 7)
        assert grid.points.tolist() == [[x, y] for x in xs for y in ys]

    def test_at_rates_repeats_the_points_rate_major(self):
        grid = EvalGrid.regular((-1.0, -0.5, 2.0, 1.5), 3, 5.0)
        n = len(grid.points)
        multi = grid.at_rates([5.0, 7.5, 40.0])
        assert multi.points.tobytes() == np.tile(grid.points, (3, 1)).tobytes()
        assert multi.rates.tolist() == [5.0, 7.5, 40.0]
        assert multi.w.shape == (3 * n, 1)
        assert multi.w.ravel().tolist() == [5.0] * n + [7.5] * n + [40.0] * n
        # each point's scaled coordinates, and axes that still give the points
        scaled = multi.w * multi.points
        for rate, block in zip(multi.rates, np.split(scaled, 3)):
            assert block.tobytes() == (rate * grid.points).tobytes()
        for column, (values, index) in enumerate(multi.axes):
            assert values is grid.axes[column].values
            assert values[index].tobytes() == multi.points[:, column].tobytes()
        # one rate: the grid at that rate, sharing points and axes
        one = grid.at_rates([8.0])
        assert one.w == 8.0 and one.axes is grid.axes
        assert np.shares_memory(one.points, grid.points)
        assert one.rates.tolist() == [8.0]

    @pytest.mark.parametrize("rates", [[5.0, 0.0], [math.inf, 5.0], [5.0, math.nan]])
    def test_at_rates_checks_every_rate(self, rates):
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 2, 5.0)
        with pytest.raises(ValueError, match="lattice rate w must be finite and > 0"):
            grid.at_rates(rates)

    def test_sample_matches_pointwise_calls(self):
        f = fn_lookup("x2y2")
        grid = EvalGrid.regular((-1.0, -1.0, 2.0, 2.0), 6, 10.0)
        assert grid.sample(f).tolist() == [float(f(x, y)) for x, y in grid.points]
        assert grid.sample(lambda x, y: 3.0).tolist() == [3.0] * 36


class TestSampleSeries:
    def test_bitwise_against_dense_patch(self, chibar3, m3_tensor):
        f = fn_lookup("sin_x_cos_y")
        for kernel, x0 in ((chibar3, 0.33), (m3_tensor, 0.0)):
            grid = EvalGrid(points=[(x0, x0)], w=10.0)
            got = apply_gw(f, kernel, grid)[0]
            want = dense_patch_oracle(
                kernel, lambda k, j: f(k / 10.0, j / 10.0), x0, x0, 10.0
            )
            assert got == want

    def test_polynomial_reproduction(self, chibar3):
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 5, 10.0)
        for name in ("const1", "x", "y", "x_plus_y", "x2", "xy", "y2"):
            f = fn_lookup(name)
            approx = apply_gw(f, chibar3, grid)
            exact = np.array([float(f(x, y)) for x, y in grid.points])
            assert np.abs(approx - exact).max() <= 1e-9

    def test_quadratic_shift_plain_spline(self, m3_tensor):
        # the constant second moment 1/4 appears verbatim in the image of x^2
        f = fn_lookup("x2")
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, 10.0)
        approx = apply_gw(f, m3_tensor, grid)
        exact = np.array([x * x + 0.25 / 100.0 for x, y in grid.points])
        assert np.abs(approx - exact).max() <= 1e-12

    def test_field_route_matches_analytic_route(self, m3_tensor):
        f = fn_lookup("gaussian")
        field = LatticeField.from_function(f, 8.0, -12, 20, -12, 20)
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 5, 8.0)
        via_field = apply_gw(field, m3_tensor, grid)
        via_fn = apply_gw(f, m3_tensor, grid)
        assert np.array_equal(via_field, via_fn)

    def test_average_field_route_matches_analytic_route(self, m3_tensor):
        f = fn_lookup("gaussian")
        field = LatticeField.from_function(
            f, 8.0, -12, 20, -12, 20, kind=KIND_CELL_AVERAGES
        )
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 5, 8.0)
        via_field = apply_sw(field, m3_tensor, grid)
        via_fn = apply_sw(f, m3_tensor, grid)
        assert np.array_equal(via_field, via_fn)

    def test_from_function_matches_scalar_tabulation(self):
        f = fn_lookup("sin_x_cos_y")
        w = 7.0
        samples = LatticeField.from_function(f, w, -3, 4, -2, 5)
        averages = LatticeField.from_function(
            f, w, -3, 4, -2, 5, kind=KIND_CELL_AVERAGES
        )
        for k in range(-3, 5):
            for j in range(-2, 6):
                assert samples.get(k, j) == f(k / w, j / w)
                assert averages.get(k, j) == cell_average(f, k, j, w)

    def test_translation_covariance(self, m3_tensor):
        f = fn_lookup("gaussian")
        w = 8.0
        a, b = 3, -2
        shifted = CatalogEntry(
            name="shifted",
            fn=lambda x, y: f.fn(x - a / w, y - b / w),
            partials={},
        )
        grid = EvalGrid.regular((0.2, 0.2, 0.8, 0.8), 4, w)
        moved = EvalGrid(points=grid.points + np.array([a / w, b / w]), w=w)
        assert np.abs(
            apply_gw(shifted, m3_tensor, moved) - apply_gw(f, m3_tensor, grid)
        ).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        beta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_linearity(self, alpha, beta):
        from kanto import CentralBSpline

        kernel = TensorKernel2D(CentralBSpline(3), CentralBSpline(3))
        f = fn_lookup("x2")
        g = fn_lookup("sin_x_cos_y")
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 3, 5.0)
        combo = lambda x, y: alpha * f(x, y) + beta * g(x, y)
        lhs = apply_gw(combo, kernel, grid)
        rhs = alpha * apply_gw(f, kernel, grid) + beta * apply_gw(g, kernel, grid)
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestAverageSeries:
    def test_linear_shift_identity(self, chibar3):
        f = fn_lookup("x_plus_y")
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 5, 10.0)
        approx = apply_sw(f, chibar3, grid)
        exact = np.array([x + y + 0.1 for x, y in grid.points])
        assert np.abs(approx - exact).max() <= 1e-12

    def test_quadratic_identity_plain_spline(self, m3_tensor):
        # averages add 1/(3w^2) from the cell and 1/4 w^-2 from the kernel
        f = fn_lookup("x2")
        w = 10.0
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, w)
        approx = apply_sw(f, m3_tensor, grid)
        exact = np.array(
            [x * x + x / w + 7.0 / (12.0 * w * w) for x, y in grid.points]
        )
        assert np.abs(approx - exact).max() <= 1e-12

    def test_bitwise_field_vs_analytic(self, chibar3):
        f = fn_lookup("sin_x_cos_y")
        w = 10.0
        field = LatticeField.from_function(
            f, w, -8, 18, -8, 18, kind=KIND_CELL_AVERAGES
        )
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, w)
        assert np.array_equal(
            apply_sw(field, chibar3, grid), apply_sw(f, chibar3, grid)
        )

    def test_bitwise_against_dense_patch(self, chibar3):
        f = fn_lookup("gaussian")
        w = 10.0
        x0 = 0.33
        grid = EvalGrid(points=[(x0, x0)], w=w)
        got = apply_sw(f, chibar3, grid)[0]
        want = dense_patch_oracle(
            chibar3, lambda k, j: cell_average(f, k, j, w), x0, x0, w
        )
        assert got == want

    # kind and rate are checked before coverage: a box whose windows leave
    # the field gets the same error as one inside it, not MissingData
    BOXES = [(0.0, 0.0, 1.0, 1.0), (-5.0, -5.0, -4.0, -4.0)]

    def test_kind_mismatch_rejected(self, chibar3):
        f = fn_lookup("x")
        samples = LatticeField.from_function(f, 10.0, -8, 18, -8, 18)
        averages = LatticeField.from_function(
            f, 10.0, -8, 18, -8, 18, kind=KIND_CELL_AVERAGES
        )
        for box in self.BOXES:
            grid = EvalGrid.regular(box, 3, 10.0)
            message = "average-based operator needs a field of kind 'cell_averages'"
            with pytest.raises(ValueError, match=re.escape(message)):
                apply_sw(samples, chibar3, grid)
            message = "sample-based operator needs a field of kind 'samples'"
            with pytest.raises(ValueError, match=re.escape(message)):
                apply_gw(averages, chibar3, grid)

    def test_rate_mismatch_rejected(self, chibar3):
        f = fn_lookup("x")
        field = LatticeField.from_function(f, 10.0, -8, 18, -8, 18)
        for box in self.BOXES:
            grid = EvalGrid.regular(box, 3, 5.0)
            message = "lattice rate of field and grid disagree"
            with pytest.raises(ValueError, match=re.escape(message)):
                apply_gw(field, chibar3, grid)

    def test_every_rate_of_a_grid_must_match_the_field(self, chibar3):
        # a grid at several rates: the field's rate first is not enough
        f = fn_lookup("x")
        field = LatticeField.from_function(f, 10.0, -8, 18, -8, 18)
        grid = EvalGrid.regular(self.BOXES[0], 3, 10.0)
        message = "lattice rate of field and grid disagree"
        for rates in ([10.0, 20.0], [20.0, 10.0], [10.0, 10.0, 5.0]):
            with pytest.raises(ValueError, match=re.escape(message)):
                apply_gw(field, chibar3, grid.at_rates(rates))
        once = apply_gw(field, chibar3, grid)
        twice = apply_gw(field, chibar3, grid.at_rates([10.0, 10.0]))
        assert twice.tobytes() == np.tile(once, 2).tobytes()


class TestMissingData:
    def test_window_outside_field(self, m3_tensor):
        f = fn_lookup("x")
        field = LatticeField.from_function(f, 10.0, 0, 5, 0, 5)
        grid = EvalGrid(points=[(2.0, 0.2)], w=10.0)
        with pytest.raises(MissingData) as err:
            apply_gw(field, m3_tensor, grid)
        assert err.value.k > 5

    def test_nan_cell_reports_index(self, m3_tensor):
        f = fn_lookup("x")
        values = LatticeField.from_function(f, 10.0, -5, 15, -5, 15).values.copy()
        values[7 + 5, 3 + 5] = np.nan
        field = LatticeField(w=10.0, kind=KIND_SAMPLES, values=values, kmin=-5, jmin=-5)
        grid = EvalGrid(points=[(0.7, 0.3)], w=10.0)
        with pytest.raises(MissingData) as err:
            apply_gw(field, m3_tensor, grid)
        assert (err.value.k, err.value.j) == (7, 3)

    def test_values_are_read_only(self):
        # an inf stored after the finiteness check would be summed silently
        field = LatticeField.from_function(fn_lookup("x"), 8.0, -20, 30, -20, 30)
        with pytest.raises(ValueError, match="read-only"):
            field.values[22, 22] = np.inf
        # a new rate keeps the same values without copying them
        assert np.shares_memory(dataclasses.replace(field, w=4.0).values, field.values)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_value_rejected_by_index(self, value):
        # NaN is a hole; an infinite value is an error naming its (k, j)
        values = np.zeros((4, 5))
        values[2, 1] = np.nan
        values[3, 2] = value
        with pytest.raises(ValueError, match=r"\(k=1, j=-3\) is -?inf"):
            LatticeField(w=10.0, kind="samples", values=values, kmin=-2, jmin=-5)


@pytest.mark.parametrize("op", [apply_gw, apply_sw, apply_gbs])
def test_source_not_finite_only_past_every_window_runs(m3_tensor, op):
    # x windows k = -1..2 and 2..4 at w = 8: no window reads k = 5, which the
    # tabulation of the source once covered (and refused as not finite)
    grid = EvalGrid(points=[(0.0625, 0.0625), (0.33, 0.7)], w=8.0)
    f = lambda x, y: np.where((5 / 8 <= x) & (x <= 6 / 8), np.inf, 1.0)
    assert op(f, m3_tensor, grid).tolist() == op(lambda x, y: 1.0, m3_tensor, grid).tolist()


@pytest.mark.parametrize("op", [apply_gw, apply_sw, apply_gbs])
def test_series_that_overflows_is_an_error(chibar3, op):
    # every cell value is finite, but kernel weights above 1 carry the sum
    # past the float maximum
    grid = EvalGrid(points=[(0.5, 0.5), (0.25, 0.75)], w=10.0)
    with pytest.raises(ValueError, match="the series overflows; scale the source"):
        op(lambda x, y: 1.7e308, chibar3, grid)


class TestBooleanSum:
    def test_exact_on_additive(self, chibar3):
        f = fn_lookup("sin_x_plus_cos_y")
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, 10.0)
        approx = apply_gbs(f, chibar3, grid)
        exact = np.array([float(f(x, y)) for x, y in grid.points])
        assert np.abs(approx - exact).max() <= 1e-10

    def test_product_error_is_quarter_w_squared(self, m3_tensor):
        f = fn_lookup("xy")
        for w in (5.0, 10.0):
            grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, w)
            approx = apply_gbs(f, m3_tensor, grid)
            exact = np.array([x * y for x, y in grid.points])
            err = np.abs(approx - exact)
            assert err.max() == pytest.approx(1.0 / (4.0 * w * w), abs=1e-12)
            assert err.min() == pytest.approx(1.0 / (4.0 * w * w), abs=1e-12)

    def test_against_average_series_of_cross_section_sum(self, m3_tensor):
        # independent route: apply the average series to g(u,v) =
        # f(x,v) + f(u,y) - f(u,v) for each fixed evaluation point
        f = fn_lookup("gaussian")
        w = 8.0
        pts = [(0.25, 0.5), (0.4, 0.1), (0.8, 0.75)]
        grid = EvalGrid(points=pts, w=w)
        fast = apply_gbs(f, m3_tensor, grid)
        for idx, (x, y) in enumerate(pts):
            g = lambda u, v, x=x, y=y: f(x, v) + f(u, y) - f(u, v)
            single = EvalGrid(points=[(x, y)], w=w)
            slow = apply_sw(g, m3_tensor, single)[0]
            assert fast[idx] == pytest.approx(slow, abs=1e-10)

    def test_rejects_lattice_field(self, m3_tensor):
        field = LatticeField.from_function(fn_lookup("x"), 10.0, -5, 15, -5, 15)
        grid = EvalGrid(points=[(0.5, 0.5)], w=10.0)
        with pytest.raises(ValueError):
            apply_gbs(field, m3_tensor, grid)


class TestRepresentationResidual:
    def test_quadratic_residual(self, chibar3):
        f = fn_lookup("x2")
        w = 10.0
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, w)
        res = representation_residual(f, chibar3, grid)
        assert np.abs(res - 1.0 / (3.0 * w * w)).max() <= 1e-12

    def test_product_residual(self, chibar3):
        f = fn_lookup("xy")
        w = 10.0
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, w)
        res = representation_residual(f, chibar3, grid)
        assert np.abs(res - 1.0 / (4.0 * w * w)).max() <= 1e-12

    def test_linear_residual_vanishes(self, chibar3):
        f = fn_lookup("x_plus_y")
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, 10.0)
        res = representation_residual(f, chibar3, grid)
        assert np.abs(res).max() <= 1e-12

    def test_each_point_of_a_grid_at_several_rates_at_its_own_rate(self, chibar3):
        # a column of rates dividing a row of residuals would give an N x N table
        f = fn_lookup("sin_x_cos_y")
        grid = EvalGrid.regular((0.0, 0.0, 1.0, 1.0), 4, 10.0)
        got = representation_residual(f, chibar3, grid.at_rates([10.0, 20.0]))
        want = [representation_residual(f, chibar3, grid.at_rates([w])) for w in (10.0, 20.0)]
        assert got.shape == (2 * len(grid.points),)
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_missing_derivative_rejected(self, chibar3):
        bare = CatalogEntry(name="bare", fn=lambda x, y: x + y, partials={})
        grid = EvalGrid(points=[(0.5, 0.5)], w=10.0)
        with pytest.raises(UnsupportedOrder, match=re.escape("order (1, 0)")):
            representation_residual(bare, chibar3, grid)


class TestAdmissibleBox:
    def test_frozen_case(self, m3_tensor):
        f = fn_lookup("x")
        field = LatticeField.from_function(f, 10.0, -5, 25, -5, 25)
        assert admissible_box(field, m3_tensor) == (-0.35, -0.35, 2.35, 2.35)

    def test_too_small_field(self, chibar3):
        f = fn_lookup("x")
        field = LatticeField.from_function(f, 10.0, 0, 3, 0, 3)
        with pytest.raises(ValueError):
            admissible_box(field, chibar3)

    def test_edges_without_values_left_out(self, m3_tensor):
        inner = LatticeField.from_function(fn_lookup("x"), 10.0, -5, 25, -5, 25)
        values = np.pad(inner.values, ((5, 2), (3, 0)), constant_values=np.nan)
        field = LatticeField(w=10.0, kind=KIND_SAMPLES, values=values, kmin=-10, jmin=-8)
        assert admissible_box(field, m3_tensor) == (-0.35, -0.35, 2.35, 2.35)
        empty = LatticeField(
            w=10.0, kind=KIND_SAMPLES, values=np.full((9, 9), np.nan), kmin=0, jmin=0
        )
        with pytest.raises(ValueError, match="holds no values"):
            admissible_box(empty, m3_tensor)


class TestLatticeIO:
    def test_csv_round_trip(self, tmp_path):
        f = fn_lookup("gaussian")
        field = LatticeField.from_function(f, 8.0, -3, 9, -2, 7)
        path = tmp_path / "grid.csv"
        write_lattice_csv(field, path)
        assert (tmp_path / "grid.meta.json").exists()
        back = read_lattice_csv(path)
        assert back.w == field.w
        assert back.kind == KIND_SAMPLES
        assert (back.kmin, back.kmax, back.jmin, back.jmax) == (-3, 9, -2, 7)
        assert np.array_equal(back.values, field.values)

    def test_round_trip_preserves_holes(self, tmp_path):
        f = fn_lookup("x")
        values = LatticeField.from_function(f, 4.0, 0, 3, 0, 3).values.copy()
        values[1, 2] = np.nan
        field = LatticeField(w=4.0, kind=KIND_SAMPLES, values=values, kmin=0, jmin=0)
        path = tmp_path / "holey.csv"
        write_lattice_csv(field, path)
        back = read_lattice_csv(path)
        assert np.isnan(back.values[1, 2])
        with pytest.raises(MissingData):
            back.get(1, 2)

    def test_duplicate_row_rejected(self, tmp_path):
        field = LatticeField.from_function(fn_lookup("x"), 4.0, 0, 3, 0, 3)
        path = tmp_path / "dup.csv"
        write_lattice_csv(field, path)
        with path.open("a") as fh:
            fh.write("1,2,7.0\n")
        with pytest.raises(ValueError, match=r"dup\.csv: duplicate row for index \(1,2\)"):
            read_lattice_csv(path)

    def test_meta_kind_round_trip(self, tmp_path):
        f = fn_lookup("x")
        field = LatticeField.from_function(
            f, 4.0, 0, 3, 0, 3, kind=KIND_CELL_AVERAGES
        )
        path = tmp_path / "avg.csv"
        write_lattice_csv(field, path)
        meta = json.loads((tmp_path / "avg.meta.json").read_text())
        assert meta["kind"] == KIND_CELL_AVERAGES
        assert read_lattice_csv(path).kind == KIND_CELL_AVERAGES

    def test_pgm_reading(self, tmp_path):
        header = b"P5\n# comment line\n3 2\n255\n"
        pixels = bytes([0, 128, 255, 10, 20, 30])
        path = tmp_path / "img.pgm"
        path.write_bytes(header + pixels)
        field = read_pgm(path)
        assert field.w == 1.0
        assert field.kind == KIND_SAMPLES
        # pixel (row r, col c) maps to lattice (k=c, j=r)
        assert field.get(0, 0) == 0.0
        assert field.get(1, 0) == pytest.approx(128.0 / 255.0)
        assert field.get(2, 1) == pytest.approx(30.0 / 255.0)

    def test_pgm_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError):
            read_pgm(path)


def pgm_field(tmp_path) -> LatticeField:
    """A 96 x 80 PGM read back as a field: 8-bit pixels, so values repeat heavily."""
    k, j = np.meshgrid(np.arange(96), np.arange(80), indexing="ij")
    noise = np.random.default_rng(23).integers(0, 9, k.shape)
    pixels = (120 + 90 * np.sin(0.11 * k) * np.cos(0.07 * j) + noise).astype(np.uint8)
    path = tmp_path / "lattice.pgm"
    path.write_bytes(b"P5\n96 80\n255\n" + np.ascontiguousarray(pixels.T).tobytes())
    return read_pgm(path)


def holey_field(tmp_path) -> LatticeField:
    """Negative kmin and jmin, holes, both zeros and more than one row block."""
    gen = np.random.default_rng(29)
    pool = np.array([0.0, -0.0, 0.1, -1.5, 5e-324, -2.5e300, 1.0 / 3.0])
    values = gen.choice(pool, (70, 65))
    values[gen.random(values.shape) < 0.2] = gen.uniform(-1.0, 1.0)
    values[gen.random(values.shape) < 0.1] = np.nan
    return LatticeField(w=3.5, kind=KIND_SAMPLES, values=values, kmin=-41, jmin=-7)


# sha256 of write_lattice_csv's table for each field, taken from the writer
# that still searched every long column for repeats
LATTICE_DIGESTS = {
    "pgm": "e3137798823156df8a8364e1231452f7eddb2de9c5fa1620da2a1425a4a59d9f",
    "holey": "dbcf12c2985b6e2f2e675c1d37913f5a3b41073580cc14fda2efff7097a0c5d1",
}


@pytest.mark.parametrize("name, build", [("pgm", pgm_field), ("holey", holey_field)])
def test_lattice_csv_bytes_and_bit_exact_round_trip(name, build, tmp_path):
    field = build(tmp_path)
    path = tmp_path / f"{name}.csv"
    write_lattice_csv(field, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LATTICE_DIGESTS[name]
    back = read_lattice_csv(path)
    assert (back.w, back.kind) == (field.w, field.kind)
    assert (back.kmin, back.kmax, back.jmin, back.jmax) == (
        field.kmin, field.kmax, field.jmin, field.jmax
    )
    holes = np.isnan(field.values)
    assert np.array_equal(np.isnan(back.values), holes)
    # bit patterns, so that -0.0 must come back as -0.0
    assert np.array_equal(
        back.values[~holes].view(np.uint64), field.values[~holes].view(np.uint64)
    )
