"""Tensor kernels and their lattice moments against dense double-sum oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanto import (
    CentralBSpline,
    CombinationKernel,
    FunctionProfile,
    TensorKernel2D,
    UnsupportedKernel,
    build_bound_report,
    construct_combination_kernel,
    discrete_moment,
    fn_lookup,
    partition_of_unity_check,
    validate_kernel,
)
from kanto.kernel2d import MomentTable

rng = np.random.default_rng(1)


def dense_moment_oracle(kernel, p1, p2, u, v, absolute=False):
    """Direct double sum over the full lattice window, no factorization."""
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    total = 0.0
    for k in range(math.ceil(u - hix) - 1, math.floor(u - lox) + 2):
        for j in range(math.ceil(v - hiy) - 1, math.floor(v - loy) + 2):
            val = kernel(u - k, v - j)
            a, b = u - k, v - j
            if absolute:
                total += abs(val) * abs(a) ** p1 * abs(b) ** p2
            else:
                total += val * a**p1 * b**p2
    return total


def axis_product(kernel, p1, p2, u, v, absolute=False):
    """The factored moment: product of the two axis moments at (u, v)."""
    return discrete_moment(kernel.kx, p1, u, absolute=absolute) * discrete_moment(
        kernel.ky, p2, v, absolute=absolute
    )


def reference_table(kernel, eta_max, grid_n):
    """Pair-by-pair moment summary, as computed before the shared moment table.

    Every pair recomputes its own axis moments; the table must agree with
    this bit for bit.
    """
    us = np.arange(grid_n, dtype=float) / grid_n

    def constancy(p1, p2):
        grid = np.outer(
            discrete_moment(kernel.kx, p1, us), discrete_moment(kernel.ky, p2, us)
        )
        return float(grid.mean()), float(grid.max() - grid.min())

    def absolute(p1, p2):
        ax = discrete_moment(kernel.kx, p1, us, absolute=True)
        ay = discrete_moment(kernel.ky, p2, us, absolute=True)
        return float(np.outer(ax, ay).max())

    pairs = [(p1, eta - p1) for eta in range(eta_max + 1) for p1 in range(eta + 1)]
    scans = {pair: constancy(*pair) for pair in pairs}
    return (
        {pair: mean for pair, (mean, _) in scans.items()},
        {pair: spread for pair, (_, spread) in scans.items()},
        {pair: absolute(*pair) for pair in pairs},
        {
            eta: max(absolute(p1, eta - p1) for p1 in range(eta + 1))
            for eta in range(eta_max + 1)
        },
    )


class TestTensorKernel:
    def test_factorization(self, chibar3, chi3):
        for _ in range(20):
            a, b = rng.uniform(0.0, 6.0, size=2)
            assert chibar3(a, b) == pytest.approx(chi3(a) * chi3(b), rel=1e-14)

    def test_supports(self, chibar3, m3_tensor):
        assert chibar3.support_x == (0.5, 5.5)
        assert chibar3.support_y == (0.5, 5.5)
        assert m3_tensor.support_x == (-1.5, 1.5)
        assert chibar3.moment_order == 3
        assert m3_tensor.moment_order == 2

    def test_mixed_axis_moment_order(self, chi3, m3):
        mixed = TensorKernel2D(chi3, m3)
        assert mixed.moment_order == 2


class TestPartitionOfUnity:
    def test_combination_kernel(self, chibar3):
        assert partition_of_unity_check(chibar3, 64) <= 1e-10

    def test_plain_spline(self, m3_tensor):
        assert partition_of_unity_check(m3_tensor, 64) <= 1e-12

    def test_box_kernel_with_midpoints(self):
        box = TensorKernel2D(CentralBSpline(1), CentralBSpline(1))
        # the 64-point grid contains u = 1/2 where the box jumps
        assert partition_of_unity_check(box, 64) <= 1e-12

    def test_scaled_kernel_breaks_partition(self, chi3, m3):
        doubled = CombinationKernel(3, chi3.shifts, [2.0 * a for a in chi3.coefficients])
        lopsided = TensorKernel2D(doubled, m3)
        assert partition_of_unity_check(lopsided, 16) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(UnsupportedKernel):
            validate_kernel(lopsided)

    def test_validate_accepts_good_kernels(self, chibar3, m3_tensor):
        validate_kernel(chibar3)
        validate_kernel(m3_tensor)


class TestMoments:
    def test_against_dense_oracle(self, chibar3, m3_tensor):
        for kernel in (chibar3, m3_tensor):
            for _ in range(10):
                u, v = rng.uniform(0.0, 1.0, size=2)
                for p1, p2 in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2)]:
                    for absolute in (False, True):
                        assert axis_product(
                            kernel, p1, p2, float(u), float(v), absolute
                        ) == pytest.approx(
                            dense_moment_oracle(
                                kernel, p1, p2, float(u), float(v), absolute
                            ),
                            abs=1e-9,
                        )

    def test_absolute_moment_grid_refinement(self, chibar3):
        # the 64-point grid is nested in the 256-point grid
        coarse_table = MomentTable.compute(chibar3, eta_max=3, grid_n=64)
        fine_table = MomentTable.compute(chibar3, eta_max=3, grid_n=256)
        for pair in [(0, 0), (1, 1), (3, 0)]:
            coarse = coarse_table.absolute_sup[pair]
            fine = fine_table.absolute_sup[pair]
            assert fine >= coarse - 1e-12
            assert fine - coarse <= 5e-3 * max(1.0, coarse)

    def test_periodicity(self, chibar3):
        for _ in range(5):
            u, v = rng.uniform(0.0, 1.0, size=2)
            assert axis_product(chibar3, 2, 1, u, v) == pytest.approx(
                axis_product(chibar3, 2, 1, u + 1.0, v), abs=1e-10
            )
            assert axis_product(chibar3, 2, 1, u, v) == pytest.approx(
                axis_product(chibar3, 2, 1, u, v + 2.0), abs=1e-10
            )

    def test_box_kernel_second_moment_not_constant(self):
        box = TensorKernel2D(CentralBSpline(1), CentralBSpline(1))
        table = MomentTable.compute(box, eta_max=2, grid_n=32)
        assert table.algebraic_spread[(2, 0)] > 1e-10
        assert table.algebraic_spread[(2, 0)] == pytest.approx(0.25, abs=1e-12)

    def test_quadratic_spline_moment_constancy(self, m3_tensor):
        table = MomentTable.compute(m3_tensor, eta_max=2, grid_n=64)
        assert table.algebraic_spread[(2, 0)] <= 1e-10
        assert table.algebraic_mean[(2, 0)] == pytest.approx(0.25, abs=1e-12)
        assert table.algebraic_spread[(1, 0)] <= 1e-10
        assert table.algebraic_mean[(1, 0)] == pytest.approx(0.0, abs=1e-12)

    def test_max_moment_matches_componentwise(self, chibar3):
        # the order-2 maximum does not depend on how far the table reaches
        wide = MomentTable.compute(chibar3, eta_max=4, grid_n=64)
        expected = max(wide.absolute_sup[(p1, 2 - p1)] for p1 in range(3))
        narrow = MomentTable.compute(chibar3, eta_max=2, grid_n=64)
        assert narrow.max_by_order[2] == expected


class TestMomentTable:
    def test_entries_and_order(self, chibar3):
        table = MomentTable.compute(chibar3, eta_max=3, grid_n=64)
        pairs = table.index_pairs()
        assert pairs[:6] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert pairs[6:] == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert table.algebraic_mean[(0, 0)] == pytest.approx(1.0, abs=1e-10)
        for pair in pairs[1:6]:
            assert abs(table.algebraic_mean[pair]) <= 1e-9
            assert table.algebraic_spread[pair] <= 1e-9

    def test_third_moment_plateau(self, chibar3):
        table = MomentTable.compute(chibar3, eta_max=3, grid_n=64)
        assert table.rth_moment_constant(3) == pytest.approx(21.75, abs=0.05)
        with pytest.raises(ValueError):
            table.rth_moment_constant(4)

    def test_absolute_dominates_algebraic(self, chibar3):
        table = MomentTable.compute(chibar3, eta_max=3, grid_n=64)
        for pair in table.index_pairs():
            assert table.absolute_sup[pair] + 1e-12 >= abs(
                table.algebraic_mean[pair]
            )

    def test_max_by_order_consistency(self, m3_tensor):
        table = MomentTable.compute(m3_tensor, eta_max=3, grid_n=32)
        for eta in range(4):
            expected = max(
                table.absolute_sup[(p1, eta - p1)] for p1 in range(eta + 1)
            )
            assert table.max_by_order[eta] == expected

    def test_mutating_a_table_leaves_later_tables_alone(self, chibar3):
        # was one cached table per kernel: zeroing an entry moved the default
        # kernel's mod_bilin from 12.07 to 11.80
        profile = FunctionProfile.from_function(fn_lookup("gaussian"))
        report = build_bound_report(chibar3, 10.0, profile)
        first = MomentTable.compute(chibar3, eta_max=4)
        sup_00 = first.absolute_sup[(0, 0)]
        first.absolute_sup[(0, 0)] = 0.0
        first.algebraic_mean[(3, 0)] = 0.0
        first.max_by_order[3] = 0.0
        second = MomentTable.compute(chibar3, eta_max=4)
        assert second is not first
        assert second.absolute_sup[(0, 0)] == sup_00
        assert build_bound_report(chibar3, 10.0, profile) == report

    def test_negative_eta_max_rejected(self, chibar3):
        with pytest.raises(ValueError, match="eta_max"):
            MomentTable.compute(chibar3, eta_max=-1)

    # the offsets reach 102, so a moment overflows from eta 153 or 154 on;
    # on one grid point the spread of an inf moment is inf - inf
    @pytest.mark.parametrize("grid_n, pair", [(1, (0, 154)), (8, (0, 153))])
    def test_moment_that_is_not_finite_names_its_pair(self, grid_n, pair):
        axis = CombinationKernel(2, (100.5, 101.5), (0.5, 0.5))
        message = f"lattice moment {pair} of the kernel is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            MomentTable.compute(TensorKernel2D(axis, axis), eta_max=200, grid_n=grid_n)

    @pytest.mark.parametrize("grid_n", [1, 7, 64])
    @pytest.mark.parametrize("eta_max", range(6))
    @pytest.mark.parametrize("name", ["chibar3", "m3", "box", "chi4_m3"])
    def test_matches_pair_by_pair_reference(self, name, eta_max, grid_n, chi3, m3):
        kernels = {
            "chibar3": TensorKernel2D(chi3, chi3),
            "m3": TensorKernel2D(m3, m3),
            "box": TensorKernel2D(CentralBSpline(1), CentralBSpline(1)),
            # differing axes: the axis moments must not be shared
            "chi4_m3": TensorKernel2D(
                construct_combination_kernel(4, (2.0, 3.0, 4.0, 5.0)), m3
            ),
        }
        table = MomentTable.compute(kernels[name], eta_max=eta_max, grid_n=grid_n)
        mean, spread, sup, by_order = reference_table(kernels[name], eta_max, grid_n)
        assert (table.eta_max, table.grid_n) == (eta_max, grid_n)
        # == on the dicts compares every float exactly
        assert table.algebraic_mean == mean
        assert table.algebraic_spread == spread
        assert table.absolute_sup == sup
        assert table.max_by_order == by_order


class TestValidation:
    def test_infinite_support_rejected(self):
        class Everywhere:
            support = (-math.inf, math.inf)
            moment_order = 1

            def __call__(self, t):
                return np.zeros_like(np.asarray(t, dtype=float))

        # the kernel type refuses it, so no function can receive it
        with pytest.raises(UnsupportedKernel):
            TensorKernel2D(Everywhere(), CentralBSpline(3))

    @settings(max_examples=30, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        v=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_absolute_moment_bounds_pointwise(self, u, v):
        kernel = TensorKernel2D(CentralBSpline(3), CentralBSpline(3))
        sup = MomentTable.compute(kernel, eta_max=2, grid_n=64).absolute_sup[(1, 1)]
        # the sup over the scan grid bounds nearby points up to continuity slack
        assert axis_product(kernel, 1, 1, u, v, absolute=True) <= sup + 0.05
