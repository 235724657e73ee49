"""Univariate kernels: closed-form values, lattice sums, combination solve.

Oracles are kept local to this file: a piecewise closed form for the
quadratic B-spline, the two-term recurrence for higher orders, and direct
brute-force lattice sums for the moment conditions.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kanto import (
    CentralBSpline,
    CombinationKernel,
    SingularSystem,
    TensorKernel2D,
    bspline_eval,
    construct_combination_kernel,
    discrete_moment,
)
import kanto.kernel1d
from kanto.kernel1d import SINGULARITY_THRESHOLD
from kanto.kernel2d import partition_of_unity_check, validate_kernel

rng = np.random.default_rng(0)


def quadratic_bspline_closed_form(t: float) -> float:
    a = abs(t)
    if a <= 0.5:
        return 0.75 - a * a
    if a <= 1.5:
        return 0.5 * (1.5 - a) ** 2
    return 0.0


def brute_lattice_moment(kernel, eta: int, u: float) -> float:
    lo, hi = kernel.support
    total = 0.0
    for k in range(math.ceil(u - hi) - 2, math.floor(u - lo) + 3):
        total += kernel(u - k) * (u - k) ** eta
    return total


class TestBsplineValues:
    def test_quadratic_frozen_values(self):
        assert bspline_eval(3, 0.0) == 0.75
        assert bspline_eval(3, 1.0) == 0.125
        assert bspline_eval(3, -1.0) == 0.125
        assert bspline_eval(3, 0.5) == 0.5
        assert bspline_eval(3, -0.5) == 0.5

    def test_box_and_triangle(self):
        assert bspline_eval(1, 0.0) == 1.0
        assert bspline_eval(1, 0.49) == 1.0
        assert bspline_eval(1, 0.51) == 0.0
        # midpoint convention keeps the lattice sum equal to 1 at half-integers
        assert bspline_eval(1, 0.5) == 0.5
        assert bspline_eval(1, -0.5) == 0.5
        assert bspline_eval(2, 0.0) == 1.0
        assert bspline_eval(2, 0.5) == 0.5
        assert bspline_eval(2, -0.25) == 0.75

    def test_support_endpoints_vanish(self):
        for n in range(2, 7):
            assert bspline_eval(n, n / 2) == 0.0
            assert bspline_eval(n, -n / 2) == 0.0
            assert bspline_eval(n, n / 2 + 0.3) == 0.0

    def test_quadratic_matches_closed_form(self):
        ts = np.linspace(-2.0, 2.0, 401)
        for t in ts:
            assert bspline_eval(3, float(t)) == pytest.approx(
                quadratic_bspline_closed_form(float(t)), abs=1e-12
            )

    def test_recurrence_oracle(self):
        # M_n(t) = ((n/2 + t) M_{n-1}(t + 1/2) + (n/2 - t) M_{n-1}(t - 1/2)) / (n - 1)
        pts = rng.uniform(-3.4, 3.4, size=200)
        pts = pts[np.abs(2 * pts - np.round(2 * pts)) > 1e-6]
        for n in range(2, 7):
            for t in pts:
                expected = (
                    (n / 2 + t) * bspline_eval(n - 1, t + 0.5)
                    + (n / 2 - t) * bspline_eval(n - 1, t - 0.5)
                ) / (n - 1)
                assert bspline_eval(n, float(t)) == pytest.approx(expected, abs=1e-12)

    def test_vector_evaluation_matches_scalar(self):
        ts = rng.uniform(-3.0, 3.0, size=50)
        vec = bspline_eval(3, ts)
        for t, v in zip(ts, vec):
            assert bspline_eval(3, float(t)) == v

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        ts=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=20),
    )
    def test_scalar_bitwise_equals_array_element(self, n, ts):
        # the operators evaluate kernels on arrays, scalar oracles on floats
        vec = bspline_eval(n, np.array(ts))
        assert [bspline_eval(n, t) for t in ts] == vec.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        t=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_even_symmetry_is_exact(self, n, t):
        assert bspline_eval(n, t) == bspline_eval(n, -t)

    def test_partition_of_unity_all_orders(self):
        ts = rng.uniform(-10.0, 10.0, size=1000)
        for n in range(1, 6):
            spline = CentralBSpline(n)
            for t in ts:
                assert brute_lattice_moment(spline, 0, float(t)) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_invalid_order(self):
        # 172 was an OverflowError: 171! does not fit a float
        for n in (0, 172):
            with pytest.raises(ValueError, match="between 1 and 171, got"):
                bspline_eval(n, 0.0)
            with pytest.raises(ValueError, match="between 1 and 171, got"):
                CentralBSpline(n)

    @pytest.mark.parametrize("n", [138, 171])
    def test_overflowing_orders_warn_nothing(self, n):
        # the truncated-power sum overflows near the support ends; it
        # printed RuntimeWarnings
        assert np.isnan(bspline_eval(n, np.array([0.0, 0.5, 0.5 * n - 1.0]))).any()


class TestCentralBSpline:
    def test_support_and_moment_order(self):
        assert CentralBSpline(3).support == (-1.5, 1.5)
        assert CentralBSpline(4).support == (-2.0, 2.0)
        assert CentralBSpline(3).moment_order == 2
        assert CentralBSpline(2).moment_order == 1
        assert CentralBSpline(1).moment_order == 1

    def test_callable_matches_eval(self):
        spline = CentralBSpline(4)
        for t in rng.uniform(-2.5, 2.5, size=20):
            assert spline(float(t)) == bspline_eval(4, float(t))


class TestCombinationKernel:
    def test_standard_coefficients(self, chi3):
        # unit mass and two vanishing moments pin the coefficients exactly
        expected = (47.0 / 8.0, -62.0 / 8.0, 23.0 / 8.0)
        assert chi3.shifts == (2.0, 3.0, 4.0)
        for got, want in zip(chi3.coefficients, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_integer_values_frozen(self, chi3):
        expected = {1: 0.734375, 2: 3.4375, 3: -4.71875, 4: 1.1875, 5: 0.359375}
        for k, want in expected.items():
            assert chi3(float(k)) == pytest.approx(want, abs=1e-12)
        assert sum(chi3(float(k)) for k in range(1, 6)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_support_window(self, chi3):
        assert chi3.support == (0.5, 5.5)
        assert chi3.moment_order == 3
        assert chi3(0.4) == 0.0
        assert chi3(5.6) == 0.0

    def test_moment_conditions_brute_force(self, chi3):
        for u in rng.uniform(0.0, 1.0, size=100):
            assert brute_lattice_moment(chi3, 0, float(u)) == pytest.approx(
                1.0, abs=1e-9
            )
            assert brute_lattice_moment(chi3, 1, float(u)) == pytest.approx(
                0.0, abs=1e-9
            )
            assert brute_lattice_moment(chi3, 2, float(u)) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_order_two_collapses_to_plain_spline(self):
        kernel = construct_combination_kernel(2, (0.0, 1.0))
        assert kernel.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert kernel.coefficients[1] == pytest.approx(0.0, abs=1e-12)

    def test_moment_independence_of_base_point(self, chi3):
        us = np.arange(256) / 256.0
        for eta in range(3):
            vals = discrete_moment(chi3, eta, us)
            assert vals.max() - vals.min() <= 1e-10
        third = discrete_moment(chi3, 3, us)
        assert third.max() - third.min() > 1e-2
        assert third.mean() == pytest.approx(21.75, abs=0.05)

    def test_singular_shift_system(self):
        # 1e300 overflows its moments: was a RuntimeWarning before the error
        for shifts in ((0.0, 1e-13, 1.0), (2.0, 3.0, 1e300)):
            with pytest.raises(SingularSystem):
                construct_combination_kernel(3, shifts)

    def test_overflowing_high_order_system(self):
        # shifts 2..r+1: from r = 118 the powers overflow to inf, and from
        # r = 119 an inf meets a zero B-spline value, which was numpy's
        # LinAlgError "SVD did not converge"
        with pytest.raises(SingularSystem, match="condition inf exceeds"):
            construct_combination_kernel(118, range(2, 120))
        for r in (119, 140):
            with pytest.raises(SingularSystem) as info:
                construct_combination_kernel(r, range(2, r + 2))
            assert str(info.value) == (
                f"moment matrix of order {r} overflows floats; "
                "lower --r or the shifts"
            )

    def test_bad_shift_arguments(self):
        # both constructors share one check; inf and NaN were an
        # OverflowError and "cannot convert float NaN to integer"
        for r, shifts, message in [
            (3, (2.0, 3.0), "combination kernel of order 3 needs 3 shifts, got 2"),
            (3, (4.0, 3.0, 2.0), "shifts must be strictly increasing"),
            (1, (0.0,), "combination order must be >= 2"),
            (172, range(172), "between 1 and 171, got 172"),
            (3, (2.0, 3.0, math.inf), "shifts must be finite"),
            (3, (2.0, 3.0, math.nan), "shifts must be finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                construct_combination_kernel(r, shifts)
            with pytest.raises(ValueError, match=message):
                CombinationKernel(r, shifts, [1.0] + [0.0] * (len(shifts) - 1))


class TestDiscreteMoment:
    def test_matches_brute_force(self, chi3, m3):
        for kernel in (chi3, m3):
            for u in rng.uniform(-1.0, 2.0, size=30):
                for eta in range(4):
                    assert discrete_moment(kernel, eta, float(u)) == pytest.approx(
                        brute_lattice_moment(kernel, eta, float(u)), abs=1e-10
                    )

    def test_quadratic_spline_moments(self, m3):
        us = np.arange(64) / 64.0
        m1 = discrete_moment(m3, 1, us)
        m2 = discrete_moment(m3, 2, us)
        assert np.abs(m1).max() <= 1e-12
        assert np.abs(m2 - 0.25).max() <= 1e-12

    def test_absolute_moment_at_origin(self, m3, chi3):
        assert discrete_moment(m3, 2, 0.0, absolute=True) == pytest.approx(
            0.25, abs=1e-12
        )
        assert discrete_moment(chi3, 0, 0.0, absolute=True) == pytest.approx(
            10.4375, abs=1e-12
        )

    def test_absolute_dominates_algebraic(self, chi3):
        for u in rng.uniform(0.0, 1.0, size=30):
            for eta in range(4):
                alg = discrete_moment(chi3, eta, float(u))
                absm = discrete_moment(chi3, eta, float(u), absolute=True)
                assert absm + 1e-12 >= abs(alg)

    @pytest.mark.parametrize("absolute", [False, True])
    def test_only_terms_inside_the_support_enter(self, chi3, absolute):
        # over this grid the index range reaches the offset 5 + 63/64 outside
        # the support (0.5, 5.5), whose power overflows (was 0 * inf = nan);
        # every term inside stays below 5.5**397 = 1e294
        eta = 397
        us = np.arange(64) / 64.0
        got = discrete_moment(chi3, eta, us, absolute=absolute)
        lo, hi = chi3.support
        for u, value in zip(us, got):
            offsets = [u - k for k in range(math.ceil(u - hi), math.floor(u - lo) + 1)]
            terms = [float(chi3(t)) * t**eta for t in offsets]
            expected = math.fsum(map(abs, terms) if absolute else terms)
            assert math.isfinite(value)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_vector_input(self, m3):
        us = np.array([0.0, 0.25, 0.5])
        vals = discrete_moment(m3, 0, us)
        assert vals.shape == (3,)
        assert np.abs(vals - 1.0).max() <= 1e-12

    def test_infinite_support_rejected(self):
        class Everywhere:
            support = (-math.inf, math.inf)
            moment_order = 1

            def __call__(self, t):
                return np.zeros_like(np.asarray(t, dtype=float))

        with pytest.raises(ValueError):
            discrete_moment(Everywhere(), 0, 0.0)


def per_entry_combination(r, shifts):
    """The solve with each matrix entry from its own B-spline evaluation.

    The per-(shift, eta) formula that construct_combination_kernel used
    before it evaluated each shifted B-spline once for all eta.
    """
    base = CentralBSpline(r)
    matrix = np.empty((r, r))
    with np.errstate(over="ignore", invalid="ignore"):
        for mu, eps in enumerate(shifts):
            for eta in range(r):
                half = 0.5 * r
                ms = np.arange(math.ceil(eps - half), math.floor(eps + half) + 1, dtype=float)
                matrix[eta, mu] = float(np.sum(base(ms - eps) * ms**eta))
        cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > SINGULARITY_THRESHOLD:
        return None
    rhs = np.zeros(r)
    rhs[0] = 1.0
    return tuple(np.linalg.solve(matrix, rhs))


@st.composite
def combination_shifts(draw):
    r = draw(st.integers(min_value=2, max_value=13))
    pattern = draw(st.sampled_from(["consecutive", "centred", "halves", "drawn"]))
    if pattern == "consecutive":
        start = draw(st.integers(-5, 5))
        return r, [float(start + i) for i in range(r)]
    if pattern == "centred":
        return r, [i - (r - 1) / 2 for i in range(r)]
    if pattern == "halves":
        return r, [0.5 * i - 1.0 for i in range(r)]
    steps = draw(st.lists(st.floats(0.1, 2.0), min_size=r, max_size=r))
    return r, list(np.cumsum(steps) - draw(st.floats(0.0, 10.0)))


@settings(max_examples=100, deadline=None)
@given(case=combination_shifts())
def test_one_bspline_evaluation_per_shift_matches_per_entry_solve(case):
    r, shifts = case
    want = per_entry_combination(r, shifts)
    if want is None:
        with pytest.raises(SingularSystem):
            construct_combination_kernel(r, shifts)
        return
    got = construct_combination_kernel(r, shifts).coefficients
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_combination_solve_evaluates_each_shifted_bspline_once(monkeypatch):
    calls = []
    real = kanto.kernel1d.bspline_eval
    monkeypatch.setattr(kanto.kernel1d, "bspline_eval", lambda n, t: calls.append(n) or real(n, t))
    construct_combination_kernel(3, (2.0, 3.0, 4.0))
    assert calls == [3, 3, 3]


def per_shift_combination(kernel, t):
    """The combination kernel summed with one B-spline evaluation per shift."""
    tt = np.asarray(t, dtype=float)
    acc = np.zeros_like(tt)
    for a, eps in zip(kernel.coefficients, kernel.shifts):
        acc += a * bspline_eval(kernel.base_order, tt - eps)
    return float(acc) if np.ndim(t) == 0 else acc


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


@st.composite
def combination_arguments(draw):
    """A combination kernel of base order 2..8 and an argument of rank 0..2.

    Arguments mix signed zeros, each shifted support end and |t| up to 1e6.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    steps = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    shifts = tuple(np.cumsum(steps) - draw(st.floats(-5.0, 10.0)))
    coefficients = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
    kernel = CombinationKernel(n, shifts, coefficients)
    ends = [eps + side * 0.5 * n for eps in kernel.shifts for side in (-1.0, 1.0)]
    values = st.one_of(
        st.sampled_from([0.0, -0.0, *ends]),
        st.floats(-20.0, 20.0),
        st.floats(-1e6, 1e6),
    )
    shape = draw(st.sampled_from(["float", "0-d", "1-d", "2-d"]))
    if shape == "float":
        return kernel, draw(values)
    if shape == "0-d":
        return kernel, np.array(draw(values))
    t = np.array(draw(st.lists(values, max_size=12)))
    if shape == "1-d":
        return kernel, t
    rows = draw(st.sampled_from([d for d in (1, 2, 3, 4) if t.size % d == 0]))
    return kernel, t.reshape(rows, -1)


@settings(max_examples=300, deadline=None)
@given(case=combination_arguments())
@example(case=(construct_combination_kernel(3, (2.0, 3.0, 4.0)), -0.0))
@example(case=(construct_combination_kernel(3, (2.0, 3.0, 4.0)), np.array([0.5, 5.5])))
def test_one_bspline_call_matches_the_per_shift_loop(case):
    kernel, t = case
    got = kernel(t)
    want = per_shift_combination(kernel, t)
    if np.ndim(t) == 0:
        assert type(got) is float
    else:
        assert got.shape == np.shape(t)
    assert bits(got) == bits(want)


def test_combination_kernel_evaluates_its_bsplines_in_one_call(monkeypatch, chi3):
    calls = []
    real = kanto.kernel1d.bspline_eval
    monkeypatch.setattr(
        kanto.kernel1d, "bspline_eval", lambda n, t: calls.append(np.shape(t)) or real(n, t)
    )
    chi3(0.25)
    chi3(np.zeros((4, 5)))
    assert calls == [(3,), (3, 4, 5)]


# the truncated-power sum loses digits as the order grows: order 16
# deviates by 9.0e-9, order 17 by 4.3e-8, past validate_kernel's 1e-8
@pytest.mark.parametrize("n", range(1, 17))
def test_partition_of_unity_within_validation_tolerance(n):
    spline = CentralBSpline(n)
    kernel = TensorKernel2D(spline, spline)
    assert partition_of_unity_check(kernel, 32) <= 1e-8
    validate_kernel(kernel)


@pytest.mark.parametrize("r", range(2, 7))
def test_combination_partition_of_unity_from_one_bspline_call(monkeypatch, r):
    chi = construct_combination_kernel(r, [float(s) for s in range(2, r + 2)])
    calls = []
    real = kanto.kernel1d.bspline_eval
    monkeypatch.setattr(
        kanto.kernel1d, "bspline_eval", lambda n, t: calls.append(n) or real(n, t)
    )
    kernel = TensorKernel2D(chi, chi)
    assert partition_of_unity_check(kernel, 32) <= 1e-8
    validate_kernel(kernel)
    # one kernel call per check, shared by both axes
    assert calls == [r, r]
