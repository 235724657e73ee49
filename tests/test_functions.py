"""Catalog functions: closed-form partials against local finite differences."""

import math
import re

import numpy as np
import pytest

from kanto import (
    CATALOG,
    TestFunction as CatalogEntry,
    UnknownFunction,
    UnsupportedOrder,
    fn_lookup,
    sup_norm_estimate,
)
from kanto.functions import _evaluate

POINTS = [(0.3, 0.7), (-0.5, 1.2), (1.1, -0.2), (0.0, 0.0)]

FD_H_LOW = 1e-4
FD_H_HIGH = 5e-3

_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
    3: ((-2.0, -0.5), (-1.0, 1.0), (1.0, -1.0), (2.0, 0.5)),
}


def fd_oracle(fn, p1, p2, x, y, h):
    """Tensor central-difference estimate of a partial, orders up to 3 per axis."""
    acc = 0.0
    for ox, wx in _STENCILS[p1]:
        for oy, wy in _STENCILS[p2]:
            acc += wx * wy * float(fn(x + ox * h, y + oy * h))
    return acc / h ** (p1 + p2)


class TestCatalogValues:
    def test_point_values(self):
        assert float(fn_lookup("x_plus_y")(0.3, 0.7)) == pytest.approx(1.0)
        assert float(fn_lookup("xy")(0.5, -2.0)) == pytest.approx(-1.0)
        assert float(fn_lookup("sin_x_cos_y")(0.3, 0.7)) == pytest.approx(
            math.sin(0.3) * math.cos(0.7), abs=1e-15
        )
        assert float(fn_lookup("gaussian")(1.0, 1.0)) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )
        assert float(fn_lookup("sin_y_minus_x")(0.4, 0.9)) == pytest.approx(
            math.sin(0.5), abs=1e-15
        )
        assert float(fn_lookup("const1")(5.0, -7.0)) == 1.0

    def test_vectorized_evaluation(self):
        xs = np.linspace(-1.0, 2.0, 7)
        f = fn_lookup("x2y2")
        vals = f(xs[:, None], xs[None, :])
        assert vals.shape == (7, 7)
        assert vals[3, 5] == pytest.approx(float(f(xs[3], xs[5])), abs=1e-15)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_scalar_calls_bitwise_equal_array_call(self, name):
        # the operators call entries on arrays, scalar oracles point by point
        f = fn_lookup(name)
        pts = np.random.default_rng(3).uniform(-3.0, 5.0, size=(2000, 2))
        vec = f(pts[:, 0], pts[:, 1])
        assert [float(f(x, y)) for x, y in pts] == vec.tolist()
        assert [float(f(float(x), float(y))) for x, y in pts] == vec.tolist()

    def test_unknown_name(self):
        with pytest.raises(UnknownFunction) as err:
            fn_lookup("does_not_exist")
        assert "valid names" in str(err.value)
        assert "sin_x_cos_y" in str(err.value)

    def test_catalog_is_nonempty_and_named(self):
        assert len(CATALOG) >= 10
        for name, f in CATALOG.items():
            assert f.name == name


class TestClosedFormPartials:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_low_order_partials_match_fd(self, name):
        f = CATALOG[name]
        for p1, p2 in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            part = f.partial(p1, p2)
            assert part is not None
            for x, y in POINTS:
                got = float(part(x, y))
                want = fd_oracle(f.fn, p1, p2, x, y, FD_H_LOW)
                assert got == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_high_order_partials_match_fd(self, name):
        f = CATALOG[name]
        for p1, p2 in [(3, 0), (0, 3), (2, 1), (1, 2), (2, 2)]:
            part = f.partial(p1, p2)
            assert part is not None
            for x, y in POINTS:
                got = float(part(x, y))
                want = fd_oracle(f.fn, p1, p2, x, y, FD_H_HIGH)
                assert got == pytest.approx(want, abs=1e-3)

    def test_partial_outside_catalog_orders(self):
        message = "function 'gaussian' has no closed-form partial of order (4, 0)"
        with pytest.raises(UnsupportedOrder, match=re.escape(message)):
            fn_lookup("gaussian").partial(4, 0)

    def test_zero_partials_broadcast(self):
        zero = fn_lookup("const1").partial(1, 0)
        out = zero(np.zeros((3, 4)), np.zeros((3, 4)))
        assert out.shape == (3, 4)
        assert np.all(out == 0.0)


class TestEvaluate:
    """``_evaluate``: any result that broadcasts becomes a fresh float table."""

    XS = np.linspace(-1.0, 1.0, 3)[:, None]
    YS = np.linspace(0.0, 2.0, 4)[None, :]

    @staticmethod
    def check_fresh(out, *inputs):
        assert out.dtype == np.float64
        assert out.flags.writeable and out.flags.owndata
        assert not any(np.shares_memory(out, a) for a in inputs)

    def test_scalar_result(self):
        # an int, too, becomes float64
        out = _evaluate(lambda x, y: 1, self.XS, self.YS)
        assert out.shape == (3, 4)
        assert np.all(out == 1.0)
        self.check_fresh(out, self.XS, self.YS)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_result_ignoring_one_argument(self, axis):
        out = _evaluate(lambda x, y: (x, y)[axis], self.XS, self.YS)
        assert out.shape == (3, 4)
        want = np.broadcast_arrays(self.XS, self.YS)[axis]
        assert np.array_equal(out, want)
        self.check_fresh(out, self.XS, self.YS)

    def test_full_shape_result(self):
        full = self.XS * self.YS
        out = _evaluate(lambda x, y: full, self.XS, self.YS)
        assert np.array_equal(out, full)
        self.check_fresh(out, self.XS, self.YS, full)


class TestSupNormEstimate:
    def test_polynomial_sups(self):
        f = fn_lookup("x2")
        assert sup_norm_estimate(f, (0, 0)) == pytest.approx(4.0, abs=1e-9)
        assert sup_norm_estimate(f, (1, 0)) == pytest.approx(4.0, abs=1e-9)
        assert sup_norm_estimate(f, (2, 0)) == pytest.approx(2.0, abs=1e-12)
        assert sup_norm_estimate(f, (0, 1)) == 0.0

    def test_trig_sup_with_refinement(self):
        f = fn_lookup("sin_x_cos_y")
        # the peak at (pi/2, 0) is off-grid; the refinement pass recovers it
        assert sup_norm_estimate(f, (0, 0)) == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_second_derivative(self):
        f = fn_lookup("gaussian")
        assert sup_norm_estimate(f, (2, 0)) == pytest.approx(2.0, abs=1e-3)

    def test_custom_box(self):
        f = fn_lookup("xy")
        assert sup_norm_estimate(f, (0, 0), box=(0.0, 0.0, 2.0, 3.0)) == pytest.approx(
            6.0, abs=1e-12
        )

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            sup_norm_estimate(fn_lookup("gaussian"), (4, 0))
        bare = CatalogEntry(name="bare", fn=lambda x, y: x + y, partials={})
        with pytest.raises(UnsupportedOrder):
            sup_norm_estimate(bare, (2, 2))

    @pytest.mark.parametrize("name, index", [("gaussian", (2, 0)), ("x2y2", (1, 0))])
    def test_not_finite_on_the_box(self, name, index):
        # was nan (gaussian) or inf (x2y2), after numpy RuntimeWarnings
        box = (0.0, 0.0, 1e200, 1e200)
        message = re.escape(f"order {index} partial of {name} is not finite")
        with pytest.raises(ValueError, match=message):
            sup_norm_estimate(fn_lookup(name), index, box)

    def test_default_box_from_function(self):
        f = fn_lookup("x")
        assert sup_norm_estimate(f, (0, 0)) == pytest.approx(2.0, abs=1e-12)
