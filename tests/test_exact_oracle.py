"""The point-sample series against its exact rational value, for polynomial sources.

``exact_series`` sums G_w f in fractions.  For f of degree at most 2 and
the B-spline kernels M_n x M_n, the floating-point core must land within
C[n] * eps * sum |chi * f| of it, where eps = 2**-53 and the sum runs over
the point's window.

C was calibrated on about 6,000 seeded dyadic points in [0,1]^2 and 600
within 3/w of the origin, at w = 10, 37 and 160, for each source.  The
largest gaps, in these units, were 4.0, 6.0 and 191 for n = 2, 3 and 4
(3.4, 4.1 and 108 on the points below); C doubles each and rounds up.  The order-4
gaps come from the cancellation of ``bspline_eval``'s truncated-power sum
near the edge of the support (a few eps of absolute error at t = 1.9),
weighted by the largest sample of the window where f vanishes at its
centre (x2 and xy near the origin).  Code that evaluates the kernel more
accurately should lower C.
"""

from fractions import Fraction

import numpy as np
import pytest

from exact_series import bspline_exact, gw_exact
from kanto import CentralBSpline, TensorKernel2D, fn_lookup
from kanto.kernel1d import bspline_eval
from kanto.operators import EvalGrid, apply_gw

EPS = Fraction(1, 2**53)
C = {2: 8, 3: 12, 4: 400}


def dyadic_points() -> list[tuple[float, float]]:
    """Seeded points on the 2**-20 grid: across [0,1]^2, near the origin, and corners."""
    rng = np.random.default_rng(13)
    spread = rng.integers(0, 2**20 + 1, size=(24, 2)) / 2**20
    near = rng.integers(0, 2**17 + 1, size=(12, 2)) / 2**20
    corners = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.25), (0.0, 1.0)]
    return [*map(tuple, spread.tolist()), *map(tuple, near.tolist()), *corners]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_bspline_is_a_partition_of_unity(n):
    for t in map(Fraction, [0.0, 0.125, 0.3, 0.5, 0.9999999999999999]):
        assert sum(bspline_exact(n, t - k) for k in range(-n, n + 1)) == 1
        assert bspline_exact(n, -t) == bspline_exact(n, t)
    # the float kernel, a few eps from it at the tested orders
    for t in [0.0, 0.3, 1.0, 1.9240970611572266]:
        assert abs(Fraction(bspline_eval(n, t)) - bspline_exact(n, Fraction(t))) <= 8 * EPS


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", ["x2", "xy", "x_plus_y"])
@pytest.mark.parametrize("w", [10, 37, 160])
def test_gw_within_calibrated_eps_of_the_exact_series(n, name, w):
    spline = CentralBSpline(n)
    f = fn_lookup(name)
    points = dyadic_points()
    got = apply_gw(f, TensorKernel2D(spline, spline), EvalGrid(points=points, w=float(w)))
    for (x, y), value in zip(points, got.tolist()):
        exact, mass = gw_exact(f.fn, n, w, x, y)
        assert abs(Fraction(value) - exact) <= C[n] * EPS * mass, (x, y)
