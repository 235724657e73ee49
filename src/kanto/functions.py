"""Catalog of bivariate test functions with closed-form partial derivatives.

Every entry evaluates on scalars or numpy arrays alike and carries all
partial derivatives up to total order 3 plus the mixed orders (2,1), (1,2)
and (2,2).  Boxes are (x0, y0, x1, y1) tuples; the shared default box keeps
a usable interior once the lattice admissibility margin is removed at
moderate sampling rates.

An entry may return any result that broadcasts against its inputs;
``_evaluate`` makes it a float array.  ``_const`` keeps its own broadcast:
its NaN where ``x + y`` overflows makes the bounds reject such a box.

The target functions write squares as products: ``x**2`` on a scalar goes
through libm pow, which is not always correctly rounded, so a scalar call
could differ in the last bit from the same point inside an array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "CATALOG",
    "DEFAULT_BOX",
    "TestFunction",
    "UnknownFunction",
    "UnsupportedOrder",
    "fn_lookup",
    "sup_norm_estimate",
]

DEFAULT_BOX = (-1.0, -1.0, 2.0, 2.0)

# every partial a catalog entry has in closed form
CATALOG_ORDERS = [
    (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (2, 2),
]


def _evaluate(f: Callable, x, y) -> np.ndarray:
    """f(x, y) as a new float array of the broadcast shape of x and y."""
    out = np.empty(np.broadcast(x, y).shape)
    out[...] = f(x, y)
    return out


class UnknownFunction(ValueError):
    """Requested name is not in the catalog; the message lists valid names."""


class UnsupportedOrder(ValueError):
    """A partial derivative has no closed form (or a profile no sup norm for it)."""


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A named test function together with its analytic partial derivatives."""

    name: str
    fn: Callable
    partials: Mapping[tuple[int, int], Callable] = field(repr=False)
    default_box: tuple[float, float, float, float] = DEFAULT_BOX

    def __call__(self, x, y):
        return self.fn(x, y)

    def partial(self, p1: int, p2: int) -> Callable:
        """Closed-form partial d^(p1+p2) f / dx^p1 dy^p2; UnsupportedOrder if absent."""
        try:
            return self.partials[(p1, p2)]
        except KeyError:
            raise UnsupportedOrder(
                f"function {self.name!r} has no closed-form partial of order "
                f"({p1}, {p2})"
            ) from None


def _const(c: float) -> Callable:
    def g(x, y):
        return c + 0.0 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float))

    return g


_ZERO = _const(0.0)


def _entry(name, fn, nonzero_partials, box=DEFAULT_BOX):
    partials = {idx: _ZERO for idx in CATALOG_ORDERS}
    partials.update(nonzero_partials)
    return TestFunction(name=name, fn=fn, partials=partials, default_box=box)


def _gauss(x, y):
    return np.exp(-np.asarray(x, dtype=float) ** 2 - np.asarray(y, dtype=float) ** 2)


CATALOG: dict[str, TestFunction] = {
    f.name: f
    for f in [
        _entry("const1", _const(1.0), {}),
        _entry("x", lambda x, y: x, {(1, 0): _const(1.0)}),
        _entry("y", lambda x, y: y, {(0, 1): _const(1.0)}),
        _entry(
            "x_plus_y",
            lambda x, y: x + y,
            {(1, 0): _const(1.0), (0, 1): _const(1.0)},
        ),
        _entry(
            "y_minus_x",
            lambda x, y: y - x,
            {(1, 0): _const(-1.0), (0, 1): _const(1.0)},
        ),
        _entry(
            "x2",
            lambda x, y: x * x,
            {(1, 0): lambda x, y: 2.0 * x,
             (2, 0): _const(2.0)},
        ),
        _entry(
            "xy",
            lambda x, y: x * y,
            {(1, 0): lambda x, y: y,
             (0, 1): lambda x, y: x,
             (1, 1): _const(1.0)},
        ),
        _entry(
            "y2",
            lambda x, y: y * y,
            {(0, 1): lambda x, y: 2.0 * y,
             (0, 2): _const(2.0)},
        ),
        _entry(
            "x2y2",
            lambda x, y: (x * x) * (y * y),
            {(1, 0): lambda x, y: 2.0 * x * y**2,
             (0, 1): lambda x, y: 2.0 * x**2 * y,
             (2, 0): lambda x, y: 2.0 * y**2,
             (1, 1): lambda x, y: 4.0 * x * y,
             (0, 2): lambda x, y: 2.0 * x**2,
             (2, 1): lambda x, y: 4.0 * y,
             (1, 2): lambda x, y: 4.0 * x,
             (2, 2): _const(4.0)},
        ),
        _entry(
            "sin_x_cos_y",
            lambda x, y: np.sin(x) * np.cos(y),
            {(1, 0): lambda x, y: np.cos(x) * np.cos(y),
             (0, 1): lambda x, y: -np.sin(x) * np.sin(y),
             (2, 0): lambda x, y: -np.sin(x) * np.cos(y),
             (1, 1): lambda x, y: -np.cos(x) * np.sin(y),
             (0, 2): lambda x, y: -np.sin(x) * np.cos(y),
             (3, 0): lambda x, y: -np.cos(x) * np.cos(y),
             (2, 1): lambda x, y: np.sin(x) * np.sin(y),
             (1, 2): lambda x, y: -np.cos(x) * np.cos(y),
             (0, 3): lambda x, y: np.sin(x) * np.sin(y),
             (2, 2): lambda x, y: np.sin(x) * np.cos(y)},
        ),
        _entry(
            "sin_y_minus_x",
            lambda x, y: np.sin(y - x),
            {(1, 0): lambda x, y: -np.cos(y - x),
             (0, 1): lambda x, y: np.cos(y - x),
             (2, 0): lambda x, y: -np.sin(y - x),
             (1, 1): lambda x, y: np.sin(y - x),
             (0, 2): lambda x, y: -np.sin(y - x),
             (3, 0): lambda x, y: np.cos(y - x),
             (2, 1): lambda x, y: -np.cos(y - x),
             (1, 2): lambda x, y: np.cos(y - x),
             (0, 3): lambda x, y: -np.cos(y - x),
             (2, 2): lambda x, y: np.sin(y - x)},
        ),
        _entry(
            "gaussian",
            _gauss,
            {(1, 0): lambda x, y: -2.0 * x * _gauss(x, y),
             (0, 1): lambda x, y: -2.0 * y * _gauss(x, y),
             (2, 0): lambda x, y: (4.0 * x**2 - 2.0) * _gauss(x, y),
             (1, 1): lambda x, y: 4.0 * x * y * _gauss(x, y),
             (0, 2): lambda x, y: (4.0 * y**2 - 2.0) * _gauss(x, y),
             (3, 0): lambda x, y: (12.0 * x - 8.0 * x**3) * _gauss(x, y),
             (2, 1): lambda x, y: (4.0 - 8.0 * x**2) * y * _gauss(x, y),
             (1, 2): lambda x, y: (4.0 - 8.0 * y**2) * x * _gauss(x, y),
             (0, 3): lambda x, y: (12.0 * y - 8.0 * y**3) * _gauss(x, y),
             (2, 2): lambda x, y: (4.0 * x**2 - 2.0) * (4.0 * y**2 - 2.0) * _gauss(x, y)},
        ),
        _entry(
            "sin_x_plus_cos_y",
            lambda x, y: np.sin(x) + np.cos(y),
            {(1, 0): lambda x, y: np.cos(x),
             (0, 1): lambda x, y: -np.sin(y),
             (2, 0): lambda x, y: -np.sin(x),
             (0, 2): lambda x, y: -np.cos(y),
             (3, 0): lambda x, y: -np.cos(x),
             (0, 3): lambda x, y: np.sin(y)},
        ),
    ]
}


def fn_lookup(name: str) -> TestFunction:
    """Fetch a catalog entry by name; unknown names raise with the valid list."""
    try:
        return CATALOG[name]
    except KeyError:
        valid = ", ".join(sorted(CATALOG))
        raise UnknownFunction(f"unknown function {name!r}; valid names: {valid}") from None


def sup_norm_estimate(
    f: TestFunction,
    multi_index: tuple[int, int],
    box: tuple[float, float, float, float] | None = None,
    grid_n: int = 101,
) -> float:
    """Estimate sup |partial derivative of f| over a box.

    Grid maximum over ``grid_n x grid_n`` points, refined once by a finer
    scan of the cell around the argmax.  This is a lower estimate of the
    true sup; on the catalog functions the refinement leaves it within
    grid-resolution accuracy.  Order (0, 0) is f itself; any other order
    without a closed form in ``f.partials`` is :class:`UnsupportedOrder`.
    A partial that is not finite on the scanned points (a box where it
    overflows, say) is a ValueError.
    """
    if box is None:
        box = f.default_box
    x0, y0, x1, y1 = box
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    part = f.fn if tuple(multi_index) == (0, 0) else f.partial(*multi_index)
    with np.errstate(all="ignore"):
        xs = np.linspace(x0, x1, grid_n)
        ys = np.linspace(y0, y1, grid_n)
        vals = np.abs(_evaluate(part, xs[:, None], ys[None, :]))
        i, l = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = float(vals[i, l])
        hx = (x1 - x0) / (grid_n - 1)
        hy = (y1 - y0) / (grid_n - 1)
        fx = np.linspace(max(x0, xs[i] - hx), min(x1, xs[i] + hx), 21)
        fy = np.linspace(max(y0, ys[l] - hy), min(y1, ys[l] + hy), 21)
        fine = float(np.abs(part(fx[:, None], fy[None, :])).max())
    if not (math.isfinite(best) and math.isfinite(fine)):
        raise ValueError(
            f"sup norm of the order {multi_index} partial of {f.name} is not "
            f"finite on box {box}"
        )
    return max(best, fine)
