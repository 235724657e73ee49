"""Error-bound evaluators, smoothness estimators, and convergence studies.

The bound constants are combinations of kernel lattice moments divided by
powers of the lattice rate w.  Constants that enter as upper bounds use
absolute (unsigned) moments; the three second-moment constants are exact
identities of the average-based operator and therefore use signed moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .csvio import write_csv
from .functions import (
    CATALOG_ORDERS,
    TestFunction,
    UnsupportedOrder,
    _evaluate,
    sup_norm_estimate,
)
from .kernel2d import MOMENT_GRID, MomentTable, TensorKernel2D
from .operators import EVAL_GRID, OPERATORS, QUAD_ORDER, EvalGrid, interior_margin

__all__ = [
    "BoundReport",
    "ConvergenceTable",
    "FunctionProfile",
    "KFunctionalConstants",
    "build_bound_report",
    "convergence_study",
    "gbs_differential_bound",
    "gbs_modulus_bound",
    "gw_error_bound",
    "inverse_result_probe",
    "kfunctional_constants",
    "mixed_modulus_estimate",
    "polynomial_reproduction_check",
    "sw_remainder_bound",
]


@dataclass(frozen=True)
class FunctionProfile:
    """Sup norms of partial derivatives of one function over one box."""

    sup_norms: dict = field(repr=False)
    box: tuple[float, float, float, float]

    @classmethod
    def from_function(
        cls, f: TestFunction, box: tuple[float, float, float, float] | None = None
    ) -> "FunctionProfile":
        if box is None:
            box = f.default_box
        norms = {}
        for idx in CATALOG_ORDERS:
            try:
                norms[idx] = sup_norm_estimate(f, idx, box)
            except UnsupportedOrder:
                continue
        return cls(sup_norms=norms, box=box)

    def entry(self, index: tuple[int, int]) -> float:
        try:
            return self.sup_norms[index]
        except KeyError:
            raise UnsupportedOrder(f"profile lacks sup norm for order {index}") from None

    @property
    def second_order_max(self) -> float:
        """Largest sup norm among the three pure/mixed second partials."""
        return max(self.entry((2, 0)), self.entry((1, 1)), self.entry((0, 2)))


def _derivative_factor(profile: FunctionProfile, r: int) -> float:
    """A_r + B_r + sum_i C(r, i) A_(r-i) B_i over the pure-derivative sup norms.

    Finite sup norms can still have a product that overflows; that is a
    ValueError naming the order and the box.
    """
    deriv = profile.entry((r, 0)) + profile.entry((0, r))
    for i in range(1, r):
        deriv += math.comb(r, i) * profile.entry((r - i, 0)) * profile.entry((0, i))
    _require_finite(deriv, f"order {r} derivative factor", profile, "a smaller box")
    return deriv


def _require_finite(value: float, name: str, profile: FunctionProfile, fix: str) -> None:
    if not math.isfinite(value):
        raise ValueError(
            f"{name} is not finite on box {profile.box}; choose {fix}"
        )


def gw_error_bound(
    profile: FunctionProfile, moments: MomentTable, r: int, w: float
) -> float:
    """Sup-error bound for the sample-based series on a C^r function.

    ``moments`` must hold order r; its order-r moment plateau and largest
    unsigned order-r moment scale the derivative factor, the binomially
    weighted sum of products of pure-derivative sup norms.  The bound
    decays like w^-r.
    """
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    deriv = _derivative_factor(profile, r)
    c = moments.rth_moment_constant(r)
    bound = (c / math.factorial(r)) * (moments.max_by_order[r] / w**r) * deriv
    name = f"order {r} rate bound at lattice rate {w!r}"
    _require_finite(bound, name, profile, "a smaller box or a larger rate")
    return bound


def sw_remainder_bound(
    profile: FunctionProfile, moments: MomentTable, w: float
) -> float:
    """Bound on the second-order residual of the average-based series.

    (7 M / (12 w^2)) times the unsigned kernel mass, read from ``moments``
    (order 0), with M the largest second-derivative sup norm.
    """
    m = profile.second_order_max
    return (7.0 * m / (12.0 * w * w)) * moments.absolute_sup[(0, 0)]


def _modulus_constants(mom: dict, w: float) -> tuple[float, float, float]:
    """The 1/w, 1/w and 1/w^2 constants of the modulus bound.

    The modulus and differential bounds and ``build_bound_report`` call this
    before any other use of w, so it rejects a rate whose powers up to w^4,
    the highest one a constant divides by, overflow or underflow to 0.  When
    w^4 is finite and nonzero, so are the lower powers.
    """
    try:
        w4 = w**4
    except OverflowError:
        w4 = math.inf
    if not (math.isfinite(w4) and w4 != 0.0):
        raise ValueError(
            f"lattice rate w={w!r} is out of range for the bound constants: "
            "w**4 must be finite and nonzero"
        )
    lin_x = (mom[(0, 0)] + 2.0 * mom[(1, 0)]) / (2.0 * w)
    lin_y = (mom[(0, 0)] + 2.0 * mom[(0, 1)]) / (2.0 * w)
    bilin = (
        mom[(0, 0)] + 2.0 * mom[(1, 0)] + 2.0 * mom[(0, 1)] + 4.0 * mom[(1, 1)]
    ) / (4.0 * w * w)
    return lin_x, lin_y, bilin


def gbs_modulus_bound(
    moments: MomentTable, w: float, delta1: float, delta2: float, omega: float
) -> float:
    """Boolean-sum error bound driven by the mixed modulus of smoothness.

    ``omega`` is (an upper estimate of) the mixed modulus of the target at
    (delta1, delta2); the three kernel constants, read from ``moments``
    (order 2), scale like 1/w, 1/w and 1/w^2.
    """
    if delta1 <= 0 or delta2 <= 0:
        raise ValueError("deltas must be positive")
    lin_x, lin_y, bilin = _modulus_constants(moments.absolute_sup, w)
    return (1.0 + lin_x / delta1 + lin_y / delta2 + bilin / (delta1 * delta2)) * omega


def _differential_constants(mom: dict, w: float) -> tuple[float, float, float]:
    """The 1/w^3, 1/w^3 and 1/w^4 constants of the differential bound."""
    cub_x = (
        mom[(0, 0)]
        + 3.0 * mom[(2, 0)]
        + 3.0 * mom[(1, 0)]
        + 2.0 * mom[(0, 1)]
        + 6.0 * mom[(2, 1)]
        + 6.0 * mom[(1, 1)]
    ) / (6.0 * w**3)
    cub_y = (
        mom[(0, 0)]
        + 3.0 * mom[(0, 2)]
        + 3.0 * mom[(0, 1)]
        + 2.0 * mom[(1, 0)]
        + 6.0 * mom[(1, 2)]
        + 6.0 * mom[(1, 1)]
    ) / (6.0 * w**3)
    quart = (
        mom[(0, 0)]
        + 3.0 * mom[(2, 0)]
        + 3.0 * mom[(0, 2)]
        + 3.0 * mom[(0, 1)]
        + 3.0 * mom[(1, 0)]
        + 9.0 * mom[(2, 2)]
        + 9.0 * mom[(1, 2)]
        + 9.0 * mom[(2, 1)]
        + 9.0 * mom[(1, 1)]
    ) / (9.0 * w**4)
    return cub_x, cub_y, quart


def gbs_differential_bound(
    moments: MomentTable,
    w: float,
    delta1: float,
    delta2: float,
    db_sup: float,
    omega_db: float,
) -> float:
    """Boolean-sum error bound for targets with a bounded mixed differential.

    ``db_sup`` bounds the mixed differential itself, ``omega_db`` its mixed
    modulus at (delta1, delta2).  The four kernel constants, read from
    ``moments`` (order 4), scale like 1/w^2, 1/w^3, 1/w^3 and 1/w^4.
    """
    if delta1 <= 0 or delta2 <= 0:
        raise ValueError("deltas must be positive")
    mom = moments.absolute_sup
    _, _, bilin = _modulus_constants(mom, w)
    cub_x, cub_y, quart = _differential_constants(mom, w)
    return bilin * (3.0 * db_sup + omega_db) + (
        cub_x / delta1 + cub_y / delta2 + quart / (delta1 * delta2)
    ) * omega_db


class KFunctionalConstants(NamedTuple):
    """Exact values of the average-based series applied to squared offsets."""

    sq_x: float
    sq_y: float
    sq_xy: float


def kfunctional_constants(moments: MomentTable, w: float) -> KFunctionalConstants:
    """Identities for the series applied to (u-x)^2, (v-y)^2 and their product.

    These are exact evaluations, not upper bounds, so they combine the
    signed moment means of ``moments`` (order 4): odd-order moments enter
    with a minus sign.  For kernels whose moments of order 1..2 vanish they
    reduce to 1/(3w^2), 1/(3w^2) and 1/(9w^4).
    """
    m = moments.algebraic_mean
    sq_x = (m[(0, 0)] + 3.0 * m[(2, 0)] - 3.0 * m[(1, 0)]) / (3.0 * w * w)
    sq_y = (m[(0, 0)] + 3.0 * m[(0, 2)] - 3.0 * m[(0, 1)]) / (3.0 * w * w)
    sq_xy = (
        m[(0, 0)]
        + 3.0 * m[(2, 0)]
        + 3.0 * m[(0, 2)]
        - 3.0 * m[(0, 1)]
        - 3.0 * m[(1, 0)]
        + 9.0 * m[(2, 2)]
        - 9.0 * m[(1, 2)]
        - 9.0 * m[(2, 1)]
        + 9.0 * m[(1, 1)]
    ) / (9.0 * w**4)
    return KFunctionalConstants(sq_x=sq_x, sq_y=sq_y, sq_xy=sq_xy)


# points per axis of the default modulus grid
MODULUS_GRID = 33

# A mixed difference is rounding noise, and counts as 0, when it is at most
# this times the sum of the magnitudes of its four f values: about one eps
# for the rounding of the f values, half an eps for each of the three
# subtractions, and a margin.
MIXED_ROUNDING = 4.0 * np.finfo(float).eps

# Sums of four f values at most this large in magnitude stay finite, so no
# mixed difference or rounding level overflows.
VALUE_LIMIT = np.finfo(float).max / 4.0


def _mixed_max(
    f11: np.ndarray, f10: np.ndarray, f01: np.ndarray, f00: np.ndarray
) -> float:
    """max |f11 - f10 - f01 + f00| over the corner tables.

    Taken as a difference of two y-differences, which is exactly 0 whenever
    f depends on one variable only.  A difference within the rounding error
    of its terms counts as 0, so additively separable f give exactly 0.
    """
    mixed = np.abs((f11 - f10) - (f01 - f00))
    noise = MIXED_ROUNDING * (np.abs(f11) + np.abs(f10) + np.abs(f01) + np.abs(f00))
    return float(np.where(mixed > noise, mixed, 0.0).max())


def _f_table(f: Callable, u: np.ndarray, v: np.ndarray, box: tuple) -> np.ndarray:
    """f on the points (u[i], v[l]), as a float table.

    A value that is not finite, or above ``VALUE_LIMIT`` in magnitude, is a
    ValueError naming the point and the box.
    """
    vals = _evaluate(f, u[:, None], v[None, :])
    bad = np.argwhere(~(np.abs(vals) <= VALUE_LIMIT))
    if bad.size:
        i, l = bad[0]
        fault = "not finite"
        if np.isfinite(vals[i, l]):
            fault = f"above {VALUE_LIMIT:.3g} in magnitude"
        raise ValueError(
            f"function is {fault} at ({u[i]:.6g}, {v[l]:.6g}) in box {box}"
        )
    return vals


def _grid_pairs_estimate(
    f: Callable, delta1: float, delta2: float, box: tuple, grid_n: int
) -> float:
    # all pairs of points of one grid whose offsets fit in (delta1, delta2)
    x0, y0, x1, y1 = box
    xs = np.linspace(x0, x1, grid_n)
    ys = np.linspace(y0, y1, grid_n)
    vals = _f_table(f, xs, ys, box)
    hx = (x1 - x0) / (grid_n - 1)
    hy = (y1 - y0) / (grid_n - 1)
    # delta / h overflows to inf when h is subnormal
    m1 = int(math.floor(min(grid_n - 1, delta1 / hx))) if hx > 0 else 0
    m2 = int(math.floor(min(grid_n - 1, delta2 / hy))) if hy > 0 else 0
    best = 0.0
    for sx in range(1, m1 + 1):
        for sy in range(1, m2 + 1):
            best = max(
                best,
                _mixed_max(
                    vals[sx:, sy:], vals[sx:, :-sy], vals[:-sx, sy:], vals[:-sx, :-sy]
                ),
            )
    return best


def _offset_pairs_estimate(
    f: Callable, delta1: float, delta2: float, box: tuple, grid_n: int
) -> float:
    # pairs with offsets (s*d1/2, t*d2/2), s, t in {1, 2}, from every point of
    # a grid placed so that both corners stay in the box
    x0, y0, x1, y1 = box
    d1 = min(delta1, x1 - x0)
    d2 = min(delta2, y1 - y0)
    xs = np.linspace(x0, x1 - d1, grid_n)
    ys = np.linspace(y0, y1 - d2, grid_n)
    # rows and columns: base grid, then shifted by half, then by the full delta
    u = np.concatenate([xs, xs + 0.5 * d1, xs + d1])
    v = np.concatenate([ys, ys + 0.5 * d2, ys + d2])
    vals = _f_table(f, u, v, box).reshape(3, grid_n, 3, grid_n)
    best = 0.0
    for sx in (1, 2):
        for sy in (1, 2):
            best = max(
                best,
                _mixed_max(
                    vals[sx, :, sy], vals[sx, :, 0], vals[0, :, sy], vals[0, :, 0]
                ),
            )
    return best


def mixed_modulus_estimate(
    f: Callable,
    delta1: float,
    delta2: float,
    box: tuple[float, float, float, float],
    grid_n: int | None = None,
) -> float:
    """Grid estimate (lower bound) of the mixed modulus of smoothness.

    Maximizes |f(x,y) - f(x,y0) - f(x0,y) + f(x0,y0)| over pairs of points
    of the box whose coordinate offsets are at most (delta1, delta2).  With
    ``grid_n`` the pairs are those of one fixed grid_n x grid_n grid, which
    makes the estimate exactly monotone in each delta.  Without it the
    pairs of a ``MODULUS_GRID`` grid are joined by the pairs with offsets
    (delta1/2 or delta1, delta2/2 or delta2) from every point of such a
    grid, so the estimate does not collapse to 0 for deltas below the grid
    spacing.  Either way the cost does not grow as the deltas shrink.  An
    f value that is not finite, or too large for the sums of four of them to
    stay finite, is a ValueError naming the box.
    """
    if delta1 < 0 or delta2 < 0:
        raise ValueError("deltas must be nonnegative")
    with np.errstate(all="ignore"):
        if grid_n is not None:
            if grid_n < 2:
                raise ValueError("grid_n must be >= 2")
            return _grid_pairs_estimate(f, delta1, delta2, box, grid_n)
        return max(
            _grid_pairs_estimate(f, delta1, delta2, box, MODULUS_GRID),
            _offset_pairs_estimate(f, delta1, delta2, box, MODULUS_GRID),
        )


@dataclass(frozen=True)
class ConvergenceTable:
    """Sup errors per lattice rate plus a log-log least-squares slope."""

    rows: tuple
    fitted_slope: float
    fit_residual: float

    @property
    def w_times_error(self) -> tuple:
        return tuple(w * e for w, e in self.rows)

    @property
    def w_error_decreasing(self) -> bool:
        """Whether w * sup_error strictly decreases along the rate list."""
        we = self.w_times_error
        return all(b < a for a, b in zip(we, we[1:]))

    def to_csv(self, path=None) -> None:
        """Write w,sup_error rows and a final slope row to path, or to stdout."""
        write_csv(
            ("w", "sup_error"),
            (
                [w for w, _ in self.rows] + ["slope"],
                [e for _, e in self.rows] + [self.fitted_slope],
            ),
            path,
        )


# Points of one convergence-study pass.  A pass pays the operator's per-call
# cost once for all its rates, but past about this many points its per-point
# arrays leave the cache: on a 2-core Xeon VM, passes of 2**16 points took
# 1.4-1.7 times as long as one rate per call on 60 x 60 and 80 x 80 grids at
# five rates.
PASS_POINTS = 2**12


def _study_pass(op: Callable, f: Callable, kernel, grid: EvalGrid, rates, quad_order):
    """op at the grid's points at each rate, rate-major, from one call.

    Each point gets the operations of a call at its own rate.  A call that
    raises ValueError (every error the operators raise) is made again one
    rate at a time, so that a study stops where a call per rate stops: at
    the first failing rate, with its message.
    """
    try:
        return op(f, kernel, grid.at_rates(rates), quad_order)
    except ValueError:
        if len(rates) == 1:
            raise
    return np.concatenate([op(f, kernel, grid.at_rates([w]), quad_order) for w in rates])


def convergence_study(
    f: Callable,
    kernel: TensorKernel2D,
    operator: str,
    w_list: Sequence[float],
    box: tuple[float, float, float, float],
    grid_n: int = EVAL_GRID,
    quad_order: int = QUAD_ORDER,
) -> ConvergenceTable:
    """Sup error against the target on a fixed interior grid, per lattice rate.

    The grid is shrunk by the admissibility margin of the smallest rate so
    the same points are compared across the whole rate list; the slope is
    the least-squares fit of log error against log rate.  The operator is
    called once per pass (see :func:`_study_pass`): as many whole rates, in
    list order, as the grid fits into ``PASS_POINTS`` points, and at least
    one.
    """
    if len(w_list) < 2:
        raise ValueError("need at least two rates")
    if any(b <= a for a, b in zip(w_list, w_list[1:])):
        raise ValueError("w_list must be strictly increasing")
    try:
        op = OPERATORS[operator]
    except KeyError:
        raise ValueError(f"unknown operator {operator!r}; use gw, sw or gbs") from None
    margin = interior_margin(kernel, min(w_list))
    # w moves no point: one grid, and its axes, serve every rate
    grid = EvalGrid.regular(box, grid_n, w_list[0], margin)
    size = max(1, PASS_POINTS // len(grid.points))
    rows, exact = [], None
    for start in range(0, len(w_list), size):
        rates = w_list[start : start + size]
        approx = _study_pass(op, f, kernel, grid, rates, quad_order)
        exact = grid.sample(f) if exact is None else exact
        errors = np.abs(approx.reshape(len(rates), -1) - exact).max(axis=1)
        rows += zip(map(float, rates), map(float, errors))
    logw = np.log([w for w, _ in rows])
    loge = np.log([max(e, 1e-300) for _, e in rows])
    coeffs = np.polyfit(logw, loge, 1)
    pred = np.polyval(coeffs, logw)
    residual = float(np.sqrt(np.mean((pred - loge) ** 2)))
    return ConvergenceTable(
        rows=tuple(rows), fitted_slope=float(coeffs[0]), fit_residual=residual
    )


def inverse_result_probe(
    g: Callable,
    kernel: TensorKernel2D,
    w_list: Sequence[float],
    box: tuple[float, float, float, float],
    grid_n: int = EVAL_GRID,
) -> ConvergenceTable:
    """Average-based convergence table for the ridge function f(x,y) = g(y-x).

    Functions of this form are exactly the ones whose average-based error
    decays faster than 1/w; consult ``w_error_decreasing`` on the result to
    read off the verdict.
    """

    def f(x, y):
        return g(y - x)

    return convergence_study(f, kernel, "sw", w_list, box, grid_n)


def _monomials_upto(degree: int):
    return [
        (i, j)
        for total in range(degree + 1)
        for i in range(total, -1, -1)
        for j in [total - i]
    ]


def polynomial_reproduction_check(
    kernel: TensorKernel2D,
    r: int,
    w: float,
    box: tuple[float, float, float, float],
    grid_n: int = 5,
    operator: str = "gw",
) -> float:
    """Degree-preservation check on all monomials of total degree < r.

    For the sample-based operator, returns the largest deviation from exact
    reproduction.  For the average-based operator, which shifts polynomials
    instead of fixing them, returns the largest residual of an
    overdetermined same-degree polynomial fit to the operator output.
    """
    if operator not in ("gw", "sw"):
        raise ValueError(f"unknown operator {operator!r}; use gw or sw")
    margin = interior_margin(kernel, w)
    grid = EvalGrid.regular(box, grid_n, w, margin)
    monos = [lambda x, y, i=i, j=j: x**i * y**j for i, j in _monomials_upto(r - 1)]
    design = np.column_stack([grid.sample(p) for p in monos])
    worst = 0.0
    for p in monos:
        approx = OPERATORS[operator](p, kernel, grid, QUAD_ORDER)
        if operator == "gw":
            residual = approx - grid.sample(p)
        else:
            fit, *_ = np.linalg.lstsq(design, approx, rcond=None)
            residual = design @ fit - approx
        worst = max(worst, float(np.abs(residual).max()))
    return worst


@dataclass(frozen=True)
class BoundReport:
    """Named bound constants for one kernel, rate, and function profile."""

    constants: dict
    inputs: dict

    def to_csv(self, path=None) -> None:
        """Write name,value rows (inputs prefixed input_) to path, or to stdout."""
        names = [*self.constants, *(f"input_{name}" for name in self.inputs)]
        values = [*self.constants.values(), *self.inputs.values()]
        write_csv(("name", "value"), (names, values), path)


def build_bound_report(
    kernel: TensorKernel2D,
    w: float,
    profile: FunctionProfile,
    grid_n: int = MOMENT_GRID,
) -> BoundReport:
    """Every bound constant at one rate for one profile, from one moment table."""
    r = kernel.moment_order
    table = MomentTable.compute(kernel, eta_max=max(r, 4), grid_n=grid_n)
    mom = table.absolute_sup
    lin_x, lin_y, bilin = _modulus_constants(mom, w)
    cub_x, cub_y, quart = _differential_constants(mom, w)
    kf = kfunctional_constants(table, w)
    constants = {
        "rate_deriv_factor": _derivative_factor(profile, r),
        "rate_bound": gw_error_bound(profile, table, r, w),
        "remainder": sw_remainder_bound(profile, table, w),
        "mod_lin_x": lin_x,
        "mod_lin_y": lin_y,
        "mod_bilin": bilin,
        "diff_bilin": bilin,
        "diff_x": cub_x,
        "diff_y": cub_y,
        "diff_bilin2": quart,
        "kfun_x": kf.sq_x,
        "kfun_y": kf.sq_y,
        "kfun_xy": kf.sq_xy,
    }
    inputs = {
        "w": float(w),
        "r": float(r),
        "moment_constant": table.rth_moment_constant(r),
        "max_abs_moment_r": table.max_by_order[r],
        "abs_mass": mom[(0, 0)],
    }
    return BoundReport(constants=constants, inputs=inputs)
