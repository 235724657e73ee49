"""Univariate kernels: central B-splines and moment-corrected combinations.

The central B-spline of order ``n`` is the n-fold convolution of the unit
box, a compactly supported piecewise polynomial on ``[-n/2, n/2]``.  Linear
combinations of shifted B-splines can be tuned so that their discrete
lattice moments vanish up to a prescribed order; that vanishing is what
raises the approximation order of the sampling operators built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "CentralBSpline",
    "CombinationKernel",
    "Kernel1D",
    "SingularSystem",
    "bspline_eval",
    "construct_combination_kernel",
    "discrete_moment",
]

# condition number above which the coefficient solve is rejected
SINGULARITY_THRESHOLD = 1e12
# the truncated-power sum divides by (n-1)!, a float up to n = 171
MAX_BSPLINE_ORDER = 171


class SingularSystem(ValueError):
    """The moment system defining the combination coefficients is numerically singular."""


def _check_bspline_order(n: int) -> None:
    if not 1 <= n <= MAX_BSPLINE_ORDER:
        raise ValueError(
            f"B-spline order must be between 1 and {MAX_BSPLINE_ORDER}, got {n}"
        )


def _check_shifts(order: int, shifts) -> tuple[float, ...]:
    """Check the shifts of a combination kernel of ``order``; return them as floats."""
    shifts = tuple(float(s) for s in shifts)
    if len(shifts) != order:
        raise ValueError(
            f"combination kernel of order {order} needs {order} shifts, "
            f"got {len(shifts)}"
        )
    if order < 2:
        raise ValueError("combination order must be >= 2")
    _check_bspline_order(order)
    if not all(map(math.isfinite, shifts)):
        raise ValueError(f"shifts must be finite, got {shifts}")
    if any(b <= a for a, b in zip(shifts, shifts[1:])):
        raise ValueError("shifts must be strictly increasing")
    return shifts


def bspline_eval(n: int, t):
    """Evaluate the central B-spline of order ``n`` at ``t`` (scalar or array).

    Uses the truncated-power expansion

        M_n(t) = 1/(n-1)! * sum_{j=0}^{n-1} (-1)^j C(n,j) (n/2 + t - j)_+^{n-1}

    folded onto ``|t|`` so evaluation is exactly even, and returns exactly
    0.0 for ``|t| >= n/2`` (n >= 2).  The order-1 kernel is the unit box on
    ``(-1/2, 1/2)`` with midpoint value 1/2 at the jump, which keeps the
    lattice sum equal to 1 on dyadic grids.  From order 138 on the sum
    overflows to inf or NaN, which the partition-of-unity check rejects.
    """
    _check_bspline_order(n)
    # a scalar runs through the array code as well: numpy's scalar power
    # rounds through libm pow, its array loops do not
    tt = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if n == 1:
        out = np.where(tt < 0.5, 1.0, np.where(tt == 0.5, 0.5, 0.0))
    else:
        acc = np.zeros_like(tt)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                base = 0.5 * n + tt - j
                acc += ((-1) ** j * math.comb(n, j)) * np.maximum(base, 0.0) ** (n - 1)
            acc /= math.factorial(n - 1)
        out = np.where(tt < 0.5 * n, acc, 0.0)
    if np.ndim(t) == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class CentralBSpline:
    """Central B-spline kernel of a given order (unit box for order 1)."""

    order: int

    def __post_init__(self):
        _check_bspline_order(self.order)

    @property
    def support(self) -> tuple[float, float]:
        half = 0.5 * self.order
        return (-half, half)

    @property
    def moment_order(self) -> int:
        # the first discrete moment vanishes identically from order 2 on;
        # the second is constant in u (= order/12) only from order 3 on
        return 2 if self.order >= 3 else 1

    def __call__(self, t):
        return bspline_eval(self.order, t)


@dataclass(frozen=True)
class CombinationKernel:
    """Linear combination of shifted central B-splines of one base order.

    ``shifts`` must be strictly increasing and match ``coefficients`` in
    length.  Kernels produced by :func:`construct_combination_kernel` have
    unit mass and discrete moments 1..base_order-1 identically zero.
    """

    base_order: int
    shifts: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", _check_shifts(self.base_order, self.shifts))
        object.__setattr__(
            self, "coefficients", tuple(float(a) for a in self.coefficients)
        )
        if len(self.shifts) != len(self.coefficients):
            raise ValueError("shifts and coefficients must have equal length")

    @property
    def support(self) -> tuple[float, float]:
        half = 0.5 * self.base_order
        return (self.shifts[0] - half, self.shifts[-1] + half)

    @property
    def moment_order(self) -> int:
        return self.base_order

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        # every shifted B-spline in one call, row i at tt - shifts[i]; the
        # rows then add in shift order, as one call per shift would
        shifts = np.reshape(self.shifts, (-1,) + (1,) * tt.ndim)
        values = bspline_eval(self.base_order, tt - shifts)
        acc = np.zeros_like(tt)
        for a, value in zip(self.coefficients, values):
            acc += a * value
        if np.ndim(t) == 0:
            return float(acc)
        return acc


Kernel1D = Union[CentralBSpline, CombinationKernel]


def discrete_moment(kernel: Kernel1D, eta: int, u, absolute: bool = False):
    """Lattice moment ``sum_k kernel(u-k) (u-k)^eta``, elementwise over ``u``.

    The sum runs over the finitely many integers inside the support window,
    so it is exact.  With ``absolute=True`` both kernel values and offsets
    enter with absolute value (the sup over u of that version is the
    absolute moment used in the error bounds).
    """
    lo, hi = kernel.support
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("kernel must have compact support")
    uu = np.asarray(u, dtype=float)
    kmin = math.ceil(float(np.min(uu)) - hi)
    kmax = math.floor(float(np.max(uu)) - lo)
    ks = np.arange(kmin, kmax + 1, dtype=float)
    offs = uu[..., None] - ks
    vals = kernel(offs)
    # An offset of weight 0 (outside the support) is raised as +-1: its term
    # stays the signed zero it was, where its power would overflow to
    # 0 * inf = NaN.  From some eta on the powers inside the support overflow.
    offs = np.where(vals == 0, np.copysign(1.0, offs), offs)
    with np.errstate(over="ignore", invalid="ignore"):
        if absolute:
            contrib = np.abs(vals) * np.abs(offs) ** eta
        else:
            contrib = vals * offs**eta
        total = contrib.sum(axis=-1)
    if np.ndim(u) == 0:
        return float(total)
    return total


def _shifted_integer_moments(base: CentralBSpline, eps: float, count: int) -> list:
    """sum over integers m of M_r(m - eps) m^eta for eta = 0..count-1.

    Exact over the support window, with one B-spline evaluation for all eta.
    """
    half = 0.5 * base.order
    ms = np.arange(math.ceil(eps - half), math.floor(eps + half) + 1, dtype=float)
    vals = base(ms - eps)
    return [float(np.sum(vals * ms**eta)) for eta in range(count)]


def construct_combination_kernel(r: int, shifts) -> CombinationKernel:
    """Solve for combination coefficients with unit mass and vanishing moments.

    Builds the r x r discrete moment system at base point 0: row ``eta``
    demands ``sum_k chi(-k) (-k)^eta = delta_{eta,0}`` for eta = 0..r-1.
    Because shifted B-spline lattice moments of order < r are independent
    of the base point, the conditions then hold at every u; the test suite
    checks that instead of assuming it.

    Raises :class:`SingularSystem` when the condition estimate of the
    moment matrix exceeds ``SINGULARITY_THRESHOLD`` (it is inf when an
    entry overflows), or when an entry is NaN.
    """
    shifts = _check_shifts(r, shifts)
    base = CentralBSpline(r)
    matrix = np.empty((r, r))
    # huge shifts, or from r = 118 the shifts 2..r+1, overflow the powers
    with np.errstate(over="ignore", invalid="ignore"):
        for mu, eps in enumerate(shifts):
            matrix[:, mu] = _shifted_integer_moments(base, eps, r)
    # LAPACK's SVD fails on a NaN (inf times a zero B-spline) and prints on an inf
    finite = np.isfinite(matrix).all()
    if not finite and np.isnan(matrix).any():
        raise SingularSystem(
            f"moment matrix of order {r} overflows floats; lower --r or the shifts"
        )
    cond = np.linalg.cond(matrix) if finite else math.inf
    if cond > SINGULARITY_THRESHOLD:
        raise SingularSystem(
            f"moment matrix condition {cond:.3e} exceeds {SINGULARITY_THRESHOLD:.0e}"
        )
    rhs = np.zeros(r)
    rhs[0] = 1.0
    coeffs = np.linalg.solve(matrix, rhs)
    return CombinationKernel(
        base_order=r, shifts=shifts, coefficients=tuple(coeffs)
    )
