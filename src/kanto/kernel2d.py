"""Tensor-product bivariate kernels and their lattice moments.

All moment quantities here are finite sums over the integer lattice inside
the kernel support window.  Algebraic moments keep signs; absolute moments
take absolute values of both kernel and offsets and are reported as a sup
over a grid on the periodicity cell [0,1)^2.  :class:`MomentTable` is the
one place that turns axis moments into these 2-D quantities.
:class:`TensorKernel2D` refuses a factor without compact support, so every
function here can rely on finite windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel1d import Kernel1D, discrete_moment

__all__ = [
    "MomentTable",
    "TensorKernel2D",
    "UnsupportedKernel",
    "max_support_radius",
    "partition_of_unity_check",
    "validate_kernel",
]


class UnsupportedKernel(ValueError):
    """The kernel is outside the supported class (e.g. lacks compact support)."""


@dataclass(frozen=True)
class TensorKernel2D:
    """Product kernel chi(x, y) = kx(x) * ky(y) of two univariate factors.

    Raises :class:`UnsupportedKernel` when a factor's support is not finite.
    """

    kx: Kernel1D
    ky: Kernel1D

    def __post_init__(self):
        for lo, hi in (self.support_x, self.support_y):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise UnsupportedKernel("kernel factor lacks compact support")

    @property
    def support_x(self) -> tuple[float, float]:
        return self.kx.support

    @property
    def support_y(self) -> tuple[float, float]:
        return self.ky.support

    @property
    def moment_order(self) -> int:
        return min(self.kx.moment_order, self.ky.moment_order)

    def __call__(self, a, b):
        return self.kx(a) * self.ky(b)


def max_support_radius(kernel: TensorKernel2D) -> float:
    """Largest |support endpoint| over both axes; sets the lattice window size."""
    return max(
        abs(v) for pair in (kernel.support_x, kernel.support_y) for v in pair
    )


def _unit_grid(grid_n: int) -> np.ndarray:
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    return np.arange(grid_n, dtype=float) / grid_n


def partition_of_unity_check(kernel: TensorKernel2D, grid_n: int = 64) -> float:
    """Max deviation of sum_{k,j} chi(u-k, v-j) from 1 over the unit cell grid."""
    us = _unit_grid(grid_n)
    ax = discrete_moment(kernel.kx, 0, us)
    ay = discrete_moment(kernel.ky, 0, us)
    return float(np.abs(np.outer(ax, ay) - 1.0).max())


def validate_kernel(
    kernel: TensorKernel2D, grid_n: int = 16, tol: float = 1e-8
) -> None:
    """Check the admission conditions: compact support, boundedness, unit mass.

    :class:`TensorKernel2D` has checked compact support on construction,
    which makes integrability and finite absolute moments automatic, so the
    one quantitative check here is the partition of unity.  Raises
    :class:`UnsupportedKernel` on failure.
    """
    deviation = partition_of_unity_check(kernel, grid_n)
    if not np.isfinite(deviation) or deviation > tol:
        raise UnsupportedKernel(
            f"partition of unity deviates by {deviation:.3e} (tolerance {tol:.0e})"
        )


@dataclass(frozen=True)
class MomentTable:
    """Moment summary for all index pairs with p1 + p2 <= eta_max.

    Over a ``grid_n``-point grid per axis of the unit cell, each pair
    (p1, p2) gets the mean and the max-minus-min spread of the signed moment
    sum_{k,j} chi(u-k, v-j) (u-k)^p1 (v-j)^p2, and the max of its unsigned
    version (|chi| and |offsets| throughout).  ``max_by_order[eta]`` is the
    largest unsigned max over p1 + p2 = eta.
    """

    eta_max: int
    grid_n: int
    algebraic_mean: dict = field(repr=False)
    algebraic_spread: dict = field(repr=False)
    absolute_sup: dict = field(repr=False)
    max_by_order: dict

    @classmethod
    def compute(
        cls, kernel: TensorKernel2D, eta_max: int = 3, grid_n: int = 64
    ) -> "MomentTable":
        """Tabulate every pair; each call builds a fresh table.

        For a tensor kernel each 2-D moment grid is the outer product of two
        axis moments, so every axis moment is computed once per call (and
        once for both axes when they share one kernel).  A moment that is not
        finite (the offset powers overflow from some eta on) is a ValueError
        naming its pair.
        """
        if eta_max < 0:
            raise ValueError(f"eta_max must be >= 0, got {eta_max}")
        us = _unit_grid(grid_n)
        axis_moments: dict = {}

        def axis(kern: Kernel1D, p: int, absolute: bool) -> np.ndarray:
            key = (kern, p, absolute)
            if key not in axis_moments:
                axis_moments[key] = discrete_moment(kern, p, us, absolute=absolute)
            return axis_moments[key]

        mean: dict = {}
        spread: dict = {}
        sup: dict = {}
        max_by_order: dict = {}
        kx, ky = kernel.kx, kernel.ky
        # overflow and inf - inf end in the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            for eta in range(eta_max + 1):
                pairs = [(p1, eta - p1) for p1 in range(eta + 1)]
                for p1, p2 in pairs:
                    grid = np.outer(axis(kx, p1, False), axis(ky, p2, False))
                    unsigned = np.outer(axis(kx, p1, True), axis(ky, p2, True))
                    values = grid.mean(), grid.max() - grid.min(), unsigned.max()
                    if not np.isfinite(values).all():
                        raise ValueError(
                            f"lattice moment ({p1}, {p2}) of the kernel is not finite; "
                            "lower eta_max"
                        )
                    mean[(p1, p2)], spread[(p1, p2)], sup[(p1, p2)] = map(float, values)
                max_by_order[eta] = max(sup[pair] for pair in pairs)
        return cls(
            eta_max=eta_max,
            grid_n=grid_n,
            algebraic_mean=mean,
            algebraic_spread=spread,
            absolute_sup=sup,
            max_by_order=max_by_order,
        )

    def index_pairs(self):
        return sorted(self.algebraic_mean, key=lambda p: (p[0] + p[1], -p[0]))

    def rth_moment_constant(self, r: int) -> float:
        """Magnitude of the order-r moment plateau: max |mean| over p1+p2 = r.

        The example kernels have their order-r moment only approximately
        constant in (u, v) and not equal across index pairs, so the single
        constant entering the convergence-rate bound is taken conservatively
        as the largest mean magnitude.
        """
        if r > self.eta_max:
            raise ValueError(f"table only holds orders <= {self.eta_max}")
        return max(
            abs(self.algebraic_mean[(p1, r - p1)]) for p1 in range(r + 1)
        )
