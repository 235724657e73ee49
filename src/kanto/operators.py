"""Sampling-series operators over the scaled integer lattice.

Three reconstruction operators share one evaluation pattern: a finite,
kernel-weighted sum over the lattice window around each evaluation point.
They differ in what is summed per lattice cell:

* point samples f(k/w, j/w),
* cell averages of f over [k/w,(k+1)/w] x [j/w,(j+1)/w],
* the boolean-sum cell integrand f(x,v) + f(u,y) - f(u,v), which makes the
  operator exact on additively separable functions.

One core serves all three.  An :class:`EvalGrid` carries its axes: the
coordinate values of each axis and each point's index into them, taken
from the ``linspace`` axes of a regular grid and found once otherwise.
Kernel windows are computed once per axis value, in one kernel call per
grid when both axes share a kernel, and gathered to the points by that
index.  The core tabulates the source once per call (only on the cells
some window touches) and then runs over the window offsets in ascending
(k, j) order for all points at once; past a point's window a column reads
the window's last cell with weight exactly 0 and adds a zero.  The
boolean sum's two single-axis means are tabulated the same way, once per
(window cell, other-axis value) pair.  Quadrature rules stack their nodes
in row blocks of up to ``_STACK`` elements, one source call a block.  Each
point so gets the operations of a scalar loop over its own window, in its
order, bit for bit.  Analytic sources must take 2-d arrays, evaluate
elementwise and return results that broadcast against their inputs.

A grid may hold its points once per lattice rate (:meth:`EvalGrid.at_rates`,
one pass of a convergence study: as many whole rates as fit in
``analysis.PASS_POINTS`` points, and at least one).  Its windows are then
taken once per (rate, axis value), in the same one kernel call, the cells
of each rate are told apart from those of every other, and the tables
hold only same-rate pairs, each entry at its own rate.  One call so
tabulates the source for every rate of the pass, and each point gets the
operations of a call at its own rate; an ordinary grid is the case of one
rate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import iadd
from pathlib import Path
from typing import Callable, NamedTuple, Union

import numpy as np

from .csvio import Factored, write_csv, write_file
from .functions import TestFunction, _evaluate
from .kernel1d import Kernel1D
from .kernel2d import TensorKernel2D, max_support_radius

__all__ = [
    "EvalGrid",
    "LatticeField",
    "MissingData",
    "OPERATORS",
    "SourceField",
    "admissible_box",
    "apply_gbs",
    "apply_gw",
    "apply_sw",
    "cell_average",
    "interior_margin",
    "read_lattice_csv",
    "read_pgm",
    "representation_residual",
    "write_lattice_csv",
]

KIND_SAMPLES = "samples"
KIND_CELL_AVERAGES = "cell_averages"

# Gauss-Legendre points per axis of a cell average, and the largest order
# accepted: computing the rule costs the cube of the order
QUAD_ORDER = 5
QUAD_ORDER_MAX = 256
_STACK = 2**16  # elements a block of stacked quadrature nodes gives a source
_CELL_SPAN = 4  # widest cell range per window cell mapped without a sort
EVAL_GRID = 20  # points per axis of the default evaluation grid


class MissingData(Exception):
    """A lattice sample required by the evaluation window is absent.

    ``hint`` (how to fix the input) is appended to the message.
    """

    def __init__(self, k: int, j: int, hint: str = ""):
        message = f"missing lattice value at (k={k}, j={j})"
        super().__init__(f"{message}; {hint}" if hint else message)
        self.k = k
        self.j = j


def _check_rate(w: float, name: str = "lattice rate w") -> float:
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"{name} must be finite and > 0, got {w!r}")
    return w


@dataclass
class LatticeField:
    """Dense rectangle of lattice data: values[k - kmin, j - jmin].

    ``kind`` says whether entries are point samples or cell averages.
    Absent interior entries are NaN and raise :class:`MissingData` on access;
    infinite entries are an error.  ``values`` is a read-only view of the
    array given, so the entries stay as they were checked.
    """

    w: float
    kind: str
    values: np.ndarray
    kmin: int
    jmin: int

    def __post_init__(self):
        if self.kind not in (KIND_SAMPLES, KIND_CELL_AVERAGES):
            raise ValueError(f"unknown field kind {self.kind!r}")
        _check_rate(self.w)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        inf = np.isinf(self.values)
        if inf.any():
            k, j = np.argwhere(inf)[0]
            raise ValueError(
                f"lattice value at (k={self.kmin + k}, j={self.jmin + j}) is "
                f"{self.values[k, j]}; values must be finite, or NaN where absent"
            )
        self.values = self.values.view()
        self.values.flags.writeable = False

    @property
    def kmax(self) -> int:
        return self.kmin + self.values.shape[0] - 1

    @property
    def jmax(self) -> int:
        return self.jmin + self.values.shape[1] - 1

    def get(self, k: int, j: int) -> float:
        if not (self.kmin <= k <= self.kmax and self.jmin <= j <= self.jmax):
            raise MissingData(k, j)
        val = self.values[k - self.kmin, j - self.jmin]
        if math.isnan(val):
            raise MissingData(k, j)
        return float(val)

    @classmethod
    def from_function(
        cls,
        f: Callable,
        w: float,
        kmin: int,
        kmax: int,
        jmin: int,
        jmax: int,
        kind: str = KIND_SAMPLES,
        quad_order: int = QUAD_ORDER,
    ) -> "LatticeField":
        """Tabulate a function on the lattice rectangle, as samples or averages."""
        k = np.arange(kmin, kmax + 1)[:, None]
        j = np.arange(jmin, jmax + 1)[None, :]
        values = _tabulate(f, k, j, w, kind, quad_order)
        return cls(w=w, kind=kind, values=values, kmin=kmin, jmin=jmin)


SourceField = Union[TestFunction, LatticeField, Callable]


def _check_box(box: tuple[float, float, float, float]) -> None:
    """Refuse a box whose width or height is not a finite float.

    Its corners may each be finite while their difference overflows, and
    so would every grid step taken from it.
    """
    x0, y0, x1, y1 = map(float, box)
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ValueError(
            f"box {x0!r},{y0!r},{x1!r},{y1!r} is wider or taller than the "
            "largest float; shrink it"
        )


def _factor(t: np.ndarray) -> Factored:
    """The distinct values of t, told apart by bit pattern, and each one's index."""
    bits, index = np.unique(t.view(np.uint64), return_inverse=True)
    return Factored(bits.view(np.float64), index)


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation points (N x 2 array, row-major build order) at lattice rate w.

    ``axes`` holds each axis as a :class:`~kanto.csvio.Factored`: values and
    each point's index into them, so that ``values[index]`` is that column
    of ``points`` bit for bit.  :meth:`regular` takes them from its
    ``linspace`` axes; otherwise they are the distinct coordinates (told
    apart by bit pattern, so 0.0 and -0.0 stay apart), found once, on first
    use.  An axis may hold one value twice; both copies get the same
    windows.  ``points`` is a read-only view, so that the axes stay true.

    ``rates`` holds the lattice rates as an array: ``[w]`` here, and on a
    grid of :meth:`at_rates` one block of points per rate.
    """

    points: np.ndarray
    w: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 2).view()
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        _check_rate(self.w)

    @cached_property
    def axes(self) -> tuple[Factored, Factored]:
        return _factor(self.points[:, 0]), _factor(self.points[:, 1])

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([self.w], dtype=float)

    def at_rates(self, rates) -> "EvalGrid":
        """The points once per rate, rate-major, each point at its own rate.

        At one rate this is the grid at that rate.  At several, ``w`` is the
        (N, 1) column of each point's rate, so that ``w * points`` holds the
        scaled coordinates, and each axis keeps its values, its index
        repeated once per rate.  The points and axes are shared or tiled,
        never found again.
        """
        rates = [_check_rate(w) for w in rates]
        if len(rates) == 1:
            grid = EvalGrid(points=self.points, w=rates[0])
            object.__setattr__(grid, "axes", self.axes)
            return grid
        points = np.tile(self.points, (len(rates), 1))
        grid = EvalGrid(points=points, w=rates[0])
        object.__setattr__(grid, "rates", np.array(rates, dtype=float))
        object.__setattr__(grid, "w", np.repeat(grid.rates, len(self.points))[:, None])
        axes = (Factored(v, np.tile(i, len(rates))) for v, i in self.axes)
        object.__setattr__(grid, "axes", tuple(axes))
        return grid

    @classmethod
    def regular(
        cls,
        box: tuple[float, float, float, float],
        grid_n: int,
        w: float,
        margin: float = 0.0,
    ) -> "EvalGrid":
        """Regular grid_n x grid_n grid on the box shrunk by margin on all sides.

        Points are ordered row-major: x varies slowest, y fastest.  A box
        whose width or height overflows is a ValueError.
        """
        x0, y0, x1, y1 = box
        if grid_n < 1:
            raise ValueError("grid_n must be >= 1")
        _check_box(box)
        if x0 + margin > x1 - margin or y0 + margin > y1 - margin:
            raise ValueError("margin leaves an empty interior")
        xs = np.linspace(x0 + margin, x1 - margin, grid_n)
        ys = np.linspace(y0 + margin, y1 - margin, grid_n)
        pts = np.column_stack([np.repeat(xs, grid_n), np.tile(ys, grid_n)])
        grid = cls(points=pts, w=w)
        # the same repeat and tile, of each node's index
        index = np.arange(grid_n)
        x = Factored(xs, np.repeat(index, grid_n))
        y = Factored(ys, np.tile(index, grid_n))
        object.__setattr__(grid, "axes", (x, y))
        return grid

    def sample(self, f: Callable) -> np.ndarray:
        """f at every evaluation point, from one array call."""
        return _evaluate(f, self.points[:, 0], self.points[:, 1])


def _check_quad_order(order: int) -> None:
    if not 1 <= order <= QUAD_ORDER_MAX:
        raise ValueError(f"quad_order must be in 1..{QUAD_ORDER_MAX}, got {order}")


@lru_cache(maxsize=16)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    _check_quad_order(order)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # on [0, 1], weights summing to 1


def _stacked_mean(g: Callable, k, t, w, quad_order: int) -> np.ndarray:
    """Gauss-Legendre mean over u of g(u, t) on each cell [k/w, (k+1)/w].

    g gets the nodes' rows (k + x_i)/w stacked in blocks of ``_STACK``
    elements or one node's; t must not vary along k's first axis, k has the
    rank of both, and w (a rate, or one per cell) broadcasts against k
    without growing it.  Means add (0.5*w_i) * g in node order from +0.
    """
    offsets, halves = _gauss_rule(quad_order)
    mean = np.zeros(np.broadcast(k, t).shape)
    step, n, rank = max(1, _STACK // max(mean.size, 1)), len(k), np.ndim(k)
    for start in range(0, quad_order, step):
        x = offsets[start : start + step].reshape(-1, *[1] * rank)
        values = g(((k + x) / w).reshape(len(x) * n, *np.shape(k)[1:]), t)
        # values that vary along the stacked rows hold each node's in turn
        split = np.ndim(values) == rank and len(values) > n
        for i, half in enumerate(halves[start : start + step]):
            mean += half * (values[i * n : (i + 1) * n] if split else values)
    return mean


def cell_average(f: Callable, k, j, w, quad_order: int = QUAD_ORDER):
    """Mean of f over the lattice cell [k/w,(k+1)/w] x [j/w,(j+1)/w].

    The Gauss-Legendre mean over u of the mean over v, exact for polynomial
    degree up to 2*quad_order - 1 per axis, with one f call per v node and
    block of stacked u nodes.  With integer arrays ``k`` and ``j`` it
    returns the cell means, each with the operations of a scalar call; w
    is one rate, or for 1-d ``k`` and ``j`` one rate per cell.
    """
    shape = np.broadcast(k, j).shape
    # a table's (n, 1) by (1, m) stacks as it is; other shapes as one row
    if not (np.ndim(k) == np.ndim(j) and np.shape(j)[:1] == (1,)):
        k, j = (np.broadcast_to(a, shape).reshape(1, -1) for a in (k, j))

    def inner(u, j):  # the mean over v at every u of a block, one f call per v node
        terms = (half * f(u, (j + x) / w) for x, half in zip(*_gauss_rule(quad_order)))
        return reduce(iadd, terms, 0.0)  # in node order from +0, adding in place

    mean = _stacked_mean(inner, k, j, w, quad_order).reshape(shape)
    return float(mean) if not shape else mean


def _tabulate(f: Callable, k, j, w, kind: str, quad_order: int | None) -> np.ndarray:
    """Point samples f(k/w, j/w) or cell averages of f at lattice indices k, j."""
    if kind == KIND_SAMPLES:
        return _evaluate(f, k / w, j / w)
    return cell_average(f, k, j, w, quad_order)


class _AxisWindows(NamedTuple):
    """Lattice windows of all evaluation points along one axis.

    ``which[i]`` is the axis value of point i.  Column ``a`` of axis value
    d reads lattice index ``cells[a, d]``, so the window of point i runs
    from ``cells[0, which[i]]`` to ``cells[-1, which[i]]``.  Windows differ
    in width by at most one, and a column past a window reads its last cell
    with weight exactly 0.  ``weights[a]`` holds the kernel weights of
    column a at every point: one kernel call gives them all, and each
    column is gathered to the points as its own array, which keeps it
    contiguous.
    """

    weights: list
    cells: np.ndarray
    which: np.ndarray


def _window_offsets(
    support: tuple[float, float], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window offsets of the scaled axis values ts, and each value's last index.

    chi(t - k) can be nonzero only in the window t - hi <= k <= t - lo.
    ``offsets[a, d]`` is column a of value d; past its window it runs on.
    """
    # from 2**53 on, floats skip integers, so window ends and the int64
    # lattice indices would be wrong
    bad = ~(np.abs(ts) < 2.0**53)
    if bad.any():
        # the one with the smallest bit pattern, whatever order ts is in
        worst = ts[bad]
        worst = worst[worst.view(np.uint64).argmin()]
        raise ValueError(
            f"scaled coordinate {float(worst)!r} (lattice rate times a "
            "point coordinate) must be finite and below 2**53 in magnitude, "
            "where lattice indices stop being exact; lower the rate or move "
            "the box toward 0"
        )
    lo, hi = support
    first = np.ceil(ts - hi)
    last = np.floor(ts - lo)
    offsets = first + np.arange(int((last - first).max(initial=0)) + 1)[:, None]
    return offsets, last


def _windows(
    values: np.ndarray, offsets: np.ndarray, last: np.ndarray, which: np.ndarray
) -> _AxisWindows:
    """The windows of :func:`_window_offsets`, with kernel values at ts - offsets."""
    # a column past a window gets weight exactly 0, which a kernel rounding
    # at its support end can miss
    weights = np.where(offsets > last, 0.0, values)
    cells = np.minimum(offsets, last).astype(np.int64)
    return _AxisWindows([col[which] for col in weights], cells, which)


def _axis_windows(kernel: Kernel1D, ts: np.ndarray, which: np.ndarray) -> _AxisWindows:
    """Windows of the points whose scaled coordinate is ``ts[which]``.

    They are computed once per value of ts, in one kernel call, and
    gathered to the points, so each point gets exactly the values it would
    get on its own.
    """
    offsets, last = _window_offsets(kernel.support, ts)
    return _windows(kernel(ts - offsets), offsets, last, which)


def _grid_windows(
    kernel: TensorKernel2D, grid: EvalGrid
) -> tuple[_AxisWindows, _AxisWindows]:
    """Both axes' windows, once per rate and axis value, from the grid's axes.

    Axes that share one kernel object get their values from one call.
    """
    (xs, ix), (ys, iy) = grid.axes
    rates = grid.rates[:, None]
    # an overflow to inf is left to the finiteness check of _window_offsets
    with np.errstate(over="ignore"):
        tx, ty = (rates * xs).ravel(), (rates * ys).ravel()
    if len(rates) > 1:  # block r of the points reads the windows of block r
        block = np.arange(len(rates))[:, None]
        ix = (ix.reshape(len(rates), -1) + block * len(xs)).ravel()
        iy = (iy.reshape(len(rates), -1) + block * len(ys)).ravel()
    if kernel.kx is not kernel.ky:
        return _axis_windows(kernel.kx, tx, ix), _axis_windows(kernel.ky, ty, iy)
    (ox, lx), (oy, ly) = (_window_offsets(kernel.kx.support, t) for t in (tx, ty))
    dx, dy = tx - ox, ty - oy
    values = kernel.kx(np.concatenate([dx.ravel(), dy.ravel()]))
    return (
        _windows(values[: dx.size].reshape(dx.shape), ox, lx, ix),
        _windows(values[dx.size :].reshape(dy.shape), oy, ly, iy),
    )


def _windowed_sum(
    kx: _AxisWindows, ky: _AxisWindows, term: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """sum over each point's window of (cx * cy) * term, for all points at once.

    ``term(a, b)`` gives the summand of window column (a, b) at every point.
    Offsets run in ascending order.  A column past a point's window has
    weight 0 and reads a cell of the window, so it adds a zero (``acc``
    starts at +0 and so is never -0), and each point gets the operations of
    the scalar loop ``acc += (cx[k] * cy[j]) * value(k, j)`` in ascending
    (k, j) order, bit for bit.
    """
    acc = np.zeros(len(kx.which))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for a, cx in enumerate(kx.weights):
                for b, cy in enumerate(ky.weights):
                    acc = acc + (cx * cy) * term(a, b)
    except FloatingPointError:
        raise ValueError("the series overflows; scale the source values down") from None
    return acc


def _gather(flat: np.ndarray, starts: list, cols: list) -> Callable:
    """term(a, b) of a flat table: entry ``starts[a] + cols[b]`` at each point.

    Each gather is one flat ``take``, which is faster than 2-D fancy
    indexing and gives the same values.
    """
    return lambda a, b: flat.take(starts[a] + cols[b])


def _distinct_columns(axis: _AxisWindows, blocks: int = 1) -> tuple:
    """Distinct cells over all window columns, their positions, and their counts.

    The axis values, and the points, fall in ``blocks`` equal runs, one per
    lattice rate.  The distinct cells run block by block, ``counts[r]`` of
    block r in ascending order, and ``pos[a]`` holds each point's position
    among them of the cell its window column a reads.  Block r's cells are
    integers from ``lo[r]`` to ``hi[r]``, keyed ``cell - lo[r]`` plus the
    spans of the blocks before it, so that no two blocks share a key.
    Where each block's range spans at most ``_CELL_SPAN`` times as many
    integers as it has window cells, a presence mask over the keys gives
    the distinct cells in order and a running count of it each cell's
    position, with no sort.  A wider range (a coarse grid at a high rate)
    would make the mask large, and ``np.unique`` sorts each block's cells
    instead.  Both give the same cells and positions.
    """
    cells = axis.cells.reshape(len(axis.cells), blocks, -1)
    if cells.size:
        # columns ascend: the first holds each block's least cell, the last its most
        lo, hi = cells[0].min(1), cells[-1].max(1)
    else:
        lo = hi = np.zeros(blocks, dtype=np.int64)
    span = hi - lo + 1
    if (span <= _CELL_SPAN * (cells.size // blocks)).all():
        ends = np.cumsum(span)  # block r keys its cells below ends[r]
        shift = lo + span - ends
        keys = (cells - shift[:, None]).reshape(len(cells), -1)
        present = np.zeros(ends[-1], dtype=bool)
        present[keys] = True
        seen = np.cumsum(present)
        counts = seen[ends - 1]  # distinct cells up to each block's end
        counts[1:] -= seen[ends[:-1] - 1]
        idx = np.flatnonzero(present) + np.repeat(shift, counts)
        pos = (seen - 1)[keys]
    else:
        idx, pos, counts = [], [], []
        for block in cells.swapaxes(0, 1):
            found, where = np.unique(block, return_inverse=True)
            idx.append(found)
            pos.append(where.reshape(block.shape) + sum(counts))
            counts.append(len(found))
        idx, pos, counts = np.concatenate(idx), np.concatenate(pos, 1), np.array(counts)
    return idx, list(pos[:, axis.which]), counts


def _index_table(
    f: Callable,
    columns_x: tuple,
    columns_y: tuple,
    w: np.ndarray,
    kind: str,
    quad_order: int | None,
) -> Callable:
    """The ``kind`` values of f over the distinct window indices of each axis.

    ``columns_x`` and ``columns_y`` are the :func:`_distinct_columns` of the
    two axes, and ``w`` holds the rate of each block.  The values are
    tabulated once, on each block's rectangle of those indices (not on
    their whole range, which a coarse grid at a high rate would make
    large).  One rectangle keeps the broadcast shape of its axes, on which
    a source such as sin(x)·cos(y) computes each factor once per row or
    column; several are laid out flat, rate after rate and row-major, with
    w per element, so that each node block is one source call.  A value
    that is not finite is an error naming its lattice rate: at a rate far
    from 1 the cells k/w can leave the range where the source is finite.
    """
    ks, rows, nk = columns_x
    js, cols, nj = columns_y
    if len(nk) == 1:
        k, j, starts = ks[:, None], js[None, :], [p * len(js) for p in rows]
    else:
        rate = np.repeat(np.arange(len(nk)), nk)  # the block of each x cell
        width = nj[rate]
        # cells ks[p] and js[q] of one block sit at start[p] + q
        start = np.cumsum(width) - width - (np.cumsum(nj) - nj)[rate]
        k = np.repeat(ks, width)
        j = js[np.arange(width.sum()) - np.repeat(start, width)]
        w = np.repeat(w[rate], width)
        starts = [start.take(p) for p in rows]
    with np.errstate(all="ignore"):
        table = _tabulate(f, k, j, w, kind, quad_order)
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:
        k, j, w = (np.broadcast_to(a, table.shape).flat[bad[0]] for a in (k, j, w))
        k, j, w = int(k), int(j), float(w)
        raise ValueError(
            f"source is not finite at lattice cell ({k}, {j}), near "
            f"({k / w:.6g}, {j / w:.6g}), at lattice rate {w!r}; choose a "
            "rate at which the source is finite on the cells k/w"
        )
    return _gather(table.ravel(), starts, cols)


def _axis_means(
    g: Callable,
    axis: _AxisWindows,
    columns: tuple,
    other: Factored,
    w,
    quad_order: int,
) -> list:
    """Row a: at each point i, the Gauss mean of g(., t[i]) over column a's cell.

    ``columns`` are the :func:`_distinct_columns` of ``axis``, ``w`` the
    rate of each block (or the one rate), and ``other`` is the grid's other
    axis: t = ``other.values[other.index]`` is the points' other
    coordinate, the same values in every block.  The means are tabulated
    once per (cell, value) pair, on the rectangle of the distinct cells of
    every block and the other axis's values (on a tensor grid, exactly the
    pairs that occur), each cell at its block's rate, and each column reads
    the table with one flat ``take``.  Where that rectangle is larger than
    window columns times points (scattered points), the means are taken
    per point instead.  Either way g gets the same (u, t) pairs, and each
    mean the same operations.
    """
    cells, pos, counts = columns
    values, which = other
    if cells.size * values.size > len(pos) * which.size:
        k, t = axis.cells[:, axis.which], values[which]
        w = np.repeat(w, len(which) // len(counts))
        return list(_stacked_mean(g, k, t, w, quad_order))
    w = np.repeat(w, counts)[:, None]
    flat = _stacked_mean(g, cells[:, None], values, w, quad_order).ravel()
    return [flat.take(p * values.size + which) for p in pos]


def _check_coverage(field: LatticeField, kx: _AxisWindows, ky: _AxisWindows) -> None:
    """Raise MissingData at the first end of the first window that leaves the field.

    The window ends are compared once per axis value; points are looked at
    only when some window leaves the field.
    """
    out_x = (kx.cells[0] < field.kmin) | (kx.cells[-1] > field.kmax)
    out_y = (ky.cells[0] < field.jmin) | (ky.cells[-1] > field.jmax)
    if not (out_x.any() or out_y.any()):
        return
    i = (out_x[kx.which] | out_y[ky.which]).argmax()
    k0, k1 = kx.cells[[0, -1], kx.which[i]]
    j0, j1 = ky.cells[[0, -1], ky.which[i]]
    for k in (k0, k1):
        if not field.kmin <= k <= field.kmax:
            raise MissingData(int(k), int(j0))
    for j in (j0, j1):
        if not field.jmin <= j <= field.jmax:
            raise MissingData(int(k0), int(j))


def _lattice_series(
    field: SourceField,
    kind: str,
    kernel: TensorKernel2D,
    grid: EvalGrid,
    quad_order: int | None,
) -> np.ndarray:
    kx, ky = _grid_windows(kernel, grid)
    if not isinstance(field, LatticeField):
        blocks = len(grid.rates)
        columns = _distinct_columns(kx, blocks), _distinct_columns(ky, blocks)
        table = _index_table(field, *columns, grid.rates, kind, quad_order)
        return _windowed_sum(kx, ky, table)
    # before coverage, so that a box the MissingData hint offers can run
    if field.kind != kind:
        based = "sample" if kind == KIND_SAMPLES else "average"
        raise ValueError(f"{based}-based operator needs a field of kind {kind!r}")
    if (grid.rates != field.w).any():
        raise ValueError("lattice rate of field and grid disagree")
    _check_coverage(field, kx, ky)
    # _check_coverage has put every window within the field
    n = field.values.shape[1]
    starts = [(k - field.kmin)[kx.which] * n for k in kx.cells]
    cols = [(j - field.jmin)[ky.which] for j in ky.cells]
    acc = _windowed_sum(kx, ky, _gather(field.values.ravel(), starts, cols))
    # a NaN result means a hole in some window: report the first one, in
    # point order and then ascending (k, j)
    for i in np.flatnonzero(np.isnan(acc)):
        ks, js = kx.cells[:, kx.which[i]], ky.cells[:, ky.which[i]]
        for k in range(ks[0], ks[-1] + 1):
            for j in range(js[0], js[-1] + 1):
                field.get(k, j)
    return acc


def apply_gw(field: SourceField, kernel: TensorKernel2D, grid: EvalGrid) -> np.ndarray:
    """Sampling series from point samples: sum chi(wx-k, wy-j) f(k/w, j/w)."""
    return _lattice_series(field, KIND_SAMPLES, kernel, grid, quad_order=None)


def apply_sw(
    field: SourceField,
    kernel: TensorKernel2D,
    grid: EvalGrid,
    quad_order: int = QUAD_ORDER,
) -> np.ndarray:
    """Sampling series from cell averages instead of point samples.

    An analytic field has its cell averages computed with the same
    quadrature as :meth:`LatticeField.from_function`, so both routes
    produce identical floating-point output.
    """
    return _lattice_series(field, KIND_CELL_AVERAGES, kernel, grid, quad_order)


def apply_gbs(
    field: Union[TestFunction, Callable],
    kernel: TensorKernel2D,
    grid: EvalGrid,
    quad_order: int = QUAD_ORDER,
) -> np.ndarray:
    """Boolean-sum operator: cell averages of f(x,v) + f(u,y) - f(u,v).

    The first two terms reduce to single-axis means through the evaluation
    point and reuse the same quadrature nodes as the full tensor rule, so
    the three terms cancel exactly (to rounding) on additively separable
    functions.  Each mean is tabulated once per (window cell, other-axis
    value) pair, or per point where that table would be the larger (see
    :func:`_axis_means`).  Needs an analytic field.
    """
    if isinstance(field, LatticeField):
        raise ValueError("boolean-sum operator needs an analytic field")
    f = field
    w = grid.rates
    x, y = grid.axes
    kx, ky = _grid_windows(kernel, grid)
    columns_x, columns_y = _distinct_columns(kx, len(w)), _distinct_columns(ky, len(w))
    cell = _index_table(f, columns_x, columns_y, w, KIND_CELL_AVERAGES, quad_order)
    # row a: mean over window column a of the point's axis, through the point
    mean_u = _axis_means(f, kx, columns_x, y, w, quad_order)
    mean_v = _axis_means(lambda v, x: f(x, v), ky, columns_y, x, w, quad_order)
    return _windowed_sum(kx, ky, lambda a, b: mean_v[b] + mean_u[a] - cell(a, b))


# Operator name -> op(source, kernel, grid, quad_order).  Each value is an
# apply function itself or calls the module global apply_gw, so rebinding
# those names (as a tracing wrapper does) reaches every caller.
OPERATORS = {
    "gw": lambda field, kernel, grid, quad_order: apply_gw(field, kernel, grid),
    "sw": apply_sw,
    "gbs": apply_gbs,
}


def representation_residual(
    f: TestFunction, kernel: TensorKernel2D, grid: EvalGrid
) -> np.ndarray:
    """Second-order residual of the average-based series.

    Subtracts from the average-based operator its sample-based expansion:
    the sample series of f plus 1/(2w) times the sample series of each
    first partial.  Needs both first partials in closed form
    (:class:`~kanto.functions.UnsupportedOrder` otherwise).
    """
    fx = f.partial(1, 0)
    fy = f.partial(0, 1)
    sw = apply_sw(f, kernel, grid)
    gw = apply_gw(f, kernel, grid)
    gwx = apply_gw(fx, kernel, grid)
    gwy = apply_gw(fy, kernel, grid)
    # each point at its own rate, not a column of rates against a row
    return sw - gw - (gwx + gwy) / (2.0 * np.reshape(grid.w, -1))


def _held_range(field: LatticeField) -> tuple[int, int, int, int]:
    """Array rows k0..k1 and columns j0..j1, the first to the last holding a value."""
    absent = np.isnan(field.values)
    ks = np.flatnonzero(~absent.all(axis=1))
    js = np.flatnonzero(~absent.all(axis=0))
    if not ks.size:
        raise ValueError("the field holds no values")
    return int(ks[0]), int(ks[-1]), int(js[0]), int(js[-1])


def _interior_hole(field: LatticeField, k: int, j: int) -> tuple[int, int] | None:
    """An absent cell that the admissible box's windows may read, or None.

    Such cells lie from the first to the last row and column that hold a
    value.  (k, j) is returned when it is one, else the first in (k, j) order.
    """
    k0, k1, j0, j1 = _held_range(field)
    holes = np.argwhere(np.isnan(field.values[k0 : k1 + 1, j0 : j1 + 1]))
    holes += (field.kmin + k0, field.jmin + j0)
    if (holes == (k, j)).all(axis=1).any():
        return k, j
    return (int(holes[0, 0]), int(holes[0, 1])) if len(holes) else None


def admissible_box(
    field: LatticeField, kernel: TensorKernel2D
) -> tuple[float, float, float, float]:
    """Largest box whose every point has its full lattice window within the field.

    Rows and columns at the edges of the field that hold no value are left
    out; an absent cell between them is not (see :func:`_interior_hole`).
    The box has x0 < x1 and y0 < y1 and a finite width and height, as
    ``--box`` requires, and its scaled corners (lattice rate times a
    corner) stay below 2**53 in magnitude, as the windows require.
    """
    k0, k1, j0, j1 = _held_range(field)
    kmin, kmax = field.kmin + k0, field.kmin + k1
    jmin, jmax = field.jmin + j0, field.jmin + j1
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    w = field.w
    # a scaled corner is an index plus a support end; int-float comparison
    # is exact, and an index past the float range never becomes a float
    big = max(map(abs, (kmin, kmax, jmin, jmax)))
    if not big < 2.0**53 - max_support_radius(kernel):
        raise ValueError(
            "lattice indices too large: the scaled box corners (rate times a "
            "corner) would pass 2**53 in magnitude, where lattice indices stop "
            "being exact"
        )
    box = ((kmin + hix) / w, (jmin + hiy) / w, (kmax + lox) / w, (jmax + loy) / w)
    if not all(map(math.isfinite, box)):
        raise ValueError(f"admissible box overflows at lattice rate w={w!r}")
    _check_box(box)
    if not (box[0] < box[2] and box[1] < box[3]):
        raise ValueError("field too small for the kernel window")
    return box


def interior_margin(kernel: TensorKernel2D, w: float) -> float:
    """Margin (s_max + 1)/w keeping every lattice window strictly interior."""
    return (max_support_radius(kernel) + 1.0) / w


# -- lattice I/O ---------------------------------------------------------

def _meta_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def write_lattice_csv(field: LatticeField, path) -> None:
    """Write k,j,value rows plus a .meta.json sidecar with rate, kind, bounds."""
    import json  # only lattice I/O uses it; most runs never load it

    rows, cols = np.nonzero(~np.isnan(field.values))  # ascending (k, j)
    k = Factored(np.arange(field.kmin, field.kmax + 1), rows)
    j = Factored(np.arange(field.jmin, field.jmax + 1), cols)
    # the values repeat too, as 8-bit pixels do
    write_csv(("k", "j", "value"), (k, j, _factor(field.values[rows, cols])), path)
    meta = {
        "w": field.w,
        "kind": field.kind,
        "kmin": field.kmin,
        "kmax": field.kmax,
        "jmin": field.jmin,
        "jmax": field.jmax,
    }
    write_file(_meta_path(path), (json.dumps(meta, indent=2) + "\n").encode())


def read_lattice_csv(path) -> LatticeField:
    """Read a k,j,value CSV with its .meta.json sidecar; absent cells become NaN.

    A repeated (k, j) row is an error, not an overwrite.
    """
    import json

    path = Path(path)
    meta_path = _meta_path(path)
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")

    def meta_value(key: str, convert: type):
        """meta[key] as ``convert``: from a text, a number or an integral number."""
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
        value = meta[key]
        # bool is an int subclass; 18.0 is an index, 18.7 is not
        typed = isinstance(value, str if convert is str else (int, float))
        try:
            if typed and not isinstance(value, bool):
                if convert is not int or int(value) == value:
                    return convert(value)
        except (ValueError, OverflowError):
            pass
        raise ValueError(f"{meta_path}: key {key!r} has invalid value {value!r}")

    w, kind = meta_value("w", float), meta_value("kind", str)
    kmin, kmax, jmin, jmax = (
        meta_value(key, int) for key in ("kmin", "kmax", "jmin", "jmax")
    )
    if kmax < kmin or jmax < jmin:
        raise ValueError(
            f"{meta_path}: inverted index bounds "
            f"k {kmin}..{kmax}, j {jmin}..{jmax}"
        )
    values = np.full((kmax - kmin + 1, jmax - jmin + 1), np.nan)
    seen = np.zeros(values.shape, dtype=bool)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "k,j,value":
        raise ValueError(f"{path}: expected header 'k,j,value'")
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            k_s, j_s, v_s = line.split(",")
            k, j, v = int(k_s), int(j_s), float(v_s)
        except ValueError:
            raise ValueError(
                f"{path}: line {number}: expected integers k, j and a number, "
                f"got {line!r}"
            ) from None
        if not (kmin <= k <= kmax and jmin <= j <= jmax):
            raise ValueError(f"{path}: index ({k},{j}) outside declared bounds")
        if seen[k - kmin, j - jmin]:
            raise ValueError(f"{path}: duplicate row for index ({k},{j})")
        seen[k - kmin, j - jmin] = True
        values[k - kmin, j - jmin] = v
    return LatticeField(
        w=w,
        kind=kind,
        values=values,
        kmin=kmin,
        jmin=jmin,
    )


# whitespace and comments (from a '#' that starts a token to the line end),
# then one header token
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_pgm(path) -> LatticeField:
    """Read a binary (P5) PGM with maxval 255 as unit-rate point samples in [0,1].

    Pixel (row r, column c) becomes the sample at lattice index (k=c, j=r).
    """
    data = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        match = _PGM_TOKEN.match(data, pos)
        if not match[1]:
            break
        tokens.append(match[1])
        pos = match.end()
    pos += 1  # single whitespace byte after maxval
    if tokens and tokens[0] != b"P5":
        raise ValueError(f"{path}: only binary (P5) PGM is supported")
    if len(tokens) < 4:
        raise ValueError(
            f"{path}: PGM header ends after {len(tokens)} of its 4 fields "
            "(P5, width, height, maxval)"
        )

    def header_int(name: str, token: bytes) -> int:
        try:
            return int(token)
        except ValueError:
            text = token[:20].decode("ascii", "replace")
            raise ValueError(f"{path}: PGM {name} {text!r} is not an integer") from None

    width, height, maxval = (
        header_int(name, token)
        for name, token in zip(("width", "height", "maxval"), tokens[1:])
    )
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM size {width}x{height} must be at least 1x1")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 PGM is supported, got {maxval}")
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(
            f"{path}: PGM raster truncated: {len(raster)} of {width * height} bytes"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    values = pixels.T.astype(float, order="C")  # row k is image column k
    values /= 255.0
    return LatticeField(w=1.0, kind=KIND_SAMPLES, values=values, kmin=0, jmin=0)
