"""The vectorised windowed-sum core against scalar per-point oracles.

Every operator must reproduce, bit for bit, the scalar loop that walks one
point's window in ascending (k, j) order: ``acc += (a * b) * value(k, j)``.
The cases cover random points and points on a window edge (``w*x - hi`` an
integer, where windows are one wider), both fixture kernels, all three
operators, and lattice-field as well as analytic sources, including sources
that return a scalar or ignore one argument.  Points that share a
coordinate on one axis, and 0.0 beside -0.0, reach both the tabulated and
the per-point axis means of the boolean sum.  Missing data
must be reported at the same (k, j) as the scalar implementation did.
Kernel windows, computed once per axis value (one kernel call per grid
when both axes share a kernel object), must equal the windows evaluated
column by column at every point; a column past a point's shorter window
reads the window's last cell with weight exactly 0, also where the kernel
itself rounds to a tiny nonzero value there.  A regular grid's axes, taken
from its ``linspace`` arrays, must reproduce its points and give every
operator the same bits as the axes found from the points alone.  The
distinct window cells, mapped without a sort where their range is narrow,
must equal ``np.unique`` of the cells on regular and scattered grids.  The
Gauss-Legendre rules, their nodes stacked in blocks of rows, must equal
nested scalar loops bit for bit at every block size, and no source call
may get more elements than the block cap or one node's values.  A grid
that holds its points once per lattice rate must give each point the bits
of a call at its own rate, from one kernel call.
"""

import contextlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kanto import (
    CentralBSpline,
    CombinationKernel,
    EvalGrid,
    LatticeField,
    MissingData,
    TensorKernel2D,
    apply_gbs,
    apply_gw,
    apply_sw,
    cell_average,
    construct_combination_kernel,
    fn_lookup,
    validate_kernel,
)
from kanto import cli, operators
from kanto.csvio import Factored
from kanto.functions import CATALOG
from kanto.operators import (
    KIND_CELL_AVERAGES,
    KIND_SAMPLES,
    QUAD_ORDER_MAX,
    _axis_means,
    _axis_windows,
    _distinct_columns,
    _grid_windows,
)

_chi3 = construct_combination_kernel(3, (2.0, 3.0, 4.0))
_chi4_rounded = construct_combination_kernel(4, (-2.94, -0.7, 0.16, 0.29))
KERNELS = {
    "chibar3": TensorKernel2D(_chi3, _chi3),
    "m3_tensor": TensorKernel2D(CentralBSpline(3), CentralBSpline(3)),
}
# both Kernel1D types, one without unit mass, and both branches of
# bspline_eval (order 1 and the truncated-power sum); integer and
# half-integer support ends
AXIS_KERNELS = {
    "chibar3": _chi3,
    "chibar4": construct_combination_kernel(4, (-1.5, -0.5, 0.5, 1.5)),
    "m1": CentralBSpline(1),
    "m2": CentralBSpline(2),
    "m3": CentralBSpline(3),
    "m4": CentralBSpline(4),
    "scaled_chibar3": CombinationKernel(3, _chi3.shifts, [0.7 * a for a in _chi3.coefficients]),
    # -6.7e-19, not 0, at its lower support end
    "chibar4_rounded": _chi4_rounded,
}
FUNCTIONS = ("sin_x_cos_y", "gaussian", "x2y2")
QUAD_ORDER = 5


def windows(kernel, w, x, y):
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    ks = range(math.ceil(w * x - hix), math.floor(w * x - lox) + 1)
    js = range(math.ceil(w * y - hiy), math.floor(w * y - loy) + 1)
    return ks, js


def dense_patch(kernel, value, w, x, y):
    """Scalar windowed sum at one point, the loop of acceptance test 11."""
    ks, js = windows(kernel, w, x, y)
    acc = 0.0
    for k in ks:
        a = kernel.kx(w * x - float(k))
        for j in js:
            b = kernel.ky(w * y - float(j))
            acc += (a * b) * value(k, j)
    return acc


def gbs_value(f, w, x, y):
    """Boolean-sum summand f(x,v) + f(u,y) - f(u,v), averaged over cell (k, j)."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)

    def mean_u(k):
        mu = 0.0
        for gi, wi in zip(nodes, weights):
            mu += 0.5 * wi * f((k + 0.5 * (gi + 1.0)) / w, y)
        return mu

    def mean_v(j):
        mv = 0.0
        for gl, wl in zip(nodes, weights):
            mv += 0.5 * wl * f(x, (j + 0.5 * (gl + 1.0)) / w)
        return mv

    return lambda k, j: mean_v(j) + mean_u(k) - cell_average(f, k, j, w, QUAD_ORDER)


def oracle(op, source, kernel, w, x, y):
    if op == "gbs":
        value = gbs_value(source, w, x, y)
    elif isinstance(source, LatticeField):
        value = source.get
    elif op == "gw":
        value = lambda k, j: source(k / w, j / w)
    else:
        value = lambda k, j: cell_average(source, k, j, w, QUAD_ORDER)
    return dense_patch(kernel, value, w, x, y)


def apply(op, source, kernel, grid):
    if op == "gw":
        return apply_gw(source, kernel, grid)
    if op == "sw":
        return apply_sw(source, kernel, grid, QUAD_ORDER)
    return apply_gbs(source, kernel, grid, QUAD_ORDER)


rates = st.one_of(
    st.integers(min_value=2, max_value=50).map(float),
    st.floats(min_value=2.0, max_value=50.0),
    # w*x is exact for these, so the edge points below hit the edge exactly
    st.sampled_from([2.0, 4.0, 8.0, 16.0, 32.0]),
)


@st.composite
def grids(draw):
    w = draw(rates)
    if draw(st.booleans()):  # a tensor grid: points share coordinates
        x0, y0 = draw(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)))
        dx, dy = draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
        n = draw(st.integers(min_value=1, max_value=4))
        return EvalGrid.regular((x0, y0, x0 + dx, y0 + dy), n, w)
    # both fixture kernels have half-integer support ends, so w*x - hi is
    # an integer exactly when w*x is a half-integer
    edge = st.integers(min_value=-40, max_value=110).map(lambda n: (n + 0.5) / w)
    zero = st.sampled_from([0.0, -0.0])
    coord = st.one_of(st.floats(min_value=-1.0, max_value=2.0), edge, zero)
    pair = st.lists(coord, min_size=2, max_size=2)
    points = draw(st.lists(pair, min_size=1, max_size=6))
    shared = draw(st.sampled_from([None, 0, 1]))
    if shared is not None:
        # one axis takes its coordinates from a pool of one or two: the
        # boolean sum then often tabulates one axis mean and evaluates the
        # other per point
        pool = st.sampled_from(draw(st.lists(coord, min_size=1, max_size=2)))
        for point in points:
            point[shared] = draw(pool)
    return EvalGrid(points=points, w=w)


@settings(max_examples=80, deadline=None)
@given(
    grid=grids(),
    kernel_name=st.sampled_from(sorted(KERNELS)),
    op=st.sampled_from(["gw", "sw", "gbs"]),
    fn_name=st.sampled_from(FUNCTIONS),
    via_field=st.booleans(),
)
@example(
    grid=EvalGrid(points=[(0.0625, 0.0625), (0.33, 0.7)], w=8.0),
    kernel_name="m3_tensor",
    op="sw",
    fn_name="sin_x_cos_y",
    via_field=True,
)
# y from a pool of three (both zeros among them) and x close together: the
# means over u come from a table of the three y, the means over v are
# evaluated per point
@example(
    grid=EvalGrid(
        points=[(0.4, 0.0), (0.45, -0.0), (0.5, 1.5), (0.55, 0.0), (0.6, -0.0), (0.65, 1.5)],
        w=8.0,
    ),
    kernel_name="chibar3",
    op="gbs",
    fn_name="gaussian",
    via_field=False,
)
def test_core_matches_scalar_oracle_bitwise(grid, kernel_name, op, fn_name, via_field):
    kernel = KERNELS[kernel_name]
    f = fn_lookup(fn_name)
    w = grid.w
    source = f
    if via_field and op != "gbs":
        kind = KIND_SAMPLES if op == "gw" else KIND_CELL_AVERAGES
        lo = math.floor(w * grid.points.min()) - 8
        hi = math.ceil(w * grid.points.max()) + 8
        source = LatticeField.from_function(f, w, lo, hi, lo, hi, kind, QUAD_ORDER)
    got = apply(op, source, kernel, grid)
    want = [oracle(op, source, kernel, w, x, y) for x, y in grid.points]
    assert got.tolist() == want


# sources whose result only broadcasts against their inputs: a scalar, or
# an array that ignores one argument (the catalog entries return x and y
# themselves)
BROADCAST_SOURCES = {
    "lambda_x": lambda x, y: x,
    "lambda_y": lambda x, y: y,
    "lambda_one": lambda x, y: 1.0,
    "x": fn_lookup("x"),
    "y": fn_lookup("y"),
    "const1": fn_lookup("const1"),
}


@pytest.mark.parametrize("op", ["gw", "sw", "gbs"])
@pytest.mark.parametrize("source_name", sorted(BROADCAST_SOURCES))
@settings(max_examples=15, deadline=None)
@given(grid=grids(), kernel_name=st.sampled_from(sorted(KERNELS)))
def test_broadcasting_sources_match_scalar_oracle_bitwise(
    source_name, op, grid, kernel_name
):
    kernel = KERNELS[kernel_name]
    source = BROADCAST_SOURCES[source_name]
    got = apply(op, source, kernel, grid)
    want = [oracle(op, source, kernel, grid.w, x, y) for x, y in grid.points]
    assert got.tolist() == want


def test_kernel_rounding_past_a_window_adds_nothing():
    # the first point's window is one column narrower in x, and that column
    # lands on the support end of _chi4_rounded, where it is -6.7e-19
    lo = _chi4_rounded.support[0]
    assert -3.94 - 1.0 == lo and _chi4_rounded(lo) != 0.0
    kernel = TensorKernel2D(_chi4_rounded, _chi4_rounded)
    grid = EvalGrid(points=[(-3.94, 2.1), (2.1, 2.1)], w=1.0)
    f = fn_lookup("gaussian")
    for op in ("gw", "sw", "gbs"):
        got = apply(op, f, kernel, grid)
        assert got.tolist() == [oracle(op, f, kernel, 1.0, x, y) for x, y in grid.points]


def test_edge_points_have_wider_windows():
    # the edge example above really exercises a window one column wider
    kernel = KERNELS["m3_tensor"]
    ks, _ = windows(kernel, 8.0, 0.0625, 0.0625)
    assert len(ks) == 4
    ks, _ = windows(kernel, 8.0, 0.33, 0.7)
    assert len(ks) == 3


def first_missing(field, kernel, grid):
    """(k, j) the scalar implementation reported, or None.

    It checked the window ends of every point first, in point order, and
    then read the windows point by point in ascending (k, j) order.
    """
    w = grid.w
    spans = []
    for x, y in grid.points:
        ks, js = windows(kernel, w, x, y)
        for k in (ks.start, ks.stop - 1):
            if not field.kmin <= k <= field.kmax:
                return (k, js.start)
        for j in (js.start, js.stop - 1):
            if not field.jmin <= j <= field.jmax:
                return (ks.start, j)
        spans.append((ks, js))
    for ks, js in spans:
        for k in ks:
            for j in js:
                if math.isnan(field.values[k - field.kmin, j - field.jmin]):
                    return (k, j)
    return None


@settings(max_examples=80, deadline=None)
@given(
    w=st.integers(min_value=2, max_value=50).map(float),
    kernel_name=st.sampled_from(sorted(KERNELS)),
    op=st.sampled_from(["gw", "sw"]),
    pad=st.tuples(*[st.integers(min_value=0, max_value=8)] * 4),
    points=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=5
    ),
    holes=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=3),
)
@example(  # a hole inside the only window
    w=10.0, kernel_name="m3_tensor", op="gw", pad=(8, 8, 8, 8),
    points=[(0.7, 0.3)], holes=[(15 / 26, 11 / 26)],
)
@example(  # the window leaves the field at its upper k end
    w=10.0, kernel_name="m3_tensor", op="sw", pad=(8, 0, 8, 8),
    points=[(0.2, 0.2), (1.0, 0.5)], holes=[],
)
# holes one cell past the k and the j window of the second point, whose
# windows are one column narrower than the first point's: no window reads
# them (k runs -1..2 and 2..4, j -1..2 and 5..7)
@example(
    w=8.0, kernel_name="m3_tensor", op="gw", pad=(8, 8, 8, 8),
    points=[(0.0625, 0.0625), (0.33, 0.7)], holes=[(13 / 24, 14 / 24)],
)
@example(
    w=8.0, kernel_name="m3_tensor", op="sw", pad=(8, 8, 8, 8),
    points=[(0.0625, 0.0625), (0.33, 0.7)], holes=[(11 / 24, 16 / 24)],
)
def test_missing_data_reports_the_scalar_index(w, kernel_name, op, pad, points, holes):
    kernel = KERNELS[kernel_name]
    kind = KIND_SAMPLES if op == "gw" else KIND_CELL_AVERAGES
    kmin, kmax = -pad[0], math.ceil(w) + pad[1]
    jmin, jmax = -pad[2], math.ceil(w) + pad[3]
    values = LatticeField.from_function(
        fn_lookup("gaussian"), w, kmin, kmax, jmin, jmax, kind, QUAD_ORDER
    ).values.copy()
    for hx, hy in holes:
        values[round(hx * (kmax - kmin)), round(hy * (jmax - jmin))] = np.nan
    field = LatticeField(w=w, kind=kind, values=values, kmin=kmin, jmin=jmin)
    grid = EvalGrid(points=points, w=w)
    want = first_missing(field, kernel, grid)
    if want is None:
        got = apply(op, field, kernel, grid)
        assert got.tolist() == [oracle(op, field, kernel, w, x, y) for x, y in points]
    else:
        with pytest.raises(MissingData) as err:
            apply(op, field, kernel, grid)
        assert (err.value.k, err.value.j) == want


def per_point_windows(kernel, t):
    """Window ends and column weights evaluated at every point, repeats and all."""
    lo, hi = kernel.support
    first = np.ceil(t - hi)
    last = np.floor(t - lo)
    cols = int((last - first).max()) + 1
    weights = [kernel(t - (first + a)) for a in range(cols)]
    return first.astype(np.int64), last.astype(np.int64), weights


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


@st.composite
def axis_coordinates(draw):
    """Scaled axis values ts and each point's index into them: t = ts[which].

    Every value is some point's, in any order, and a value may repeat.
    """
    w = draw(rates)
    if draw(st.booleans()):  # one axis of a tensor grid, both routes
        n = draw(st.integers(min_value=1, max_value=12))
        box = draw(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)))
        grid = EvalGrid.regular((min(box), 0.0, max(box) + 0.1, 1.0), n, w)
        if draw(st.booleans()):
            grid = EvalGrid(points=grid.points, w=w)
        values, which = grid.axes[draw(st.sampled_from([0, 1]))]
        return w * values, which
    # integer and half-integer w*x: window edges of every kernel above
    edge = st.integers(min_value=-80, max_value=220).map(lambda m: m / 2 / w)
    coord = st.one_of(st.floats(-1.0, 2.0), edge, st.sampled_from([0.0, -0.0]))
    values = draw(st.lists(coord, min_size=1, max_size=30))
    extra = draw(st.lists(st.integers(0, len(values) - 1), max_size=10))
    which = draw(st.permutations(list(range(len(values))) + extra))
    return w * np.array(values), np.array(which, dtype=np.intp)


@settings(max_examples=300, deadline=None)
@given(axis=axis_coordinates(), kernel_name=st.sampled_from(sorted(AXIS_KERNELS)))
# the column past the first window (-6..0, where the second is 0..7) lands
# on the kernel's lower support end, where it rounds to a nonzero value
@example(axis=(np.array([-3.94, 2.1]), np.array([0, 1])), kernel_name="chibar4_rounded")
def test_axis_windows_per_distinct_coordinate_match_per_point(axis, kernel_name):
    kernel = AXIS_KERNELS[kernel_name]
    ts, which = axis
    t = ts[which]
    got = _axis_windows(kernel, ts, which)
    assert got.which is which
    first, last, weights = per_point_windows(kernel, t)
    cells = got.cells[:, got.which]
    assert len(cells) == len(got.weights) == len(weights)
    # the window ends, and past its last cell a column reads that cell again
    assert cells[0].tolist() == first.tolist()
    assert cells[-1].tolist() == last.tolist()
    span = np.minimum(first + np.arange(len(weights))[:, None], last)
    assert cells.tolist() == span.tolist()
    # the kernel's own weights within each window, and +0 or -0 past it, so
    # that a column past a point's window adds nothing
    past = first + np.arange(len(weights))[:, None] > last
    for got_w, want_w, p in zip(got.weights, weights, past):
        assert bits(got_w[~p]) == bits(want_w[~p])
        assert got_w[p].tolist() == [0.0] * p.sum()
    # distinct window cells and each column's position among them
    idx, pos, counts = _distinct_columns(got)
    assert counts.tolist() == [len(idx)]
    assert idx.tolist() == sorted(set(span.ravel().tolist()))
    assert [idx[p].tolist() for p in pos] == span.tolist()


class Counting:
    """A kernel or function that counts its calls; other attributes pass through.

    ``sizes`` holds the number of elements each call received (the size of
    its broadcast arguments).
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, *args):
        self.calls += 1
        self.sizes.append(np.broadcast(*args).size)
        return self.inner(*args)


# call counts, not speed: a grid takes one kernel call over all window
# columns of both axes when they share one kernel object, and one per axis
# otherwise; the boolean sum's cell averages one f call per v node, on the
# u nodes stacked as rows, and each axis mean one f call on all its nodes
@pytest.mark.parametrize("w", [5.0, 40.0])
@pytest.mark.parametrize("grid_n", [3, 20])
@pytest.mark.parametrize("kernel_name", ["m2", "chibar3", "chibar4"])
def test_one_kernel_call_per_axis(w, grid_n, kernel_name):
    grid = EvalGrid.regular((-0.3, 0.1, 1.2, 0.9), grid_n, w)
    # the same for the grid at one rate and at three
    for grid in (grid, grid.at_rates([w, 2 * w, 3 * w])):
        # axes sharing one kernel object: one call for the grid
        shared = Counting(AXIS_KERNELS[kernel_name])
        _grid_windows(TensorKernel2D(shared, shared), grid)
        assert shared.calls == 1
        # two kernel objects: one call per axis
        kx, ky = Counting(AXIS_KERNELS[kernel_name]), Counting(AXIS_KERNELS[kernel_name])
        _grid_windows(TensorKernel2D(kx, ky), grid)
        assert (kx.calls, ky.calls) == (1, 1)


@pytest.mark.parametrize("kernel_name", ["m2", "chibar3", "chibar4"])
def test_validate_kernel_evaluates_a_shared_axis_once(kernel_name):
    shared = Counting(AXIS_KERNELS[kernel_name])
    validate_kernel(TensorKernel2D(shared, shared))
    assert shared.calls == 1
    kx, ky = Counting(AXIS_KERNELS[kernel_name]), Counting(AXIS_KERNELS[kernel_name])
    validate_kernel(TensorKernel2D(kx, ky))
    assert (kx.calls, ky.calls) == (1, 1)


@pytest.mark.parametrize("w", [5.0, 40.0])
@pytest.mark.parametrize("grid_n", [3, 20])
@pytest.mark.parametrize("quad_order", [3, 5])
def test_gbs_calls_f_once_per_node(w, grid_n, quad_order):
    f = Counting(fn_lookup("sin_x_cos_y"))
    kx, ky = Counting(_chi3), Counting(_chi3)
    grid = EvalGrid.regular((-0.3, 0.1, 1.2, 0.9), grid_n, w)
    apply_gbs(f, TensorKernel2D(kx, ky), grid, quad_order)
    assert f.calls == quad_order + 2
    assert (kx.calls, ky.calls) == (1, 1)
    # the cell averages: one call per v node on the table's rows for every
    # u node; then one call per axis mean, on its nodes' rectangles of the
    # axis's distinct window cells and the other axis's distinct
    # coordinates, which on a tensor grid holds just the pairs that occur
    cells_x = distinct_cells(_chi3, w * grid.points[:, 0])
    cells_y = distinct_cells(_chi3, w * grid.points[:, 1])
    table = [quad_order * cells_x * cells_y] * quad_order
    mean_u = quad_order * cells_x * grid_n
    mean_v = quad_order * cells_y * grid_n
    assert f.sizes == table + [mean_u, mean_v]


def distinct_cells(kernel, t):
    """How many lattice cells the windows of the coordinates t cover."""
    lo, hi = kernel.support
    cells = set()
    for s in t.tolist():
        cells.update(range(math.ceil(s - hi), math.floor(s - lo) + 1))
    return len(cells)


@pytest.mark.parametrize("w", [5.0, 40.0])
@pytest.mark.parametrize("quad_order", [3, 5])
def test_gbs_evaluates_scattered_points_per_point(w, quad_order):
    # a diagonal: every coordinate distinct, windows far apart, so the
    # rectangle of distinct cells and coordinates is larger than one
    # element per window column and point
    t = np.linspace(-1.0, 2.0, 7)
    grid = EvalGrid(points=np.column_stack([t, t[::-1]]), w=w)
    f = Counting(fn_lookup("sin_x_cos_y"))
    apply_gbs(f, KERNELS["chibar3"], grid, quad_order)
    assert f.calls == quad_order + 2
    columns = len(_axis_windows(_chi3, w * t, np.arange(len(t))).weights)
    cells = distinct_cells(_chi3, w * t)
    assert cells * len(t) > columns * len(t)
    assert f.sizes[:quad_order] == [quad_order * cells * cells] * quad_order
    assert f.sizes[quad_order:] == [quad_order * columns * len(t)] * 2


def block_sizes(node, q, cap):
    """Elements of each call of a q-node rule stacked in blocks within cap."""
    step = max(1, cap // node)
    return [min(step, q - start) * node for start in range(0, q, step)]


@pytest.mark.parametrize("scattered", [False, True])
@pytest.mark.parametrize("op", ["sw", "gbs"])
def test_stacked_nodes_stay_within_the_cap(op, scattered):
    # at the highest order the stacked rules outgrow the cap and are split
    # into blocks; no call gets more than the cap, and every node of every
    # rule is still evaluated once
    q, cap = QUAD_ORDER_MAX, operators._STACK
    t = np.linspace(-1.0, 2.0, 4)
    if scattered:
        grid = EvalGrid(points=np.column_stack([t, t[::-1]]), w=40.0)
    else:
        grid = EvalGrid.regular((-1.0, -1.0, 2.0, 2.0), 4, 40.0)
    cells = distinct_cells(_chi3, 40.0 * t)
    assert q * cells * cells > cap
    f = Counting(fn_lookup("x_plus_y"))
    getattr(operators, f"apply_{op}")(f, KERNELS["chibar3"], grid, q)
    # q calls, one per v node, for each block of u nodes
    want = [size for size in block_sizes(cells * cells, q, cap) for _ in range(q)]
    if op == "gbs":
        # the axis means: distinct cells by the 4 values of the other axis,
        # or per point on the diagonal, window columns by points
        columns = len(_axis_windows(_chi3, 40.0 * t, np.arange(4)).weights)
        want += block_sizes((columns if scattered else cells) * 4, q, cap) * 2
    assert f.sizes == want
    assert max(f.sizes) <= cap


def test_a_node_above_the_cap_is_a_block_of_its_own():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_STACK", 5)
        f = Counting(fn_lookup("x_plus_y"))
        cell_average(f, np.arange(3)[:, None], np.arange(4)[None, :], 2.0, 7)
    assert f.sizes == [12] * 49


def scalar_mean(g, k, w, q):
    """The Gauss-Legendre mean of g over [k/w, (k+1)/w], one scalar call per node."""
    nodes, weights = np.polynomial.legendre.leggauss(q)
    m = 0.0
    for gi, wi in zip(nodes, weights):
        m += 0.5 * wi * g((k + 0.5 * (gi + 1.0)) / w)
    return m


def scalar_cell_average(f, k, j, w, q):
    """The mean over u of the mean over v, in nested scalar loops."""
    return scalar_mean(lambda u: scalar_mean(lambda v: f(u, v), j, w, q), k, w, q)


STACKED_SOURCES = {**{name: fn_lookup(name) for name in CATALOG}, "one": lambda x, y: 1.0}
lattice_indices = st.integers(min_value=-60, max_value=60)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(STACKED_SOURCES)),
    quad_order=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]),
    layout=st.sampled_from(["scalar", "table", "paired"]),
    ks=st.lists(lattice_indices, min_size=1, max_size=3),
    js=st.lists(lattice_indices, min_size=1, max_size=3),
    w=st.sampled_from([1.0, 7.0, 40.0]),
    cap=st.sampled_from([1, 7, 2**16]),
)
def test_stacked_cell_average_matches_scalar_loops(name, quad_order, layout, ks, js, w, cap):
    f = STACKED_SOURCES[name]
    if quad_order == 64:  # a scalar loop of 64**2 calls per cell
        ks, js = ks[:1], js[:2]
    if layout == "paired":
        js = (js * len(ks))[: len(ks)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_STACK", cap)
        if layout == "scalar":
            got = cell_average(f, ks[0], js[0], w, quad_order)
            assert isinstance(got, float)
            pairs, got = [(ks[0], js[0])], [got]
        elif layout == "table":
            got = cell_average(f, np.array(ks)[:, None], np.array(js)[None, :], w, quad_order)
            assert got.shape == (len(ks), len(js))
            pairs, got = [(k, j) for k in ks for j in js], got.ravel()
        else:
            got = cell_average(f, np.array(ks), np.array(js), w, quad_order)
            assert got.shape == (len(ks),)
            pairs = list(zip(ks, js))
    want = [scalar_cell_average(f, k, j, w, quad_order) for k, j in pairs]
    assert bits(got) == bits(want)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(STACKED_SOURCES)),
    quad_order=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]),
    xs=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4),
    ys=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4),
    tensor=st.booleans(),
    swap=st.booleans(),
    w=st.sampled_from([1.0, 7.0, 40.0]),
    cap=st.sampled_from([1, 7, 2**16]),
)
def test_stacked_axis_means_match_scalar_loops(
    name, quad_order, xs, ys, tensor, swap, w, cap
):
    # a tensor grid takes the rectangle of distinct cells and coordinates,
    # a diagonal of distinct coordinates mostly the per-point means
    f = STACKED_SOURCES[name]
    g = (lambda v, x: f(x, v)) if swap else f
    if quad_order == 64:
        xs, ys = xs[:1], ys[:2]
    if tensor:
        ix, iy = np.repeat(np.arange(len(xs)), len(ys)), np.tile(np.arange(len(ys)), len(xs))
    else:
        n = min(len(xs), len(ys))
        ix, iy = np.arange(n), np.arange(n)[::-1]
    xs, ys = np.array(xs), np.array(ys)
    axis = _axis_windows(_chi3, w * xs, ix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_STACK", cap)
        got = _axis_means(g, axis, _distinct_columns(axis), Factored(ys, iy), w, quad_order)
    assert len(got) == len(axis.cells)
    for row, cells_of in zip(got, axis.cells):
        want = [
            scalar_mean(lambda u: g(u, ys[b]), cells_of[a], w, quad_order)
            for a, b in zip(ix, iy)
        ]
        assert bits(row) == bits(want)


@pytest.mark.parametrize("scattered", [False, True])
def test_gbs_keeps_zero_signs_apart(scattered):
    # a source that tells -0.0 from 0.0 in either argument: a table that
    # merged the two zeros would give the -0.0 points the 0.0 means
    def f(x, y):
        return np.copysign(1.0, x) + np.copysign(2.0, y)

    zs = [0.0, -0.0, 0.25]
    if scattered:
        points = [(0.0, 1.7), (-0.0, -0.9), (1.1, 0.0), (-0.6, -0.0)]
    else:
        points = [(x, y) for x in zs for y in zs]
    grid = EvalGrid(points=points, w=8.0)
    kernel = KERNELS["chibar3"]
    got = apply_gbs(f, kernel, grid, QUAD_ORDER)
    assert got.tolist() == [oracle("gbs", f, kernel, 8.0, x, y) for x, y in points]


@st.composite
def regular_grids(draw):
    """A regular grid on an awkward box: its axes come from ``linspace``."""
    w = draw(rates)
    n = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from(["plain", "no_interior", "subnormal", "repeats", "straddle"]))
    x0, y0 = draw(st.floats(-1.0, 2.0)), draw(st.floats(-1.0, 2.0))
    margin = 0.0
    if shape == "plain":
        dx, dy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    elif shape == "no_interior":
        # the margin leaves a single point: every node of an axis is one value
        dx = dy = draw(st.floats(0.0, 1.0))
        margin = dx / 2
    elif shape == "subnormal":
        x0 = y0 = draw(st.sampled_from([0.0, -1e-310]))
        dx, dy = 1e-310, draw(st.sampled_from([1e-310, 5e-324, 1.0]))
    elif shape == "repeats":
        # nodes closer than the float spacing round together
        x0, dx = 1.0, 1e-15
        dy = draw(st.sampled_from([4e-16, 1e-15, 0.5]))
    else:
        x0, y0 = -draw(st.floats(0.0, 1.0)), -draw(st.floats(0.0, 1.0))
        dx, dy = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    x1, y1 = x0 + dx, y0 + dy
    if x0 + margin > x1 - margin or y0 + margin > y1 - margin:
        margin = 0.0
    return EvalGrid.regular((x0, y0, x1, y1), n, w, margin)


@settings(max_examples=200, deadline=None)
@given(grid=regular_grids())
@example(grid=EvalGrid.regular((1.0, -0.5, 1.0 + 1e-15, 0.5), 12, 8.0))
def test_regular_axes_reproduce_the_points(grid):
    n = round(math.sqrt(len(grid.points)))
    # row-major: x varies slowest, y fastest
    (xs, _), (ys, _) = grid.axes
    assert bits(grid.points[:, 0]) == bits(np.repeat(xs, n))
    assert bits(grid.points[:, 1]) == bits(np.tile(ys, n))
    for column, (values, index) in enumerate(grid.axes):
        assert values.size == n and index.size == n * n
        assert bits(values[index]) == bits(grid.points[:, column])
        # the points' own factorisation agrees
        found, which = EvalGrid(points=grid.points, w=grid.w).axes[column]
        assert bits(found[which]) == bits(grid.points[:, column])


def test_linspace_axis_may_repeat_a_value():
    # the case the awkward boxes above draw: regular grids hold repeats
    values, _ = EvalGrid.regular((1.0, 0.0, 1.0 + 1e-15, 1.0), 12, 8.0).axes[0]
    assert len(set(values.tolist())) < values.size


def sorted_columns(axis):
    """The distinct window cells and each column's positions, by a sort."""
    idx, pos = np.unique(axis.cells, return_inverse=True)
    return idx, list(pos.reshape(axis.cells.shape)[:, axis.which])


@st.composite
def scattered_grids(draw):
    """Up to 8 points (none at all too) in a square of half-width up to 1e4.

    Their windows range from overlapping to far apart, where the cell range
    is too wide for a presence mask.
    """
    half = draw(st.sampled_from([0.1, 1.0, 100.0, 1e4]))
    coordinate = st.floats(-half, half)
    points = draw(st.lists(st.tuples(coordinate, coordinate), max_size=8))
    return EvalGrid(points=np.reshape(points, (-1, 2)), w=draw(rates))


WIDE = EvalGrid(points=[(0.0, 0.0), (1e3, 0.5)], w=10.0)  # x cells 10,000 apart


@settings(max_examples=150, deadline=None)
@given(
    grid=st.one_of(regular_grids(), scattered_grids()),
    kernel_name=st.sampled_from(sorted(KERNELS)),
)
@example(grid=WIDE, kernel_name="chibar3")
@example(grid=EvalGrid(points=np.empty((0, 2)), w=10.0), kernel_name="chibar3")
def test_distinct_columns_equal_a_sort(grid, kernel_name):
    for axis in _grid_windows(KERNELS[kernel_name], grid):
        idx, pos, counts = _distinct_columns(axis)
        want_idx, want_pos = sorted_columns(axis)
        assert counts.tolist() == [len(idx)]
        assert idx.dtype == want_idx.dtype
        assert idx.tolist() == want_idx.tolist()
        assert len(pos) == len(want_pos)
        for got, want in zip(pos, want_pos):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


@settings(max_examples=150, deadline=None)
@given(
    grid=st.one_of(regular_grids(), scattered_grids()),
    more=st.lists(rates, min_size=1, max_size=3),
    kernel_name=st.sampled_from(sorted(KERNELS)),
    op=st.sampled_from(["gw", "sw", "gbs"]),
    fn_name=st.sampled_from(FUNCTIONS),
)
@example(grid=WIDE, more=[3.0, 10.0], kernel_name="chibar3", op="gbs", fn_name="gaussian")
@example(
    grid=EvalGrid(points=np.empty((0, 2)), w=10.0),
    more=[20.0],
    kernel_name="chibar3",
    op="sw",
    fn_name="gaussian",
)
def test_a_grid_at_several_rates_gives_the_bits_of_a_call_per_rate(
    grid, more, kernel_name, op, fn_name
):
    # one call over every (rate, point) pair, the same rate twice included:
    # each rate's cells keyed apart, its tables side by side, both branches
    # of the distinct cells and of the boolean sum's axis means
    rates = [grid.w, *more]
    source, kernel = fn_lookup(fn_name), KERNELS[kernel_name]
    got = apply(op, source, kernel, grid.at_rates(rates))
    want = [apply(op, source, kernel, grid.at_rates([w])) for w in rates]
    assert bits(got) == bits(np.concatenate(want))


@pytest.mark.parametrize("kernel_name", ["chibar3", "m3_tensor"])
def test_distinct_columns_of_several_rates_equal_those_of_each_rate(kernel_name):
    # rate after rate, the same rate twice too: each block holds that rate's
    # own distinct cells, and every point reads the cells it reads alone (a
    # column past its rate's widest window reads the last cell again)
    grid = EvalGrid.regular((-1.0, -1.0, 2.0, 2.0), 5, 5.0)
    rates = [5.0, 40.0, 5.0]
    kernel = KERNELS[kernel_name]
    n = len(grid.points)
    for column, axis in enumerate(_grid_windows(kernel, grid.at_rates(rates))):
        idx, pos, counts = _distinct_columns(axis, len(rates))
        firsts = np.cumsum(counts) - counts
        for r, w in enumerate(rates):
            cells, at, _ = _distinct_columns(_grid_windows(kernel, grid.at_rates([w]))[column])
            assert idx[firsts[r] : firsts[r] + counts[r]].tolist() == cells.tolist()
            read = [idx[p[r * n : (r + 1) * n]].tolist() for p in pos]
            alone = [cells[p].tolist() for p in at]
            assert read == alone + alone[-1:] * (len(read) - len(alone))


@pytest.mark.parametrize(
    "grid, sorts",
    [(EvalGrid.regular((-1.0, -1.0, 2.0, 2.0), 20, 40.0), 0), (WIDE, 1)],
)
def test_distinct_columns_sort_only_a_wide_cell_range(monkeypatch, grid, sorts):
    axes = _grid_windows(KERNELS["chibar3"], grid)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
    for axis in axes:
        _distinct_columns(axis)
    assert len(calls) == sorts


@pytest.mark.parametrize("op", ["sw", "gbs"])
def test_coarse_grid_at_a_high_rate_maps_no_cell_range(op):
    # the 3 x 3 grid's window cells spread over millions of integers: with
    # a presence mask and running count over them the peak was 51 MB, with
    # np.unique about 61 KB
    argv = ["reconstruct", "--fn", "gaussian", "--op", op, "--grid-n", "3", "--w", "1e6"]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert cli.main(argv) == 0  # warm: imports and caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 120_000


@settings(max_examples=120, deadline=None)
@given(
    grid=regular_grids(),
    kernel_name=st.sampled_from(sorted(KERNELS)),
    op=st.sampled_from(["gw", "sw", "gbs"]),
    fn_name=st.sampled_from(FUNCTIONS),
    via_field=st.booleans(),
)
def test_regular_axes_and_found_axes_give_the_same_bits(
    grid, kernel_name, op, fn_name, via_field
):
    # chibar3 shares one kernel object across its axes, m3_tensor does not
    kernel = KERNELS[kernel_name]
    source = fn_lookup(fn_name)
    w = grid.w
    if via_field and op != "gbs":
        kind = KIND_SAMPLES if op == "gw" else KIND_CELL_AVERAGES
        lo = math.floor(w * grid.points.min()) - 8
        hi = math.ceil(w * grid.points.max()) + 8
        source = LatticeField.from_function(source, w, lo, hi, lo, hi, kind, QUAD_ORDER)
    got = apply(op, source, kernel, grid)
    want = apply(op, source, kernel, EvalGrid(points=grid.points, w=w))
    assert bits(got) == bits(want)


@settings(max_examples=80, deadline=None)
@given(
    grid=regular_grids(),
    found=st.booleans(),
    kernel_name=st.sampled_from(sorted(KERNELS)),
    op=st.sampled_from(["gw", "sw"]),
    pad=st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4),
)
def test_regular_grid_missing_data_reports_the_scalar_index(
    grid, found, kernel_name, op, pad
):
    # a field around the grid, each edge moved in or out: windows leave it
    # at a grid corner or along an edge, on either axis
    kernel = KERNELS[kernel_name]
    w = grid.w
    if found:
        grid = EvalGrid(points=grid.points, w=w)
    kind = KIND_SAMPLES if op == "gw" else KIND_CELL_AVERAGES
    kmin = math.floor(w * grid.points[:, 0].min()) - 2 + pad[0]
    kmax = math.ceil(w * grid.points[:, 0].max()) + 2 + pad[1]
    jmin = math.floor(w * grid.points[:, 1].min()) - 2 + pad[2]
    jmax = math.ceil(w * grid.points[:, 1].max()) + 2 + pad[3]
    field = LatticeField.from_function(
        fn_lookup("gaussian"), w, kmin, max(kmin, kmax), jmin, max(jmin, jmax),
        kind, QUAD_ORDER,
    )
    want = first_missing(field, kernel, grid)
    if want is None:
        apply(op, field, kernel, grid)
    else:
        with pytest.raises(MissingData) as err:
            apply(op, field, kernel, grid)
        assert (err.value.k, err.value.j) == want


def scaled_overflow(grid):
    """The value the per-point check named: the smallest bit pattern of the
    first axis (x, then y) whose scaled coordinates reach 2**53 or overflow."""
    for column in (0, 1):
        with np.errstate(over="ignore"):
            t = grid.w * grid.points[:, column]
        bad = t[~(np.abs(t) < 2.0**53)]
        if bad.size:
            return float(bad[bad.view(np.uint64).argmin()])
    return None


@settings(max_examples=100, deadline=None)
@given(
    corners=st.lists(
        st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-1e20, 1e20, -3.0, 0.0])),
        min_size=4, max_size=4,
    ),
    n=st.integers(min_value=1, max_value=4),
    w=st.sampled_from([1.0, 1e10, 1e300]),
    found=st.booleans(),
)
@example(corners=[-1e20, -1e20, 1e20, 1e20], n=3, w=1.0, found=False)
def test_past_2_53_names_the_per_point_value(corners, n, w, found):
    x0, x1 = sorted(corners[::2])
    y0, y1 = sorted(corners[1::2])
    grid = EvalGrid.regular((x0, y0, x1, y1), n, w)
    if found:
        grid = EvalGrid(points=grid.points, w=w)
    want = scaled_overflow(grid)
    if want is None:
        _grid_windows(KERNELS["chibar3"], grid)
        return
    for kernel in KERNELS.values():
        with pytest.raises(ValueError, match="2\\*\\*53") as err:
            _grid_windows(kernel, grid)
        assert str(err.value).startswith(f"scaled coordinate {want!r} ")


def test_past_2_53_on_a_box_across_0_names_the_positive_end():
    grid = EvalGrid.regular((-1e20, -1e20, 1e20, 1e20), 3, 1.0)
    with pytest.raises(ValueError, match="^scaled coordinate 1e\\+20 "):
        _grid_windows(KERNELS["chibar3"], grid)


@pytest.mark.parametrize(
    "box", [(-1e308, -1e308, 1e308, 1e308), (0.0, -1e308, 1.0, 1e308), (-np.inf, 0, 1, 1)]
)
def test_box_wider_than_the_largest_float_is_refused(box):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="wider or taller than the largest float"):
            EvalGrid.regular(box, 3, 1e-300)


def test_grid_points_are_read_only():
    # the axes are found or given once; points written later would leave them stale
    given = np.array([[0.1, 0.2], [0.3, 0.4]])
    for grid in (EvalGrid(points=given, w=4.0), EvalGrid.regular((0, 0, 1, 1), 2, 4.0)):
        with pytest.raises(ValueError, match="read-only"):
            grid.points[0, 0] = 5.0
    given[0, 0] = 0.5  # the caller's own array stays writable
