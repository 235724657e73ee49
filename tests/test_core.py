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
Kernel windows, computed in one kernel call per axis over all window
columns and distinct coordinates, must equal the windows evaluated column
by column at every point; a column past a point's shorter window reads
the window's last cell with weight exactly 0, also where the kernel itself
rounds to a tiny nonzero value there.
"""

import math

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
)
from kanto.operators import (
    KIND_CELL_AVERAGES,
    KIND_SAMPLES,
    _axis_windows,
    _distinct_columns,
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
    w = draw(rates)
    if draw(st.booleans()):  # one axis of a tensor grid
        n = draw(st.integers(min_value=1, max_value=12))
        box = draw(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)))
        grid = EvalGrid.regular((min(box), 0.0, max(box) + 0.1, 1.0), n, w)
        return w * grid.points[:, draw(st.sampled_from([0, 1]))]
    # integer and half-integer w*x: window edges of every kernel above
    edge = st.integers(min_value=-80, max_value=220).map(lambda m: m / 2 / w)
    coord = st.one_of(st.floats(-1.0, 2.0), edge, st.sampled_from([0.0, -0.0]))
    return w * np.array(draw(st.lists(coord, min_size=1, max_size=30)))


@settings(max_examples=300, deadline=None)
@given(t=axis_coordinates(), kernel_name=st.sampled_from(sorted(AXIS_KERNELS)))
# the column past the first window (-6..0, where the second is 0..7) lands
# on the kernel's lower support end, where it rounds to a nonzero value
@example(t=np.array([-3.94, 2.1]), kernel_name="chibar4_rounded")
def test_axis_windows_per_distinct_coordinate_match_per_point(t, kernel_name):
    axis = AXIS_KERNELS[kernel_name]
    got = _axis_windows(axis, t)
    first, last, weights = per_point_windows(axis, t)
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
    idx, pos = _distinct_columns(got)
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


# call counts, not speed: each axis takes one kernel call over all window
# columns, and the boolean sum one f call per quadrature node and axis on
# top of the q*q of the cell averages
@pytest.mark.parametrize("w", [5.0, 40.0])
@pytest.mark.parametrize("grid_n", [3, 20])
@pytest.mark.parametrize("kernel_name", ["m2", "chibar3", "chibar4"])
def test_one_kernel_call_per_axis(w, grid_n, kernel_name):
    kernel = Counting(AXIS_KERNELS[kernel_name])
    grid = EvalGrid.regular((-0.3, 0.1, 1.2, 0.9), grid_n, w)
    _axis_windows(kernel, w * grid.points[:, 0])
    assert kernel.calls == 1


@pytest.mark.parametrize("w", [5.0, 40.0])
@pytest.mark.parametrize("grid_n", [3, 20])
@pytest.mark.parametrize("quad_order", [3, 5])
def test_gbs_calls_f_once_per_node(w, grid_n, quad_order):
    f = Counting(fn_lookup("sin_x_cos_y"))
    kx, ky = Counting(_chi3), Counting(_chi3)
    grid = EvalGrid.regular((-0.3, 0.1, 1.2, 0.9), grid_n, w)
    apply_gbs(f, TensorKernel2D(kx, ky), grid, quad_order)
    assert f.calls == quad_order**2 + 2 * quad_order
    assert (kx.calls, ky.calls) == (1, 1)
    # after the cell averages, q calls per axis mean, each on the rectangle
    # of the axis's distinct window cells and the other axis's distinct
    # coordinates, which on a tensor grid holds just the pairs that occur
    cells_x = distinct_cells(_chi3, w * grid.points[:, 0])
    cells_y = distinct_cells(_chi3, w * grid.points[:, 1])
    mean_u = [cells_x * grid_n] * quad_order
    mean_v = [cells_y * grid_n] * quad_order
    assert f.sizes[quad_order**2 :] == mean_u + mean_v


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
    assert f.calls == quad_order**2 + 2 * quad_order
    columns = len(_axis_windows(_chi3, w * t).weights)
    assert distinct_cells(_chi3, w * t) * len(t) > columns * len(t)
    assert f.sizes[quad_order**2 :] == [columns * len(t)] * (2 * quad_order)


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
