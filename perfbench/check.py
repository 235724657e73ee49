"""Output checks: independent oracles for the CSV that each workload writes.

``image_gw`` and ``catalog_sw`` are checked row by row on a seeded
subsample against the dense-patch oracle of acceptance test 11: a scalar
double loop over the kernel window built from ``kernel.kx``/``ky``,
``LatticeField.get`` and ``cell_average``.  ``gbs_converge`` is checked
against a vectorised boolean-sum oracle that shares no loop with
``apply_gbs``; that oracle is itself pinned to the table the seed code
printed on the unjittered box.

The tolerance admits a change of rounding (a stable B-spline recursion, a
vectorised accumulation) but not a wrong window: dropping or adding one
window term moves a value by at least about 1e-4.
"""

from __future__ import annotations

import math

import numpy as np

from kanto import (
    LatticeField,
    TensorKernel2D,
    cell_average,
    construct_combination_kernel,
    fn_lookup,
)
from workloads import CATALOG_BOX, KERNEL_R, KERNEL_SHIFTS, QUAD_ORDER, Workload

VALUE_TOL = 1e-9  # absolute, on values of order 1
COORD_TOL = 1e-12
SUP_ERROR_RTOL = 1e-6
SLOPE_TOL = 1e-6
SUBSAMPLE_ROWS = 40

# `kanto converge --fn sin_x_cos_y --op gbs --w-list 5,10,20,40 --grid-n 20`
# on the default box, as printed by the seed code.
GBS_RECORDED = {
    "rows": ((5.0, 0.0095876920705268154), (10.0, 0.0017912878804274002),
             (20.0, 0.00040361815820380564), (40.0, 9.7712332518512524e-05)),
    "slope": -2.1999431540896066,
}


def _kernel() -> TensorKernel2D:
    axis = construct_combination_kernel(KERNEL_R, KERNEL_SHIFTS)
    return TensorKernel2D(axis, axis)


def _dense_patch(kernel, value, w: float, x: float, y: float) -> float:
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    ks = range(math.ceil(w * x - hix), math.floor(w * x - lox) + 1)
    js = range(math.ceil(w * y - hiy), math.floor(w * y - loy) + 1)
    acc = 0.0
    for k in ks:
        a = kernel.kx(w * x - float(k))
        for j in js:
            b = kernel.ky(w * y - float(j))
            acc += (a * b) * value(k, j)
    return acc


def _read_csv(text: str, header: str, ncols: int) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != ncols:
        raise ValueError(f"expected {ncols} columns per row")
    if not np.isfinite(rows).all():
        raise ValueError("non-finite value in output")
    return rows


def _grid_points(box, n: int) -> np.ndarray:
    x0, y0, x1, y1 = box
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    return np.column_stack([np.repeat(xs, n), np.tile(ys, n)])


def _check_rows(rows, points, kernel, value, w, exact, seed) -> list[str]:
    problems = []
    if len(rows) != len(points):
        return [f"expected {len(points)} rows, got {len(rows)}"]
    if np.abs(rows[:, :2] - points).max() > COORD_TOL * max(1.0, np.abs(points).max()):
        problems.append("evaluation points differ from the regular grid")
    rng = np.random.default_rng(seed)
    pick = {0, len(rows) - 1}
    pick.update(rng.choice(len(rows), size=min(SUBSAMPLE_ROWS, len(rows)), replace=False).tolist())
    for i in sorted(pick):
        x, y = points[i]
        want = _dense_patch(kernel, value, w, x, y)
        if abs(rows[i, 2] - want) > VALUE_TOL:
            problems.append(f"row {i + 1}: approx {float(rows[i, 2])!r}, oracle {want!r}")
        if exact is not None:
            e = float(exact(x, y))
            if abs(rows[i, 3] - e) > VALUE_TOL or abs(rows[i, 4] - abs(rows[i, 2] - e)) > VALUE_TOL:
                problems.append(f"row {i + 1}: exact or abs_err column wrong")
    return problems


def _check_image(wl: Workload, text: str) -> list[str]:
    p = wl.params
    kernel = _kernel()
    # read_pgm maps pixel (row j, column k) to the unit-rate sample (k, j)
    field = LatticeField(w=p["w"], kind="samples",
                         values=p["pixels"].astype(float) / 255.0, kmin=0, jmin=0)
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    box = ((field.kmin + hix) / field.w, (field.jmin + hiy) / field.w,
           (field.kmax + lox) / field.w, (field.jmax + loy) / field.w)
    rows = _read_csv(text, "x,y,approx", 3)
    return _check_rows(rows, _grid_points(box, p["grid_n"]), kernel, field.get,
                       field.w, None, wl.seed)


def _check_sw(wl: Workload, text: str) -> list[str]:
    p = wl.params
    f = fn_lookup(p["fn"])
    w = p["w"]
    rows = _read_csv(text, "x,y,approx,exact,abs_err", 5)
    return _check_rows(rows, _grid_points(p["box"], p["grid_n"]), _kernel(),
                       lambda k, j: cell_average(f, k, j, w, QUAD_ORDER), w, f, wl.seed)


def gbs_oracle(f, box, n: int, rates) -> tuple[list[tuple[float, float]], float]:
    """Sup-error table and log-log slope of the boolean-sum operator.

    Vectorised over points: every point takes the same number of window
    candidates; candidates outside the kernel support get weight exactly 0.
    """
    kernel = _kernel()
    lox, hix = kernel.support_x
    loy, hiy = kernel.support_y
    radius = max(abs(lox), abs(hix), abs(loy), abs(hiy))
    margin = (radius + 1.0) / min(rates)
    x0, y0, x1, y1 = box
    pts = _grid_points((x0 + margin, y0 + margin, x1 - margin, y1 - margin), n)
    X, Y = pts[:, 0], pts[:, 1]
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    half_w = 0.5 * weights
    rows = []
    for w in rates:
        t1, t2 = w * X, w * Y
        ks = np.ceil(t1 - hix)[:, None] + np.arange(math.floor(hix - lox) + 1)
        js = np.ceil(t2 - hiy)[:, None] + np.arange(math.floor(hiy - loy) + 1)
        cx = kernel.kx(t1[:, None] - ks)
        cy = kernel.ky(t2[:, None] - js)
        u = (ks[:, :, None] + 0.5 * (nodes + 1.0)) / w  # point, k, node
        v = (js[:, :, None] + 0.5 * (nodes + 1.0)) / w
        mean_u = (half_w * f(u, Y[:, None, None])).sum(-1)
        mean_v = (half_w * f(X[:, None, None], v)).sum(-1)
        cell = f(u[:, :, None, :, None], v[:, None, :, None, :])
        mean_uv = 0.25 * np.einsum("pkjil,i,l->pkj", cell, weights, weights)
        terms = mean_v[:, None, :] + mean_u[:, :, None] - mean_uv
        approx = np.einsum("pk,pj,pkj->p", cx, cy, terms)
        rows.append((float(w), float(np.abs(approx - f(X, Y)).max())))
    logw = np.log([w for w, _ in rows])
    loge = np.log([max(e, 1e-300) for _, e in rows])
    return rows, float(np.polyfit(logw, loge, 1)[0])


def _compare_table(rows, slope, want_rows, want_slope, what: str) -> list[str]:
    problems = []
    if [w for w, _ in rows] != [w for w, _ in want_rows]:
        return [f"{what}: rates {[w for w, _ in rows]} != {[w for w, _ in want_rows]}"]
    for (w, e), (_, want) in zip(rows, want_rows):
        if abs(e - want) > SUP_ERROR_RTOL * abs(want):
            problems.append(f"{what}: sup_error at w={w:g} is {e!r}, expected {want!r}")
    if abs(slope - want_slope) > SLOPE_TOL:
        problems.append(f"{what}: slope {slope!r}, expected {want_slope!r}")
    return problems


def _check_gbs(wl: Workload, text: str) -> list[str]:
    p = wl.params
    f = fn_lookup(p["fn"])
    lines = text.splitlines()
    if not lines or lines[0] != "w,sup_error" or not lines[-1].startswith("slope,"):
        return ["expected a w,sup_error table ending in a slope row"]
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
    slope = float(lines[-1].split(",")[1])
    problems = []
    if wl.size == "full":
        ref_rows, ref_slope = gbs_oracle(f, CATALOG_BOX, p["grid_n"], p["rates"])
        problems += _compare_table(ref_rows, ref_slope, GBS_RECORDED["rows"],
                                   GBS_RECORDED["slope"], "oracle on the default box")
    want_rows, want_slope = gbs_oracle(f, p["box"], p["grid_n"], p["rates"])
    return problems + _compare_table(rows, slope, want_rows, want_slope, "output")


CHECKS = {"image_gw": _check_image, "catalog_sw": _check_sw, "gbs_converge": _check_gbs}


def check_output(wl: Workload, text: str) -> list[str]:
    """Problems found in one invocation's output; empty when it is correct."""
    try:
        return CHECKS[wl.name](wl, text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
