"""Command line front end.

Every subcommand builds a kernel, validates it, runs one computation, and
writes a CSV (to --out, or stdout).  Floats are printed with 17 significant
digits so runs can be compared byte for byte.

Exit codes: 0 success, 2 configuration error (unknown function, singular
kernel system, failed kernel validation, bad flags, an array too large to
allocate), 3 missing lattice data.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    FunctionProfile,
    MissingProfileEntry,
    build_bound_report,
    convergence_study,
    gbs_modulus_bound,
    mixed_modulus_estimate,
)
from .csvio import write_csv
from .functions import TestFunction, UnknownFunction, fn_lookup
from .kernel1d import (
    CentralBSpline,
    CombinationKernel,
    SingularSystem,
    construct_combination_kernel,
)
from .kernel2d import (
    MomentTable,
    TensorKernel2D,
    UnsupportedKernel,
    partition_of_unity_check,
    validate_kernel,
)
from .operators import (
    OPERATORS,
    CatalogMissingDerivative,
    EvalGrid,
    LatticeField,
    MissingData,
    _check_rate,
    admissible_box,
    read_lattice_csv,
    read_pgm,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

VALIDATION_GRID = 32
VALIDATION_TOL = 1e-8

FN_HEADER = ("x", "y", "approx", "exact", "abs_err")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _check_rates(args) -> None:
    """Reject a lattice rate flag that is not finite and positive, by name."""
    for flag in ("--w", "--input-w"):
        w = getattr(args, flag[2:].replace("-", "_"), None)
        if w is not None:
            _check_rate(w, flag)
    if hasattr(args, "w_list"):
        args.w_list = tuple(
            _check_rate(w, "--w-list") for w in _parse_floats(args.w_list)
        )


def _admissible_hint(field: LatticeField, kernel: TensorKernel2D) -> str:
    try:
        box = admissible_box(field, kernel)
    except ValueError as exc:
        return f"no box is admissible: {exc}"
    return "admissible box: --box=%.17g,%.17g,%.17g,%.17g" % box


def _parse_box(text: str) -> tuple[float, float, float, float]:
    parts = _parse_floats(text)
    if len(parts) != 4:
        raise ValueError("box needs exactly four numbers: x0,y0,x1,y1")
    if not all(map(math.isfinite, parts)):
        raise ValueError("box corners must be finite")
    x0, y0, x1, y1 = parts
    if x0 >= x1 or y0 >= y1:
        raise ValueError("box must satisfy x0 < x1 and y0 < y1")
    return parts


def _build_kernel(args) -> TensorKernel2D:
    if args.kernel == "bspline":
        axis = CentralBSpline(args.r)
    else:
        shifts = _parse_floats(args.shifts)
        if len(shifts) != args.r:
            raise ValueError(
                f"combination kernel of order {args.r} needs {args.r} shifts, "
                f"got {len(shifts)}"
            )
        axis = construct_combination_kernel(args.r, shifts)
    kernel = TensorKernel2D(axis, axis)
    validate_kernel(kernel, grid_n=VALIDATION_GRID, tol=VALIDATION_TOL)
    return kernel


def _load_field(args, kernel: TensorKernel2D) -> LatticeField:
    path = Path(args.input)
    if path.suffix.lower() == ".pgm":
        field = read_pgm(path)
    else:
        field = read_lattice_csv(path)
    if args.input_w is not None:
        field = dataclasses.replace(field, w=args.input_w)
    return field


def _fn_and_box(args) -> tuple[TestFunction, tuple[float, float, float, float]]:
    """The catalog function of --fn, and --box or else its default box."""
    f = fn_lookup(args.fn)
    return f, _parse_box(args.box) if args.box else f.default_box


def _fn_columns(args, kernel: TensorKernel2D, f: TestFunction, box) -> tuple:
    """The FN_HEADER columns of operator --op applied to f on the --box grid."""
    grid = EvalGrid.regular(box, args.grid_n, args.w)
    approx = OPERATORS[args.op](f, kernel, grid, args.quad_order)
    exact = grid.sample(f)
    return (*grid.points.T, approx, exact, np.abs(approx - exact))


def _cmd_reconstruct(args) -> int:
    kernel = _build_kernel(args)
    if (args.fn is None) == (args.input is None):
        raise ValueError("give exactly one of --fn or --input")
    if args.fn is not None:
        write_csv(FN_HEADER, _fn_columns(args, kernel, *_fn_and_box(args)), args.out)
        return EXIT_OK
    field = _load_field(args, kernel)
    box = _parse_box(args.box) if args.box else admissible_box(field, kernel)
    grid = EvalGrid.regular(box, args.grid_n, field.w)
    if args.op == "gbs":
        raise ValueError("the boolean-sum operator needs --fn, not --input")
    try:
        approx = OPERATORS[args.op](field, kernel, grid, args.quad_order)
    except MissingData as exc:
        raise MissingData(exc.k, exc.j, _admissible_hint(field, kernel)) from None
    write_csv(("x", "y", "approx"), (*grid.points.T, approx), args.out)
    return EXIT_OK


def _cmd_moments(args) -> int:
    kernel = _build_kernel(args)
    table = MomentTable.compute(kernel, eta_max=args.eta_max, grid_n=args.grid_n)
    pairs = table.index_pairs()
    columns = [[p1 for p1, _ in pairs], [p2 for _, p2 in pairs]]
    for moments in (table.algebraic_mean, table.algebraic_spread, table.absolute_sup):
        columns.append([moments[pair] for pair in pairs])
    write_csv(
        ("p1", "p2", "algebraic_mean", "spread", "absolute_sup"), columns, args.out
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    kernel = _build_kernel(args)
    f, box = _fn_and_box(args)
    profile = FunctionProfile.from_function(f, box)
    report = build_bound_report(kernel, args.w, profile, grid_n=args.grid_n)
    report.to_csv(args.out)
    return EXIT_OK


def _cmd_converge(args) -> int:
    kernel = _build_kernel(args)
    f, box = _fn_and_box(args)
    table = convergence_study(
        f, kernel, args.op, args.w_list, box, args.grid_n, args.quad_order
    )
    table.to_csv(args.out)
    return EXIT_OK


def _cmd_kernel_info(args) -> int:
    kernel = _build_kernel(args)
    table = MomentTable.compute(kernel, eta_max=kernel.moment_order, grid_n=args.grid_n)
    rows = [
        ("r", args.r),
        ("moment_order", kernel.moment_order),
        ("support_x_lo", kernel.support_x[0]),
        ("support_x_hi", kernel.support_x[1]),
        ("support_y_lo", kernel.support_y[0]),
        ("support_y_hi", kernel.support_y[1]),
        ("partition_deviation", partition_of_unity_check(kernel, args.grid_n)),
        ("abs_mass", table.absolute_sup[(0, 0)]),
        ("moment_constant", table.rth_moment_constant(kernel.moment_order)),
    ]
    if isinstance(kernel.kx, CombinationKernel):
        for i, (s, c) in enumerate(zip(kernel.kx.shifts, kernel.kx.coefficients)):
            rows.append((f"shift_{i}", s))
            rows.append((f"coeff_{i}", c))
    names, values = zip(*rows)
    write_csv(("name", "value"), (names, np.array(values, dtype=float)), args.out)
    return EXIT_OK


def _cmd_gbs(args) -> int:
    kernel = _build_kernel(args)
    f, box = _fn_and_box(args)
    delta = 1.0 / args.w
    omega = mixed_modulus_estimate(f, delta, delta, box)
    moments = MomentTable.compute(kernel, eta_max=2)
    bound = gbs_modulus_bound(moments, args.w, delta, delta, omega)
    columns = _fn_columns(args, kernel, f, box)
    bounds = np.full(len(columns[0]), bound)
    write_csv((*FN_HEADER, "modulus_bound"), (*columns, bounds), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one ``error: ...`` line and exits 2.

    Subcommand parsers are made of the same class.
    """

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {self.prog}: {' '.join(message.split())}\n")


def _add_kernel_options(sub) -> None:
    sub.add_argument(
        "--kernel",
        choices=["bspline", "combo"],
        default="combo",
        help="axis kernel: plain central B-spline or moment-cancelling combination",
    )
    sub.add_argument("--r", type=int, default=3, help="kernel order")
    sub.add_argument(
        "--shifts",
        default="2,3,4",
        help="comma-separated shifts for the combination kernel",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kanto",
        description="Lattice sampling series: reconstruction, moments, error bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("reconstruct", help="evaluate an operator on a grid")
    _add_kernel_options(sub)
    sub.add_argument("--fn", help="catalog function name")
    sub.add_argument("--input", help="lattice CSV or PGM image file")
    sub.add_argument(
        "--input-w", type=float, default=None, help="override the input lattice rate"
    )
    sub.add_argument("--op", choices=list(OPERATORS), default="gw")
    sub.add_argument("--w", type=float, default=10.0, help="lattice rate")
    sub.add_argument("--box", help="evaluation box x0,y0,x1,y1")
    sub.add_argument("--grid-n", type=int, default=20)
    sub.add_argument("--quad-order", type=int, default=5)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_reconstruct)

    sub = subs.add_parser("moments", help="tabulate kernel lattice moments")
    _add_kernel_options(sub)
    sub.add_argument("--eta-max", type=int, default=3)
    sub.add_argument("--grid-n", type=int, default=64)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_moments)

    sub = subs.add_parser("bounds", help="evaluate every error-bound constant")
    _add_kernel_options(sub)
    sub.add_argument("--fn", required=True, help="catalog function name")
    sub.add_argument("--w", type=float, default=10.0, help="lattice rate")
    sub.add_argument("--box", help="profile box x0,y0,x1,y1")
    sub.add_argument("--grid-n", type=int, default=64)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_bounds)

    sub = subs.add_parser("converge", help="sup-error table over increasing rates")
    _add_kernel_options(sub)
    sub.add_argument("--fn", required=True, help="catalog function name")
    sub.add_argument("--op", choices=list(OPERATORS), default="gw")
    sub.add_argument("--w-list", default="5,10,20,40", help="comma-separated rates")
    sub.add_argument("--box", help="evaluation box x0,y0,x1,y1")
    sub.add_argument("--grid-n", type=int, default=20)
    sub.add_argument("--quad-order", type=int, default=5)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_converge)

    sub = subs.add_parser("kernel-info", help="kernel summary constants")
    _add_kernel_options(sub)
    sub.add_argument("--grid-n", type=int, default=64)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_kernel_info)

    sub = subs.add_parser(
        "gbs", help="boolean-sum reconstruction with its modulus bound"
    )
    _add_kernel_options(sub)
    sub.add_argument("--fn", required=True, help="catalog function name")
    sub.add_argument("--w", type=float, default=10.0, help="lattice rate")
    sub.add_argument("--box", help="evaluation box x0,y0,x1,y1")
    sub.add_argument("--grid-n", type=int, default=20)
    sub.add_argument("--quad-order", type=int, default=5)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_gbs, op="gbs")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        _check_rates(args)
        return args.handler(args)
    except MissingData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        UnknownFunction,
        SingularSystem,
        UnsupportedKernel,
        MissingProfileEntry,
        CatalogMissingDerivative,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> int:
    return main()
