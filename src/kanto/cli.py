"""Command line front end.

Every subcommand takes the kernel flags --kernel, --r and --shifts and the
output flag --out.  ``main`` builds and validates that kernel once, before
dispatch, and hands it to the subcommand, which runs one computation and
writes a CSV (to --out, or stdout).  Floats are printed with 17 significant
digits so runs can be compared byte for byte.

Exit codes: 0 success, 2 configuration error (bad flags, any ValueError or
OSError, an array too large to allocate), 3 missing lattice data (MissingData).
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
    build_bound_report,
    convergence_study,
    gbs_modulus_bound,
    mixed_modulus_estimate,
)
from .csvio import write_csv
from .functions import TestFunction, fn_lookup
from .kernel1d import CentralBSpline, CombinationKernel, construct_combination_kernel
from .kernel2d import (
    MomentTable,
    TensorKernel2D,
    partition_of_unity_check,
    validate_kernel,
)
from .operators import (
    OPERATORS,
    EvalGrid,
    LatticeField,
    MissingData,
    _check_rate,
    _interior_hole,
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


def _admissible_hint(
    field: LatticeField, kernel: TensorKernel2D, exc: MissingData
) -> str:
    """How to get past the missing cell of exc: a box that runs, or the hole to fill.

    No box is offered while the field has a hole that the windows of the
    admissible box may read.
    """
    try:
        box = admissible_box(field, kernel)
    except ValueError as err:
        return f"no box is admissible: {err}"
    hole = _interior_hole(field, exc.k, exc.j)
    if hole is not None:
        where = "" if hole == (exc.k, exc.j) else " at (k=%d, j=%d)" % hole
        return (
            f"the hole{where} lies inside the lattice: fill it, or pass a --box "
            "whose windows avoid it"
        )
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
        axis = construct_combination_kernel(args.r, _parse_floats(args.shifts))
    kernel = TensorKernel2D(axis, axis)
    validate_kernel(kernel, grid_n=VALIDATION_GRID, tol=VALIDATION_TOL)
    return kernel


def _load_field(args) -> LatticeField:
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


def _cmd_reconstruct(args, kernel: TensorKernel2D) -> None:
    if (args.fn is None) == (args.input is None):
        raise ValueError("give exactly one of --fn or --input")
    if args.fn is not None:
        write_csv(FN_HEADER, _fn_columns(args, kernel, *_fn_and_box(args)), args.out)
        return
    field = _load_field(args)
    box = _parse_box(args.box) if args.box else admissible_box(field, kernel)
    grid = EvalGrid.regular(box, args.grid_n, field.w)
    if args.op == "gbs":
        raise ValueError("the boolean-sum operator needs --fn, not --input")
    try:
        approx = OPERATORS[args.op](field, kernel, grid, args.quad_order)
    except MissingData as exc:
        raise MissingData(exc.k, exc.j, _admissible_hint(field, kernel, exc)) from None
    write_csv(("x", "y", "approx"), (*grid.points.T, approx), args.out)


def _cmd_moments(args, kernel: TensorKernel2D) -> None:
    table = MomentTable.compute(kernel, eta_max=args.eta_max, grid_n=args.grid_n)
    pairs = table.index_pairs()
    columns = [[p1 for p1, _ in pairs], [p2 for _, p2 in pairs]]
    for moments in (table.algebraic_mean, table.algebraic_spread, table.absolute_sup):
        columns.append([moments[pair] for pair in pairs])
    write_csv(
        ("p1", "p2", "algebraic_mean", "spread", "absolute_sup"), columns, args.out
    )


def _cmd_bounds(args, kernel: TensorKernel2D) -> None:
    f, box = _fn_and_box(args)
    profile = FunctionProfile.from_function(f, box)
    report = build_bound_report(kernel, args.w, profile, grid_n=args.grid_n)
    report.to_csv(args.out)


def _cmd_converge(args, kernel: TensorKernel2D) -> None:
    f, box = _fn_and_box(args)
    table = convergence_study(
        f, kernel, args.op, args.w_list, box, args.grid_n, args.quad_order
    )
    table.to_csv(args.out)


def _cmd_kernel_info(args, kernel: TensorKernel2D) -> None:
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


def _cmd_gbs(args, kernel: TensorKernel2D) -> None:
    f, box = _fn_and_box(args)
    delta = 1.0 / args.w
    omega = mixed_modulus_estimate(f, delta, delta, box)
    moments = MomentTable.compute(kernel, eta_max=2)
    bound = gbs_modulus_bound(moments, args.w, delta, delta, omega)
    columns = _fn_columns(args, kernel, f, box)
    bounds = np.full(len(columns[0]), bound)
    write_csv((*FN_HEADER, "modulus_bound"), (*columns, bounds), args.out)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one ``error: ...`` line and exits 2.

    Subcommand parsers are made of the same class.
    """

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {self.prog}: {' '.join(message.split())}\n")


def _flag(*names, **options) -> argparse.ArgumentParser:
    """A parent parser holding one flag; subcommands list their flags as parents."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kanto",
        description="Lattice sampling series: reconstruction, moments, error bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kernel_flags = argparse.ArgumentParser(add_help=False)
    kernel_flags.add_argument(
        "--kernel",
        choices=["bspline", "combo"],
        default="combo",
        help="axis kernel: plain central B-spline or moment-cancelling combination",
    )
    kernel_flags.add_argument("--r", type=int, default=3, help="kernel order")
    kernel_flags.add_argument(
        "--shifts",
        default="2,3,4",
        help="comma-separated shifts for the combination kernel",
    )
    out = _flag("--out", help="output CSV path (default: stdout)")
    fn = _flag("--fn", required=True, help="catalog function name")
    op = _flag("--op", choices=list(OPERATORS), default="gw")
    rate = _flag("--w", type=float, default=10.0, help="lattice rate")
    box = _flag("--box", help="evaluation box x0,y0,x1,y1")
    grid = {n: _flag("--grid-n", type=int, default=n) for n in (20, 64)}
    quad = _flag("--quad-order", type=int, default=5)

    def command(name, handler, help, *flags) -> argparse.ArgumentParser:
        """Subcommand ``name``: the kernel flags, then ``flags``, then --out."""
        sub = subs.add_parser(name, help=help, parents=[kernel_flags, *flags, out])
        sub.set_defaults(handler=handler)
        return sub

    command(
        "reconstruct", _cmd_reconstruct, "evaluate an operator on a grid",
        _flag("--fn", help="catalog function name"),
        _flag("--input", help="lattice CSV or PGM image file"),
        _flag("--input-w", type=float, help="override the input lattice rate"),
        op, rate, box, grid[20], quad,
    )
    command(
        "moments", _cmd_moments, "tabulate kernel lattice moments",
        _flag("--eta-max", type=int, default=3), grid[64],
    )
    command(
        "bounds", _cmd_bounds, "evaluate every error-bound constant",
        fn, rate, box, grid[64],
    )
    command(
        "converge", _cmd_converge, "sup-error table over increasing rates",
        fn, op, _flag("--w-list", default="5,10,20,40", help="comma-separated rates"),
        box, grid[20], quad,
    )
    command("kernel-info", _cmd_kernel_info, "kernel summary constants", grid[64])
    command(
        "gbs", _cmd_gbs, "boolean-sum reconstruction with its modulus bound",
        fn, rate, box, grid[20], quad,
    ).set_defaults(op="gbs")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        _check_rates(args)
        kernel = _build_kernel(args)
        args.handler(args, kernel)
    except MissingData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def run() -> int:
    return main()
