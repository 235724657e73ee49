"""End-to-end CLI checks through subprocess: formats, exit codes, determinism."""

import argparse
import dataclasses
import errno
import gc
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kanto import (
    CentralBSpline,
    LatticeField,
    TensorKernel2D,
    UnsupportedKernel,
    cli,
    construct_combination_kernel,
    fn_lookup,
    validate_kernel,
    write_lattice_csv,
)
from kanto.operators import KIND_CELL_AVERAGES, QUAD_ORDER_MAX


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("KANTO_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kanto", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# option string -> (default, choices, required, type) of every subcommand flag
COMMON_FLAGS = {
    "-h": (argparse.SUPPRESS, None, False, None),
    "--help": (argparse.SUPPRESS, None, False, None),
    "--kernel": ("combo", ["bspline", "combo"], False, None),
    "--r": (3, None, False, int),
    "--shifts": (None, None, False, None),
    "--out": (None, None, False, None),
}
FN = {"--fn": (None, None, True, None)}
OP = {"--op": ("gw", ["gw", "sw", "gbs"], False, None)}
RATE = {"--w": (10.0, None, False, float)}
BOX = {"--box": (None, None, False, None)}
QUAD = {"--quad-order": (5, None, False, int)}
GRID_20 = {"--grid-n": (20, None, False, int)}
GRID_64 = {"--grid-n": (64, None, False, int)}
FLAG_TABLE = {
    "reconstruct": {
        "--fn": (None, None, False, None),
        "--input": (None, None, False, None),
        "--input-w": (None, None, False, float),
        **OP, **RATE, **BOX, **GRID_20, **QUAD,
    },
    "moments": {"--eta-max": (3, None, False, int), **GRID_64},
    "bounds": {**FN, **RATE, **BOX, **GRID_64},
    "converge": {
        **FN, **OP, "--w-list": ("5,10,20,40", None, False, None),
        **BOX, **GRID_20, **QUAD,
    },
    "kernel-info": GRID_64,
    "gbs": {**FN, **RATE, **BOX, **GRID_20, **QUAD},
}


@pytest.mark.parametrize("command", FLAG_TABLE)
def test_flag_table(command):
    """Every subcommand keeps its option strings, defaults, choices and types."""
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(FLAG_TABLE)
    sub = subs.choices[command]
    table = {
        option: (a.default, a.choices and list(a.choices), a.required, a.type)
        for a in sub._actions
        for option in a.option_strings
    }
    assert table == {**COMMON_FLAGS, **FLAG_TABLE[command]}
    op_default = {"reconstruct": "gw", "converge": "gw", "gbs": "gbs"}
    assert sub.get_default("op") == op_default.get(command)


@pytest.mark.parametrize("command", FLAG_TABLE)
def test_every_option_has_help(command):
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[command]
    helps = {option: a.help for a in sub._actions for option in a.option_strings}
    assert all(helps.values()), helps
    grid = FLAG_TABLE[command].get("--grid-n")
    if grid is not None:
        # one flag name, two grids: the help says which one it sets
        which = "evaluation" if grid == GRID_20["--grid-n"] else "moment"
        assert which in helps["--grid-n"]
    if "--quad-order" in helps:
        assert str(QUAD_ORDER_MAX) in helps["--quad-order"]


def test_one_parser_per_process(capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ["gbs", "--fn", "sin_x_cos_y", "--w", "5", "--grid-n", "3"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"x,y,approx,exact,abs_err,modulus_bound\n")
    # a usage error after a successful call: still one line and exit 2
    assert cli.main(["gbs", "--fn", "sin_x_cos_y", "--grid-n", "three"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: kanto gbs: argument --grid-n")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == outputs[0]


def counting(calls, fn):
    """fn, appending its name to calls on each call."""

    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the kernel builders and checks that main calls, from an empty cache."""
    calls = []
    for name in ("CentralBSpline", "construct_combination_kernel", "TensorKernel2D",
                 "validate_kernel"):
        monkeypatch.setattr(cli, name, counting(calls, getattr(cli, name)))
    cli._build_kernel.cache_clear()
    yield calls
    cli._build_kernel.cache_clear()  # drop kernels built through the wrappers


def test_one_kernel_per_process_and_kernel_flags(kernel_calls, capsys):
    argv = ["gbs", "--fn", "sin_x_cos_y", "--w", "5", "--grid-n", "3"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out.encode())
    assert kernel_calls == ["construct_combination_kernel", "TensorKernel2D", "validate_kernel"]
    assert outputs[0] == outputs[1]
    assert cli._build_kernel.cache_info().currsize == 1


def test_kernel_flags_that_differ_give_different_kernels(kernel_calls, tmp_path):
    flag_sets = [
        [],
        ["--kernel", "bspline"],
        ["--r", "4"],
        ["--shifts=-1,0,1"],
        ["--kernel", "bspline", "--r", "4"],
    ]
    outputs = set()
    for i, flags in enumerate(flag_sets, 1):
        out = tmp_path / f"{i}.csv"
        assert cli.main(["kernel-info", *flags, "--out", str(out)]) == 0
        outputs.add(out.read_bytes())
        assert kernel_calls.count("validate_kernel") == i
    assert len(outputs) == len(flag_sets)
    kernels = [cli._build_kernel(kind, r, shifts) for kind, r, shifts in
               [("combo", 3, None), ("bspline", 3, None), ("combo", 4, None),
                ("combo", 3, "-1,0,1"), ("bspline", 4, None)]]
    assert len(set(kernels)) == len(kernels)
    assert kernel_calls.count("validate_kernel") == len(flag_sets)  # all five were hits
    assert cli._build_kernel("combo", 3, None) is kernels[0]


def test_inadmissible_kernel_is_checked_on_every_call(kernel_calls, capsys):
    argv = ["kernel-info", "--shifts", "2,3,1e300"]
    for calls in (1, 2):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: moment matrix condition inf exceeds 1e+12\n"
        )
        assert kernel_calls == ["construct_combination_kernel"] * calls
    assert cli._build_kernel.cache_info().currsize == 0


@pytest.mark.parametrize(
    "kernel",
    [
        CentralBSpline(3),
        construct_combination_kernel(3, (2.0, 3.0, 4.0)),
        TensorKernel2D(CentralBSpline(2), CentralBSpline(3)),
    ],
    ids=["bspline", "combination", "tensor"],
)
def test_kernel_classes_are_frozen(kernel):
    # main shares one kernel between calls: no caller can change it
    for name in [f.name for f in dataclasses.fields(kernel)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kernel, name, 1)
    hash(kernel)  # every field is immutable, down to the tuples of floats


KERNELS = [("bspline", r, None) for r in range(1, 21)] + [
    ("combo", r, ",".join(str(s) for s in range(2, r + 2))) for r in range(2, 6)
]


@pytest.mark.parametrize("kind, r, shifts", KERNELS)
def test_api_and_cli_admit_the_same_kernels(kind, r, shifts, tmp_path):
    argv = ["kernel-info", "--kernel", kind, "--r", str(r)]
    if kind == "bspline":
        axis = CentralBSpline(r)
    else:
        axis = construct_combination_kernel(r, [float(s) for s in shifts.split(",")])
        argv += ["--shifts", shifts]
    try:
        validate_kernel(TensorKernel2D(axis, axis))
        admitted = True
    except UnsupportedKernel:
        admitted = False
    assert cli.main([*argv, "--out", str(tmp_path / "k.csv")]) == (0 if admitted else 2)
    # B-splines from order 17 on lose the partition of unity to rounding
    assert admitted == (kind == "combo" or r <= 16)


class TestKernelInfo:
    def test_default_combination_kernel(self):
        proc = run_cli("kernel-info")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["name", "value"]
        table = {name: float(val) for name, val in rows}
        assert table["moment_order"] == 3.0
        assert table["partition_deviation"] <= 1e-8
        assert table["coeff_0"] == pytest.approx(47.0 / 8.0, abs=1e-12)

    @pytest.mark.parametrize(
        "r, shifts",
        [(2, "-0.5,0.5"), (3, "2,3,4"), (4, "-1.5,-0.5,0.5,1.5"), (5, "-2,-1,0,1,2")],
    )
    def test_default_shifts_per_order(self, r, shifts, tmp_path):
        # without --shifts, r = 3 keeps the one-sided 2,3,4 and any other
        # order gets the centred i - (r - 1)/2; with 2,3,4 for every order,
        # r = 2, 4 and 5 exited 2 ("needs r shifts, got 3")
        default, given = tmp_path / "default.csv", tmp_path / "given.csv"
        argv = ["kernel-info", "--kernel", "combo", "--r", str(r)]
        assert cli.main([*argv, "--out", str(default)]) == 0
        assert cli.main([*argv, f"--shifts={shifts}", "--out", str(given)]) == 0
        assert default.read_bytes() == given.read_bytes()
        table = {n: float(v) for n, v in parse_csv(default.read_text())[1]}
        assert [table[f"shift_{i}"] for i in range(r)] == [float(s) for s in shifts.split(",")]
        assert table["moment_order"] == r
        assert table["partition_deviation"] <= 1e-8
        if r != 3:
            assert 1.0 <= table["abs_mass"] < 2.0

    def test_plain_spline(self):
        proc = run_cli("kernel-info", "--kernel", "bspline", "--r", "3")
        assert proc.returncode == 0
        table = {n: float(v) for n, v in parse_csv(proc.stdout)[1]}
        assert table["moment_order"] == 2.0
        assert table["support_x_lo"] == -1.5


class TestMoments:
    def test_row_order_and_constancy(self):
        proc = run_cli("moments", "--eta-max", "3")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["p1", "p2", "algebraic_mean", "spread", "absolute_sup"]
        pairs = [(int(r[0]), int(r[1])) for r in rows]
        assert pairs == [
            (0, 0), (1, 0), (0, 1),
            (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3),
        ]
        means = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        spreads = {(int(r[0]), int(r[1])): float(r[3]) for r in rows}
        assert means[(0, 0)] == pytest.approx(1.0, abs=1e-9)
        for pair in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            assert abs(means[pair]) <= 1e-9
            assert spreads[pair] <= 1e-9
        assert means[(3, 0)] == pytest.approx(21.75, abs=0.05)

    def test_out_file_uses_lf_only(self, tmp_path):
        out = tmp_path / "moments.csv"
        proc = run_cli("moments", "--eta-max", "1", "--out", str(out))
        assert proc.returncode == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"p1,p2,")


class TestReconstruct:
    def test_average_series_shift(self):
        proc = run_cli(
            "reconstruct", "--fn", "x_plus_y", "--op", "sw",
            "--w", "10", "--box", "0,0,1,1", "--grid-n", "3",
        )
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["x", "y", "approx", "exact", "abs_err"]
        assert len(rows) == 9
        for row in rows:
            assert float(row[4]) == pytest.approx(0.1, abs=1e-9)

    def test_plain_spline_quadratic_offset(self):
        proc = run_cli(
            "reconstruct", "--fn", "x2", "--kernel", "bspline",
            "--w", "10", "--box", "0,0,1,1", "--grid-n", "3",
        )
        assert proc.returncode == 0
        for row in parse_csv(proc.stdout)[1]:
            assert float(row[4]) == pytest.approx(0.0025, abs=1e-9)

    def test_input_field_roundtrip(self, tmp_path):
        field = LatticeField.from_function(fn_lookup("gaussian"), 10.0, -8, 18, -8, 18)
        path = tmp_path / "samples.csv"
        write_lattice_csv(field, path)
        proc = run_cli(
            "reconstruct", "--input", str(path), "--kernel", "bspline",
            "--box", "0,0,1,1", "--grid-n", "3",
        )
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["x", "y", "approx"]
        assert len(rows) == 9

    def test_averages_input_with_sw(self, tmp_path):
        field = LatticeField.from_function(
            fn_lookup("x_plus_y"), 10.0, -8, 18, -8, 18, kind=KIND_CELL_AVERAGES
        )
        path = tmp_path / "avg.csv"
        write_lattice_csv(field, path)
        proc = run_cli(
            "reconstruct", "--input", str(path), "--op", "sw",
            "--box", "0.2,0.2,0.8,0.8", "--grid-n", "2",
        )
        assert proc.returncode == 0
        for row in parse_csv(proc.stdout)[1]:
            x, y, approx = map(float, row)
            assert approx == pytest.approx(x + y + 0.1, abs=1e-9)

    def test_missing_data_exit_code(self, tmp_path):
        field = LatticeField.from_function(fn_lookup("x"), 10.0, 0, 10, 0, 10)
        path = tmp_path / "small.csv"
        write_lattice_csv(field, path)
        proc = run_cli(
            "reconstruct", "--input", str(path), "--kernel", "bspline",
            "--box=-5,-5,5,5", "--grid-n", "4",
        )
        assert proc.returncode == 3
        assert "(k=" in proc.stderr

    def test_missing_data_prints_usable_box(self, tmp_path):
        field = LatticeField.from_function(fn_lookup("x"), 10.0, 0, 10, 0, 10)
        path = tmp_path / "small.csv"
        write_lattice_csv(field, path)
        args = ("reconstruct", "--input", str(path), "--kernel", "bspline", "--grid-n", "4")
        proc = run_cli(*args, "--box=-5,-5,5,5")
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert "(k=-51, j=-51); admissible box: --box=" in proc.stderr
        box_flag = proc.stderr.split()[-1]
        assert run_cli(*args, box_flag).returncode == 0

    def test_hole_inside_the_lattice_offers_no_box(self, tmp_path):
        # the hint was --box=-0.25,-0.25,1.85...,1.85..., whose windows read
        # the hole again
        field = LatticeField.from_function(fn_lookup("x"), 10.0, -8, 18, -8, 18)
        path = tmp_path / "holey.csv"
        write_lattice_csv(field, path)
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(row for row in rows if not row.startswith("5,5,")))
        args = ("reconstruct", "--input", str(path), "--grid-n=3")
        avoid = "fill it, or pass a --box whose windows avoid it\n"
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: missing lattice value at (k=5, j=5); the hole lies inside "
            "the lattice: " + avoid
        )
        proc = run_cli(*args, "--box=-5,-5,5,5")
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: missing lattice value at (k=-55, j=-55); the hole at "
            "(k=5, j=5) lies inside the lattice: " + avoid
        )
        # a box whose windows avoid the hole runs
        assert run_cli(*args, "--box=0.1,0.1,0.3,0.3").returncode == 0

    def test_field_of_the_wrong_kind_offers_no_box(self, tmp_path):
        # was exit 3 offering --box=5.5,5.5,31.5,31.5, which exits 2 with
        # this message
        path = tmp_path / "small.pgm"
        path.write_bytes(b"P5\n32 32\n255\n" + bytes(range(256)) * 4)
        proc = run_cli(
            "reconstruct", "--input", str(path), "--op", "sw", "--grid-n", "2",
            "--box=-5,-5,-4,-4",
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: average-based operator needs a field of kind 'cell_averages'\n"
        )

    def test_duplicate_row_is_a_config_error(self, tmp_path):
        field = LatticeField.from_function(fn_lookup("x"), 10.0, -8, 18, -8, 18)
        path = tmp_path / "dup.csv"
        write_lattice_csv(field, path)
        with path.open("a") as fh:
            fh.write("3,4,0.5\n")
        proc = run_cli("reconstruct", "--input", str(path), "--grid-n", "2")
        assert proc.returncode == 2
        assert "dup.csv" in proc.stderr and "(3,4)" in proc.stderr

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_value_is_a_config_error(self, tmp_path, value):
        # was exit 0, with inf or nan in the approx column
        field = LatticeField.from_function(fn_lookup("x"), 10.0, -8, 18, -8, 18)
        path = tmp_path / "inf.csv"
        write_lattice_csv(field, path)
        lines = path.read_text().splitlines()
        lines = [f"5,5,{value}" if line.startswith("5,5,") else line for line in lines]
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli("reconstruct", "--input", str(path), "--grid-n", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: lattice value at (k=5, j=5) is {value}; values must be "
            "finite, or NaN where absent\n"
        )

    def test_series_that_overflows_is_a_config_error(self, tmp_path):
        # values near the float maximum: was exit 0 with nan rows, after
        # numpy RuntimeWarnings (overflow in multiply, invalid value in add)
        field = LatticeField.from_function(lambda x, y: 1.7e308, 10.0, -8, 18, -8, 18)
        path = tmp_path / "big.csv"
        write_lattice_csv(field, path)
        proc = run_cli("reconstruct", "--input", str(path), "--grid-n", "2")
        assert proc.returncode == 2
        assert proc.stderr == "error: the series overflows; scale the source values down\n"

    def test_fn_and_input_conflict(self, tmp_path):
        proc = run_cli("reconstruct", "--fn", "x", "--input", "whatever.csv")
        assert proc.returncode == 2

    def test_gbs_needs_fn(self, tmp_path):
        field = LatticeField.from_function(fn_lookup("x"), 10.0, -8, 18, -8, 18)
        path = tmp_path / "f.csv"
        write_lattice_csv(field, path)
        proc = run_cli("reconstruct", "--input", str(path), "--op", "gbs")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "fn, box, column", [("x", "-1,-1,-0,1", 0), ("y", "-1,-1,1,-0", 1)]
    )
    def test_exact_column_keeps_negative_zero(self, fn, box, column):
        # x and y return their argument itself, so a -0 box edge prints as
        # -0 in both columns (exact read 0 while the catalog added 0.0 * y)
        proc = run_cli("reconstruct", "--fn", fn, f"--box={box}", "--grid-n", "3")
        assert proc.returncode == 0, proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert header[column] == fn and header[3] == "exact"
        assert [row[3] for row in rows] == [row[column] for row in rows]
        assert sum(row[3] == "-0" for row in rows) == 3


class TestErrorPaths:
    def test_unknown_function(self):
        proc = run_cli("reconstruct", "--fn", "nope")
        assert proc.returncode == 2
        assert "unknown function" in proc.stderr

    def test_singular_shift_system(self):
        proc = run_cli("moments", "--shifts", "0,1e-13,1")
        assert proc.returncode == 2

    def test_wrong_shift_count(self):
        proc = run_cli("moments", "--shifts", "1,2")
        assert proc.returncode == 2
        assert proc.stderr == "error: combination kernel of order 3 needs 3 shifts, got 2\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            # was an OverflowError traceback, exit 1
            (("--shifts", "2,3,inf"), "shifts must be finite, got (2.0, 3.0, inf)"),
            # was "cannot convert float NaN to integer"
            (("--shifts", "2,3,nan"), "shifts must be finite, got (2.0, 3.0, nan)"),
            # each was a RuntimeWarning before its error line
            (("--shifts", "2,3,1e300"), "moment matrix condition inf exceeds 1e+12"),
            (("--kernel", "bspline", "--r", "170"),
             "partition of unity deviates by nan (tolerance 1e-08)"),
            # was an OverflowError traceback, exit 1: 171! does not fit a float
            (("--kernel", "bspline", "--r", "172"),
             "B-spline order must be between 1 and 171, got 172"),
        ],
    )
    def test_inadmissible_kernel_in_one_line(self, args, message):
        proc = run_cli("kernel-info", *args)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "r, message",
        [
            # printed LAPACK's "On entry to DLASCL" lines on stdout too
            (118, "moment matrix condition inf exceeds 1e+12"),
            # was "SVD did not converge", numpy's LinAlgError
            (119, "moment matrix of order 119 overflows floats; lower --r or the shifts"),
        ],
    )
    def test_overflowing_kernel_order_in_one_line(self, r, message):
        shifts = ",".join(map(str, range(2, r + 2)))
        proc = run_cli("kernel-info", "--kernel", "combo", "--r", str(r), "--shifts", shifts)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")

    def test_bad_box(self):
        proc = run_cli("reconstruct", "--fn", "x", "--box", "1,2,3")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flag, args",
        [
            ("--w", ("bounds", "--fn", "gaussian", "--w", "0")),
            ("--w", ("reconstruct", "--fn", "x", "--w", "inf")),
            ("--w", ("gbs", "--fn", "xy", "--w", "nan")),
            ("--w", ("reconstruct", "--fn", "x", "--w=-3")),
            ("--w-list", ("converge", "--fn", "x", "--w-list", "5,nan")),
            ("--w-list", ("converge", "--fn", "x", "--w-list", "0,5")),
            ("--input-w", ("reconstruct", "--input", "missing.pgm", "--input-w", "inf")),
        ],
    )
    def test_bad_rate_names_its_flag(self, flag, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: {flag} must be finite and > 0")

    @pytest.mark.parametrize("box", ["--box=nan,0,1,1", "--box=0,0,inf,1"])
    def test_non_finite_box(self, box):
        proc = run_cli("reconstruct", "--fn", "x", box)
        assert proc.returncode == 2
        assert proc.stderr == "error: box corners must be finite\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("reconstruct", "--fn", "x", "--grid-n", "3", "--w", "1e-300"),
            ("converge", "--fn", "x", "--grid-n", "3", "--w-list", "1e-300,2e-300"),
            ("gbs", "--fn", "x", "--grid-n", "3", "--w", "1e-300"),
            ("bounds", "--fn", "x", "--w", "1e-300"),
        ],
    )
    def test_box_wider_than_the_largest_float(self, args):
        # x1 - x0 overflows though every scaled coordinate is about 1e8: was
        # two numpy RuntimeWarnings and a message about an infinite scaled
        # coordinate, or a NaN function value, or an infinite sup norm
        box = "--box=-1e308,-1e308,1e308,1e308"
        proc = run_cli(*args, box)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: box -1e+308,-1e+308,1e+308,1e+308 is wider or taller than "
            "the largest float; shrink it\n"
        )

    def test_past_2_53_names_the_value_the_per_point_check_named(self):
        proc = run_cli(
            "reconstruct", "--fn", "x", "--box=-1e20,-1e20,1e20,1e20",
            "--grid-n", "3", "--w", "1",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: scaled coordinate 1e+20 ")
        assert proc.stderr.splitlines() == [proc.stderr.strip()]

    @pytest.mark.parametrize(
        "args",
        [
            ("bounds", "--fn", "xy", "--w", "1e300"),
            ("bounds", "--fn", "sin_x_cos_y", "--w", "1e-300"),
            ("gbs", "--fn", "xy", "--w", "1e-300", "--grid-n", "2"),
        ],
    )
    def test_bound_rate_outside_float_range(self, args):
        # w**4 overflows or underflows to 0; was an OverflowError or
        # ZeroDivisionError traceback with exit 1
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: lattice rate w=")

    @pytest.mark.parametrize(
        "args, message",
        [
            # sup norms up to 2e300 are finite, their product is not
            (("--box=0,0,1e100,1e100",), "error: order 3 derivative factor is not finite"),
            # a finite factor over w**3 at a tiny rate
            (("--box=0,0,1e50,1e50", "--w", "1e-60"),
             "error: order 3 rate bound at lattice rate 1e-60 is not finite"),
        ],
    )
    def test_bound_overflow_names_order_and_box(self, args, message):
        # was exit 0 with rate_deriv_factor and rate_bound printed as inf
        proc = run_cli("bounds", "--fn", "x2y2", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message)
        box = args[0].split("=")[1].split(",")
        assert f"on box {tuple(float(v) for v in box)}" in proc.stderr

    def test_scaled_coordinates_past_2_53(self):
        # was exit 0 with approx 24.94 where the exact value is 1.5
        args = ("reconstruct", "--fn", "x_plus_y", "--box", "0.5,0.5,1,1", "--grid-n", "2")
        proc = run_cli(*args, "--w", "2e16")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert "2**53" in proc.stderr
        proc = run_cli(*args, "--w", "4e15")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert max(float(row[4]) for row in rows) < 1e-13

    @pytest.mark.parametrize(
        "bounds, message",
        [
            # 8 EiB of values: numpy refuses before touching memory
            ((0, 10**9, 0, 10**9), "error: out of memory: "),
            ((5, 1, 0, 3), "bad.meta.json: inverted index bounds"),
        ],
    )
    def test_lattice_bounds_from_meta(self, tmp_path, bounds, message):
        path = tmp_path / "bad.csv"
        path.write_text("k,j,value\n0,0,1\n")
        kmin, kmax, jmin, jmax = bounds
        meta = {"w": 1.0, "kind": "samples", "kmin": kmin, "kmax": kmax,
                "jmin": jmin, "jmax": jmax}
        (tmp_path / "bad.meta.json").write_text(json.dumps(meta))
        proc = run_cli("reconstruct", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "low, n, message",
        [
            # corners near 1e30 rounded together and past 2**53; the hint
            # was --box=1e+30,1e+30,1e+30,1e+30
            (10**30, 13, "lattice indices too large: "),
            # one window wide; the hint was --box=5.5,5.5,5.5,5.5
            (0, 6, "field too small for the kernel window"),
        ],
    )
    def test_no_box_offered_that_cannot_run(self, tmp_path, low, n, message):
        path = tmp_path / "edge.csv"
        ks = range(low, low + n)
        rows = "".join(f"{k},{j},0.5\n" for k in ks for j in ks)
        path.write_text("k,j,value\n" + rows)
        meta = {"w": 1.0, "kind": "samples", "kmin": low, "kmax": low + n - 1,
                "jmin": low, "jmax": low + n - 1}
        (tmp_path / "edge.meta.json").write_text(json.dumps(meta))
        proc = run_cli("reconstruct", "--input", str(path), "--box=0,0,1,1")
        assert proc.returncode == 3
        assert f"; no box is admissible: {message}" in proc.stderr
        proc = run_cli("reconstruct", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {message}")

    @pytest.mark.parametrize("rate", [5e-324, 1e-310])
    def test_meta_rate_that_overflows_the_admissible_box(self, tmp_path, rate):
        # was a numpy RuntimeWarning from linspace on the inf box, then a
        # second error line about the scaled coordinates
        path = tmp_path / "tiny.csv"
        path.write_text("k,j,value\n0,0,1\n")
        meta = {"w": rate, "kind": "samples", "kmin": 0, "kmax": 5, "jmin": 0, "jmax": 5}
        (tmp_path / "tiny.meta.json").write_text(json.dumps(meta))
        proc = run_cli("reconstruct", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: admissible box overflows at lattice rate w={rate!r}\n"

    def test_admissible_box_wider_than_the_largest_float(self, tmp_path):
        # finite corners, but x1 - x0 overflows: was two numpy RuntimeWarnings
        # from linspace, then a message about a NaN scaled coordinate
        path = tmp_path / "wide.csv"
        ks = range(-10, 11)
        path.write_text("k,j,value\n" + "".join(f"{k},{j},0.5\n" for k in ks for j in ks))
        meta = {"w": 7e-308, "kind": "samples", "kmin": -10, "kmax": 10,
                "jmin": -10, "jmax": 10}
        (tmp_path / "wide.meta.json").write_text(json.dumps(meta))
        proc = run_cli("reconstruct", "--input", str(path), "--grid-n", "2")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: box -6.428571428571428e+307,")
        assert proc.stderr.endswith(" is wider or taller than the largest float; shrink it\n")

    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"w": 1.0, "kind": "samples", "kmax": 3, "jmin": 0, "jmax": 3},
             "bad.meta.json: missing key 'kmin'"),
            ([1.0, "samples", 0, 3, 0, 3], "bad.meta.json: expected a JSON object"),
            ({"w": 1.0, "kind": "samples", "kmin": None, "kmax": 3, "jmin": 0,
              "jmax": 3}, "bad.meta.json: key 'kmin' has invalid value None"),
            # the next three were read as w = 1.0, jmax = 3 and kmin = -7
            ({"w": True, "kind": "samples", "kmin": 0, "kmax": 3, "jmin": 0,
              "jmax": 3}, "bad.meta.json: key 'w' has invalid value True"),
            ({"w": 1.0, "kind": "samples", "kmin": 0, "kmax": 3, "jmin": 0,
              "jmax": 3.7}, "bad.meta.json: key 'jmax' has invalid value 3.7"),
            ({"w": 1.0, "kind": "samples", "kmin": -7.9, "kmax": 3, "jmin": 0,
              "jmax": 3}, "bad.meta.json: key 'kmin' has invalid value -7.9"),
        ],
    )
    def test_malformed_meta_names_file_and_key(self, tmp_path, meta, message):
        # the first three were KeyError and TypeError tracebacks with exit 1
        path = tmp_path / "bad.csv"
        path.write_text("k,j,value\n0,0,1\n")
        (tmp_path / "bad.meta.json").write_text(json.dumps(meta))
        proc = run_cli("reconstruct", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert message in proc.stderr

    @pytest.mark.parametrize("row", ["0,1", "0,1,2,3", "0,x,1", "0,1,abc"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        # "0,1" was "not enough values to unpack (expected 3, got 2)"
        path = tmp_path / "bad.csv"
        path.write_text(f"k,j,value\n0,0,1\n{row}\n")
        meta = {"w": 1.0, "kind": "samples", "kmin": 0, "kmax": 3, "jmin": 0, "jmax": 3}
        (tmp_path / "bad.meta.json").write_text(json.dumps(meta))
        proc = run_cli("reconstruct", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert "bad.csv: line 3: " in proc.stderr

    @pytest.mark.parametrize("op", ["gw", "sw", "gbs"])
    def test_rate_where_the_source_overflows(self, op):
        # the cells k/w sit near 1e300, where x2y2 overflows: was exit 0 with
        # every approx NaN, after numpy RuntimeWarnings on stderr
        proc = run_cli(
            "reconstruct", "--fn", "x2y2", "--op", op, "--w", "1e-300", "--grid-n", "2"
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert "lattice rate 1e-300" in proc.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            # was exit 0 with rate_bound nan, after 34 lines of RuntimeWarnings
            (
                ("bounds", "--fn", "gaussian", "--box=0,0,1e200,1e200"),
                "error: sup norm of the order (2, 0) partial of gaussian is not "
                "finite on box (0.0, 0.0, 1e+200, 1e+200)",
            ),
            # was exit 0 with remainder inf
            (
                ("bounds", "--fn", "x2y2", "--box=0,0,1e200,1e200"),
                "error: sup norm of the order (1, 0) partial of x2y2 is not "
                "finite on box (0.0, 0.0, 1e+200, 1e+200)",
            ),
            # was exit 0 with modulus_bound 3.69: the NaN mixed differences
            # read as 0
            (
                ("gbs", "--fn", "x2y2", "--box=0,0,1e300,1", "--w=10", "--grid-n=1"),
                "error: function is not finite at (3.125e+298, 0) in box "
                "(0.0, 0.0, 1e+300, 1.0)",
            ),
            # was the operator's exit-2 message after four warning lines
            (
                ("gbs", "--fn", "x2y2", "--box=0,0,1e80,1e80", "--grid-n", "2",
                 "--w", "1e-70"),
                "error: function is not finite at (3.125e+78, 3.125e+78) in box "
                "(0.0, 0.0, 1e+80, 1e+80)",
            ),
        ],
    )
    def test_function_not_finite_on_the_box(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"

    def test_subnormal_box_spacing(self):
        # delta / spacing overflows: was an OverflowError traceback, exit 1
        proc = run_cli("gbs", "--fn", "xy", "--box=0,0,1e-310,1e-310", "--grid-n", "2")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_scaled_coordinates_overflow_without_warning(self):
        # w * x overflows to inf: was a numpy RuntimeWarning before the message
        proc = run_cli(
            "reconstruct", "--fn", "xy", "--w", "1e306", "--grid-n", "2",
            "--box=100,100,2000,2000",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert "2**53" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("reconstruct", "--fn", "x", "--op", "sw", "--w", "1", "--grid-n", "2"),
            ("converge", "--fn", "x", "--op", "sw", "--w-list", "5,10", "--grid-n", "2"),
            ("gbs", "--fn", "x", "--w", "1", "--grid-n", "2"),
        ],
    )
    def test_quad_order_above_the_cap(self, args):
        # was no cap: --quad-order 1600 took 5.9 s and 71 MB
        order = QUAD_ORDER_MAX + 1
        proc = run_cli(*args, "--quad-order", str(order))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: quad_order must be in 1..{QUAD_ORDER_MAX}, got {order}\n"

    @pytest.mark.parametrize("order", [-1, 0, QUAD_ORDER_MAX + 1])
    @pytest.mark.parametrize(
        "args",
        [
            ("reconstruct", "--fn", "x", "--grid-n", "2"),
            ("converge", "--fn", "x", "--w-list", "5,10", "--grid-n", "2"),
        ],
        ids=["reconstruct", "converge"],
    )
    def test_quad_order_out_of_range_with_gw(self, args, order, tmp_path, capsys):
        # gw builds no quadrature rule; these exited 0 and ignored the order
        out = tmp_path / "t.csv"
        assert cli.main([*args, "--quad-order", str(order), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: quad_order must be in 1..{QUAD_ORDER_MAX}, got {order}\n"
        )

    def test_negative_eta_max(self):
        # was exit 0 with only the header row
        proc = run_cli("moments", "--eta-max", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: eta_max must be >= 0, got -1\n"

    def test_moment_that_is_not_finite(self):
        # was exit 0 with numpy RuntimeWarnings and nan in rows (397,0) and
        # (0,397), from offsets outside the support; --eta-max 417 is the
        # highest order whose terms inside the support stay finite
        proc = run_cli("moments", "--eta-max", "418")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: lattice moment (0, 418) of the kernel is not finite; "
            "lower eta_max\n"
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            # was "only binary (P5) PGM is supported"
            (
                b"",
                "PGM header ends after 0 of its 4 fields (P5, width, height, maxval)",
            ),
            # was "invalid literal for int() with base 10: b''"
            (
                b"P5\n3 2",
                "PGM header ends after 3 of its 4 fields (P5, width, height, maxval)",
            ),
            # was "invalid literal for int() with base 10: b'abc'"
            (b"P5\nabc 2\n255\n" + bytes(6), "PGM width 'abc' is not an integer"),
            (b"P5\n3 2\n2x5\n" + bytes(6), "PGM maxval '2x5' is not an integer"),
            # was "PGM raster truncated"
            (b"P5\n-3 2\n255\n" + bytes(6), "PGM size -3x2 must be at least 1x1"),
            (b"P5\n3 0\n255\n", "PGM size 3x0 must be at least 1x1"),
            (b"P5\n3 2\n255\n" + bytes(4), "PGM raster truncated: 4 of 6 bytes"),
            (b"P2\n3 2\n255\n" + bytes(6), "only binary (P5) PGM is supported"),
        ],
    )
    def test_malformed_pgm_names_file_and_fault(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        proc = run_cli("reconstruct", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {path}: {message}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_out_on_a_full_device(self):
        proc = run_cli("kernel-info", "--out", "/dev/full")
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    def test_out_naming_a_directory(self, tmp_path):
        proc = run_cli("kernel-info", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_out_under_a_missing_parent(self, tmp_path):
        out = str(tmp_path / "missing" / "t.csv")
        proc = run_cli("kernel-info", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == f"error: [Errno 2] No such file or directory: {out!r}\n"

    def test_no_standard_output_names_out(self, monkeypatch, capsys):
        # a process started with fd 1 closed has sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        assert cli.main(["kernel-info"]) == 2
        assert capsys.readouterr().err == (
            "error: standard output is closed: give a file with --out\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--fn", "nosuch"],
            ["reconstruct", "--fn", "x", "--grid-n", "three"],
            ["kernel-info", "--shifts", "2,3,1e300"],
        ],
    )
    @pytest.mark.parametrize("stderr", ["closed", "none"])
    def test_closed_standard_error_keeps_the_exit_code(self, monkeypatch, capsys, argv, stderr):
        class Closed(io.TextIOBase):
            def write(self, text):
                raise OSError(errno.EBADF, "Bad file descriptor")

        monkeypatch.setattr(sys, "stderr", Closed() if stderr == "closed" else None)
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""  # the lost line does not go to stdout

    @pytest.mark.parametrize(
        "command, message",
        [
            ("kernel-info >&-", "error: standard output is closed: give a file with --out\n"),
            ("reconstruct --fn nosuch 2>&-", ""),
        ],
    )
    def test_closed_stream_in_a_child_exits_2(self, command, message):
        # was exit 1 with an AttributeError traceback (fd 1), or with none (fd 2)
        proc = subprocess.run(
            ["sh", "-c", f'exec "$0" -m kanto {command}', sys.executable],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", message)

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "reconstruct" in proc.stdout


class TestConverge:
    def test_slope_row(self):
        proc = run_cli(
            "converge", "--fn", "x_plus_y", "--op", "sw",
            "--w-list", "5,10,20", "--grid-n", "3",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "w,sup_error"
        assert len(lines) == 5
        name, slope = lines[-1].split(",")
        assert name == "slope"
        assert float(slope) == pytest.approx(-1.0, abs=1e-3)


class TestBounds:
    def test_report_rows(self):
        proc = run_cli("bounds", "--fn", "sin_x_cos_y", "--w", "10")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["name", "value"]
        table = dict(rows)
        for key in ("rate_bound", "remainder", "mod_bilin", "kfun_xy", "input_w"):
            assert key in table
        assert float(table["input_w"]) == 10.0
        assert float(table["kfun_x"]) == pytest.approx(1.0 / 300.0, abs=1e-10)


class TestGbsCommand:
    def test_bound_column_dominates(self):
        proc = run_cli(
            "gbs", "--fn", "xy", "--kernel", "bspline",
            "--w", "10", "--box", "0,0,1,1", "--grid-n", "3",
        )
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["x", "y", "approx", "exact", "abs_err", "modulus_bound"]
        bounds = {row[5] for row in rows}
        assert len(bounds) == 1
        for row in rows:
            assert float(row[4]) <= float(row[5])


    def test_bound_column_dominates_at_fine_rate(self):
        # the modulus estimate once fell to 0 for w >= 11 on the default box
        proc = run_cli("gbs", "--fn", "sin_x_cos_y", "--w", "20")
        assert proc.returncode == 0
        rows = parse_csv(proc.stdout)[1]
        bound = float(rows[0][5])
        assert bound > 0.0
        assert all(float(row[4]) <= bound for row in rows)


class TestDeterminism:
    def test_byte_identical_across_thread_counts(self):
        args = (
            "reconstruct", "--fn", "sin_x_cos_y", "--op", "sw",
            "--w", "10", "--box", "0,0,1,1", "--grid-n", "5",
        )
        single = run_cli(*args, env_extra={"KANTO_THREADS": "1"})
        pooled = run_cli(*args, env_extra={"KANTO_THREADS": "8"})
        assert single.returncode == 0 and pooled.returncode == 0
        assert single.stdout == pooled.stdout


class TestColdStart:
    """What a ``python -m kanto`` process, or ``import kanto``, loads, and how it exits."""

    @staticmethod
    def imported(*args):
        """The exit code and the names of every module a CLI process imports."""
        proc = run_cli(*args, env_extra={"PYTHONPROFILEIMPORTTIME": "1"})
        names = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        return proc.returncode, names

    def test_reconstruct_loads_neither_analysis_nor_json(self, tmp_path):
        pgm = tmp_path / "x.pgm"
        pgm.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        out = str(tmp_path / "out.csv")
        for args in (
            ("reconstruct", "--fn", "xy", "--grid-n", "2"),
            ("reconstruct", "--input", str(pgm), "--grid-n", "2"),
        ):
            code, names = self.imported(*args, "--out", out)
            assert code == 0
            assert "kanto.operators" in names
            assert {"kanto.analysis", "json"}.isdisjoint(names), args

    @pytest.mark.parametrize(
        "argv",
        [None, ["moments", "--grid-n", "2"], ["kernel-info", "--grid-n", "2"]],
        ids=["import", "moments", "kernel-info"],
    )
    def test_package_and_kernel_commands_load_neither_analysis_nor_json(
        self, argv, tmp_path
    ):
        # sys.modules of a child after importing the package alone, which
        # probes its __all__ through the module __getattr__, or after main
        script = "import sys\nfrom kanto import *\n"
        if argv is not None:
            argv = [*argv, "--out", str(tmp_path / "out.csv")]
            script += f"import kanto.cli\nassert kanto.cli.main({argv!r}) == 0\n"
        script += "print(sorted({'kanto.analysis', 'json'} & set(sys.modules)))\n"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert (proc.stdout, proc.stderr) == ("[]\n", "")

    @pytest.mark.parametrize(
        "args",
        [
            ("gbs", "--fn", "xy", "--grid-n", "2"),
            ("converge", "--fn", "xy", "--w-list", "5,10", "--grid-n", "2"),
            ("bounds", "--fn", "xy", "--grid-n", "4"),
        ],
    )
    def test_analysis_loads_where_a_subcommand_calls_it(self, args, tmp_path):
        code, names = self.imported(*args, "--out", str(tmp_path / "out.csv"))
        assert code == 0
        assert "kanto.analysis" in names

    def test_module_entry_point_freezes_the_collector(self, tmp_path):
        # python -m kanto runs kanto/__main__.py, which goes through cli.run()
        script = (
            "import gc, runpy, sys\n"
            "sys.argv = ['kanto', 'kernel-info', '--grid-n', '2', '--out', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('kanto', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out.csv")],
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.stdout, proc.stderr) == ("0 True\n", "")

    def test_main_in_process_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        assert cli.main(["kernel-info", "--grid-n", "2", "--out", str(tmp_path / "k")]) == 0
        assert gc.get_freeze_count() == before
