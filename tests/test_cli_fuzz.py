"""Every argv of every subcommand ends in exit 0, 2 or 3, never in a traceback.

Exit 0 writes nothing to stderr, exit 2 or 3 writes exactly one line, and no
argv raises a numpy RuntimeWarning.

Sizes stay small (grid sizes up to 6, kernel orders up to 6, moment orders
up to 4), and each lattice rate is drawn from values that have broken the
CLI before: zero, negative, non-finite, under- and overflowing powers, and
rates whose scaled coordinates pass 2**53.
"""

import contextlib
import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanto import CATALOG, LatticeField, fn_lookup, write_lattice_csv
from kanto.cli import main
from kanto.operators import KIND_CELL_AVERAGES

# 20 joins 10 as a rate at which converge can run on the default boxes
RATES = ("0", "-1", "nan", "inf", "1e-300", "1e-3", "10", "20", "2e16", "1e300")
POSITIVE_RATES = RATES[4:]
SHIFTS = ("2,3,4", "1,2", "1,1,1", "0.5,1.5,2.5,3.5", "1,2,3,4,5,6")
BOXES = ("0,0,1,1", "-1,-1,2,2", "1,1,0,0", "0,0,1", "0,0,1e300,1", "0,0,1,nan")
COMMANDS = ("reconstruct", "moments", "bounds", "converge", "kernel-info", "gbs")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A cell-average lattice CSV, a point-sample one, and a small PGM."""
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, kind in (("avg.csv", KIND_CELL_AVERAGES), ("pts.csv", "samples")):
        field = LatticeField.from_function(
            fn_lookup("gaussian"), 10.0, -8, 18, -8, 18, kind=kind
        )
        write_lattice_csv(field, tmp / name)
        paths[name] = str(tmp / name)
    pgm = tmp / "img.pgm"
    pgm.write_bytes(b"P5\n8 8\n255\n" + np.arange(64, dtype=np.uint8).tobytes())
    paths["img.pgm"] = str(pgm)
    return paths


def flag(name, values):
    """No flag, or ``name=value`` with a drawn value ('=' keeps '-1' a value)."""
    return st.one_of(st.just(()), values.map(lambda v: (f"{name}={v}",)))


RATE = flag("--w", st.sampled_from(RATES))
GRID_N = flag("--grid-n", st.integers(-2, 6))
QUAD_ORDER = flag("--quad-order", st.integers(-1, 6))
BOX = flag("--box", st.sampled_from(BOXES))
# any mix of kernel flags, or one of the kernels that pass validation
KERNEL_OPTIONS = st.one_of(
    st.tuples(
        flag("--kernel", st.sampled_from(("bspline", "combo"))),
        flag("--r", st.integers(-1, 6)),
        flag("--shifts", st.sampled_from(SHIFTS)),
    ).map(lambda groups: tuple(a for group in groups for a in group)),
    st.integers(1, 6).map(lambda r: ("--kernel=bspline", f"--r={r}")),
    st.sampled_from([(), ("--r=2", "--shifts=1,2"), ("--r=6", "--shifts=1,2,3,4,5,6")]),
)
FN = st.sampled_from([*sorted(CATALOG), "nope"])
OP = st.sampled_from(("gw", "sw", "gbs")).map(lambda op: f"--op={op}")
# any list of rates, or an increasing one of positive rates (which converge
# needs to run)
W_LIST = st.one_of(
    st.lists(st.sampled_from(RATES), min_size=1, max_size=4),
    st.lists(st.sampled_from(POSITIVE_RATES), min_size=2, max_size=3, unique=True).map(
        lambda ws: sorted(ws, key=float)
    ),
).map(lambda ws: "--w-list=" + ",".join(ws))


@st.composite
def argvs(draw, inputs):
    command = draw(st.sampled_from(COMMANDS))
    parts = [command, *draw(KERNEL_OPTIONS)]
    if command == "reconstruct":
        if draw(st.booleans()):
            parts += ["--fn", draw(FN), *draw(RATE)]
        else:
            parts += ["--input", inputs[draw(st.sampled_from(sorted(inputs)))]]
            parts += draw(flag("--input-w", st.sampled_from(RATES)))
        parts += [draw(OP), *draw(BOX), *draw(GRID_N), *draw(QUAD_ORDER)]
    elif command == "moments":
        parts += [*draw(flag("--eta-max", st.integers(-2, 4))), *draw(GRID_N)]
    elif command == "bounds":
        parts += ["--fn", draw(FN), *draw(RATE), *draw(BOX), *draw(GRID_N)]
    elif command == "converge":
        parts += ["--fn", draw(FN), draw(OP), draw(W_LIST)]
        parts += [*draw(BOX), *draw(GRID_N), *draw(QUAD_ORDER)]
    elif command == "kernel-info":
        parts += draw(GRID_N)
    else:
        parts += ["--fn", draw(FN), *draw(RATE), *draw(BOX), *draw(GRID_N)]
        parts += draw(QUAD_ORDER)
    return parts


def run(argv):
    """Exit code, stderr text and the warnings raised by one CLI call."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", os.devnull])
    return code, err.getvalue(), caught


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_2_or_3(inputs, data):
    argv = data.draw(argvs(inputs))
    code, err, caught = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
