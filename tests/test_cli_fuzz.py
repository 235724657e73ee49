"""Every argv of every subcommand ends in exit 0, 2 or 3, never in a traceback.

Exit 0 writes nothing to stderr, exit 2 or 3 writes exactly one line, and no
argv raises a numpy RuntimeWarning.  The same holds for every input file:
lattice CSV rows, ``.meta.json`` values, and PGM headers and rasters, run
with or without a ``--box`` (some far outside the lattice).  The box that a
missing-data error (exit 3) offers for any input file must run.

Sizes stay small (grid sizes up to 6, kernel orders up to 6, moment orders
up to 4), and each lattice rate is drawn from values that have broken the
CLI before: zero, negative, non-finite, under- and overflowing powers, and
rates whose scaled coordinates pass 2**53.  So are the few larger B-spline
orders and the shifts: ones whose sums overflow, and non-finite ones.
"""

import contextlib
import io
import json
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
SHIFTS = (
    "2,3,4", "1,2", "1,1,1", "0.5,1.5,2.5,3.5", "1,2,3,4,5,6", "2,3,inf", "2,3,nan",
    "2,3,1e300",
)
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
    # from order 138 the B-spline sum overflows; 172 is refused
    st.one_of(st.integers(1, 6), st.sampled_from((138, 171, 172))).map(
        lambda r: ("--kernel=bspline", f"--r={r}")
    ),
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
            code = main(argv)
    return code, err.getvalue(), caught


def check_exit(argv, allowed=(0, 2, 3)):
    """Run argv; assert an allowed exit, one stderr line on error, no warning.

    Returns the exit code and the stderr text.
    """
    code, err, caught = run(argv)
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
    return code, err


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_2_or_3(inputs, data):
    check_exit([*data.draw(argvs(inputs)), "--out", os.devnull])


# flag errors that argparse reports itself: each printed a usage block of
# several lines before its error line
@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--grid-n=abc"],
        ["reconstruct", "--fn", "x", "--r=1.5"],
        ["converge", "--fn", "x", "--w-list", "5,10", "--quad-order=2.5"],
        ["kernel-info", "--kernel=foo"],
        ["reconstruct", "--op=foo"],
        ["moments", "--bogus"],
        ["kernel-info", "--grid-n=8", "stray"],
        ["bounds"],
        ["gbs", "--w=10"],
        ["moments", "--eta-max"],
        [],
        ["nope"],
    ],
)
def test_flag_errors_exit_2_in_one_line(argv):
    check_exit(argv, allowed=(2,))


# a valid command, then one token that no parser accepts (a flag that needs
# a value comes last, so it lacks one)
JUNK = st.one_of(
    st.text(max_size=6).filter(lambda s: not s.startswith("-")),
    st.sampled_from(
        ["--bogus", "-x", "-", "--", "--fn", "--w=", "--w=abc", "--grid-n=1e3",
         "--r=", "--kernel=", "--op=none", "--box", "--shifts", "--input"]
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    base=st.sampled_from(
        [["kernel-info"], ["moments"], ["reconstruct", "--fn", "x"],
         ["bounds", "--fn", "x"], ["converge", "--fn", "x"], ["gbs", "--fn", "x"]]
    ),
    junk=JUNK,
)
def test_junk_flags_exit_2_in_one_line(base, junk):
    check_exit([*base, junk], allowed=(2,))



# -- file contents ------------------------------------------------------------

# texts a lattice CSV value field may hold: every float (nan, inf and the
# extremes included) and things float() reads or refuses
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(
        ["inf", "-inf", "nan", "-nan", "Infinity", "1e400", "-0", "", " 1", "abc",
         "1,2", "0x10", "1_0"]
    ),
)
LINE_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.one_of(
            VALUES.map(lambda v: ("value", v)),
            st.just(("drop", None)),
            st.text(max_size=12).map(lambda t: ("line", t)),
            st.tuples(st.integers(-12, 22), st.integers(-12, 22)).map(
                lambda kj: ("index", kj)
            ),
            st.text(max_size=12).map(lambda t: ("header", t)),
        ),
    ),
    max_size=4,
)
def mostly(good, bad):
    """A value of ``good`` four times in five, else one of ``bad``."""
    return st.integers(0, 4).flatmap(lambda n: good if n else bad)


# values of the wrong type for any key; "DROP" deletes the key
OTHER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(alphabet="abc -_.", max_size=5),
    st.lists(st.integers(-2, 2), max_size=2),
    st.just("DROP"),
)


def index_values(low, high):
    """Mostly a bound in low..high, which keeps every row of the CSV; else any.

    Index bounds stay small or fail at once (10**15 rows are refused before
    any memory is touched); no float or digit text could ask for gigabytes.
    """
    return mostly(
        st.integers(low, high),
        st.one_of(
            st.integers(-30, 30),
            st.sampled_from([10**15, -(10**15), 10**30, 1.5, -0.5, 18.7, -7.9, 1e300]),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            OTHER_VALUES,
        ),
    )


META_VALUES = {
    "w": mostly(
        st.sampled_from([float(w) for w in POSITIVE_RATES]),
        st.one_of(st.floats(), OTHER_VALUES),
    ),
    "kind": mostly(st.sampled_from(["samples", "cell_averages"]), OTHER_VALUES),
    # the CSVs hold indices -8..18
    **{key: index_values(-30, -8) for key in ("kmin", "jmin")},
    **{key: index_values(18, 30) for key in ("kmax", "jmax")},
}
# the sidecar as written, or with one key changed, so that most sidecars
# are valid and the run reaches the operators
META_CHANGES = st.one_of(
    st.just({}),
    st.sampled_from(sorted(META_VALUES)).flatmap(
        lambda key: META_VALUES[key].map(lambda value: {key: value})
    ),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


# no box, a box inside the default lattices, or one far outside any of them
INPUT_BOXES = st.sampled_from(
    [(), ("--box=0.2,0.3,0.4,0.5",), ("--box=-5,-5,-4,-4",), ("--box=100,100,101,101",)]
)


def input_argv(path, data):
    """reconstruct on the input file with valid flags, so the file decides."""
    kernel = data.draw(st.sampled_from([(), ("--kernel=bspline", "--r=2")]))
    argv = ["reconstruct", *kernel, "--input", str(path)]
    argv += [data.draw(st.sampled_from(("--op=gw", "--op=sw")))]
    argv += [f"--grid-n={data.draw(st.integers(1, 4))}"]
    argv += data.draw(flag("--input-w", st.sampled_from(POSITIVE_RATES)))
    argv += data.draw(INPUT_BOXES)
    return [*argv, "--out", os.devnull]


def check_input(argv):
    """check_exit, and a box that missing data offers (exit 3) must run."""
    code, err = check_exit(argv)
    if code == 3 and "admissible box: " in err:
        check_exit([*argv, err.split("admissible box: ")[1].strip()], allowed=(0,))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(["avg.csv", "pts.csv"]), edits=LINE_EDITS)
def test_every_lattice_csv_exits_0_2_or_3(inputs, workdir, data, name, edits):
    lines = open(inputs[name]).read().splitlines()
    for n, (edit, arg) in edits:
        i = 1 + n % (len(lines) - 1)
        if edit == "value":
            lines[i] = lines[i].rsplit(",", 1)[0] + "," + arg
        elif edit == "drop":
            del lines[i]
        elif edit == "line":
            lines.insert(i, arg)
        elif edit == "index":
            lines.insert(i, "%d,%d,0.5" % arg)
        else:
            lines[0] = arg
    path = workdir / "rows.csv"
    path.write_text("\n".join(lines) + "\n")
    meta = open(inputs[name].replace(".csv", ".meta.json")).read()
    (workdir / "rows.meta.json").write_text(meta)
    check_input(input_argv(path, data))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["avg.csv", "pts.csv"]),
    changes=META_CHANGES,
    # one sidecar in five is replaced whole by junk or a JSON list
    whole=mostly(st.none(), st.one_of(st.text(max_size=10), st.just("[1, 2]"))),
    # and half the CSVs lack the row of one cell, mostly one that the windows
    # of the corner of the admissible box read
    hole=st.one_of(
        st.none(),
        mostly(
            st.tuples(st.integers(-8, -6), st.integers(-8, -6)),
            st.tuples(st.integers(-8, 18), st.integers(-8, 18)),
        ),
    ),
)
def test_every_meta_json_exits_0_2_or_3(
    inputs, workdir, data, name, changes, whole, hole
):
    meta = json.loads(open(inputs[name].replace(".csv", ".meta.json")).read())
    for key, value in changes.items():
        if value == "DROP":
            del meta[key]
        else:
            meta[key] = value
    (workdir / "meta.meta.json").write_text(json.dumps(meta) if whole is None else whole)
    path = workdir / "meta.csv"
    rows = open(inputs[name]).read().splitlines(keepends=True)
    if hole is not None:
        rows = [row for row in rows if not row.startswith("%d,%d," % hole)]
    path.write_text("".join(rows))
    check_input(input_argv(path, data))


def header_field(good, bad):
    """Mostly a good header token, else a bad one or random bytes."""
    return mostly(good, st.one_of(st.sampled_from(bad), st.binary(max_size=3)))


SEPARATOR = header_field(st.just(b" "), [b"\n", b"\t", b"\r\n", b"  ", b"\n# note\n", b"#x"])
MAGIC = header_field(st.just(b"P5"), [b"P2", b"P6", b"p5", b""])
SIZE = header_field(
    st.integers(1, 9).map(lambda n: str(n).encode()),
    [b"0", b"-1", b"99999999999", b"1e2", b"0x8", b"+8", b"1_0"],
)
MAXVAL = header_field(st.just(b"255"), [b"0", b"65535", b"256", b"0255"])


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    tokens=st.tuples(MAGIC, SIZE, SIZE, MAXVAL),
    separators=st.lists(SEPARATOR, min_size=4, max_size=4),
    extra=st.integers(-2, 2),
)
def test_every_pgm_exits_0_2_or_3(workdir, data, tokens, separators, extra):
    header = b"".join(token + sep for token, sep in zip(tokens, separators))
    try:
        pixels = min(int(tokens[1]) * int(tokens[2]), 200)
    except ValueError:
        pixels = 8
    # a raster of the declared size, give or take a few bytes
    length = max(pixels + extra, 0)
    raster = data.draw(st.binary(min_size=length, max_size=length))
    path = workdir / "img.pgm"
    path.write_bytes(header + raster)
    check_input(input_argv(path, data))
