"""The shared CSV writer against the per-row formatting it replaced.

Every table used to be printed row by row as
``",".join(format(float(v), ".17g") ...)``; the writer computes the
digits in numpy, a block of rows at a time, formats a column whose values
repeat once per distinct value, and must give the same bytes, whatever the
columns hold: heavy repeats, both zeros, NaN payloads, infinities,
subnormals, ties and values next to powers of ten.

Files are rewritten in place, without a truncating open, and a table is
written a block at a time: the old bytes must not survive a shorter write
or a failed one, and the inode, the mode, symlinks and devices must stay as
they are.
"""

import contextlib
import errno
import io
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanto import LatticeField, fn_lookup, write_lattice_csv
from kanto import csvio
from kanto.csvio import _BLOCK, _SHORT, Factored, format_csv, write_csv, write_file

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1e308, 0.1]


def old_rows(header, columns):
    """The loop the writer replaced: floats via format(.17g), the rest as text."""

    def text(v):
        return format(float(v), ".17g") if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines += [",".join(map(text, row)) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=60))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(["repeats", "distinct", "int", "label"]))
        if kind == "repeats":
            pool = draw(st.lists(floats, min_size=1, max_size=4))
            col = [draw(st.sampled_from(pool)) for _ in range(rows)]
        elif kind == "distinct":
            col = draw(st.lists(floats, min_size=rows, max_size=rows))
        elif kind == "int":
            ints = st.integers(-(10**12), 10**12)
            col = draw(st.lists(ints, min_size=rows, max_size=rows))
        else:
            col = draw(
                st.lists(st.one_of(floats, st.sampled_from(["slope", "r"])),
                         min_size=rows, max_size=rows)
            )
        columns.append(col)
    header = [f"c{i}" for i in range(len(columns))]
    return header, columns


@settings(max_examples=200, deadline=None)
@given(table=tables(), as_array=st.booleans())
def test_writer_matches_row_loop(table, as_array):
    header, columns = table
    want = old_rows(header, columns)
    if as_array:
        # float columns as the CLI passes them: float64 arrays
        columns = [
            np.array(c, dtype=float) if all(isinstance(v, float) for v in c) else c
            for c in columns
        ]
    assert format_csv(header, columns) == want


def test_zero_signs_stay_apart():
    col = np.array([0.0, -0.0] * 10)
    assert format_csv(["z"], [col]) == "z\n" + "0\n-0\n" * 10


def test_write_csv_targets(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    write_csv(["a", "b"], [[1, 2], [0.5, 0.25]], path)
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    write_csv(["a"], [[1.0]])
    assert sys.stdout.getvalue() == "a\n1\n"


# -- rewriting a file in place -----------------------------------------------
#
# Each writer writes one target file into a directory: a table through
# write_csv, or the .meta.json sidecar of write_lattice_csv.

def table_target(directory):
    path = directory / "t.csv"
    return path, lambda: write_csv(["a", "b"], [[1, 2], [0.5, 0.25]], path)


def sidecar_target(directory):
    field = LatticeField.from_function(fn_lookup("x"), 10.0, 0, 1, 0, 1)
    path = directory / "t.meta.json"
    return path, lambda: write_lattice_csv(field, directory / "t.csv")


WRITERS = pytest.mark.parametrize(
    "target", [table_target, sidecar_target], ids=["write_csv", "sidecar"]
)
OLD = b"old contents, longer than the new ones\n" * 2000


def fresh_bytes(target, directory):
    """The bytes the writer puts into a new file."""
    directory.mkdir()
    path, write = target(directory)
    write()
    return path.read_bytes()


@WRITERS
def test_short_write_leaves_no_old_tail(tmp_path, target):
    want = fresh_bytes(target, tmp_path / "fresh")
    path, write = target(tmp_path)
    path.write_bytes(OLD)
    write()
    assert path.read_bytes() == want


@WRITERS
def test_rewrite_keeps_inode_and_mode(tmp_path, target):
    path, write = target(tmp_path)
    path.write_bytes(OLD)
    path.chmod(0o640)
    before = path.stat()
    write()
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640


@WRITERS
def test_rewrite_through_symlink_keeps_the_link(tmp_path, target):
    want = fresh_bytes(target, tmp_path / "fresh")
    path, write = target(tmp_path)
    real = tmp_path / "real.data"
    real.write_bytes(OLD)
    path.symlink_to(real)
    write()
    assert path.is_symlink()
    assert real.read_bytes() == want


@WRITERS
def test_dev_null_is_accepted(tmp_path, target):
    # a device cannot be cut to length; it is written and left as it is
    path, write = target(tmp_path)
    path.symlink_to(os.devnull)
    write()
    assert stat.S_ISCHR(os.stat(path).st_mode)


@WRITERS
def test_no_file_is_opened_with_o_trunc(tmp_path, target, monkeypatch):
    # on ext4 a truncating open of a file whose blocks are on disk waits;
    # a timing test would be flaky, and tmp_path may sit on a filesystem that
    # never waits, so the flags are what is checked
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    path, write = target(tmp_path)
    path.write_bytes(OLD)
    write()
    assert flags
    assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)


@WRITERS
def test_failed_write_leaves_no_old_bytes(tmp_path, target, monkeypatch):
    path, write = target(tmp_path)
    path.write_bytes(OLD)
    inode = path.stat().st_ino
    real_open = open

    def full_disk_open(fd, *args, **kwargs):
        """The target's file object writes a few bytes, then finds the disk full."""
        fh = real_open(fd, *args, **kwargs)
        if os.fstat(fd).st_ino == inode:
            real_write = fh.write

            def write_some(data):
                real_write(data[:5])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write_some
        return fh

    monkeypatch.setattr(csvio, "open", full_disk_open, raising=False)
    with pytest.raises(OSError) as caught:
        write()
    assert caught.value.errno == errno.ENOSPC
    assert path.read_bytes() == b""


@pytest.mark.parametrize(
    "header, columns",
    [(["a", "b"], [[1, 2], [0.5]]), (["a"], [[1], [2]]), ([], [])],
    ids=["lengths", "header", "empty"],
)
def test_bad_table_fails_before_the_file_is_opened(
    tmp_path, monkeypatch, header, columns
):
    path = tmp_path / "t.csv"
    path.write_bytes(OLD)
    opened = []
    real_open = os.open

    def recording_open(*args, **kwargs):
        opened.append(args)
        return real_open(*args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    with pytest.raises(ValueError):
        write_csv(header, columns, path)
    assert opened == []
    assert path.read_bytes() == OLD


def test_chunk_source_that_raises_leaves_the_file_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(OLD)

    def chunks():
        yield b"a,b\n1,2\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_file(path, chunks())
    assert path.read_bytes() == b""


def test_many_blocks_to_dev_null():
    rows = 2 * _BLOCK + 3
    write_csv(["v", "i"], [np.linspace(0.0, 1.0, rows), np.arange(rows)], os.devnull)
    write_file(os.devnull, iter([b"a", b"b"]))
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def assert_same_lines(got, want):
    """got == want, reporting the first differing lines instead of a diff."""
    pairs = zip(got.splitlines(), want.splitlines())
    bad = [(i, g, w) for i, (g, w) in enumerate(pairs) if g != w]
    assert not bad, bad[:5]
    assert got == want


def assert_floats_match(x):
    x = np.asarray(x, dtype=float)
    want = old_rows(["v"], [x.tolist()])
    assert_same_lines(format_csv(["v"], [x]), want)
    # the numpy digits themselves, which a column of few values never reaches
    text = [bytes(row).rstrip(b"\0").decode() for row in csvio._float_text(x)]
    assert_same_lines("\n".join(["v", *text, ""]), want)


BIT_PATTERNS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([
        # NaN payloads, negative NaNs, subnormals, the normal extremes, -0
        0x7FF0000000000001, 0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF,
        0xFFF0000000000001, 0xFFF8000000000123,
        0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
        0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x8000000000000000,
    ]),
)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(BIT_PATTERNS, min_size=1, max_size=40))
def test_any_bit_pattern_matches_percent_g(bits):
    assert_floats_match(from_bits(bits))


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    assert_floats_match(from_bits(rng.integers(0, 2**64, 50_000, dtype=np.uint64)))
    assert_floats_match(rng.uniform(-3.0, 3.0, 50_000))


def ulps_around(values, ulps):
    """Every double within ``ulps`` steps of each of ``values``, both signs."""
    centers = np.abs(np.asarray(values, dtype=float)).view(np.uint64)
    steps = np.arange(-ulps, ulps + 1, dtype=np.int64).view(np.uint64)
    bits = (centers[:, None] + steps).ravel()
    near = bits.view(np.float64)
    return np.concatenate([near, -near])


def test_next_to_powers_of_ten():
    # log10 may round up just below 10**k (the double of 1e-248 is
    # 9.9999999999999998e-249), and rounding there can reach 10**17
    assert_floats_match(ulps_around([float(f"1e{k}") for k in range(-300, 301)], 6))
    assert format_csv(["v"], [np.array([1e-248])]) == "v\n9.9999999999999998e-249\n"


def test_exponent_switches_and_fast_range_ends():
    # %g switches layout at 1e-4/1e-5 and 1e16/1e17; the numpy digits
    # cover 1e-250 < |x| < 1e250
    assert_floats_match(ulps_around([1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250], 50))
    assert_floats_match([9.9999999999999991e-05, 0.0001, 99999999999999984.0, 1e17])


def test_ties_round_half_even():
    # 18 significant digits ending in 5: the 17th digit is decided by the
    # exact binary value, as %.17g does
    rng = np.random.default_rng(5)
    # step 1/4 with 16 integer digits, and step 1/8 with 15
    m = rng.integers(2**50, 2**51, 2000).astype(float)
    n = rng.integers(2**49, 10**15, 2000).astype(float)
    ties = [m + 0.25, m + 0.75, n + 0.125, n + 0.375, n + 0.625, n + 0.875]
    ties.append(np.ldexp(1.0, -np.arange(1, 1075)))
    ties.append(np.ldexp(3.0, -np.arange(1, 1075)))
    assert_floats_match(np.concatenate(ties))
    tie = np.array([1234567890123456.25])
    assert format_csv(["v"], [tie]) == "v\n1234567890123456.2\n"


def test_rows_across_block_boundaries():
    rows = 2 * _BLOCK + 3
    rng = np.random.default_rng(11)
    # short texts first, then long ones in the next block of distinct values
    distinct = np.concatenate(
        [np.arange(1.0, _BLOCK + 1.0), rng.uniform(-1e6, 1e6, _BLOCK + 3)]
    )
    columns = [
        distinct,
        rng.choice([0.5, -0.0, np.nan, 1e300, 0.1], rows),
        rng.integers(-(10**12), 10**12, rows),
        ["slope" if i % 7 else 0.25 * i for i in range(rows)],
    ]
    header = ["d", "r", "i", "l"]
    want = old_rows(header, [list(c) for c in columns])
    assert_same_lines(format_csv(header, columns), want)


# Bit patterns that a dedupe by value would merge: both zeros and two NaN
# payloads.  They must stay distinct, so "-0" keeps its sign.
LOOKALIKES = from_bits(
    [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001]
)
LONG_KINDS = ["distinct", "boundary", "repeats", "constant", "int", "label"]


def long_column(kind, rows, rng):
    """One column of `kind`; float columns are float64 arrays, as the CLI passes."""
    if kind == "int":
        return rng.integers(-(10**12), 10**12, rows)
    if kind == "label":
        values = rng.uniform(-1.0, 1.0, rows).tolist()
        return ["slope" if i % 5 else v for i, v in enumerate(values)]
    if kind == "repeats":
        return rng.choice(np.concatenate([LOOKALIKES, rng.uniform(-1e3, 1e3, 3)]), rows)
    if kind == "constant":
        return np.full(rows, rng.choice(SPECIAL))
    # no bit pattern repeats, though the lookalikes are among the values
    col = rng.uniform(-10.0, 10.0, rows)
    col[::3] = from_bits(rng.integers(0, 2**64, col[::3].size, dtype=np.uint64))
    if rows >= LOOKALIKES.size:
        col[rng.choice(rows, LOOKALIKES.size, replace=False)] = LOOKALIKES
    if kind == "boundary" and rows > _BLOCK:
        # the one repeat: a row of the first block and a row of a later one
        col[rng.integers(_BLOCK, rows)] = col[rng.integers(0, _BLOCK)]
    return col


@st.composite
def long_tables(draw):
    """No rows, a short column or more than one row block, mixing every path."""
    rows = draw(st.sampled_from([0, 1, _SHORT, _SHORT + 1, _BLOCK + 1, 2 * _BLOCK + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(LONG_KINDS), min_size=1, max_size=6))
    columns = [long_column(kind, rows, rng) for kind in kinds]
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=25, deadline=None)
@given(table=long_tables())
def test_long_tables_match_row_loop(table):
    header, columns = table
    want = old_rows(header, [list(c) for c in columns])
    assert_same_lines(format_csv(header, columns), want)


@pytest.mark.parametrize("rows", [0, 1, _SHORT, _SHORT + 1])
@pytest.mark.parametrize("kind", ["distinct", "repeats", "constant"])
def test_short_float_columns_are_printed_value_by_value(rows, kind, monkeypatch):
    # up to _SHORT values a float column skips the numpy digits, and from
    # there on takes them; the bytes are the same either way
    column = long_column(kind, rows, np.random.default_rng(rows))
    passes = []
    real_rows = csvio._float_rows

    def counting_rows(x, out):
        passes.append(x.size)
        return real_rows(x, out)

    monkeypatch.setattr(csvio, "_float_rows", counting_rows)
    got = format_csv(["f", "i"], [column, np.arange(rows)])
    monkeypatch.undo()
    assert bool(passes) == (rows > _SHORT)
    assert_same_lines(got, old_rows(["f", "i"], [column.tolist(), list(range(rows))]))


def test_float_columns_are_deduplicated_only_when_they_repeat(monkeypatch):
    rows = 2 * _BLOCK + 3
    distinct = np.random.default_rng(8).uniform(-1.0, 1.0, rows)
    grid = np.linspace(0.0, 1.0, 96)[np.arange(rows) % 96]
    sizes, uniques = [], []
    real_rows, real_unique = csvio._float_rows, np.unique

    def counting_rows(x, out):
        sizes.append(x.size)
        return real_rows(x, out)

    def counting_unique(*args, **kwargs):
        uniques.append(args)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(csvio, "_float_rows", counting_rows)
    monkeypatch.setattr(np, "unique", counting_unique)
    got = format_csv(["d"], [distinct])
    # no repeats: no np.unique, and one formatting pass per row block
    assert uniques == []
    assert sizes == [_BLOCK, _BLOCK, rows - 2 * _BLOCK]
    sizes.clear()
    got_grid = format_csv(["g"], [grid])
    # repeats: each of the 96 distinct values is formatted once
    assert sizes == [96]
    monkeypatch.undo()
    assert got == old_rows(["d"], [distinct.tolist()])
    assert got_grid == old_rows(["g"], [grid.tolist()])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(floats, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=40),
)
def test_factored_column_writes_the_plain_column_bytes(values, picks):
    # values may repeat (as a linspace axis can) or go unused
    values = np.array(values)
    index = np.array([i % values.size for i in picks], dtype=np.intp)
    plain = values[index]
    want = format_csv(["c", "d"], [plain, plain])
    assert want == old_rows(["c", "d"], [plain.tolist()] * 2)
    assert format_csv(["c", "d"], [Factored(values, index), plain]) == want


def test_factored_column_is_formatted_once_per_value_without_a_sort(monkeypatch):
    # values past one block of distinct floats, rows past two row blocks
    values = np.random.default_rng(5).uniform(-1e3, 1e3, _BLOCK + 5)
    index = np.arange(2 * _BLOCK + 3) % values.size
    sizes, sorts = [], []
    real_rows = csvio._float_rows

    def counting_rows(x, out):
        sizes.append(x.size)
        return real_rows(x, out)

    monkeypatch.setattr(csvio, "_float_rows", counting_rows)
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(a))
    monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(a))
    got = format_csv(["x"], [Factored(values, index)])
    monkeypatch.undo()
    assert sorts == []
    assert sizes == [_BLOCK, 5]
    assert got == old_rows(["x"], [values[index].tolist()])


def test_writing_a_file_holds_one_block_at_a_time(tmp_path):
    # the text is 3.7 MB; a writer that joined the whole table peaked at 13 MB
    # traced, this one at 1.8 MB
    rng = np.random.default_rng(60)
    columns = [rng.uniform(-1.0, 1.0, 60_000) for _ in range(3)]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_csv(["a", "b", "c"], columns, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3_500_000
    assert peak < 4_000_000


def test_writing_to_stdout_holds_one_block_at_a_time():
    # the same 3.7 MB text; a writer that joined and decoded the whole
    # table peaked at 7.4 MB traced, this one at 1.8 MB
    rng = np.random.default_rng(60)
    columns = [rng.uniform(-1.0, 1.0, 60_000) for _ in range(3)]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            write_csv(["a", "b", "c"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(format_csv(["a", "b", "c"], columns)) > 3_500_000
    assert peak < 4_000_000


def test_writing_imports_neither_fractions_nor_decimal():
    # either module would add import time and memory to every CLI run
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from kanto.csvio import format_csv\n"
        "format_csv(['a', 'b'], [np.array([0.1, 1e-200, 3e249, 0.0]), [1, 2, 3, 4]])\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
