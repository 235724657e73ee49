"""The shared CSV writer against the per-row formatting it replaced.

Every table used to be printed row by row as
``",".join(format(float(v), ".17g") ...)``; the writer formats each
distinct float once and must give the same bytes, whatever the columns
hold: heavy repeats, both zeros, NaN, infinities and subnormals.
"""

import io
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kanto.csvio import format_csv, write_csv

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
