"""The one CSV writer of every table kanto prints or saves.

Floats are printed with ``"%.17g"`` (17 significant digits, which round-trip
exactly), so runs can be compared byte for byte; integers and strings are
printed as they are, and a column of labels may hold floats too (the
``slope`` row under the rates of a convergence table).  Lines end in LF only.

The text is built with one ``%`` template.  Tables on tensor grids repeat
their coordinates many times, so a float column is formatted once per
distinct value, found by the bit pattern of the float (which keeps ``-0.0``
apart from ``0.0``), and spread back to its rows; a column whose values are
mostly distinct goes into the template as plain floats.
"""

from __future__ import annotations

import sys
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["format_csv", "write_csv"]


def _column(values) -> tuple[str, list]:
    """Template field and row values of one column."""
    col = np.asarray(values)
    if col.dtype.kind in "iu":
        return "%s", col.tolist()
    if col.dtype.kind != "f":
        return "%s", ["%.17g" % v if isinstance(v, float) else v for v in values]
    col = col.astype(np.float64, copy=False)
    bits, which = np.unique(col.view(np.uint64), return_inverse=True)
    if 2 * bits.size > col.size:
        return "%.17g", col.tolist()
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return "%s", text[which].tolist()


def format_csv(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of equal-length columns under a header of column names."""
    if len(header) != len(columns):
        raise ValueError("need one column per header name")
    fields, cols = zip(*map(_column, columns))
    rows = len(cols[0])
    if any(len(c) != rows for c in cols):
        raise ValueError("columns differ in length")
    body = (",".join(fields) + "\n") * rows % tuple(chain.from_iterable(zip(*cols)))
    return ",".join(header) + "\n" + body


def write_csv(header: Sequence[str], columns: Sequence, out=None) -> None:
    """Write the table to the file ``out``, or to standard output without one."""
    text = format_csv(header, columns)
    if not out:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")
