"""The one CSV writer of every table kanto prints or saves.

Floats are printed as ``"%.17g"`` prints them (17 significant digits, which
round-trip exactly), so runs can be compared byte for byte; integers and
strings are printed as they are, and a column of labels may hold floats too
(the ``slope`` row under the rates of a convergence table).  Lines end in
LF only.

The text is built as bytes in numpy, a fixed block of rows at a time, by
three rules; no column is searched for repeats.  A column whose producer
knows that it repeats comes as a :class:`Factored` of its values and each
row's index into them (an evaluation grid's axes, a lattice table's
columns, a constant bound): each value is formatted once into NUL-padded
``uint8`` rows, which each row block copies by index.  A plain float column
longer than ``_SHORT`` is formatted straight into each row block.  Every
other column (a short float column, integers, labels) is formatted value by
value in Python.  The 17 digits of a float formatted in numpy come from an
exact product with a power of ten (below); the few values where that
product cannot decide the last digit, and zeros, infinities, NaNs and
values beyond 1e-250..1e250 in magnitude, are formatted one by one with
``"%.17g"``.  Each row block is joined with ``,`` and ``\\n``, its NUL
padding dropped, and handed on as one chunk.

Every file kanto writes, tables and ``.meta.json`` sidecars, is written by
``write_file``, a table one chunk at a time: an existing file is rewritten
in place, so it keeps its inode, its mode and the links that lead to it.
"""

from __future__ import annotations

import os
import stat
import sys
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["Factored", "format_csv", "write_csv", "write_file"]

# Rows, and distinct floats, handled at once; keeps temporaries to a few MB.
_BLOCK = 4096
_SHORT = 64  # float columns this short skip the numpy digits (0.25 ms a column)

# The longest "%.17g" text: -2.2250738585072014e-308
_WIDTH = 24

# |x| range of the exact-product path: its scaled products neither overflow
# nor lose bits to underflow.
_FAST_LO, _FAST_HI = 1e-250, 1e250

# A formatted float is gathered from a row of its 17 digits followed by
# these constant bytes.
_CONST = b"-.e+0123456789\0"
_MINUS, _DOT, _EXP, _PLUS, _DIGIT0 = range(17, 22)
_NUL = 17 + len(_CONST) - 1


@lru_cache(maxsize=None)
def _pow10(p: int) -> tuple[float, float, float, float]:
    """10**p as a double-double hi + lo, and the Veltkamp halves of hi.

    int / int true division rounds correctly, so hi is 10**p rounded and lo
    is the rest, rounded.
    """
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den
    n, d = hi.as_integer_ratio()
    lo = (num * d - n * den) / (den * d)
    c = 134217729.0 * hi  # 2**27 + 1
    hi_h = c - (c - hi)
    return hi, lo, hi_h, hi - hi_h


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit integers q and exponents e with |x| ~ q * 10**(e - 16).

    The third array marks the values whose q is exactly the one ``%.17g``
    prints; the others need the per-value fallback.
    """
    a = np.abs(x)
    ok = (a > _FAST_LO) & (a < _FAST_HI)  # false for NaN
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    e0 = int(e.min())
    powers = [_pow10(16 - k) for k in range(e0, int(e.max()) + 1)]
    hi, lo, hi_h, hi_l = np.array(powers).T.take(e - e0, axis=1)
    # a * hi = p + err exactly (Dekker's TwoProduct with a Veltkamp split;
    # numpy has no fused multiply-add)
    p = a * hi
    c = 134217729.0 * a
    a_h = c - (c - a)
    a_l = a - a_h
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    # a * 10**(16-e) = p + t.  p is below 2**57, |t| below about 20, and the
    # error of t is below 5e-15: a*lo (|a*lo| <= 11) and the sum each round
    # off at most 2**-53 of about 20, and hi + lo misses 10**(16-e) by at
    # most 2**-106 of it, times a.  So any fraction of t more than 1e-13 from
    # 1/2 rounds the same way as the exact product.
    t = err + a * lo
    r = np.floor(t)
    frac = t - r
    ok &= np.abs(frac - 0.5) > 1e-9
    # The range is checked on the unrounded product: log10 can round up to
    # the next integer just below a power of ten (the double of 1e-248 is
    # 9.9999999999999998e-249), and q would still look in range.  Near
    # either end p - 1e16 or p - 1e17 is exact (Sterbenz); away from them
    # its sign is the answer.
    ok &= (p - 1e16 + t >= 0) & (p - 1e17 + t < 0)
    # p is an integer below 2**57, so exact in int64
    q = p.astype(np.int64) + r.astype(np.int64) + (frac > 0.5)
    carry = q == 10**17
    q[carry] = 10**16
    return q, e + carry, ok


@lru_cache(maxsize=None)
def _template(neg: bool, exp: int, n: int) -> tuple[int, ...]:
    """Source-row indices of the ``%.17g`` text of a value with n digits kept.

    ``%g`` prints fixed-point for -4 <= exp < 17 and ``d.ddde+XX`` otherwise,
    without trailing zeros or a bare decimal point.
    """
    out = [_MINUS] if neg else []
    if exp >= 17 or exp < -4:
        out += [0, _DOT, *range(1, n)] if n > 1 else [0]
        out += [_EXP, _MINUS if exp < 0 else _PLUS]
        out += [_DIGIT0 + int(c) for c in "%02d" % abs(exp)]
    elif exp >= 0:
        out += range(exp + 1)
        if n > exp + 1:
            out += [_DOT, *range(exp + 1, n)]
    else:
        out += [_DIGIT0, _DOT, *[_DIGIT0] * (-exp - 1), *range(n)]
    return tuple(out)


def _text_matrix(texts: list) -> np.ndarray:
    """NUL-padded uint8 rows of a list of str."""
    raw = np.array([s.encode() for s in texts], dtype="S")
    return raw.view(np.uint8).reshape(len(texts), raw.itemsize)


def _float_rows(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``"%.17g" % v`` of each v of x, NUL-padded, into the rows of out.

    out has ``_WIDTH`` columns; returns the width of the longest text.
    """
    q, e, ok = _digits(x)
    n = x.size
    # column i of src holds the 17 digits of q[i], then _CONST; the digits
    # are peeled off three groups of six at once, each of which fits uint32
    top = q // 10**6
    groups = np.empty((3, n), dtype=np.uint32)
    groups[0] = top // 10**6
    groups[1] = top % 10**6
    groups[2] = q % 10**6
    digits = np.empty((3, 6, n), dtype=np.uint8)
    for i in range(5, -1, -1):
        higher = groups // 10
        digits[:, i] = groups - higher * 10
        groups = higher
    src = np.empty((17 + len(_CONST), n), dtype=np.uint8)
    src[:17] = digits.reshape(18, n)[1:]
    kept = ((src[:17] != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(0)
    src[:17] += ord("0")
    src[17:] = np.frombuffer(_CONST, dtype=np.uint8)[:, None]
    # one template per (sign, exponent, digits kept); key `last` marks the
    # values left to the fallback, whose template is empty
    e0 = int(e.min())
    half = 18 * (int(e.max()) - e0 + 1)
    key = (x < 0) * half + (e - e0) * 18 + kept
    key[~ok] = last = 2 * half
    present = np.flatnonzero(np.bincount(key, minlength=last + 1))
    slot = np.zeros(last + 1, dtype=np.intp)
    slot[present] = np.arange(present.size)
    found = [
        _template(k >= half, k % half // 18 + e0, k % 18) if k < last else ()
        for k in present.tolist()
    ]
    width = max(map(len, found))
    table = np.array([tpl + (_NUL,) * (width - len(tpl)) for tpl in found], np.intp)
    index = (table * n).take(slot[key], axis=0)
    index += np.arange(n)[:, None]
    out[:, :width] = src.ravel().take(index)
    out[:, width:] = 0
    slow = np.flatnonzero(~ok)
    if slow.size:
        fallback = _text_matrix(["%.17g" % v for v in x[slow].tolist()])
        out[slow, : fallback.shape[1]] = fallback
        width = max(width, fallback.shape[1])
    return width


class Factored(NamedTuple):
    """A column given as ``values[index]``: its values, and each row's index.

    The values are floats or ints and may repeat; each is formatted once.
    A producer whose column repeats hands it over factored, since the
    writer never searches a column for repeats.
    """

    values: np.ndarray
    index: np.ndarray


def _float_text(x: np.ndarray) -> np.ndarray:
    """``"%.17g"`` of each float64 of x, as NUL-padded uint8 rows."""
    text = np.empty((x.size, _WIDTH), dtype=np.uint8)
    width = max(
        (
            _float_rows(x[start : start + _BLOCK], text[start : start + _BLOCK])
            for start in range(0, x.size, _BLOCK)
        ),
        default=0,
    )
    return text[:, :width]


def _column(values) -> tuple[np.ndarray | None, np.ndarray]:
    """How the text of a column is made, a block of rows at a time.

    Either the texts as NUL-padded uint8 rows and each row's index into
    them, or None and the float64 values, formatted block by block into
    the rows.  A :class:`Factored` column brings its index along and has
    each value formatted once; a plain float column longer than ``_SHORT``
    is formatted block by block; any other column value by value.
    """
    if isinstance(values, Factored):
        col, index = np.asarray(values.values), np.asarray(values.index)
        if col.dtype.kind == "f":
            return _float_text(col.astype(np.float64, copy=False)), index
        return _text_matrix([str(v) for v in col.tolist()]), index
    col = np.asarray(values)
    if col.dtype.kind == "f" and col.size > _SHORT:
        return None, col.astype(np.float64, copy=False)
    if col.dtype.kind in "iuf":  # as Python ints and floats
        values = col.tolist()
    texts = ["%.17g" % v if isinstance(v, float) else str(v) for v in values]
    return _text_matrix(texts), np.arange(len(texts))


def _csv_chunks(header: Sequence[str], columns: Sequence) -> Iterator[bytes]:
    """The CSV text of the table as bytes: the header, then a chunk per row block.

    The columns are checked before this returns, so an error is raised
    before the first chunk is asked for.
    """
    if not columns or len(header) != len(columns):
        raise ValueError("need one column per header name")
    cells = [_column(col) for col in columns]
    rows = len(cells[0][1])
    if any(len(data) != rows for _, data in cells):
        raise ValueError("columns differ in length")
    return _row_blocks(header, cells, rows)


def _row_blocks(header: Sequence[str], cells: list, rows: int) -> Iterator[bytes]:
    # one line: each column's text, then its separator; a float column
    # formatted block by block gets room for the longest float text
    widths = [_WIDTH if text is None else text.shape[1] for text, _ in cells]
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)
    line = np.empty((min(rows, _BLOCK), ends[-1]), dtype=np.uint8)
    line[:, ends - 1] = ord(",")
    line[:, -1] = ord("\n")
    yield (",".join(header) + "\n").encode()
    for start in range(0, rows, _BLOCK):
        block = line[: rows - start]
        for (text, data), width, end in zip(cells, widths, ends):
            cell = block[:, end - 1 - width : end - 1]
            part = data[start : start + _BLOCK]
            if text is None:
                _float_rows(part, cell)
            else:
                cell[:] = text.take(part, axis=0)
        flat = block.ravel()
        yield flat[flat != 0].tobytes()


def write_file(path, data: bytes | Iterable[bytes]) -> None:
    """Write data to the file at path, created if absent, and cut it there.

    data is bytes or an iterable of byte chunks; chunks are written as they
    come, so a table is never held whole.  The file is opened without
    ``O_TRUNC`` and cut to the new length after the last write.  On ext4, a
    truncating open of a file whose blocks are allocated on disk, as an
    earlier run's output is once written back, took 50-140 ms on a 2-core
    VM, whether that run had ended 0 or 35 s before; rewriting in place
    took 0.01 ms.  Only regular files are cut, so ``/dev/null`` and FIFOs
    work.  A write that fails, or a chunk source that raises, leaves a
    regular file empty rather than holding the chunks written so far or the
    tail of its previous contents.

    The rewrite is not atomic, and it gives up the ordering that the same
    ext4 heuristic gives a truncating open: after a system crash the file
    may hold the old bytes, the new ones or a mix of both, and a table cut
    at a row boundary still parses.  A run whose output must survive a
    crash should write to a new path.
    """
    if isinstance(data, bytes):
        data = (data,)
    # O_BINARY (Windows only) keeps "\n" from becoming "\r\n"
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    with open(fd, "wb", buffering=0) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        size = 0
        try:
            for chunk in data:
                view = memoryview(chunk)
                size += len(view)
                while view:  # a raw write may take only part of the bytes
                    view = view[fh.write(view) :]
        except BaseException:
            if regular:
                fh.truncate(0)
            raise
        if regular:
            fh.truncate(size)


def format_csv(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of equal-length columns under a header of column names.

    A column is a sequence of values or a :class:`Factored` column.
    """
    return b"".join(_csv_chunks(header, columns)).decode()


def write_csv(header: Sequence[str], columns: Sequence, out=None) -> None:
    """Write the table to the file ``out``, or to standard output without one.

    Columns are as for :func:`format_csv`; a :class:`Factored` column, such
    as an evaluation grid's axis, has each value formatted once.  The table
    is written a block of rows at a time, and never held whole.  Standard
    output gets text (each block decoded as it comes), so a replaced
    ``sys.stdout`` such as a ``StringIO`` works too.  A process started with
    standard output closed has none, and gets an ``OSError`` naming --out.
    """
    chunks = _csv_chunks(header, columns)
    if not out:
        if sys.stdout is None:
            raise OSError("standard output is closed: give a file with --out")
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
    else:
        write_file(out, chunks)
