"""The one CSV writer of every table kanto prints or saves.

Floats are printed as ``"%.17g"`` prints them (17 significant digits, which
round-trip exactly), so runs can be compared byte for byte; integers and
strings are printed as they are, and a column of labels may hold floats too
(the ``slope`` row under the rates of a convergence table).  Lines end in
LF only.

The text is built as bytes in numpy.  Tables on tensor grids repeat their
coordinates many times, so a float column is formatted once per distinct
value, found by the bit pattern of the float (which keeps ``-0.0`` apart
from ``0.0``), into a NUL-padded ``uint8`` row.  The 17 digits of those
values come from an exact product with a power of ten (below); the few
values where that product cannot decide the last digit, and zeros,
infinities, NaNs and values beyond 1e-250..1e250 in magnitude, are formatted
one by one with ``"%.17g"``.  Integer and label columns are formatted once
per distinct value in Python.  Rows are then gathered, joined with ``,`` and
``\\n``, and their NUL padding dropped, a fixed block of rows at a time.

Every file kanto writes, tables and ``.meta.json`` sidecars, is written by
``write_file``: an existing file is rewritten in place, so it keeps its
inode, its mode and the links that lead to it.
"""

from __future__ import annotations

import os
import stat
import sys
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["format_csv", "write_csv", "write_file"]

# Rows, and distinct floats, handled at once; keeps temporaries to a few MB.
_BLOCK = 4096

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
    hi, lo, hi_h, hi_l = np.array(powers)[e - e0].T
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
    """Write ``"%.17g" % v`` of each v of x into the zeroed rows of out.

    Returns the width used.
    """
    q, e, ok = _digits(x)
    n = x.size
    # column i of src holds the 17 digits of q[i], then _CONST; the digits
    # are peeled off three groups of six at once
    groups = np.empty((3, n), dtype=np.int64)
    groups[0] = q // 10**12
    groups[1] = q // 10**6 % 10**6
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
    index = (table * n)[slot[key]]
    index += np.arange(n)[:, None]
    out[:, :width] = src.ravel().take(index)
    slow = np.flatnonzero(~ok)
    if slow.size:
        fallback = _text_matrix(["%.17g" % v for v in x[slow].tolist()])
        out[slow, : fallback.shape[1]] = fallback
        width = max(width, fallback.shape[1])
    return width


def _column(values) -> tuple[np.ndarray, np.ndarray]:
    """Distinct texts of a column as NUL-padded uint8 rows, and each row's text."""
    col = np.asarray(values)
    if col.dtype.kind in "iu":
        distinct, which = np.unique(col, return_inverse=True)
        return _text_matrix([str(v) for v in distinct.tolist()]), which
    if col.dtype.kind != "f":
        texts = ["%.17g" % v if isinstance(v, float) else str(v) for v in values]
        return _text_matrix(texts), np.arange(len(texts))
    col = col.astype(np.float64, copy=False)
    bits, which = np.unique(col.view(np.uint64), return_inverse=True)
    x = bits.view(np.float64)
    text = np.zeros((x.size, _WIDTH), dtype=np.uint8)
    width = 0
    for start in range(0, x.size, _BLOCK):
        stop = start + _BLOCK
        width = max(width, _float_rows(x[start:stop], text[start:stop]))
    return np.ascontiguousarray(text[:, :width]), which


def _csv_bytes(header: Sequence[str], columns: Sequence) -> bytes:
    """The CSV text of the table as bytes."""
    if not columns or len(header) != len(columns):
        raise ValueError("need one column per header name")
    texts, whichs = zip(*map(_column, columns))
    rows = len(whichs[0])
    if any(len(which) != rows for which in whichs):
        raise ValueError("columns differ in length")
    # one line: each column's text, then its separator
    ends = np.cumsum([text.shape[1] + 1 for text in texts])
    line = np.empty((min(rows, _BLOCK), ends[-1]), dtype=np.uint8)
    line[:, ends - 1] = ord(",")
    line[:, -1] = ord("\n")
    chunks = [(",".join(header) + "\n").encode()]
    for start in range(0, rows, _BLOCK):
        block = line[: rows - start]
        for text, which, end in zip(texts, whichs, ends):
            rows_text = text.take(which[start : start + _BLOCK], axis=0)
            block[:, end - 1 - text.shape[1] : end - 1] = rows_text
        flat = block.ravel()
        chunks.append(flat[flat != 0].tobytes())
    return b"".join(chunks)


def write_file(path, data: bytes) -> None:
    """Write data to the file at path, created if absent, and cut it there.

    The file is opened without ``O_TRUNC`` and cut to the new length after
    the write.  On ext4, a truncating open of a file whose blocks are
    allocated on disk, as an earlier run's output is once written back,
    took 50-140 ms on a 2-core VM, whether that run had ended 0 or 35 s
    before; rewriting in place took 0.01 ms.  Only regular files are cut,
    so ``/dev/null`` and FIFOs work.  A write that fails leaves a regular file empty rather than
    holding the tail of its previous contents.

    The rewrite is not atomic, and it gives up the ordering that the same
    ext4 heuristic gives a truncating open: after a system crash the file
    may hold the old bytes, the new ones or a mix of both, and a table cut
    at a row boundary still parses.  A run whose output must survive a
    crash should write to a new path.
    """
    # O_BINARY (Windows only) keeps "\n" from becoming "\r\n"
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    with open(fd, "wb", buffering=0) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:  # a raw write may take only part of the bytes
                view = view[fh.write(view) :]
        except BaseException:
            if regular:
                fh.truncate(0)
            raise
        if regular:
            fh.truncate(len(data))


def format_csv(header: Sequence[str], columns: Sequence) -> str:
    """CSV text of equal-length columns under a header of column names."""
    return _csv_bytes(header, columns).decode()


def write_csv(header: Sequence[str], columns: Sequence, out=None) -> None:
    """Write the table to the file ``out``, or to standard output without one."""
    data = _csv_bytes(header, columns)
    if not out:
        sys.stdout.write(data.decode())
    else:
        write_file(out, data)
