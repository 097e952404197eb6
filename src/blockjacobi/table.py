"""Trace tables: column names over one array of cell values and a mask of
undefined cells, formatted as CSV text only when written.

`write_csv` writes the bytes of the standard library's `csv.writer` with its
defaults: fields joined by ",", lines ended by "\\r\\n", an undefined cell as
an empty field.  csv.writer writes a Python float as its `repr` and an int as
its `str`.  `write_csv` computes those bytes for a block of rows at once
(`float_fields`, `int_fields`), so no number cell becomes a Python object:
each cell is laid out in a fixed-width field with a mask of the bytes it
keeps, and the block's text is the one mask compress of its fields.  The
cells of an object table (Python ints, floats, bools and strings) and of
any other dtype take their `str`, left-aligned in the same fields.  The
float kernel also writes report.json's float64 arrays of KERNEL_MIN numbers
or more (`number_text`): there a field's last byte is a control byte that
names the separator after the number, and each separator is put in by one
`bytes.replace` of its mark over the block's bytes.  This module holds the
CSV and number kernels only; nested lists are walked by their users.

`float_fields` finds the shortest decimal that reads back as the float, as
`repr` does: it rounds x 10^p to 15, 16 and 17 significant digits in
double-double arithmetic (Dekker's exact product against 10^p held as
hi + lo) and keeps the shortest rounding that lies inside the float's
rounding interval.  That interval is symmetric except at a power of two,
whose gap below is half as wide: every cell is decided with the symmetric
interval, and the cells with a zero mantissa again, as a subset, with the
narrower reach below.  Each pass reads and writes contiguous arrays (10^p
from four 1-D tables, the digits as five arrays of 4-digit chunks).  A
cell it cannot decide with margin (non-finite, far outside 1e+-280, or
within a relative 1e-6 of a rounding or round-trip boundary) takes
Python's `repr`, so the bytes equal `repr` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows formatted at once; bounds the fields and text held in memory.
ROW_BLOCK = 1024

# Characters that make csv.writer quote a field.
_QUOTED = (",", '"', "\r", "\n")

# ---- the float kernel ----

# Powers 10^p, p in [_P_MIN, _P_MAX], as hi + lo with hi the nearest float;
# built from Python ints, whose int and true-division conversions round
# correctly.  The range covers every p the kernel uses for |x| in
# [_SMALL, _LARGE].
_P_MIN, _P_MAX = -266, 298
_SMALL, _LARGE = 1e-280, 1e280


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of 26 bits each: a = hi + lo."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten() -> np.ndarray:
    """hi, lo and Dekker's split of hi, one row each, for p = _P_MIN .. _P_MAX."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            h = float(10 ** p)
            lo.append(float(10 ** p - int(h)))
        else:
            d = 10 ** -p
            h = 1 / d
            a, b = h.as_integer_ratio()
            lo.append((b - a * d) / (b * d))
        hi.append(h)
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)])


# Four contiguous tables, so that each read of a stack of p is contiguous.
_HI, _LO, _BH, _BL = _powers_of_ten()

# Relative distance to a rounding or round-trip boundary below which a cell
# takes `repr`; the double-double error is about 1e-14 of a unit.
_MARGIN = 1e-6


def _scaled(ax: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = round(ax 10^p) as int64 and d = ax 10^p - N, for ax 10^p < 2^62:
    Dekker's exact product ax * hi = P + E, plus ax * lo."""
    i = p - _P_MIN
    bh, bl = _BH.take(i), _BL.take(i)
    P = ax * _HI.take(i)
    ah, al = _split(ax)
    E = ((ah * bh - P) + ah * bl + al * bh) + al * bl
    Pi = np.rint(P)
    r = (P - Pi) + E + ax * _LO.take(i)
    Nr = np.rint(r)
    return Pi.astype(np.int64) + Nr.astype(np.int64), r - Nr


# 4-digit ASCII words: _WORDS[k] holds the digits of k < 10^4, zero padded,
# as the uint32 whose bytes they are; _ZEROS[k] counts their trailing zeros.
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_WORDS = np.stack(np.meshgrid(*[_ASCII] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_ZEROS = sum((np.arange(10 ** 4) % 10 ** j == 0).astype(np.int64) for j in range(1, 5))


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text, dtype=np.uint32)[0]


# A number's field is FIELD bytes: the kernels write the first FIELD - 4,
# and the last two hold the separator, "," or the line end "\r\n".
FIELD = 64

# The float field, by words: "-0.0" "00" (the sign, and "0.000" before a
# small value's digits); the 17 digits d_0 .. d_16 of the decimal, three
# zeros before d_0, in words 2 .. 6 (for the integer part, d_0 at byte _D1)
# and again in words 8 .. 12 (for the fraction, d_0 at _D2); "." in word 7;
# "e" and the exponent's sign in word 13, and its digits in word 14.
_D1, _D2, _DOT, _E = 11, 35, 28, 52
_HEAD = _word(b"-0.0"), _word(b"00\0\0")
_POINT, _E_PLUS, _E_MINUS = _word(b".\0\0\0"), _word(b"e+\0\0"), _word(b"e-\0\0")

# Layout codes: (decpt + 3) * 17 + ndig - 1 for the positional form, decpt
# in -3 .. 16, where the value is 0.d_0 d_1 ... x 10^decpt with ndig digits
# after trailing zeros go; then _EXP_CODE + 2 (ndig - 1) + (three exponent
# digits) for the exponent form, which `repr` uses outside that range.
_EXP_CODE = 340
_ZERO_CODE = (1 + 3) * 17  # 0.0: d_0 = 0 before the point, d_1 = 0 after


def _layouts() -> np.ndarray:
    """_LAYOUT[code] marks the bytes a float field of that layout keeps, as
    16 words of 4 bools, the last (the separator's) kept by none."""
    keep = np.zeros((_EXP_CODE + 34, FIELD), dtype=bool)
    for decpt in range(-3, 17):
        for ndig in range(1, 18):
            row = keep[(decpt + 3) * 17 + ndig - 1]
            if decpt <= 0:  # 0.000ddd
                row[1:3 - decpt] = True
                row[_D1:_D1 + ndig] = True
            else:  # ddd.ddd, and ddd.0 for an integral value
                row[_D1:_D1 + decpt] = True
                row[_DOT] = True
                row[_D2 + decpt:_D2 + max(ndig, decpt + 1)] = True
    for ndig in range(1, 18):
        for three in (0, 1):  # d.ddde-05, d.ddde-100
            row = keep[_EXP_CODE + 2 * (ndig - 1) + three]
            row[_D1] = True
            row[_DOT] = row[_D2 + 1:_D2 + ndig] = ndig > 1
            row[_E:_E + 2] = True
            row[_E + 6 - three:_E + 8] = True
    return keep.view(np.uint32)


_LAYOUT = _layouts()


def _shortest(N: np.ndarray, d: np.ndarray, h17: np.ndarray, pow2: bool):
    """The interval rule: the digits of the shortest of N, and of N rounded
    once more to 16 and to 15 digits, that lies inside the float's rounding
    interval, and a mask of the cells too close to a boundary to decide.
    N + d is the float in units of N's last digit and h17 half the gap to
    the next float in those units; the gap below is as wide, or, for
    powers of two (pow2), half as wide."""
    tie = 0.5 - np.abs(d) < _MARGIN  # N's rounding; matters unless a shorter one fits
    unsure = np.zeros_like(tie)
    short = np.zeros_like(tie)
    M = N
    for scale in (10, 100):  # 16 and 15 digits; the shorter wins when it reads back
        r = N - N // scale * scale  # N % scale, without int64 %
        v = (r + d) / scale
        n = np.rint(v)
        dk = v - n
        h = h17 / scale
        low = 0.5 * h if pow2 else h  # the reach below the float
        below = np.where(dk > 0, low, h) if pow2 else h
        fits = np.abs(dk) < below
        # a tie between two roundings matters only when both may fit
        unsure |= (((0.5 - np.abs(dk) < _MARGIN) & (low > 0.5 - _MARGIN))
                   | (np.abs(np.abs(dk) - below) < _MARGIN * h))
        if pow2:  # the decimal above may fit where the one below does not
            up = ~fits & (dk > 0)
            unsure |= up & (np.abs(1 - dk - h) < _MARGIN * h)
            up &= 1 - dk < h
            n += up
            fits |= up
        M = np.where(fits, N - r + scale * n.astype(np.int64), M)
        short |= fits
    return M, unsure | (tie & ~short)


def _decimals(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For floats ax in [_SMALL, _LARGE]: the digits M of repr(ax) as an
    int64 in [10^16, 10^17) (a shorter decimal padded with zeros) and decpt,
    so that repr(ax) is 0.M x 10^decpt; and a mask of the values too close
    to a boundary to decide.

    N, the 17-digit rounding of ax, always reads back as ax; the 16- and
    15-digit roundings are N's digits rounded once more, and the shortest
    that lies inside ax's rounding interval wins.  Fifteen digits are too
    coarse for two decimals to fit, so a fitting 15-digit rounding with
    trailing zeros is also the shortest decimal overall.  Every value is
    decided by the symmetric interval of `_shortest`; the values with a
    zero mantissa, powers of two, whose gap below is half the gap above,
    are then decided again, as a subset, with that narrower reach below."""
    p = 16 - np.floor(np.log10(ax)).astype(np.int64)
    N, d = _scaled(ax, p)
    off = np.where((N > 10 ** 17) | ((N == 10 ** 17) & (d >= 0)), -1, 0)
    off += (N < 10 ** 16) | ((N == 10 ** 16) & (d < 0))
    if off.any():  # log10 missed the decade, next to a power of ten
        j = off != 0
        p[j] += off[j]
        N[j], d[j] = _scaled(ax[j], p[j])
    # half the gap to the next float, in units of N's last digit
    h17 = 0.5 * np.spacing(ax) / ax * N
    M, unsure = _shortest(N, d, h17, False)
    pow2 = (ax.view(np.int64) & ((1 << 52) - 1)) == 0
    if pow2.any():
        M[pow2], unsure[pow2] = _shortest(N[pow2], d[pow2], h17[pow2], True)
    top = M == 10 ** 17  # rounded up to the next decade
    return np.where(top, 10 ** 16, M), 17 - p + top, unsure


def _chunks(m: np.ndarray) -> np.ndarray:
    """m < 10^20 as five 4-digit numbers on a new first axis, the most
    significant first, each a contiguous array; peeled off with // alone,
    which numpy computes faster than int64 %."""
    out = np.empty((5,) + m.shape, dtype=m.dtype)
    for j in (4, 3, 2, 1):
        q = m // 10 ** 4
        np.subtract(m, q * 10 ** 4, out=out[j])
        m = q
    out[0] = m
    return out


def float_fields(x: np.ndarray, buf: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Lay out repr(v) for every float64 v of x in fields: buf and keep have
    the shape of x plus a last axis of FIELD bytes, and the first FIELD - 4
    of them get the bytes of each cell and the mask of those it keeps (the
    last four, the separator's, are not kept), so that buf[i][keep[i]] is
    repr(x[i]).  Returns the mask of the cells that took Python's repr."""
    ax = np.abs(x)
    zero = ax == 0
    live = (ax >= _SMALL) & (ax <= _LARGE)
    # 3.0 stands in for zero and non-finite cells: not being a power of two,
    # it stays out of _decimals' second pass
    M, decpt, unsure = _decimals(np.where(live, ax, 3.0))
    chunks = _chunks(np.where(zero, 0, M))
    words = buf.view(np.uint32)
    words[..., 0], words[..., 1] = _HEAD
    for j, c in enumerate(chunks):
        words[..., 2 + j] = words[..., 8 + j] = _WORDS.take(c)
    words[..., 7] = _POINT
    zeros = _ZEROS.take(chunks[1:])
    ndig, run = 17 - zeros[3], zeros[3] == 4  # M's first chunk is not 0
    for z in zeros[2::-1]:
        ndig -= run * z
        run &= z == 4
    e = decpt - 1
    words[..., 13] = np.where(e < 0, _E_MINUS, _E_PLUS)
    words[..., 14] = _WORDS.take(np.abs(e))
    code = np.where((decpt < -3) | (decpt > 16), _EXP_CODE + 2 * (ndig - 1) + (np.abs(e) >= 100),
                    (decpt + 3) * 17 + ndig - 1)
    code[zero] = _ZERO_CODE
    keep.view(np.uint32)[...] = _LAYOUT.take(code, axis=0)
    keep[..., 0] = np.signbit(x)
    other = ~(live | zero) | (live & unsure)
    _put(buf, keep, other, [repr(v).encode() for v in x[other].tolist()])
    return other


def _put(buf: np.ndarray, keep: np.ndarray, cells: np.ndarray, text: list[bytes]) -> None:
    """Write each of `text` left-aligned into the field of its cell, the
    cells being the True entries of a mask over the leading axes."""
    if not text:
        return
    width = max(len(t) for t in text)
    buf[cells, :width] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    keep[cells] = np.arange(keep.shape[-1]) < np.array([len(t) for t in text])[:, None]


# Powers of ten up to 10^19, against which an int's digits are counted; and
# _INT_LAYOUT[k] marks the last k of an int field's 24 bytes.
_TENS = 10 ** np.arange(1, 20, dtype=np.uint64)
_INT_LAYOUT = np.arange(24) >= 24 - np.arange(21)[:, None]


def int_fields(v: np.ndarray, buf: np.ndarray, keep: np.ndarray) -> None:
    """Lay out str(k) for every int64 k of v as float_fields lays out
    floats: byte 0 is the sign and bytes 4 .. 23 twenty digits, the leading
    zeros not kept.  buf and keep are as for float_fields."""
    m = np.abs(v).view(np.uint64)  # |-2^63| wraps to -2^63, which is 2^63 as uint64
    buf[..., 0] = ord("-")
    buf.view(np.uint32)[..., 1:6] = np.moveaxis(_WORDS.take(_chunks(m)), 0, -1)
    keep[..., :24] = np.take(_INT_LAYOUT, np.searchsorted(_TENS, m, side="right") + 1, axis=0)
    keep[..., 0] = v < 0


# A float64 array of report.json is written by the float kernel
# (`number_text`) from this many numbers on, and below it as its list, by
# the report writer's walk.  Measured on 2 vCPUs, numpy 2.4.6, kernel against
# walk: a flat array 0.23 ms against 0.21 at 256 numbers, 0.24 against 0.26
# at 320, 0.31 against 0.42 at 512 and 1.6 against 3.4 at 4096; an
# (n, 2, 2, 2) table of pairs, whose walk has more levels, 0.21 against 0.21
# at 128 numbers, 0.24 against 0.42 at 256 and 0.30 against 0.82 at 512.
# 256 lies between the two crossovers, near 300 and near 128 numbers.
KERNEL_MIN = 256

# The bytes that mark a separator in `number_text`: control bytes, which no
# number text holds, but not the line feed that separators hold.
MARKS = bytes(b for b in range(0x20) if b != ord("\n"))


def number_text(values: np.ndarray, which: np.ndarray, separators: list[bytes]) -> str:
    """The text of a report.json number block: repr of each float64 of a
    1-D array, the number values[i] followed by separators[which[i]].  The
    numbers are laid out by float_fields 8 ROW_BLOCK at a time, as many
    fields as one block of rows of a 2x2 trajectory CSV holds, each field's
    last byte the mark (from MARKS) of its separator; each part is one mask
    compress, and each separator one bytes.replace of its mark over the
    whole text."""
    marks = np.frombuffer(MARKS, dtype=np.uint8)[which]
    parts = []
    for lo in range(0, len(values), 8 * ROW_BLOCK):
        part = values[lo:lo + 8 * ROW_BLOCK]
        buf = np.empty((len(part), FIELD), dtype=np.uint8)
        keep = np.zeros(buf.shape, dtype=bool)
        float_fields(part, buf, keep)
        buf[:, -1], keep[:, -1] = marks[lo:lo + 8 * ROW_BLOCK], True
        parts.append(buf[keep].tobytes())
    text = b"".join(parts)
    for mark, separator in zip(MARKS, separators):
        text = text.replace(bytes([mark]), separator)
    return text.decode("ascii")


@dataclass
class Table:
    """A trace table.  values[i, j] is the cell of row i under column j, and
    mask[i, j] (if a mask is given) marks it undefined.  With `numbered`,
    the first column is the row number and is not stored in `values`."""

    columns: list[str]
    values: np.ndarray
    mask: np.ndarray | None = None
    numbered: bool = False

    @property
    def rows(self) -> list[list]:
        """Every row as a list, undefined cells None."""
        rows = self.values.tolist()
        if self.mask is not None:
            for i in np.flatnonzero(self.mask.any(axis=1)).tolist():
                rows[i] = [None if m else v for v, m in zip(rows[i], self.mask[i].tolist())]
        if self.numbered:
            rows = [[n, *row] for n, row in enumerate(rows)]
        return rows


def _check(cells) -> None:
    """Refuse a cell whose CSV field would differ from csv.writer's: a numpy
    scalar or other object, or a string that csv.writer quotes."""
    for v in cells:
        if type(v) not in (int, float, bool, str):
            raise TypeError(f"table cell {v!r} is not a Python int, float or str")
        if type(v) is str and any(c in v for c in _QUOTED):
            raise ValueError(f"table cell {v!r} would need CSV quoting")


def write_csv(table: Table, path) -> None:
    """Write the header and every row of the table as CSV."""
    if len(table.columns) < 2:
        raise ValueError("a CSV table needs two columns or more")
    _check(table.columns)
    values, first = table.values, int(table.numbered)
    if values.ndim != 2 or values.shape[1] + first != len(table.columns):
        raise ValueError(f"a table of {len(table.columns)} columns has values of shape "
                         f"{values.shape}{' and a row number' if first else ''}")
    kind = values.dtype.kind
    fields = (float_fields if kind == "f" and values.dtype.itemsize <= 8 else
              int_fields if kind in "iu" and np.can_cast(values.dtype, np.int64) else None)
    with open(path, "w", newline="") as csv_file:  # as csv.writer's file is opened
        encoding, fh = csv_file.encoding, csv_file.buffer
        fh.write((",".join(table.columns) + "\r\n").encode(encoding))
        for lo in range(0, len(values), ROW_BLOCK):
            block = values[lo:lo + ROW_BLOCK]
            defined = (np.ones(block.shape, dtype=bool) if table.mask is None
                       else ~table.mask[lo:lo + ROW_BLOCK])
            width = FIELD
            if fields is None:  # the str of each defined cell
                cells = block[defined].tolist()
                if kind == "O":
                    _check(cells)
                strs = [str(v).encode(encoding) for v in cells]
                width = max([width] + [len(t) + 2 for t in strs])
            buf = np.empty((len(block), len(table.columns), width), dtype=np.uint8)
            keep = np.zeros(buf.shape, dtype=bool)
            if fields is None:
                _put(buf[:, first:], keep[:, first:], defined, strs)
            else:
                fields(block.astype(np.float64 if kind == "f" else np.int64, copy=False),
                       buf[:, first:], keep[:, first:])
                keep[:, first:][~defined] = False
            if first:
                int_fields(np.arange(lo, lo + len(block))[:, None], buf[:, :1], keep[:, :1])
            buf[..., -2] = ord(",")
            buf[:, -1, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
            keep[..., -2] = True
            keep[:, -1, -1] = True
            fh.write(buf[keep].tobytes())
