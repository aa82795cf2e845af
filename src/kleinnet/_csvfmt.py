"""CSV text of float64 columns, byte for byte what `"%.9g" % x` gives for
each value, made with numpy a block of rows at a time.

For each value the fast path finds the 9-digit decimal mantissa m and the
exponent X with |x| ~ m * 10^(X-8), picks the digits of m from a table of
4-digit strings, and lays them out with a template chosen by (sign, X,
number of significant digits): fixed notation for -4 <= X < 9, otherwise
d.ddddde+XX, trailing zeros dropped, as %g does.  Fields are written into
NUL-padded fixed-width rows, and the padding is stripped at the end.

Why rint gives the right mantissa: "%.9g" rounds |x| half-even to 9
significant digits.  Take the e with 1e8 - 0.05 <= Y < 1e9 - 0.5 for
Y = |x| * 10^(8-e); these ranges for successive e tile the line, so e is
unique, and round(Y) is the mantissa at exponent e (Y below 1e8 rounds up to
1e8: those are the |x| whose rounding carries into the next exponent).  The
power of ten comes from a table of correctly rounded floats, so it and the
product each carry a relative error of at most 2^-53, and the computed y is
within 2 * 2^-53 * 1e9 ~ 2.3e-7 of Y, whatever the CPU and the `log10` in
use (log10 only gives a first guess of e, corrected once).  Where y lies at
least _TIE_WINDOW = 1e-6 from every half-integer and from 1e8 - 0.05, Y
lies on the same side of each, so the range test on y picks the same e and
`rint(y)` is the correctly rounded mantissa.  Values within the window,
values with |x| outside [1e-300, 1e300] (subnormals included) and
non-finite values are formatted by Python's own "%.9g", which is correctly
rounded for every float.

Integer columns whose values in a block all lie in [0, 10^9) skip the
float path: "%.9g" and "%d" write such a value alike, as its digits, so
each is laid out as zero-padded digits from the same 4-digit table, as
many as the block's largest value has, and its leading zeros become the
NUL padding.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

# rows formatted at once: bounds the temporaries to a few MB
_CHUNK = 1 << 15
_TIE_WINDOW = 1e-6
# the range of the scaled |x| at the right exponent
_BOTTOM, _TOP = 1e8 - 0.05, 1e9 - 0.5
_MIN_FAST, _MAX_FAST = 1e-300, 1e300
# _POW10[k + _POW_BIAS] == 10^k correctly rounded, for the 8 - e that
# e in [-302, 302] needs (one correction either side of the clipped guess)
_POW_BIAS = 310
_POW10 = np.array([float("1e%d" % k) for k in range(-_POW_BIAS, _POW_BIAS + 1)])


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For q < 10^4: the 4 ASCII digits of q as one uint32 in memory order,
    and how many of them are trailing zeros (4 for 0000)."""
    q = np.arange(10_000)
    chars = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    digits4 = (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    trailing4 = (q % 10 == 0).astype(np.uint8) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    return digits4, trailing4


_DIGITS4, _TRAILING4 = _digit_tables()
_INT_TOP = 1_000_000_000


def _split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leading digit of each m in [0, 10^9) and its next two groups of
    4 digits."""
    lead = m // 100_000_000
    low = m - lead * 100_000_000
    q1 = low // 10_000
    return lead, q1, low - q1 * 10_000


def _nine_digits(lead: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """The 9 ASCII digits of the numbers that _split gives these parts of,
    zero-padded, as the rows of a uint8 array (a view of 12 bytes per
    row)."""
    words = np.empty((len(lead), 3), dtype=np.uint32)
    words[:, 1] = _DIGITS4[q1]
    words[:, 2] = _DIGITS4[q2]
    digits = words.view(np.uint8)
    digits[:, 3] = lead + ord("0")
    return digits[:, 3:]


def _int_fields(x: np.ndarray) -> np.ndarray:
    """The "%d" texts of integers in [0, 10^9) as rows as wide as the
    largest one's, the leading zeros of the others NUL."""
    width = len(str(int(x.max())))
    fields = _nine_digits(*_split(x))[:, 9 - width :]
    for k in range(width - 1):
        fields[x < 10 ** (width - 1 - k), k] = 0
    return fields


def _round9(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mantissa m in [1e8, 1e9) (0 for a zero), exponent e with
    |x| ~ m * 10^(e-8), and where the fast path settled the value."""
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _MIN_FAST) & (ax <= _MAX_FAST)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int32)
    np.clip(e, -301, 301, out=e)
    y = ax * _POW10[_POW_BIAS + 8 - e]
    e += (y >= _TOP).astype(np.int32) - (y < _BOTTOM)
    y = ax * _POW10[_POW_BIAS + 8 - e]
    settled = fast & (y >= _BOTTOM) & (y < _TOP)
    settled &= np.abs(y - np.floor(y) - 0.5) >= _TIE_WINDOW
    settled &= np.abs(y - _BOTTOM) >= _TIE_WINDOW
    settled |= zero
    # a zero was scaled as 1.0, so its e is already 0
    m = np.where(settled & ~zero, np.rint(y), 0.0).astype(np.int32)
    return m, e, settled


def _template(neg: int, exp: int, nd: int):
    """Layout of a field with sign neg, exponent exp and nd significant
    digits: its width, the (destination, source, length) runs of digits
    copied from the 9 mantissa digits, and the positions and bytes of the
    other characters."""
    digits = bytes(range(9))  # digit indices; every constant byte is >= 9
    if -4 <= exp < 9:
        if exp >= 0:
            body = digits[: exp + 1]
            if nd > exp + 1:
                body += b"." + digits[exp + 1 : nd]
        else:
            body = b"0." + b"0" * (-exp - 1) + digits[:nd]
    else:
        body = digits[:1] + (b"." + digits[1:nd] if nd > 1 else b"")
        body += b"e%c%02d" % (b"-" if exp < 0 else b"+", abs(exp))
    field = (b"-" if neg else b"") + body
    # each stretch of digit indices counts up from its first
    runs = [(r.start(), field[r.start()], len(r[0])) for r in re.finditer(rb"[\0-\x08]+", field)]
    consts = [pos for pos, c in enumerate(field) if c >= 9]
    return (
        len(field),
        runs,
        np.array(consts, dtype=np.intp),
        np.frombuffer(bytes(field[p] for p in consts), dtype=np.uint8),
    )


def _fields(x: np.ndarray, templates: dict) -> np.ndarray:
    """The "%.9g" texts of x as the rows of a uint8 array, NUL-padded to
    the widest of them."""
    m, e, settled = _round9(x)
    lead, q1, q2 = _split(m)
    # 9 less the trailing zeros; the leading digit is nonzero unless m = 0,
    # which has one digit, "0"
    nd = 9 - np.where(q2 != 0, _TRAILING4[q2], 4 + _TRAILING4[q1])
    # key 0 marks the values left to Python; settled keys are at least 22
    key = np.where(settled, ((e + 301) * 10 + nd) * 2 + np.signbit(x), 0).astype(np.int16)
    order = np.argsort(key, kind="stable")
    key = key[order]
    digits = _nine_digits(lead[order], q1[order], q2[order])

    starts = np.flatnonzero(key[1:] != key[:-1]) + 1
    groups = list(zip([0, *starts.tolist()], [*starts.tolist(), len(x)]))
    texts, width = [], 0
    for lo, end in groups:
        k = int(key[lo])
        if k == 0:
            texts = [b"%.9g" % v for v in x[order[lo:end]].tolist()]
            width = max(width, *map(len, texts))
            continue
        if k not in templates:
            templates[k] = _template(k & 1, (k >> 1) // 10 - 301, (k >> 1) % 10)
        width = max(width, templates[k][0])

    fields = np.zeros((len(x), width), dtype=np.uint8)
    for lo, end in groups:
        k = int(key[lo])
        if k == 0:
            for i, text in enumerate(texts, start=lo):
                fields[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
            continue
        _, runs, const_pos, const_bytes = templates[k]
        block = fields[lo:end]
        for dst, src, n in runs:
            block[:, dst : dst + n] = digits[lo:end, src : src + n]
        block[:, const_pos] = const_bytes
    unsorted = np.empty_like(fields)
    unsorted[order] = fields
    return unsorted


def _column_fields(x: np.ndarray, templates: dict) -> np.ndarray:
    """The texts of one block of a column, NUL-padded rows of uint8."""
    if x.dtype.kind in "iu" and x.min() >= 0 and x.max() < _INT_TOP:
        return _int_fields(x.astype(np.int64, copy=False))
    return _fields(x.astype(np.float64, copy=False), templates)


def csv_bytes(header: str, columns: Sequence[np.ndarray]) -> bytes:
    """The CSV text, as ASCII bytes, of a header line and equal-length
    columns, every value written as "%.9g" writes it.  Integer columns
    below 10^9 come out as "%d" would write them."""
    n = len(columns[0])
    parts = [header.encode("ascii") + b"\n"]
    templates: dict = {}
    for s in range(0, n, _CHUNK):
        fields = [_column_fields(np.asarray(c[s : s + _CHUNK]), templates) for c in columns]
        block = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
        at = 0
        for f in fields:
            block[:, at : at + f.shape[1]] = f
            at += f.shape[1]
            block[:, at] = ord(",")
            at += 1
        block[:, -1] = ord("\n")
        parts.append(block.tobytes().translate(None, b"\0"))
    return b"".join(parts)
