"""The bulk CSV formatter against its reference, Python's own "%.9g" applied
to each value in a loop: the bytes must be equal on every input."""

import numpy as np
import pytest

from kleinnet._csvfmt import _round9, csv_bytes


def _reference(header, columns):
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    rows = zip(*[np.asarray(c, dtype=np.float64).tolist() for c in columns])
    return (header + "\n" + "".join(map(row.__mod__, rows))).encode("ascii")


def _powers_of_ten():
    p = np.array([float("1e%d" % k) for k in range(-323, 309)])
    p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([p, -p])


def _near_ties(rng):
    # x.xxxxxxxx5 * 10^j: ten significant digits ending in 5, rounded to the
    # nearest float, so the exact value lies just off the tie; 9.999999995
    # * 10^j, just off rounding up into the next exponent, among them
    k = rng.integers(100_000_000, 1_000_000_000, size=4000) + 0.5
    k[:500] = 999999999.5
    j = rng.integers(-12, 12, size=k.size)
    return k * 10.0 ** (j - 9)


def _round_ups():
    # 9 nines and a bit more: the mantissa rounds up into the next exponent,
    # across the fixed/scientific switches at 1e-4 and 1e9
    nines = 1.0 - np.array([1e-10, 2e-10, 4e-10, 4.9e-10])
    scale = np.array([1e-5, 1e-4, 1e-3, 1.0, 1e8, 1e9, 1e10, 1e100, 1e-100])
    return (nines[:, None] * scale[None, :]).ravel()


def _switches():
    # either side of the fixed/scientific switches at 1e-4 and 1e9
    x = np.array([1e-4, 9.99999999e-5, 1.00000001e-4, 1e9, 999999999.0, 1000000001.0])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    # and at them, exactly halfway or just off it
    return np.concatenate([x, [999999999.5, 99999999.95, 9.9999999995e-05, 9.99999999949e-05]])


def _inputs():
    rng = np.random.default_rng(20260419)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    magnitude = 10.0 ** rng.uniform(-324, 308.2, size=100_000)
    signs = rng.choice([-1.0, 1.0], size=magnitude.size)
    limits = np.array([1e-300, 1e300])
    limits = np.concatenate([limits, np.nextafter(limits, 0.0), np.nextafter(limits, np.inf)])
    return {
        "bit patterns": bits,
        "log-uniform": magnitude * signs,
        "signed zeros": np.array([0.0, -0.0]),
        "range limits": np.concatenate([limits, -limits, [5e-324, -5e-324, 2.2e-308]]),
        "powers of ten": _powers_of_ten(),
        "switches": np.concatenate([_switches(), _round_ups(), -_round_ups()]),
        "near ties": np.concatenate([_near_ties(rng), -_near_ties(rng)]),
        "integers": np.arange(2**20 + 1),
        "non-finite": np.array([np.nan, np.inf, -np.inf, 1.5]),
        "empty": np.array([]),
        "one row": np.array([0.1]),
    }


@pytest.mark.parametrize("name,values", list(_inputs().items()))
def test_bytes_equal_reference(name, values):
    assert csv_bytes("x", [values]) == _reference("x", [values])


def test_columns_and_rows_across_chunks():
    rng = np.random.default_rng(7)
    n = 70_000  # more than two blocks of rows
    columns = [np.arange(n), rng.normal(size=n), -rng.exponential(size=n) * 1e-5]
    assert csv_bytes("i,a,b", columns) == _reference("i,a,b", columns)


def test_each_fallback_is_taken():
    ties = np.array([100000000.5, 123456789.5, 12345678.25, 99999999.95])
    out_of_range = np.array([np.nextafter(1e-300, 0.0), 5e-324, np.nextafter(1e300, np.inf), 1.7e308])
    non_finite = np.array([np.nan, np.inf, -np.inf])
    for values in (ties, out_of_range, non_finite):
        _, _, settled = _round9(values)
        assert not settled.any()
    rng = np.random.default_rng(5)
    _, _, settled = _round9(_near_ties(rng))
    assert not settled.any()
    # about 2 in 10^6 values are left to Python
    _, _, settled = _round9(rng.normal(size=100_000))
    assert (~settled).sum() < 10


def test_fast_path_settles_round_ups_and_powers_of_ten():
    # values just below a power of ten need the one exponent correction
    for values in (_round_ups(), np.array([0.0, -0.0, 1e-300, 1e300, 1e-4, 1e9])):
        m, e, settled = _round9(values)
        assert settled.all()
    p = _powers_of_ten()
    m, e, settled = _round9(p[(np.abs(p) >= 1e-299) & (np.abs(p) <= 1e299)])
    assert settled.all()
    assert ((m >= 100_000_000) & (m < 1_000_000_000)).all()


def _int_reference(header, columns):
    """Integer columns as "%d" writes them, the others as "%.9g"."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.9g" for c in columns) + "\n"
    rows = zip(*[c.tolist() for c in columns])
    return (header + "\n" + "".join(map(row.__mod__, rows))).encode("ascii")


def _digit_edges(top):
    """0, 9, 10, 10^k - 1 and 10^k up to top, and top - 1."""
    edges = {0, 9, 10, top - 1}
    k = 1
    while 10**k < top:
        edges |= {10**k - 1, 10**k}
        k += 1
    return sorted(edges)


@pytest.mark.parametrize("dtype,top", [(np.int8, 128), (np.int16, 32768), (np.int64, 10**9)])
def test_integer_columns_match_the_d_format(dtype, top):
    rng = np.random.default_rng(11)
    edges = np.array(_digit_edges(top), dtype=dtype)
    for values in (edges, rng.permutation(np.repeat(edges, 5000)), np.zeros(3, dtype)):
        assert csv_bytes("i", [values]) == _int_reference("i", [values])
        floats = rng.normal(size=len(values)) * 1e-3
        columns = [values, floats, values[::-1].copy()]
        assert csv_bytes("i,x,j", columns) == _int_reference("i,x,j", columns)


def test_integer_columns_outside_the_digit_range_keep_the_float_format():
    # negative values and values from 10^9 on are written as "%.9g" writes
    # their float, as before
    for values in (np.array([-1, 0, 5]), np.array([10**9, 1, 2]), np.array([2**62, 7])):
        assert csv_bytes("i", [values]) == _reference("i", [values])
