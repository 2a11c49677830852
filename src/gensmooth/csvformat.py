"""CSV rows in numpy, byte for byte what '%.17g' % v and '%d' % v print.

A value's 17 digits are N = round(|v| * 10**(16 - X)), X = floor(log10|v|),
which `_digits` computes as a double-double: Dekker's exact split product
(Numer. Math. 18, 1971) of |v| and the leading double of 10**(16 - X), plus
|v| times its tail.  That is within 2**-47 of the exact product, which lies
in [1e16, 1e17), so N is certain wherever the fraction is more than 2**-30
from 1/2.  A layout table then places the digits, sign, point and exponent
of each %g cell.  An integer 0 <= v < 10**8 is one 8-byte word of its
digits, two 4-digit lookups shifted right past the leading zeros.  Each
column has its own slot width: 24 bytes for a %g cell, 8 for an integer
word, each then its separator.  A column with the bits and shown rows of
an earlier one (f_gap is f_val whenever f_star is 0) copies its cells.
`%` formats every other entry, as it does 0, inf, NaN, every |v| outside
[_FAST_MIN, _FAST_MAX] (where a partial product could leave the normal
range), integers that are negative or 10**8 and beyond, and every entry of
a chunk shorter than SHORT_CHUNK rows, where the numpy passes cost more
than they save.

`cli.write_csv` imports this module on its first write, so a process that
writes no CSV neither compiles it nor builds its tables.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

SHORT_CHUNK = 64
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_X_MIN, _X_MAX = -282, 282  # floor(log10|v|) on the fast range, with a margin


def _pow10_pairs(k0: int, k1: int) -> np.ndarray:
    """10**k for k0 <= k < 0 <= k1 as rows (nearest double, nearest double
    to the rest), from Python ints, whose conversions and true divisions
    round correctly."""
    rows, p = [], 10**-k0
    for k in range(k0, k1):
        if k < 0:  # 10**k = 1/p = m/j + (j - m*p)/(p*j)
            m, j = (1 / p).as_integer_ratio()
            rows.append((m / j, (j - m * p) / (p * j)))
            p //= 10
        else:
            rows.append((float(p), float(p - int(float(p)))))
            p *= 10
    return np.array(rows)


# 10**k for k in [_X_MIN, 16 - _X_MIN], and the smallest double >= 10**k
_P_HI, _P_LO = _pow10_pairs(_X_MIN, 17 - _X_MIN).T
_LOWER = np.where(_P_LO > 0, np.nextafter(_P_HI, np.inf), _P_HI)


def _digits(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(fast, N, X) of float64 entries: '%.17g' % |v[i]| is the 17 digits of
    N[i], in [1e16, 1e17), times 10**(X[i] - 16), wherever fast[i]."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)  # log10 is within an ulp,
    x += a >= _LOWER.take(x + 1 - _X_MIN)  # so x is off by at most one
    x -= a < _LOWER.take(x - _X_MIN)
    hi, lo = _P_HI.take(16 - x - _X_MIN), _P_LO.take(16 - x - _X_MIN)
    p = a * hi  # a float >= 2**53, so an integer
    c = a * 134217729.0  # Veltkamp's split of a and hi into 26-bit halves
    a1 = c - (c - a)
    c = hi * 134217729.0
    h1 = c - (c - hi)
    a2, h2 = a - a1, hi - h1
    rest = (a2 * h2 - (((p - a1 * h1) - a2 * h1) - a1 * h2)) + a * lo
    whole = np.floor(rest)
    rest -= whole
    fast &= np.abs(rest - 0.5) > 2.0**-30
    n = p.astype(np.int64) + whole.astype(np.int64) + (rest > 0.5)
    carry = n == 10**17  # 9.99...95e-k rounds up to 1e-k+1
    n[carry] = 10**16
    return fast, n, x + carry


# Each value's 32-byte source row: its sign ('-' or NUL), "0.", its 17
# digits, four NULs, and its exponent, "e+05" or "e-300", NUL-padded to 8
# bytes.  Row kind*18 + s of _LAYOUT lists the source bytes of the %g cell
# with s significant digits, where kind is X + 4 for -4 <= X < 17 (fixed
# point) and 21 otherwise (exponent); row _EMPTY is the empty cell.  Each
# row starts with the sign and is padded with NULs to 25 entries, one more
# than the widest cell, for the separator that follows.
_D2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_T4 = np.stack([np.repeat(_D2, 100), np.tile(_D2, 100)], axis=1).view(np.uint32).ravel()
# each 4-digit group's digits through its last that is not 0
_SIG = 4 - sum(np.arange(10**4) % 10**k == 0 for k in range(1, 5)).astype(np.uint8)
_SIGN_0_LEAD = np.frombuffer(b"".join(b"%s0.%d" % (sign, d) for sign in (b"\0", b"-")
                                      for d in range(10)), np.uint32)
_EXP = np.frombuffer(b"".join((b"e%+03d" % x).ljust(8, b"\0")
                              for x in range(_X_MIN, _X_MAX + 1)), np.uint64)


def _layout(kind: int, s: int) -> bytes:
    """Source bytes of a cell: 0 the sign, 1 '0', 2 '.', 3 + i digit i,
    20 NUL, 24-28 the exponent."""
    digits, x = bytes(range(3, 3 + s)), kind - 4
    if kind == 21:
        cell = digits[:1] + (b"\2" + digits[1:] if s > 1 else b"") + bytes(range(24, 29))
    elif x >= 0:
        cell = bytes(range(3, 4 + x)) + (b"\2" + digits[x + 1:] if s > x + 1 else b"")
    else:
        cell = b"\1\2" + b"\1" * (-x - 1) + digits
    return (b"\0" + cell).ljust(25, b"\x14")


_LAYOUT = np.frombuffer(b"".join(_layout(kind, s) for kind in range(22) for s in range(18))
                        + b"\x14" * 25, np.uint8).reshape(-1, 25)
_EMPTY = len(_LAYOUT) - 1
# the bits an integer's 8-digit word shifts right by, 8 per leading zero:
# entry lo for v = lo < 10**4 (0 keeps one digit), 10**4 + hi for
# v // 10**4 = hi > 0
_LEN4 = 1 + sum(np.arange(10**4) >= 10**k for k in range(1, 4))  # of 0..9999
_SHIFT = np.concatenate([8 * (8 - _LEN4), 8 * (4 - _LEN4)]).astype(np.uint8)


def _sources(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, source, key) of float64 values: each value's source row, and
    the _LAYOUT row of its %.17g cell wherever fast."""
    fast, digits, x = _digits(values)
    source = np.empty((len(values), 4), np.uint64)
    words = source.view(np.uint32)
    top = digits // 10**8  # digits = lead*10**16 + mid*10**8 + low
    lead = top // 10**8
    mid, low = top - lead * 10**8, digits - top * 10**8
    words[:, 0] = _SIGN_0_LEAD.take(lead + 10 * np.signbit(values))
    mid_hi, low_hi = mid // 10**4, low // 10**4  # x - x // m * m: x % m without int64 %
    s = 1  # significant digits: through the last group that is not 0
    for k, group in enumerate((mid_hi, mid - mid_hi * 10**4, low_hi, low - low_hi * 10**4)):
        words[:, 1 + k] = _T4.take(group)
        s = np.where(group, 1 + 4 * k + _SIG.take(group), s)
    words[:, 5] = 0
    source[:, 3] = _EXP.take(x - _X_MIN)
    kind = np.where((x >= -4) & (x < 17), x + 4, 21)
    return fast, source.view(np.uint8).ravel(), kind * 18 + s


def _words(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fast, word) of int64 entries: wherever fast, 0 <= v < 10**8, and the
    eight bytes of word, a '<u8', are '%d' % v and then NULs."""
    fast = v.view(np.uint64) < 10**8  # a negative v reads as 2**64 + v
    hi = v // 10**4
    lo = v - hi * 10**4  # in [0, 10**4) for every v: a product that wraps, wraps back
    pair = np.empty(v.shape + (2,), np.uint32)
    pair[..., 0] = _T4.take(hi, mode="clip")
    pair[..., 1] = _T4.take(lo)
    # the first byte of a '<u8' is its lowest, so the leading zeros shift out
    shift = _SHIFT.take(np.where(hi, hi + 10**4, lo), mode="clip")
    return fast, (pair.view("<u8")[..., 0] >> shift).astype("<u8", copy=False)


def csv_rows(cols: list[np.ndarray], present: list[np.ndarray | None]) -> bytes:
    """Rows of CSV cells, one per entry of the equal-length columns `cols`:
    '%.17g' % v for float64 columns and '%d' % v for integer ones, and an
    empty cell where `present` (None: every row) is False."""
    n = len(cols[0])
    specs = ["%.17g" if c.dtype.kind == "f" else "%d" for c in cols]
    if n < SHORT_CHUNK:
        # one `%` for the chunk; "%.0s" prints a missing entry as nothing
        cells = [[spec] * n if p is None else [spec if q else "%.0s" for q in p.tolist()]
                 for spec, p in zip(specs, present)]
        text = "\n".join(map(",".join, zip(*cells))) + "\n"
        return (text % tuple(chain.from_iterable(zip(*(c.tolist() for c in cols))))).encode()
    # column j has the cells of column src[j], the first with its bits and
    # shown rows (f_gap is f_val whenever f_star is 0); order lists the
    # columns that are formatted, the %g ones first
    firsts: dict = {}
    src = [firsts.setdefault((c.dtype.char, c.tobytes(),
                              None if p is None or p.all() else p.tobytes()), j)
           for j, (c, p) in enumerate(zip(cols, present))]
    order = sorted(firsts.values(), key=lambda j: specs[j] == "%d")
    nf = sum(specs[j] == "%.17g" for j in order)
    fast, source, key = _sources(np.array([cols[j] for j in order[:nf]], np.float64).ravel())
    word_fast, words = _words(np.array([cols[j] for j in order[nf:]], np.int64).reshape(-1, n))
    fast = np.concatenate([fast.reshape(nf, n), word_fast])
    shown = np.ones_like(fast)
    for i, j in enumerate(order):
        if present[j] is not None:
            shown[i] = present[j]
    bad = shown & ~fast  # the cells `%` formats
    fast &= shown
    # a block of cells per formatted column, each cell NUL-padded: a %g cell
    # in 24 bytes, an integer in its 8-byte word (24 bytes where `%` formats
    # one of the column's cells)
    starts = np.arange(0, 32 * nf * n, 32).reshape(nf, n, 1)  # each value's source row
    layout = _LAYOUT.take(np.where(fast[:nf], key.reshape(nf, n), _EMPTY), axis=0)[..., :24]
    cells = np.empty(layout.shape, np.uint8)
    for i in range(nf):  # a column at a time, to hold the byte indices of one
        source.take(layout[i] + starts[i], out=cells[i], mode="clip")  # "raise" buffers out
    words *= fast[nf:]  # NULs where a cell is missing or `%` formats it
    ints = words.view(np.uint8).reshape(-1, n, 8)
    if bad[nf:].any():
        ints = np.concatenate([ints, np.zeros((len(ints), n, 16), np.uint8)], axis=2)
    blocks = dict(zip(order, [*cells, *ints]))
    comma = np.full((n, 1), ord(","), np.uint8)
    table = np.concatenate([b for j in src for b in (blocks[j], comma)], axis=1)
    table[:, -1] = ord("\n")
    if bad.any():  # `%` formats the rest
        slots = np.cumsum([0] + [blocks[j].shape[1] + 1 for j in src])
        js, rows = np.nonzero(bad[[order.index(j) for j in src]])
        text = "\0".join([specs[j] for j in js.tolist()]) % tuple(
            cols[j][r] for j, r in zip(js.tolist(), rows.tolist()))
        text = np.array(text.encode().split(b"\0"))
        table[rows[:, None], slots[js][:, None] + np.arange(text.itemsize)] = (
            text.view(np.uint8).reshape(len(js), -1))
    return table.tobytes().translate(None, b"\0")
