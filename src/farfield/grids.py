"""The table of domain kinds, uniform tensor grids, boundary traces,
solved-field containers, and the one exact float formatter of every CSV dump.

`format_17g` returns CPython's `b"%.17g" % v` for each float64 of an array.
It works the digits out with integer arithmetic on numpy arrays; only
values outside [1e-10, 1e14) in magnitude (zeros, subnormals, inf and NaN
among them) go through CPython one at a time. `save_field_csv`,
`profile1d.save_profile_csv` and the bubble writer in `cli` all write
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# (x1, x2) periodicity of each domain kind. An axis that is not periodic is
# Dirichlet at 0, where it keeps its node (the trace column on x1, the zero
# floor on x2), and has a mirror ghost at its far end.
PERIODIC = {"quarter": (False, False), "half": (False, True), "torus": (True, True)}
KINDS = tuple(PERIODIC)


def periodic_axes(kind: str) -> tuple[bool, bool]:
    """(x1, x2) periodicity of a domain kind, from `PERIODIC`."""
    if kind not in KINDS:
        raise InputError(f"domain kind must be one of {KINDS}, got {kind!r}")
    return PERIODIC[kind]


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on [0, L1] x [0, L2] with spacing h in both directions.

    A periodic axis stores n nodes, its far end identified with 0; any
    other keeps both ends, n + 1 nodes. So the quarter domain has
    (n1 + 1) x (n2 + 1) nodes, the half domain (n1 + 1) x n2 and the torus
    n1 x n2.
    """
    L1: float
    L2: float
    h: float
    n1: int
    n2: int

    def x1_nodes(self, kind: str) -> np.ndarray:
        return np.arange(self.n1 if periodic_axes(kind)[0] else self.n1 + 1) * self.h

    def x2(self, kind: str) -> np.ndarray:
        return np.arange(self.n2 if periodic_axes(kind)[1] else self.n2 + 1) * self.h


def make_grid(L1: float, L2: float, h: float) -> Grid2D:
    if not all(0 < v < math.inf for v in (L1, L2, h)):
        raise InputError("make_grid: need finite positive L1, L2, h")
    n1 = round(L1 / h)
    n2 = round(L2 / h)
    if abs(n1 * h - L1) > 1e-9 * max(1.0, L1) or abs(n2 * h - L2) > 1e-9 * max(1.0, L2):
        raise InputError(f"grid spacing h={h:g} does not divide L1={L1:g}, L2={L2:g}")
    if n1 < 2 or n2 < 2:
        raise InputError("make_grid: need at least 2 cells per direction")
    return Grid2D(float(L1), float(L2), float(h), n1, n2)


def as_trace(trace, grid: Grid2D, kind: str) -> np.ndarray:
    """Normalize a trace spec (scalar, callable, or array) to a node array.

    Over a Dirichlet x2 axis the trace is forced to 0 at the corner shared
    with the floor; over a periodic one it is plain node values.
    """
    p1, p2 = periodic_axes(kind)
    if p1:
        raise InputError("the torus has no trace side")
    x2 = grid.x2(kind)
    if callable(trace):
        vals = np.asarray([float(trace(x)) for x in x2], dtype=float)
    elif np.isscalar(trace):
        vals = np.full(x2.size, float(trace))
    else:
        vals = np.asarray(trace, dtype=float).copy()
        if vals.shape != x2.shape:
            raise InputError(f"trace has {vals.size} values, grid wants {x2.size}")
    if not np.all(np.isfinite(vals)):
        raise InputError("trace contains non-finite values")
    if not p2:
        vals[0] = 0.0     # floor wins the shared corner
    return vals


@dataclass(eq=False)
class Field:
    """A field on a grid: full node array including boundary rows."""
    values: np.ndarray
    grid: Grid2D
    kind: str
    residual: float = np.inf
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact "%.17g"
#
# A double x = m 2**e (m < 2**53) prints to 17 significant digits from
# integer arithmetic on m alone (Steele and White, PLDI 1990; Adams, "Ryu
# revisited", OOPSLA 2019): with d = floor(log10 |x|) and p = 16 - d, the
# digits are N = m 5**p 2**(e + p) rounded half to even. For |x| in
# [1e-10, 1e14), d lies in [-10, 13], 5**p < 2**63 and the right shift
# s = -(e + p) lies in [1, 63], so the product and the shift run on whole
# uint64 arrays. Every other value (zeros, subnormals, inf, NaN and the far
# decades) goes through CPython's own "%.17g".

_D_MIN = -10
# p = 16 - d reaches 27 where log10 lands one decade low at d = _D_MIN
_POW5 = np.array([5 ** p for p in range(16 - _D_MIN + 2)], dtype=np.uint64)
_LOW32, _U32, _U64 = np.uint64(2 ** 32 - 1), np.uint64(32), np.uint64(64)
_HALF = np.uint64(2 ** 63)
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_WIDTH = 24         # the longest "%.17g" string: -2.2250738585072014e-308
_BLOCK = 4096       # values formatted in one pass
_ROWS_PER_WRITE = 16    # field rows filled and written at a time, tens of KB


def _quad_table() -> np.ndarray:
    """ASCII 0000..9999 as uint32 words, then again with trailing zeros as NUL."""
    i = np.arange(10000, dtype=np.uint16)[:, None]
    digits = (i // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    trailing = i % np.array([10000, 1000, 100, 10], np.uint16) == 0
    quads = np.concatenate([digits, np.where(trailing, 0, digits)])
    return quads.view(np.uint32).ravel()


_QUADS = _quad_table()


def _scaled(m, e, d):
    """Floor q and rounded n of m 2**e 10**(16 - d), exactly, as uint64.

    The 116-bit product m 5**p comes from four 32-bit partial products; the
    shift by s = -(e + p) splits it into q and a remainder, which `lo << t`
    moves to the top of a word, where 2**63 is the tie. Every operand stays
    uint64: under NEP 50, int64 mixed with uint64 promotes to float64.
    """
    p = 16 - d
    b = _POW5[p]
    t = (e + p + 64).astype(np.uint64)          # 64 - s
    a0, a1 = m & _LOW32, m >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    x01, x10 = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> _U32) + (x01 & _LOW32) + (x10 & _LOW32)) >> _U32
    hi = a1 * b1 + (x01 >> _U32) + (x10 >> _U32) + carry
    lo = m * b                                  # the low word, modulo 2**64
    q = (hi << t) | (lo >> (_U64 - t))
    return q, q + ((lo << t) + (q & np.uint64(1)) > _HALF)


def _decimal17(v: np.ndarray):
    """17 digits n and exponent d of each v in [1e-10, 1e14): v ~ n 10**(d - 16).

    log10 can land one off next to a power of ten; the floor q says so, and
    those elements are scaled again. The largest double below each 10**k,
    k in [-9, 14], lies at least 4 units of the 17th digit below it, so n
    never rounds up to 10**17.
    """
    f, E = np.frexp(v)
    m = (f * 2.0 ** 53).astype(np.uint64)
    e = E.astype(np.int64) - 53
    d = np.floor(np.log10(v)).astype(np.int64)
    q, n = _scaled(m, e, d)
    off = (q >= _E17).astype(np.int64) - (q < _E16)
    fix = np.flatnonzero(off)
    if fix.size:
        d[fix] += off[fix]
        n[fix] = _scaled(m[fix], e[fix], d[fix])[1]
    return n, d


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each n as uint8 rows, trailing zeros as NUL."""
    hi = (n // np.uint64(10 ** 8)).astype(np.uint32)    # 9 digits
    lo = (n - hi * np.uint64(10 ** 8)).astype(np.uint32)
    lead = hi // np.uint32(10 ** 8)
    hi -= lead * np.uint32(10 ** 8)
    c1 = hi // np.uint32(10 ** 4)
    c2 = hi - c1 * np.uint32(10 ** 4)
    c3 = lo // np.uint32(10 ** 4)
    c4 = lo - c3 * np.uint32(10 ** 4)
    # a group of four reads the NUL half of the table when every group after
    # it is zero; the leading digit is never 0
    z3 = c4 == 0
    z2 = z3 & (c3 == 0)
    z1 = z2 & (c2 == 0)
    buf = np.empty((n.size, 20), np.uint8)
    buf[:, 3] = lead + ord("0")
    quads = buf[:, 4:].view(np.uint32)
    quads[:, 0] = _QUADS[c1 + 10000 * z1]
    quads[:, 1] = _QUADS[c2 + 10000 * z2]
    quads[:, 2] = _QUADS[c3 + 10000 * z3]
    quads[:, 3] = _QUADS[c4 + 10000]
    return buf[:, 3:]


def _layout(n: np.ndarray, d: np.ndarray, neg: np.ndarray):
    """"%.17g" strings of digits n and exponents d, in sorted order.

    "%g" writes fixed notation for d >= -4 and d.ddde-XX below. Rows are
    sorted once by (d, sign), so each layout fills a slice of whole columns.
    Trailing NUL bytes end a string, so the digits' NUL zeros cut themselves
    off, and a decimal point before a NUL digit becomes NUL too. Returns
    the sort order and the strings as an "S" array in that order.
    """
    key = ((d - _D_MIN) * 2 + neg).astype(np.uint8)
    order = np.argsort(key, kind="stable")      # a radix sort on uint8
    key = key[order]
    digits = _digits(n[order])
    text = np.zeros((n.size, _WIDTH), np.uint8)
    strings = text.view(f"S{_WIDTH}").ravel()
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, n.size]):
        exp, sign = divmod(int(key[a]), 2)
        exp += _D_MIN
        row, dig = text[a:b, sign:], digits[a:b]
        if sign:
            text[a:b, 0] = ord("-")
        if exp >= 0:        # 123.456; the integer part keeps its zeros
            row[:, :exp + 1] = dig[:, :exp + 1] | ord("0")
            row[:, exp + 1] = np.minimum(dig[:, exp + 1], ord("."))
            row[:, exp + 2:18] = dig[:, exp + 1:]
        elif exp >= -4:     # 0.00123
            row[:, :1 - exp] = np.frombuffer(b"0.000"[:1 - exp], np.uint8)
            row[:, 1 - exp:18 - exp] = dig
        else:               # 1.23e-05
            row[:, 0] = dig[:, 0]
            row[:, 1] = np.minimum(dig[:, 1], ord("."))
            row[:, 2:18] = dig[:, 1:]
            strings[a:b] = np.strings.add(strings[a:b], b"e-%02d" % -exp)
    return order, strings


def _format_block(x: np.ndarray) -> list[bytes]:
    """`format_17g` of one flat float64 block."""
    ax = np.abs(x)
    fast = (ax >= 1e-10) & (ax < 1e14)
    out = np.zeros(x.size, f"S{_WIDTH}")
    rows = np.flatnonzero(fast)
    if rows.size:
        n, d = _decimal17(ax[rows])
        order, text = _layout(n, d, x[rows] < 0)
        out[rows[order]] = text
    rest = np.flatnonzero(~fast)
    out[rest] = [b"%.17g" % v for v in x[rest].tolist()]
    return out.tolist()


def format_17g(values) -> list[bytes]:
    """`b"%.17g" % v` for every float64 of `values`, in flat C order.

    The bytes are CPython's (`"%.17g"` and `"{:.17g}"` share its
    float-to-string path), but values in [1e-10, 1e14) in magnitude are
    formatted by integer arithmetic on numpy arrays; the rest take CPython's
    own "%.17g" one by one. Values go through in blocks of _BLOCK, which
    bounds the arrays of one pass to about 1 MB.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = []
    for a in range(0, x.size, _BLOCK):
        out += _format_block(x[a:a + _BLOCK])
    return out


def save_field_csv(f: Field, path: str) -> None:
    """Row-major x1,x2,u dump with 17 significant digits.

    The bytes are those of a `csv.writer` in its default dialect given
    `f"{v:.17g}"` strings: no field needs quoting, and every line ends in
    \r\n. Solved fields repeat their values (rows settle on the far-field
    limit row, and half rows are nearly constant in x2), so each distinct
    float of the grid nodes and the values goes once through `format_17g`.
    Each write fills a template of _ROWS_PER_WRITE rows, which carries their
    x1 and x2 strings, with one `%`. Values are keyed by bit pattern, not by
    float equality, so 0.0 and -0.0 keep their own strings.
    """
    x1, x2 = f.grid.x1_nodes(f.kind), f.grid.x2(f.kind)
    flat = np.concatenate((x1, x2, np.asarray(f.values, dtype=np.float64).ravel()))
    bits, inv = np.unique(flat.view(np.int64), return_inverse=True)
    strs = np.array(format_17g(bits.view(np.float64)), dtype=object)[inv].tolist()
    n1, n2 = x1.size, x2.size
    heads = [s + b"," for s in strs[:n1]]
    tails = [s + b",%s\r\n" for s in strs[n1:n1 + n2]]
    cells = strs[n1 + n2:]
    with open(path, "wb") as fh:
        fh.write(b"x1,x2,u\r\n")
        for i in range(0, n1, _ROWS_PER_WRITE):
            template = b"".join([a + a.join(tails) for a in heads[i:i + _ROWS_PER_WRITE]])
            fh.write(template % tuple(cells[i * n2:(i + _ROWS_PER_WRITE) * n2]))
