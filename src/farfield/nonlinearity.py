"""Reaction-term catalog and structure analysis.

A Nonlinearity bundles a vectorized source term f on the analysis window
[0, s_max] with its exact slab integral, the one integral of f: F(z) is the
slab from 0 to z, and there is no quadrature fallback. Each constructor
takes its window and builds on it, in closed form, the term's exact
Lipschitz constant, its kinks, its zero set E (isolated points and flat
intervals) and its one-sided slopes, so nothing samples or differences f;
`fprime`, the slope of the clipped f, is the package's one f'. The xi(V)
that a profile rising to a zero inverts is closed form too: elementary for
an affine f and the logistic, Legendre's F(phi|m) for |sin|. On top of
that sit the structural operations the rest of the package consumes: the
subset of zeros reachable by monotone 1-D profiles (F strictly below its
value at the zero all the way up), hypothesis checkers for the three
structural conditions the far-field statements assume, which read f's sign
between consecutive points of E and its exact slopes at them.

Catalog names accepted by make():
    logistic        s (1 - s)
    abs-sin         |sin s|
    linear-decay    1 - s
    cantor:<k>      distance to the level-k middle-thirds pre-fractal
    table:<path>    CSV with columns s, f(s); linear interpolation
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InputError

TOL_F_STRICT = 1e-12     # strictness margin for the F-increase test
_CANTOR_MAX_LEVEL = 6    # finest level whose every reachable profile the tests build


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    kind: str
    s_max: float
    lipschitz: float        # of f on [0, s_max], exact
    fn: Callable = field(repr=False)   # vectorized, unchecked; maps a float to a float
    slope: Callable = field(repr=False)   # (s, side): f'(s+) if side > 0, else f'(s-)
    # exact integral of f over [lo, hi] for float arrays lo < hi (elementwise;
    # hi may be one float); must stay accurate in RELATIVE terms when the
    # integral is tiny (profiles divide by it arbitrarily close to a zero,
    # where a difference of two integrals from 0 would cancel catastrophically)
    gap_fn: Callable = field(repr=False)
    # the sorted points in (0, s_max) where f is not differentiable; the RK4
    # launches on f land their steps on them
    kinks: tuple = field(repr=False)
    # xi(v, w, z): the integral from 0 to V of 1/W, W = sqrt(2 (F(z) - F)), in
    # closed form at the nodes v of a profile mesh rising to the zero z (sorted,
    # from 0, broken at the kinks), given w = W(v)
    xi: Callable = field(repr=False)
    # the exact zero set of f on [0, s_max], as (points, intervals): sorted
    # isolated zeros and the closed intervals where f vanishes identically
    zeros: tuple = field(repr=False)


def eval_capped(nl: Nonlinearity, s):
    """f on an array, with the argument clipped to the analysis window.

    Iterative solvers may step outside [0, s_max] transiently; they use this
    entry point and validate their final answer instead. The argument is
    never written to.
    """
    return nl.fn(np.asarray(s, dtype=float).clip(0.0, nl.s_max))


def fprime(nl: Nonlinearity, s, side: int = 1) -> np.ndarray:
    """The one-sided derivative of eval_capped on an array: f'(s+) for
    side > 0 and f'(s-) for side < 0, and 0 where the clip holds the
    argument at an end of [0, s_max] (outside the window, and at an end on
    its outer side). At a kink it is one element of Clarke's generalized
    Jacobian (Qi and Sun, Math. Programming 58, 1993)."""
    s = np.asarray(s, dtype=float)
    inside = (0.0 <= s) & (s < nl.s_max) if side > 0 else (0.0 < s) & (s <= nl.s_max)
    return np.where(inside, nl.slope(s.clip(0.0, nl.s_max), side), 0.0)


def scalar_fn(nl: Nonlinearity) -> Callable[[float], float]:
    """f on one Python float, unclipped, as a float: fn itself, or a
    piecewise-linear term's float path, np.interp's formula without numpy."""
    return nl.fn.at_float if isinstance(nl.fn, _PiecewiseLinear) else nl.fn


def integral_between(nl: Nonlinearity, lo, hi):
    """Integral of f over [lo, hi] with relative accuracy even when tiny.

    `lo` and `hi` are scalars or arrays, broadcast together; scalar inputs
    give a float, array inputs an array. Every term carries its slab
    integral in closed or piecewise-exact form (`gap_fn`); there is no
    quadrature fallback. F(z) is integral_between(nl, 0.0, z).

    An array `lo` entirely below a scalar `hi` (a profile's slabs up to its
    level z) goes to `gap_fn` in one call, with no broadcast and no mask;
    the values are those of the general route, bit for bit.
    """
    lo = np.asarray(lo, dtype=float)
    if lo.ndim and np.ndim(hi) == 0 and (lo < hi).all():
        return nl.gap_fn(lo, float(hi))
    lo_a, hi_a = np.broadcast_arrays(lo, np.asarray(hi, dtype=float))
    a = np.minimum(lo_a, hi_a).ravel()
    b = np.maximum(lo_a, hi_a).ravel()
    live = np.flatnonzero(a != b)           # lo == hi stays an exact 0
    val = np.zeros(a.size)
    val[live] = nl.gap_fn(a[live], b[live])
    val = np.where(hi_a.ravel() < lo_a.ravel(), -val, val).reshape(lo_a.shape)
    return float(val) if val.ndim == 0 else val


def _window(s_max) -> float:
    """The analysis window's right end as a float; it must be positive and
    finite before any fact of a term is derived on it."""
    w = float(s_max)
    if not (w > 0 and math.isfinite(w)):
        raise InputError(f"analysis window must be positive, got s_max={s_max}")
    return w


def _kinks_in(points, s_max: float) -> tuple:
    """The distinct points strictly inside (0, s_max), sorted, as floats."""
    return tuple(sorted({float(p) for p in points if 0.0 < p < s_max}))


def _zeros_in(points, intervals, s_max: float) -> tuple:
    """A zero set cut to [0, s_max], as (points, intervals): intervals that
    touch are merged, one the window cuts to a single point becomes that
    point, and points on an interval are dropped."""
    ivs = []
    for a, b in sorted((max(a, 0.0), min(b, s_max)) for a, b in intervals if a <= s_max):
        if ivs and a <= ivs[-1][1]:
            ivs[-1] = (ivs[-1][0], max(b, ivs[-1][1]))
        else:
            ivs.append((a, b))
    pts = [a for a, b in ivs if a == b]
    ivs = [(float(a), float(b)) for a, b in ivs if a < b]
    lefts = [a for a, _ in ivs]
    for p in points:
        j = bisect_right(lefts, p) - 1
        if 0.0 <= p <= s_max and (j < 0 or p > ivs[j][1]):
            pts.append(p)
    return tuple(sorted({float(p) for p in pts})), tuple(ivs)


# ---------------------------------------------------------------------------
# piecewise-linear backbone (cantor + table share it)

def _interp_float(xs: list, ys: list) -> Callable[[float], float]:
    """np.interp on one Python float, as a float: its formula on knot lists,
    each cell's slope divided once, without the wrapper overhead of numpy."""
    slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    last = len(xs) - 1

    def f(s: float) -> float:
        if s != s:
            return s
        j = bisect_right(xs, s) - 1
        if j < 0:
            return ys[0]
        if j == last or xs[j] == s:
            return ys[j]
        slope = slopes[j]
        v = slope * (s - xs[j]) + ys[j]
        if v != v:      # an infinite slope: try from the other end
            v = slope * (s - xs[j + 1]) + ys[j + 1]
            if v != v and ys[j] == ys[j + 1]:
                v = ys[j]
        return v
    return f


class _PiecewiseLinear:
    """f linear between knots; its slab integral is exact (trapezoids)."""

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.size < 2 or np.any(np.diff(self.xs) <= 0):
            raise InputError("piecewise-linear table needs at least two strictly increasing knots")
        seg = 0.5 * (self.ys[1:] + self.ys[:-1]) * np.diff(self.xs)
        self.seg_padded = np.append(seg, 0.0)
        self.at_float = _interp_float(self.xs.tolist(), self.ys.tolist())
        # cell slopes, 0 beyond the outer knots, and the knots where they
        # change; a change at rounding level is a straight line through a knot
        slopes = np.concatenate(([0.0], np.diff(self.ys) / np.diff(self.xs), [0.0]))
        jump = np.abs(np.diff(slopes))
        self.kinks = self.xs[jump > 1e-12 * (np.abs(slopes[1:]) + np.abs(slopes[:-1]))].tolist()
        self.slopes = slopes

    def term(self, kind: str, s_max: float) -> Nonlinearity:
        """This f as the term `kind` on the window [0, s_max]. Its Lipschitz
        constant is the largest |slope| of the cells that start below s_max
        (f is constant beyond the outer knots). Its zeros are read off the
        knots: a cell with both knot values 0 is an interval, a knot with
        value 0 a point, a sign change across a cell its secant point; the
        last value holds to s_max."""
        xs, ys = self.xs, self.ys
        lipschitz = float(np.abs(self.slopes[1:-1][xs[:-1] < s_max]).max(initial=0.0))
        zero = ys == 0.0
        flat = zero[:-1] & zero[1:]
        ivs = list(zip(xs[:-1][flat].tolist(), xs[1:][flat].tolist()))
        if zero[-1] and s_max > xs[-1]:
            ivs.append((float(xs[-1]), s_max))
        cross = ys[:-1] * ys[1:] < 0.0
        x0, x1, y0, y1 = xs[:-1][cross], xs[1:][cross], ys[:-1][cross], ys[1:][cross]
        secant = x0 - y0 * (x1 - x0) / (y1 - y0)
        zeros = _zeros_in(xs[zero].tolist() + secant.tolist(), ivs, s_max)
        return Nonlinearity(kind, s_max, lipschitz, self, self.slope, self.gap,
                            _kinks_in(self.kinks, s_max), _cellwise_xi(self.slope), zeros)

    def __call__(self, s):
        return np.interp(s, self.xs, self.ys)

    def slope(self, s, side):
        """The slope of the cell on the `side` of s (at a knot, the cell that
        starts there for side > 0 and the one that ends there for side < 0)."""
        return self.slopes[np.searchsorted(self.xs, s, "right" if side > 0 else "left")]

    def gap(self, lo, hi):
        """Exact integral over [lo, hi] for arrays lo < hi; accurate for tiny
        values because it adds the two partial end cells to the sum of the
        whole cells between them instead of differencing two integrals
        from 0. f is constant beyond the outer knots."""
        xs, ys = self.xs, self.ys
        a = np.clip(lo, xs[0], xs[-1])
        b = np.clip(hi, xs[0], xs[-1])
        i = np.minimum(np.searchsorted(xs, a, side="right") - 1, xs.size - 2)  # cell of a
        j = np.maximum(np.searchsorted(xs, b, side="left") - 1, 0)             # cell of b
        fa = np.interp(a, xs, ys)
        fb = np.interp(b, xs, ys)
        head = 0.5 * (ys[i + 1] + fa) * (xs[i + 1] - a)
        tail = 0.5 * (fb + ys[j]) * (b - xs[j])
        # whole cells i+1 .. j-1: reduceat over (start, stop) index pairs
        # gives the sum where start < stop; the padded zero keeps every
        # index in range. A scalar hi has one upper cell j, so one pair per
        # start cell makes a table that each element reads at its own i
        scalar_hi = np.ndim(j) == 0
        start = np.arange(1, xs.size) if scalar_hi else i + 1
        stop = np.maximum(j, start)
        bounds = np.stack([start, stop], axis=-1).ravel()
        whole = np.add.reduceat(self.seg_padded, bounds)[0::2].reshape(start.shape)
        whole = np.where(stop > start, whole, 0.0)
        if scalar_hi:
            whole = whole[i]
        core = np.where(i == j, 0.5 * (fb + fa) * (b - a), head + (whole + tail))
        below = np.minimum(hi, xs[0]) - np.minimum(lo, xs[0])
        above = np.maximum(hi, xs[-1]) - np.maximum(lo, xs[-1])
        return core + ys[0] * below + ys[-1] * above


def _affine_xi(length, s0, s1, beta):
    """xi across segments of length L where f has slope beta: the integral
    over [0, L] of Q^(-1/2), Q = 2 (F(z) - F) the quadratic with Q'' = -2 beta,
    s0^2 and s1^2 at the ends. It is 2 L/(s0 + s1) g(-beta L^2/(s0 + s1)^2),
    g(y) = artanh(sqrt y)/sqrt y, arctan(sqrt -y)/sqrt -y or 1 (y > 0, < 0, 0),
    with no difference of close numbers."""
    q = length / (s0 + s1)
    r = np.sqrt(np.abs(beta)) * q
    g = np.ones_like(r)
    np.arctanh(r, out=g, where=beta < 0.0)
    np.arctan(r, out=g, where=beta > 0.0)
    np.divide(g, r, out=g, where=beta != 0.0)
    return 2.0 * q * g


def _cellwise_xi(slope) -> Callable:
    """xi for an f affine between its kinks, with one-sided slopes `slope`:
    no mesh cell crosses a kink, so xi sums `_affine_xi` over the cells."""
    def xi(v, w, z):
        a, b = v[:-1], v[1:]
        dxi = _affine_xi(b - a, w[:-1], w[1:], slope(0.5 * (a + b), 1))
        return np.concatenate(([0.0], np.cumsum(dxi)))
    return xi


def _ellipf(phi, m):
    """Legendre's F(phi|m), 0 <= phi <= pi/2 and 0 <= m < 1, on arrays, as
    sin phi R_F(cos^2 phi, 1 - m sin^2 phi, 1) (F(pi/2|m) is K(m)): Carlson's
    R_F by duplication to a relative error below 1e-16, then his fifth-order
    series (B. C. Carlson, Numer. Algorithms 10, 1995)."""
    s = np.sin(phi)
    x, y, z = np.broadcast_arrays(np.cos(phi) ** 2, 1.0 - m * s * s, 1.0)
    a0 = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = 430.0 * np.maximum(np.maximum(np.abs(dx), np.abs(dy)), np.abs(a0 - z))
    a, scale = a0, 1.0
    while np.any(q * scale >= np.abs(a)):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return s * (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)


def _cantor_intervals(level: int):
    iv = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        nxt = []
        for a, b in iv:
            t = (b - a) / 3
            nxt.append((a, a + t))
            nxt.append((b - t, b))
        iv = nxt
    return iv


# ---------------------------------------------------------------------------
# catalog constructors

def logistic(s_max: float = 2.0) -> Nonlinearity:
    s_max = _window(s_max)
    fn = lambda s: s * (1.0 - s)
    slope = lambda s, side: 1.0 - 2.0 * s

    def gap(lo, hi):
        # factored so the (hi - lo) factor carries the smallness
        return (hi - lo) * (0.5 * (hi + lo) - (hi * hi + hi * lo + lo * lo) / 3.0)

    def xi(v, w, z):
        # to its one positive zero, 1, xi = 2 (artanh(s / sqrt 3) - artanh(1 / sqrt 3))
        # with s = sqrt(1 + 2 V): one artanh by the subtraction rule, its 1 - x
        # written through sqrt 3 - s = 2 (1 - V) / (sqrt 3 + s), so nothing cancels
        r3, s = math.sqrt(3.0), np.sqrt(1.0 + 2.0 * v)
        return np.log1p(2.0 * r3 * v * (r3 + s) / ((1.0 + r3) * (1.0 + s) * (1.0 - v)))

    # |f'| = |1 - 2 s| peaks at an end of the window
    return Nonlinearity("logistic", s_max, max(1.0, 2.0 * s_max - 1.0), fn, slope, gap, (),
                        xi, _zeros_in((0.0, 1.0), (), s_max))


def abs_sin(s_max: float = 10.0) -> Nonlinearity:
    s_max = _window(s_max)

    def fn(s):
        # one Python float (a launch's rhs) skips the numpy scalar ufuncs;
        # an array takes abs in place on its own fresh sin
        if type(s) is float:
            return abs(math.sin(s))
        r = np.sin(s)
        return np.abs(r, out=r) if type(r) is np.ndarray else np.abs(r)

    def slope(s, side):
        # sign(sin s) cos s, except on the floats k pi, which sin does not
        # map to 0 (sin(2 math.pi) is -2.4e-16): there f'(s+-) is +-1
        on_zero = np.round(s / math.pi) * math.pi == s
        return np.where(on_zero, 1.0 if side > 0 else -1.0, np.sign(np.sin(s)) * np.cos(s))

    def _arch(a, b, k):
        # integral of |sin| over [a, b] within arch k: product form, no cancellation
        return 2.0 * np.sin(0.5 * (b - a)) * np.abs(np.sin(0.5 * (a + b) - k * math.pi))

    def gap(lo, hi):
        klo = np.floor(lo / math.pi)
        khi = np.floor(hi / math.pi)
        # right endpoint on an arch boundary belongs to the arch below it
        khi = np.where((khi * math.pi == hi) & (khi > 0), khi - 1.0, khi)
        split = (_arch(lo, (klo + 1.0) * math.pi, klo) + _arch(khi * math.pi, hi, khi)
                 + 2.0 * (khi - klo - 1.0))
        return np.where(klo == khi, _arch(lo, hi, klo), split)

    def xi(v, w, z):
        # to z = n pi, on hump m (V = m pi + 2 phi) W = 2 sqrt(j - sin^2 phi),
        # j = n - m, so xi gains F(phi|1/j) / sqrt j there and K(1/j) / sqrt j
        # over the whole hump. On the last one, j = 1, it gains ln cot(delta / 4),
        # delta = n pi - V, as 1/2 log1p(sin phi / sin^2(delta / 4)), exact at
        # both ends of the hump; delta adds n pi - z, since z = fl(n pi) is
        # not the zero of |sin|: n (pi - fl(pi)) and the rounding of n fl(pi)
        n = round(z / math.pi)
        starts = np.arange(n) * math.pi
        j = np.arange(n, 1, -1.0)
        whole = np.cumsum(np.append(0.0, _ellipf(0.5 * math.pi, 1.0 / j) / np.sqrt(j)))
        m = np.searchsorted(starts, v, "right") - 1
        phi = 0.5 * (v - starts[m])
        out, last = whole[m], m == n - 1
        j = n - m[~last]
        out[~last] += _ellipf(phi[~last], 1.0 / j) / np.sqrt(j)
        delta = (z - v[last]) + (float(n * Fraction(math.pi) - Fraction(z))
                                 + n * 1.2246467991473532e-16)
        out[last] += 0.5 * np.log1p(np.sin(phi[last]) / np.sin(0.25 * delta) ** 2)
        return out

    # f vanishes at every k pi, and every one inside the window is a kink
    multiples = [k * math.pi for k in range(int(s_max / math.pi) + 1)]
    return Nonlinearity("abs-sin", s_max, 1.0, fn, slope, gap, _kinks_in(multiples, s_max),
                        xi, _zeros_in(multiples, (), s_max))


def linear_decay(s_max: float = 10.0) -> Nonlinearity:
    s_max = _window(s_max)
    fn = lambda s: 1.0 - s
    slope = lambda s, side: np.full(np.shape(s), -1.0)
    gap = lambda lo, hi: (hi - lo) * (1.0 - 0.5 * (hi + lo))
    return Nonlinearity("linear-decay", s_max, 1.0, fn, slope, gap, (),
                        _cellwise_xi(slope), _zeros_in((1.0,), (), s_max))


def cantor(level: int = 6, s_max: float = 1.0) -> Nonlinearity:
    """Distance to the level-`level` middle-thirds pre-fractal on [0, 1].

    Zero exactly on the 2^level closed intervals; tent-shaped on the removed
    gaps (so the largest value on [0,1] is 1/6, attained midway across the
    first removed third regardless of level).
    """
    if not (isinstance(level, int) and 1 <= level <= _CANTOR_MAX_LEVEL):
        raise InputError(f"cantor level must be an integer in [1, {_CANTOR_MAX_LEVEL}], "
                         f"got {level!r}")
    s_max = _window(s_max)
    iv = _cantor_intervals(level)
    knots = [iv[0][0]]
    vals = [Fraction(0)]
    for k, (a, b) in enumerate(iv):
        if k > 0:
            prev_b = iv[k - 1][1]
            knots.append((prev_b + a) / 2)
            vals.append((a - prev_b) / 2)
        if a != knots[-1]:
            knots.append(a)
            vals.append(Fraction(0))
        knots.append(b)
        vals.append(Fraction(0))
    pl = _PiecewiseLinear([float(x) for x in knots], [float(v) for v in vals])
    return pl.term(f"cantor:{level}", s_max)


def from_table(s_knots, f_knots, kind: str = "table", s_max: float | None = None) -> Nonlinearity:
    """Linear interpolation of (s, f) knots; the window runs to the last
    knot unless `s_max` says otherwise (f is constant beyond it)."""
    xs = np.asarray(s_knots, dtype=float)
    ys = np.asarray(f_knots, dtype=float)
    if xs.size != ys.size:
        raise InputError("table: s and f columns have different lengths")
    if xs.size < 2:
        raise InputError("table: need at least two rows")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InputError("table: s and f columns must be finite")
    if abs(xs[0]) > 1e-12:
        raise InputError(f"table: first sample must sit at s=0, got {xs[0]:g}")
    s_max = _window(xs[-1] if s_max is None else s_max)
    return _PiecewiseLinear(xs, ys).term(kind, s_max)


def table_from_csv(path: str, s_max: float | None = None) -> Nonlinearity:
    xs, ys = [], []
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#"):
                    continue
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                except (ValueError, IndexError):
                    if not xs:   # tolerate a single header line
                        continue
                    raise InputError(f"table {path}: bad row {row!r}") from None
    except OSError as exc:
        raise InputError(f"table {path}: {exc}") from exc
    return from_table(xs, ys, kind=f"table:{path}", s_max=s_max)


def make(spec: str, s_max: float | None = None) -> Nonlinearity:
    """Build a catalog nonlinearity from its config-file name.

    A non-None `s_max` narrows or widens the analysis window; the
    constructor derives the Lipschitz constant, the kinks and the zeros on
    the window it is given.
    """
    if not isinstance(spec, str):
        raise InputError(f"nonlinearity spec must be a string, got {type(spec).__name__}")
    name, _, arg = spec.partition(":")
    name = name.strip()
    window = {} if s_max is None else {"s_max": s_max}
    if name == "logistic":
        return logistic(**window)
    if name == "abs-sin":
        return abs_sin(**window)
    if name == "linear-decay":
        return linear_decay(**window)
    if name == "cantor":
        if arg.strip():
            try:
                level = int(arg)
            except ValueError:
                raise InputError(f"cantor level must be an integer, got {arg!r}") from None
        else:
            level = 6
        return cantor(level, **window)
    if name == "table":
        if not arg:
            raise InputError("table nonlinearity needs a path: table:<path>")
        return table_from_csv(arg, **window)
    raise InputError(
        f"unknown nonlinearity {spec!r}; catalog: logistic, abs-sin, "
        f"linear-decay, cantor:<level>, table:<path>")


# ---------------------------------------------------------------------------
# zero set

@dataclass(frozen=True)
class ZeroSet:
    """Zeros of f on [0, s_max]: isolated points plus flat closed intervals.

    Also used for the profile-reachable subset, which is always a pure point
    set (flat stretches only ever contribute their left endpoints there).
    """
    points: tuple
    intervals: tuple
    s_max: float
    borderline: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intervals", ivs)
        if any(p < -1e-12 or p > self.s_max + 1e-9 for p in pts):
            raise InputError("zero set: point outside [0, s_max]")
        if list(pts) != sorted(pts):
            raise InputError("zero set: points not sorted")
        for a, b in ivs:
            if not (0.0 - 1e-12 <= a < b <= self.s_max + 1e-9):
                raise InputError("zero set: bad interval")
        for p in pts:
            if any(a - 1e-12 <= p <= b + 1e-12 for a, b in ivs):
                raise InputError("zero set: point inside an interval")

    def __contains__(self, s) -> bool:
        """s is one of the points, or lies in one of the closed intervals."""
        return s in self.points or any(a <= s <= b for a, b in self.intervals)


def zero_set(nl: Nonlinearity) -> ZeroSet:
    """The zeros of f on [0, s_max]: the exact set `nl.zeros` that every
    constructor builds in closed form, as it builds `nl.kinks`."""
    return ZeroSet(*nl.zeros, float(nl.s_max))


def compute_Zf(nl: Nonlinearity) -> ZeroSet:
    """Zeros z0 where F, the integral of f from 0, strictly dominates
    everything below.

    F's maximum over [0, z0) lies at 0 or at a zero of f, so the candidates
    are the isolated zeros and the interval ends, and a candidate's margin
    is F(z0) less the running maximum of F over 0 and the candidates below
    it. A margin above TOL_F_STRICT makes a member; one inside
    +-TOL_F_STRICT is reported separately as borderline rather than guessed
    either way. The origin joins whenever it is a zero (its condition is
    vacuous); that convention is recorded in the notes.
    """
    E = zero_set(nl)
    zs = np.unique(np.concatenate((E.points, np.ravel(E.intervals))))
    F = np.concatenate(([0.0], integral_between(nl, 0.0, zs)))
    margin = F[1:] - np.maximum.accumulate(F[:-1])
    origin = zs == 0.0
    members = zs[(margin > TOL_F_STRICT) | origin]
    borderline = zs[(np.abs(margin) <= TOL_F_STRICT) & ~origin]
    notes = (("origin included by convention: f(0)=0 and the strict-increase "
              "condition below 0 is vacuous",) if origin.any() else ())
    return ZeroSet(tuple(members.tolist()), (), float(nl.s_max),
                   borderline=tuple(borderline.tolist()), notes=notes)


# ---------------------------------------------------------------------------
# hypothesis checkers

@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts for the three structural conditions.

    h1 and h2 are bools; h3 is None only when it is not evaluated (h1
    fails).
    """
    h1: bool
    mu: float | None
    mu_prime: float | None
    h2: bool
    h3: bool | None
    notes: tuple = ()


def _turning_point(nl: Nonlinearity, mu: float) -> float:
    """mu', the least point with f' <= 0 on [mu', mu]: a walk down from mu
    over the kink-free cells between 0, the kinks below mu and mu. It relies
    on f' being monotone on each such cell, as it is for every constructor
    (the logistic's f' is linear, abs-sin's is +-cos on one arch, a table's
    constant), so f' <= 0 at both ends of a cell holds throughout it, and in
    the first cell where it does not, mu' is the right end or the one sign
    change of f' inside, found by bisection."""
    ends = [0.0, *(k for k in nl.kinks if k < mu), mu]
    for a, b in zip(ends[-2::-1], ends[:0:-1]):
        if fprime(nl, b, -1) > 0.0:
            return b
        if fprime(nl, a) > 0.0:
            lo, hi = a, b           # f' > 0 at lo, f' <= 0 at hi
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if fprime(nl, mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return hi
    return 0.0


def check_hypotheses(nl: Nonlinearity) -> HypothesisReport:
    """Test the three structural conditions on [0, s_max].

    f's sign structure is exact: no zero of f lies inside a gap between
    consecutive points of its zero set and the window's ends, so f's value
    at a gap's midpoint gives its sign on the whole gap. mu, the end of the
    positive hump, is the upper end of the last positive gap. The slope
    conditions read `fprime` at the zeros, so a verdict is the sign of an
    exact number, and an exact 0 fails its strict inequality:

      h1: f > 0 on (0, mu), f <= 0 beyond, f'(0+) > 0 if f(0) = 0, and
          f' <= 0 on [mu', mu] (`_turning_point`);
      h2: f >= 0, and f'(z+) > 0 at every zero z < s_max (none on a flat
          stretch; a zero at s_max is noted and skipped);
      h3 (only when h1 holds): f'(z-) > 0 at every zero z > mu.
    """
    s_max = nl.s_max
    notes = []
    E = zero_set(nl)
    zs = np.unique(np.concatenate((E.points, np.ravel(E.intervals))))
    ends = np.unique(np.concatenate(([0.0], zs, [s_max])))
    sign = np.sign(nl.fn(0.5 * (ends[:-1] + ends[1:])))     # 0 on a flat interval

    # --- first condition: positive hump then nonpositive tail
    h1 = True
    mu = mu_prime = None
    pos = np.flatnonzero(sign > 0)
    if not pos.size:
        h1 = False
        notes.append("no positive hump: f <= 0 on the window")
    elif ends[pos[-1] + 1] not in zs:
        h1 = False
        notes.append("no nonpositive tail inside the window: f > 0 up to s_max")
    else:
        mu = float(ends[pos[-1] + 1])
        if np.any((zs > 0.0) & (zs < mu)):
            h1 = False
            notes.append("f touches zero strictly between 0 and mu")
    if h1:
        mu_prime = _turning_point(nl, mu)

    # f(0) > 0 unless 0 is a zero: f < 0 below the hump would put a zero in (0, mu)
    if h1:
        origin_slope = float(fprime(nl, 0.0)) if zs[0] == 0.0 else math.inf
        if not origin_slope > 0.0:
            h1 = False
            notes.append("right slope at the origin is not positive")

    # --- second condition: f >= 0 and positive right slope at every zero
    h2 = True
    neg = np.flatnonzero(sign < 0)
    if neg.size:
        h2 = False
        notes.append(f"f < 0 on the gap ({ends[neg[0]]:.6g}, {ends[neg[0] + 1]:.6g})")
    for z in E.points:
        if z == s_max:
            notes.append(f"zero at the window edge s={z:.6g}: right slope not evaluated")
            continue
        h2 = h2 and float(fprime(nl, z)) > 0.0
    for a, b in E.intervals:
        if h2:
            h2 = False
            notes.append(f"flat zero stretch [{a:.6g}, {b:.6g}] kills the right-slope condition")

    # --- third condition: positive left slope at zeros beyond mu
    h3 = None
    if not h1:
        notes.append("left-slope condition not evaluated: no positive hump structure")
    else:
        h3 = True
        for z in (z for z in E.points if z > mu):
            h3 = h3 and float(fprime(nl, z, -1)) > 0.0
        for a, b in E.intervals:
            if a > mu and h3:
                h3 = False
                notes.append(f"flat zero stretch beyond mu at [{a:.6g}, {b:.6g}]")

    return HypothesisReport(h1, mu, mu_prime, h2, h3, notes=tuple(notes))
