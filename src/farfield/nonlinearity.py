"""Reaction-term catalog and structure analysis.

A Nonlinearity bundles a vectorized source term f on the analysis window
[0, s_max] with its exact slab integral, the one integral of f: F(z) is the
slab from 0 to z, and there is no quadrature fallback. Each constructor
takes its window and builds on it, in closed form, the term's exact
Lipschitz constant, its kinks and its zero set E (isolated points and flat
intervals), so nothing samples f to find them. On top of that sit the
structural operations the rest of the package consumes: the subset of zeros
reachable by monotone 1-D profiles (F strictly below its value at the zero
all the way up), hypothesis checkers for the three structural conditions
the far-field statements assume, which read f's sign between consecutive
points of E.

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
_RATIO_BAND = 1e-6       # one-sided ratio estimates inside this band are inconclusive
_DELTAS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
_CANTOR_MAX_LEVEL = 6    # finest level whose every reachable profile the tests build


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    kind: str
    s_max: float
    lipschitz: float        # of f on [0, s_max], exact
    fn: Callable = field(repr=False)                      # vectorized, unchecked
    # exact integral of f over [lo, hi] for float arrays lo < hi (elementwise);
    # must stay accurate in RELATIVE terms when the integral is tiny (profiles
    # divide by it arbitrarily close to a zero, where a difference of two
    # integrals from 0 would cancel catastrophically)
    gap_fn: Callable = field(repr=False)
    # the sorted points in (0, s_max) where f is not differentiable; the RK4
    # launches on f land their steps on them
    kinks: tuple = field(repr=False)
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


def eval_capped_float(nl: Nonlinearity, v: float) -> float:
    """eval_capped on one Python float, as a float: the RK4 launches call it
    at every stage, where np.clip on a scalar costs more than the step. The
    comparisons let NaN and -0.0 through as np.clip does."""
    v = 0.0 if v < 0.0 else v
    s_max = nl.s_max
    return float(nl.fn(s_max if v > s_max else v))


def integral_between(nl: Nonlinearity, lo, hi):
    """Integral of f over [lo, hi] with relative accuracy even when tiny.

    `lo` and `hi` are scalars or arrays, broadcast together; scalar inputs
    give a float, array inputs an array. Every term carries its slab
    integral in closed or piecewise-exact form (`gap_fn`); there is no
    quadrature fallback. F(z) is integral_between(nl, 0.0, z).
    """
    lo_a, hi_a = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
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

class _PiecewiseLinear:
    """f linear between knots; its slab integral is exact (trapezoids)."""

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.size < 2 or np.any(np.diff(self.xs) <= 0):
            raise InputError("piecewise-linear table needs at least two strictly increasing knots")
        seg = 0.5 * (self.ys[1:] + self.ys[:-1]) * np.diff(self.xs)
        self.seg_padded = np.append(seg, 0.0)
        self._xl, self._yl = self.xs.tolist(), self.ys.tolist()
        # knots where the slope changes, with slope 0 beyond the outer knots;
        # a change at rounding level is a straight line through a knot
        slopes = np.concatenate(([0.0], np.diff(self.ys) / np.diff(self.xs), [0.0]))
        jump = np.abs(np.diff(slopes))
        self.kinks = self.xs[jump > 1e-12 * (np.abs(slopes[1:]) + np.abs(slopes[:-1]))].tolist()
        self._slopes = np.abs(slopes[1:-1])

    def term(self, kind: str, s_max: float) -> Nonlinearity:
        """This f as the term `kind` on the window [0, s_max]. Its Lipschitz
        constant is the largest |slope| of the cells that start below s_max
        (f is constant beyond the outer knots). Its zeros are read off the
        knots: a cell with both knot values 0 is an interval, a knot with
        value 0 a point, a sign change across a cell its secant point; the
        last value holds to s_max."""
        xs, ys = self.xs, self.ys
        lipschitz = float(self._slopes[xs[:-1] < s_max].max(initial=0.0))
        zero = ys == 0.0
        flat = zero[:-1] & zero[1:]
        ivs = list(zip(xs[:-1][flat].tolist(), xs[1:][flat].tolist()))
        if zero[-1] and s_max > xs[-1]:
            ivs.append((float(xs[-1]), s_max))
        cross = ys[:-1] * ys[1:] < 0.0
        x0, x1, y0, y1 = xs[:-1][cross], xs[1:][cross], ys[:-1][cross], ys[1:][cross]
        secant = x0 - y0 * (x1 - x0) / (y1 - y0)
        zeros = _zeros_in(xs[zero].tolist() + secant.tolist(), ivs, s_max)
        return Nonlinearity(kind, s_max, lipschitz, self, self.gap,
                            _kinks_in(self.kinks, s_max), zeros)

    def __call__(self, s):
        if type(s) is not float:
            return np.interp(s, self.xs, self.ys)
        # one Python float: numpy's interp formula on knot lists, without the
        # wrapper overhead that is most of np.interp's cost on a scalar
        if s != s:
            return s
        xs, ys = self._xl, self._yl
        j = bisect_right(xs, s) - 1
        if j < 0:
            return ys[0]
        if j == len(xs) - 1 or xs[j] == s:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        v = slope * (s - xs[j]) + ys[j]
        if v != v:      # an infinite slope: try from the other end
            v = slope * (s - xs[j + 1]) + ys[j + 1]
            if v != v and ys[j] == ys[j + 1]:
                v = ys[j]
        return v

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
        # index in range
        start, stop = i + 1, np.maximum(j, i + 1)
        bounds = np.stack([start, stop], axis=-1).ravel()
        whole = np.add.reduceat(self.seg_padded, bounds)[0::2].reshape(start.shape)
        whole = np.where(stop > start, whole, 0.0)
        core = np.where(i == j, 0.5 * (fb + fa) * (b - a), head + (whole + tail))
        below = np.minimum(hi, xs[0]) - np.minimum(lo, xs[0])
        above = np.maximum(hi, xs[-1]) - np.maximum(lo, xs[-1])
        return core + ys[0] * below + ys[-1] * above


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


def cantor_prefractal(level: int):
    """The 2^level closed intervals of the level-`level` middle-thirds set, as floats."""
    if not (isinstance(level, int) and 1 <= level <= 16):
        raise InputError(f"cantor level must be an integer in [1, 16], got {level!r}")
    return [(float(a), float(b)) for a, b in _cantor_intervals(level)]


# ---------------------------------------------------------------------------
# catalog constructors

def logistic(s_max: float = 2.0) -> Nonlinearity:
    s_max = _window(s_max)
    fn = lambda s: s * (1.0 - s)

    def gap(lo, hi):
        # factored so the (hi - lo) factor carries the smallness
        return (hi - lo) * (0.5 * (hi + lo) - (hi * hi + hi * lo + lo * lo) / 3.0)

    # |f'| = |1 - 2 s| peaks at an end of the window
    return Nonlinearity("logistic", s_max, max(1.0, 2.0 * s_max - 1.0), fn, gap, (),
                        _zeros_in((0.0, 1.0), (), s_max))


def abs_sin(s_max: float = 10.0) -> Nonlinearity:
    s_max = _window(s_max)

    def fn(s):
        # one Python float (a launch's rhs) skips the numpy scalar ufuncs;
        # an array takes abs in place on its own fresh sin
        if type(s) is float:
            return abs(math.sin(s))
        r = np.sin(s)
        return np.abs(r, out=r) if type(r) is np.ndarray else np.abs(r)

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

    # f vanishes at every k pi, and every one inside the window is a kink
    multiples = [k * math.pi for k in range(int(s_max / math.pi) + 1)]
    return Nonlinearity("abs-sin", s_max, 1.0, fn, gap, _kinks_in(multiples, s_max),
                        _zeros_in(multiples, (), s_max))


def linear_decay(s_max: float = 10.0) -> Nonlinearity:
    s_max = _window(s_max)
    fn = lambda s: 1.0 - s
    gap = lambda lo, hi: (hi - lo) * (1.0 - 0.5 * (hi + lo))
    return Nonlinearity("linear-decay", s_max, 1.0, fn, gap, (), _zeros_in((1.0,), (), s_max))


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

    Each verdict is True / False / None, with None meaning a one-sided ratio
    estimate landed inside the inconclusive band and we refuse to guess.
    Ratio lists hold (zero, estimated liminf ratio) pairs.
    """
    h1: bool | None
    mu: float | None
    mu_prime: float | None
    origin_ratio: float | None
    h2: bool | None
    h2_ratios: tuple
    h3: bool | None
    h3_ratios: tuple
    notes: tuple = ()


def _verdict_from_ratio(r: float):
    if r > _RATIO_BAND:
        return True
    if r < -_RATIO_BAND:
        return False
    return None


def _ratio(nl: Nonlinearity, z: float, side: int) -> float | None:
    """One-sided liminf estimate at z: the minimum of f(z + side d) / (side d)
    over the steps d of _DELTAS that stay in the window; None if none does."""
    d = side * np.array([d for d in _DELTAS if 0.0 <= z + side * d <= nl.s_max])
    return float(np.min(nl.fn(z + d) / d)) if d.size else None


def check_hypotheses(nl: Nonlinearity) -> HypothesisReport:
    """Probe the three structural conditions on [0, s_max].

    f's sign structure is exact: no zero of f lies inside a gap between
    consecutive points of its zero set and the window's ends, so f's value
    at a gap's midpoint gives its sign on the whole gap. mu, the end of the
    positive hump, is the upper end of the last positive gap. One-sided
    liminf ratios at the zeros are estimated as the minimum of f(z +- d)/(+-d)
    over d in {1e-3 ... 1e-7}; estimates inside the +-1e-6 band come back as
    inconclusive (None), never as a silent pass.
    """
    s_max = nl.s_max
    notes = []
    E = zero_set(nl)
    zs = np.unique(np.concatenate((E.points, np.ravel(E.intervals))))
    ends = np.unique(np.concatenate(([0.0], zs, [s_max])))
    sign = np.sign(nl.fn(0.5 * (ends[:-1] + ends[1:])))     # 0 on a flat interval

    # --- first condition: positive hump then nonpositive tail
    h1: bool | None = True
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
        xs = np.linspace(0.0, s_max, 8001)
        h = xs[1] - xs[0]
        fs = nl.fn(xs)
        j = max(int(np.searchsorted(xs, mu)) - 1, 1)
        while j - 1 >= 0 and fs[j - 1] >= fs[j] - 1e-12:
            j -= 1
        if xs[j] < mu - h:
            mu_prime = float(xs[j])
        else:
            h1 = False
            notes.append("no nonincreasing window immediately left of mu")

    # f(0) > 0 unless 0 is a zero: f < 0 below the hump would put a zero in (0, mu)
    origin_ratio = None
    if h1:
        origin_ratio = _ratio(nl, 0.0, 1) if zs[0] == 0.0 else math.inf
        v = _verdict_from_ratio(origin_ratio)
        if v is False:
            h1 = False
            notes.append("slope ratio at the origin is negative")
        elif v is None:
            h1 = None
            notes.append("slope ratio at the origin is inconclusive")

    # --- second condition: f >= 0 and definite right-slope at every zero
    h2: bool | None = True
    h2_ratios = []
    neg = np.flatnonzero(sign < 0)
    if neg.size:
        h2 = False
        notes.append(f"f < 0 on the gap ({ends[neg[0]]:.6g}, {ends[neg[0] + 1]:.6g})")
    for z in E.points:
        r = _ratio(nl, z, 1)
        if r is None:
            notes.append(f"zero at the window edge s={z:.6g}: right ratio not estimable")
            continue
        h2_ratios.append((z, r))
        v = _verdict_from_ratio(r)
        if v is False and h2 is not False:
            h2 = False
        elif v is None and h2 is True:
            h2 = None
            notes.append(f"right ratio at zero s={z:.6g} is inconclusive")
    for a, b in E.intervals:
        h2_ratios.append((a, 0.0))
        if h2 is not False:
            h2 = False
            notes.append(f"flat zero stretch [{a:.6g}, {b:.6g}] kills the right-slope condition")

    # --- third condition: definite left-slope at zeros beyond mu
    h3: bool | None
    h3_ratios = []
    if h1 is not True:
        h3 = None
        notes.append("left-slope condition not evaluated: no positive hump structure")
    else:
        h3 = True
        for z in (z for z in E.points if z > mu):
            r = _ratio(nl, z, -1)
            h3_ratios.append((z, r))
            v = _verdict_from_ratio(r)
            if v is False and h3 is not False:
                h3 = False
            elif v is None and h3 is True:
                h3 = None
                notes.append(f"left ratio at zero s={z:.6g} is inconclusive")
        for a, b in E.intervals:
            if a > mu:
                h3_ratios.append((a, 0.0))
                if h3 is not False:
                    h3 = False
                    notes.append(f"flat zero stretch beyond mu at [{a:.6g}, {b:.6g}]")

    return HypothesisReport(h1, mu, mu_prime, origin_ratio,
                            h2, tuple(h2_ratios), h3, tuple(h3_ratios),
                            notes=tuple(notes))
