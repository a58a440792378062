"""Reaction-term catalog and structure analysis.

A Nonlinearity bundles a vectorized source term f on the analysis window
[0, s_max] with its exact (or piecewise-exact) antiderivative F and slab
integral; every integral of f comes from these, with no quadrature fallback.
On top of that sit the structural operations the rest of the package
consumes: the zero set E of f, the subset of zeros reachable by
monotone 1-D profiles (F strictly below its value at the zero all the way
up), hypothesis checkers for the three structural conditions the far-field
statements assume, and the reflection that turns a decay problem into a
growth problem.

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import optimize

from .errors import InputError

TOL_F_DEFAULT = 1e-10    # |f| at or below this counts as zero
TOL_F_STRICT = 1e-12     # strictness margin for the F-increase test
_RATIO_BAND = 1e-6       # one-sided ratio estimates inside this band are inconclusive
_DELTAS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
_WINDOW_SLACK = 1e-12
_ZF_GRID_N = 100_000     # F samples behind the reachability test
_ZF_SCAN_N = 65_536      # zero-set scan samples behind the reachable levels
_CANTOR_MAX_LEVEL = 6    # finest level whose 2^level intervals the zero-set scan resolves


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    kind: str
    s_max: float
    lipschitz: float        # of f on [0, s_max]: exact, a bound for reflect
    fn: Callable = field(repr=False)                      # vectorized, unchecked
    antiderivative_fn: Callable = field(repr=False)       # F(z), vectorized
    # exact integral of f over [lo, hi] for float arrays lo < hi (elementwise);
    # must stay accurate in RELATIVE terms when the integral is tiny (profiles
    # divide by it arbitrarily close to a zero, where F(hi)-F(lo) would cancel
    # catastrophically)
    gap_fn: Callable = field(repr=False)
    # the sorted points in (0, s_max) where f is not differentiable; the RK4
    # launches on f land their steps on them
    kinks: tuple = field(repr=False)

    def __post_init__(self):
        if not (self.s_max > 0 and math.isfinite(self.s_max)):
            raise InputError(f"analysis window must be positive, got s_max={self.s_max}")


def _f1(nl: Nonlinearity, x: float) -> float:
    return float(nl.fn(np.asarray(x, dtype=float)))


def eval_f(nl: Nonlinearity, s):
    """f(s) for scalar or array s; rejects arguments outside [0, s_max]."""
    arr = np.asarray(s, dtype=float)
    if arr.size and (arr.min() < -_WINDOW_SLACK or arr.max() > nl.s_max + _WINDOW_SLACK):
        raise InputError(
            f"{nl.kind}: argument outside analysis window [0, {nl.s_max:g}] "
            f"(got range [{arr.min():g}, {arr.max():g}])")
    out = nl.fn(np.clip(arr, 0.0, nl.s_max))
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def eval_capped(nl: Nonlinearity, s):
    """f evaluated with the argument clipped to the analysis window.

    Iterative solvers may step outside [0, s_max] transiently; they use this
    entry point and validate their final answer instead.
    """
    return nl.fn(np.clip(np.asarray(s, dtype=float), 0.0, nl.s_max))


def eval_capped_float(nl: Nonlinearity, v: float) -> float:
    """eval_capped on one Python float, as a float: the RK4 launches call it
    at every stage, where np.clip on a scalar costs more than the step. The
    comparisons let NaN and -0.0 through as np.clip does."""
    v = 0.0 if v < 0.0 else v
    s_max = nl.s_max
    return float(nl.fn(s_max if v > s_max else v))


def antiderivative_F(nl: Nonlinearity, z):
    """F(z) = integral of f from 0 to z, from the term's closed or
    piecewise-exact form; every term carries one, so there is no quadrature."""
    arr = np.asarray(z, dtype=float)
    if arr.size and (arr.min() < -_WINDOW_SLACK or arr.max() > nl.s_max + _WINDOW_SLACK):
        raise InputError(
            f"{nl.kind}: antiderivative argument outside [0, {nl.s_max:g}]")
    out = nl.antiderivative_fn(np.clip(arr, 0.0, nl.s_max))
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def integral_between(nl: Nonlinearity, lo, hi):
    """Integral of f over [lo, hi] with relative accuracy even when tiny.

    `lo` and `hi` are scalars or arrays, broadcast together; scalar inputs
    give a float, array inputs an array. Every term carries its slab
    integral in closed or piecewise-exact form (`gap_fn`); there is no
    quadrature fallback.
    """
    lo_a, hi_a = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    a = np.minimum(lo_a, hi_a).ravel()
    b = np.maximum(lo_a, hi_a).ravel()
    live = np.flatnonzero(a != b)           # lo == hi stays an exact 0
    val = np.zeros(a.size)
    val[live] = nl.gap_fn(a[live], b[live])
    val = np.where(hi_a.ravel() < lo_a.ravel(), -val, val).reshape(lo_a.shape)
    return float(val) if val.ndim == 0 else val


def _kinks_in(points, s_max: float) -> tuple:
    """The distinct points strictly inside (0, s_max), sorted, as floats."""
    return tuple(sorted({float(p) for p in points if 0.0 < p < s_max}))


def _window_kinks(kind: str, fn, s_max: float) -> tuple:
    """A catalog term's kinks in the window (0, s_max): every k pi for
    |sin|, every slope change of a piecewise-linear term (f is constant
    beyond its outer knots), none for the smooth terms."""
    if kind == "abs-sin":
        return _kinks_in((k * math.pi for k in range(1, int(s_max / math.pi) + 1)), s_max)
    if isinstance(fn, _PiecewiseLinear):
        return _kinks_in(fn.kinks, s_max)
    return ()


def _window_lipschitz(kind: str, fn, s_max: float) -> float:
    """A catalog term's exact Lipschitz constant on [0, s_max], in closed
    form: max |1 - 2 s| for the logistic, 1 for |sin| and 1 - s, the
    steepest cell that starts inside the window for a piecewise-linear term."""
    if kind == "logistic":
        return max(1.0, 2.0 * s_max - 1.0)
    if isinstance(fn, _PiecewiseLinear):
        return fn.lipschitz(s_max)
    return 1.0


# ---------------------------------------------------------------------------
# piecewise-linear backbone (cantor + table share it)

class _PiecewiseLinear:
    """f linear between knots; antiderivative exact (piecewise quadratic)."""

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.size < 2 or np.any(np.diff(self.xs) <= 0):
            raise InputError("piecewise-linear table needs at least two strictly increasing knots")
        seg = 0.5 * (self.ys[1:] + self.ys[:-1]) * np.diff(self.xs)
        self.cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.seg_padded = np.append(seg, 0.0)
        self._xl, self._yl = self.xs.tolist(), self.ys.tolist()
        # knots where the slope changes, with slope 0 beyond the outer knots;
        # a change at rounding level is a straight line through a knot
        slopes = np.concatenate(([0.0], np.diff(self.ys) / np.diff(self.xs), [0.0]))
        jump = np.abs(np.diff(slopes))
        self.kinks = self.xs[jump > 1e-12 * (np.abs(slopes[1:]) + np.abs(slopes[:-1]))].tolist()
        self._slopes = np.abs(slopes[1:-1])

    def lipschitz(self, s_max: float) -> float:
        """The largest |slope| of the cells that start below s_max; f is
        constant beyond the outer knots."""
        return float(self._slopes[self.xs[:-1] < s_max].max(initial=0.0))

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
        whole cells between them instead of differencing the antiderivative.
        f is constant beyond the outer knots."""
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

    def antiderivative(self, z):
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, self.xs[0], self.xs[-1])
        idx = np.clip(np.searchsorted(self.xs, zc, side="right") - 1, 0, self.xs.size - 2)
        x0 = self.xs[idx]
        f0 = self.ys[idx]
        fz = np.interp(zc, self.xs, self.ys)
        return self.cum[idx] + 0.5 * (zc - x0) * (f0 + fz)


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

def logistic() -> Nonlinearity:
    fn = lambda s: s * (1.0 - s)
    F = lambda z: 0.5 * z * z - z ** 3 / 3.0

    def gap(lo, hi):
        # factored so the (hi - lo) factor carries the smallness
        return (hi - lo) * (0.5 * (hi + lo) - (hi * hi + hi * lo + lo * lo) / 3.0)

    return Nonlinearity("logistic", 2.0, _window_lipschitz("logistic", fn, 2.0), fn, F, gap, ())


def abs_sin() -> Nonlinearity:
    def fn(s):
        # one Python float (a launch's rhs) skips the numpy scalar ufuncs
        return abs(math.sin(s)) if type(s) is float else np.abs(np.sin(s))

    def F(z):
        k = np.floor(z / math.pi)
        return 2.0 * k + 1.0 - np.cos(z - k * math.pi)

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

    return Nonlinearity("abs-sin", 10.0, _window_lipschitz("abs-sin", fn, 10.0), fn, F, gap,
                        _window_kinks("abs-sin", fn, 10.0))


def linear_decay() -> Nonlinearity:
    fn = lambda s: 1.0 - s
    F = lambda z: z - 0.5 * z * z
    gap = lambda lo, hi: (hi - lo) * (1.0 - 0.5 * (hi + lo))
    return Nonlinearity("linear-decay", 10.0, _window_lipschitz("linear-decay", fn, 10.0),
                        fn, F, gap, ())


def cantor(level: int = 6) -> Nonlinearity:
    """Distance to the level-`level` middle-thirds pre-fractal on [0, 1].

    Zero exactly on the 2^level closed intervals; tent-shaped on the removed
    gaps (so the largest value on [0,1] is 1/6, attained midway across the
    first removed third regardless of level).
    """
    if not (isinstance(level, int) and 1 <= level <= _CANTOR_MAX_LEVEL):
        raise InputError(f"cantor level must be an integer in [1, {_CANTOR_MAX_LEVEL}], "
                         f"got {level!r}")
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
    return Nonlinearity(f"cantor:{level}", 1.0, _window_lipschitz("cantor", pl, 1.0),
                        pl, pl.antiderivative, pl.gap, _window_kinks("cantor", pl, 1.0))


def from_table(s_knots, f_knots, kind: str = "table") -> Nonlinearity:
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
    pl = _PiecewiseLinear(xs, ys)
    s_max = float(xs[-1])
    return Nonlinearity(kind, s_max, _window_lipschitz(kind, pl, s_max),
                        pl, pl.antiderivative, pl.gap, _window_kinks(kind, pl, s_max))


def table_from_csv(path: str) -> Nonlinearity:
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
    return from_table(xs, ys, kind=f"table:{path}")


def make(spec: str, s_max: float | None = None) -> Nonlinearity:
    """Build a catalog nonlinearity from its config-file name.

    A non-None `s_max` narrows or widens the analysis window; the Lipschitz
    constant and the kinks are re-derived for the new window.
    """
    if not isinstance(spec, str):
        raise InputError(f"nonlinearity spec must be a string, got {type(spec).__name__}")
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name == "logistic":
        nl = logistic()
    elif name == "abs-sin":
        nl = abs_sin()
    elif name == "linear-decay":
        nl = linear_decay()
    elif name == "cantor":
        if arg.strip():
            try:
                level = int(arg)
            except ValueError:
                raise InputError(f"cantor level must be an integer, got {arg!r}") from None
        else:
            level = 6
        nl = cantor(level)
    elif name == "table":
        if not arg:
            raise InputError("table nonlinearity needs a path: table:<path>")
        nl = table_from_csv(arg)
    else:
        raise InputError(
            f"unknown nonlinearity {spec!r}; catalog: logistic, abs-sin, "
            f"linear-decay, cantor:<level>, table:<path>")
    if s_max is None:
        return nl
    w = float(s_max)
    if not (w > 0 and math.isfinite(w)):
        raise InputError(f"analysis window must be positive, got s_max={s_max}")
    return replace(nl, s_max=w, lipschitz=_window_lipschitz(nl.kind, nl.fn, w),
                   kinks=_window_kinks(nl.kind, nl.fn, w))


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
    tol_f: float
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


def _edge_inward(absfn, tol_f: float, outside: float, inside: float) -> float:
    """Edge of a sub-tolerance run, bisected so |f(edge)| <= tol_f holds.

    A root solve on |f| - tol_f can land a half-ulp outside the run, and the
    reported endpoint must stay usable as a profile target downstream.
    """
    for _ in range(64):
        mid = 0.5 * (outside + inside)
        if absfn(mid) <= tol_f:
            inside = mid
        else:
            outside = mid
    return float(inside)


def zero_set(nl: Nonlinearity, grid_n: int = 4096, tol_f: float = TOL_F_DEFAULT) -> ZeroSet:
    """Scan the analysis window [0, s_max] for zeros of f.

    Grid scan + three refiners: sign changes go to a bracketing root solve,
    kink/tangential minima go to golden-section, and flat sub-tolerance
    stretches become closed intervals whose edges are re-bisected against the
    tolerance so endpoint error is far below the scan spacing.
    """
    if grid_n < 16:
        raise InputError("zero_set: grid_n too small")
    xs = np.linspace(0.0, nl.s_max, grid_n)
    h = xs[1] - xs[0]
    fs = nl.fn(xs)
    absf = np.abs(fs)
    sub = absf <= tol_f

    points, intervals = [], []

    def absfn(x):
        return abs(_f1(nl, x))

    # flat runs i..j and isolated sub-tolerance samples, where the mask steps
    step = np.diff(sub.astype(np.int8), prepend=0, append=0)
    for i, j in zip(np.flatnonzero(step > 0).tolist(),
                    (np.flatnonzero(step < 0) - 1).tolist()):
        if j == i:
            points.append(float(xs[i]))
        else:
            left = xs[i]
            if i > 0:
                left = _edge_inward(absfn, tol_f, xs[i - 1], xs[i])
            right = xs[j]
            if j + 1 < grid_n:
                right = _edge_inward(absfn, tol_f, xs[j + 1], xs[j])
            intervals.append((float(left), float(right)))

    # sign changes between samples
    for i in np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]:
        if sub[i] or sub[i + 1]:
            continue
        r = optimize.brentq(lambda x: _f1(nl, x), xs[i], xs[i + 1],
                            xtol=1e-14, rtol=8.9e-16)
        points.append(float(r))

    # kink or tangential minima of |f| that the grid does not resolve to tol
    interior = np.nonzero((absf[1:-1] < absf[:-2]) & (absf[1:-1] < absf[2:])
                          & ~sub[1:-1])[0] + 1
    for i in interior:
        if absf[i] > 0.5 * h * max(1.0, nl.lipschitz):
            continue   # cannot dip to zero within one cell
        try:
            res = optimize.minimize_scalar(absfn, bracket=(xs[i - 1], xs[i], xs[i + 1]),
                                           method="golden", options={"xtol": 1e-13})
        except ValueError:
            continue
        if abs(res.fun) <= tol_f:
            points.append(float(res.x))

    # merge: drop points swallowed by intervals, dedupe, sort
    cleaned = []
    for p in sorted(points):
        if any(a - h * 0.5 <= p <= b + h * 0.5 for a, b in intervals):
            continue
        if cleaned and p - cleaned[-1] < 1e-9 * max(1.0, nl.s_max):
            continue
        cleaned.append(min(max(p, 0.0), nl.s_max))
    return ZeroSet(tuple(cleaned), tuple(sorted(intervals)), float(nl.s_max), tol_f)


def compute_Zf(nl: Nonlinearity, tol_f: float = TOL_F_DEFAULT) -> ZeroSet:
    """Zeros z0 whose antiderivative strictly dominates everything below.

    Membership test: F(z0) - F(z) > TOL_F_STRICT for every point z at or
    below z0 - h_grid of a _ZF_GRID_N-point grid. The origin joins whenever
    f(0) <= tol_f (its condition is vacuous); that convention is recorded in
    the notes. Candidates whose margin sits inside +-TOL_F_STRICT are
    reported separately as borderline rather than guessed either way.
    """
    E = zero_set(nl, grid_n=_ZF_SCAN_N, tol_f=tol_f)

    candidates = list(E.points)
    for a, b in E.intervals:
        candidates.extend((a, b))
    candidates = sorted(set(candidates))

    zs = np.linspace(0.0, nl.s_max, _ZF_GRID_N)
    h_grid = zs[1] - zs[0]
    prefix = np.maximum.accumulate(nl.antiderivative_fn(zs))

    members, borderline, notes = [], [], []
    for z0 in candidates:
        j = int(np.searchsorted(zs, z0 - h_grid, side="right")) - 1
        if j < 0:
            if abs(_f1(nl, z0)) <= tol_f:
                members.append(z0)
                if z0 <= h_grid:
                    notes.append("origin included by convention: f(0)=0 and the "
                                 "strict-increase condition below 0 is vacuous")
            continue
        margin = float(antiderivative_F(nl, z0)) - float(prefix[j])
        if margin > TOL_F_STRICT:
            members.append(z0)
        elif margin >= -TOL_F_STRICT:
            borderline.append(z0)

    return ZeroSet(tuple(members), (), float(nl.s_max), tol_f,
                   borderline=tuple(borderline), notes=tuple(notes))


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


def check_hypotheses(nl: Nonlinearity, tol_f: float = TOL_F_DEFAULT) -> HypothesisReport:
    """Numerically probe the three structural conditions on [0, s_max].

    One-sided liminf ratios are estimated as the minimum of f(z +- d)/(+-d)
    over d in {1e-3 ... 1e-7}; estimates inside the +-1e-6 band come back as
    inconclusive (None), never as a silent pass.
    """
    s_max = nl.s_max
    notes = []
    xs = np.linspace(0.0, s_max, 8001)
    h = xs[1] - xs[0]
    fs = nl.fn(xs)

    # --- first condition: positive hump then nonpositive tail
    h1: bool | None = True
    mu = mu_prime = None
    pos = fs > tol_f
    if pos[1:].any():
        i_last = int(np.nonzero(pos)[0][-1])
    else:
        i_last = 0
    if i_last >= len(xs) - 1:
        h1 = False
        notes.append("no nonpositive tail inside the window: f > 0 up to s_max")
    else:
        # refine mu where f comes down through zero
        lo, hi = xs[i_last], xs[i_last + 1]
        if _f1(nl, lo) > tol_f and _f1(nl, hi) < -tol_f:
            mu = float(optimize.brentq(lambda x: _f1(nl, x), lo, hi,
                                       xtol=1e-14, rtol=8.9e-16))
        else:
            a, b = lo, hi
            for _ in range(60):
                mid = 0.5 * (a + b)
                if _f1(nl, mid) > tol_f:
                    a = mid
                else:
                    b = mid
            mu = float(b)
        body = fs[1:i_last + 1][xs[1:i_last + 1] < mu - h]
        if body.size and body.min() <= tol_f:
            h1 = False
            notes.append("f touches zero strictly between 0 and mu")
        tail = fs[xs > mu + h]
        if tail.size and tail.max() > tol_f:
            h1 = False
            notes.append("f pops back above zero beyond mu")
    if h1 and mu is not None:
        k = int(np.searchsorted(xs, mu)) - 1
        k = max(k, 1)
        j = k
        while j - 1 >= 0 and fs[j - 1] >= fs[j] - 1e-12:
            j -= 1
        if xs[j] < mu - h:
            mu_prime = float(xs[j])
        else:
            h1 = False
            notes.append("no nonincreasing window immediately left of mu")

    origin_ratio = None
    if h1:
        f0 = float(fs[0])
        if f0 > tol_f:
            origin_ratio = math.inf
        elif f0 >= -tol_f:
            usable = [d for d in _DELTAS if d <= s_max]
            origin_ratio = min(_f1(nl, d) / d for d in usable)
            v = _verdict_from_ratio(origin_ratio)
            if v is False:
                h1 = False
                notes.append("slope ratio at the origin is negative")
            elif v is None:
                h1 = None
                notes.append("slope ratio at the origin is inconclusive")
        else:
            h1 = False
            notes.append("f(0) < 0")

    E = zero_set(nl, tol_f=tol_f)

    # --- second condition: f >= 0 and definite right-slope at every zero
    h2: bool | None = True
    h2_ratios = []
    if fs.min() < -tol_f:
        h2 = False
        notes.append(f"f dips below zero near s={xs[int(np.argmin(fs))]:.6g}")
    for z in E.points:
        usable = [d for d in _DELTAS if z + d <= s_max]
        if not usable:
            notes.append(f"zero at the window edge s={z:.6g}: right ratio not estimable")
            continue
        r = min(_f1(nl, z + d) / d for d in usable)
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
    if h1 is not True or mu is None:
        h3 = None
        notes.append("left-slope condition not evaluated: no positive hump structure")
    else:
        h3 = True
        beyond = [z for z in E.points if z > mu + 1e-9]
        for z in beyond:
            usable = [d for d in _DELTAS if z - d >= 0.0]
            r = min(-_f1(nl, z - d) / d for d in usable)
            h3_ratios.append((z, r))
            v = _verdict_from_ratio(r)
            if v is False and h3 is not False:
                h3 = False
            elif v is None and h3 is True:
                h3 = None
                notes.append(f"left ratio at zero s={z:.6g} is inconclusive")
        for a, b in E.intervals:
            if a > mu + 1e-9:
                h3_ratios.append((a, 0.0))
                if h3 is not False:
                    h3 = False
                    notes.append(f"flat zero stretch beyond mu at [{a:.6g}, {b:.6g}]")

    return HypothesisReport(h1, mu, mu_prime, origin_ratio,
                            h2, tuple(h2_ratios), h3, tuple(h3_ratios),
                            notes=tuple(notes))


# ---------------------------------------------------------------------------
# reflection

def reflect(nl: Nonlinearity, M_prime: float, m: float) -> Nonlinearity:
    """Flip f about the level M'+1: g(s) = -f(M'+1-s) while that argument
    stays at or above m, constant -f(m) beyond.

    Used to convert trailing-decay questions into growth questions. Needs the
    source window to reach M'+1.
    """
    if not (0.0 <= m <= M_prime):
        raise InputError(f"reflect: need 0 <= m <= M', got m={m:g}, M'={M_prime:g}")
    c = M_prime + 1.0
    if c > nl.s_max + 1e-12:
        raise InputError(
            f"reflect: source window [0, {nl.s_max:g}] does not cover M'+1 = {c:g}")
    edge = c - m
    f_at_m = _f1(nl, m)
    F_at_c = float(antiderivative_F(nl, c))

    def g(s):
        s = np.asarray(s, dtype=float)
        inner = np.clip(c - s, 0.0, nl.s_max)
        return np.where(s <= edge, -nl.fn(inner), -f_at_m)

    def G(z):
        z = np.asarray(z, dtype=float)
        zc = np.minimum(z, edge)
        head = nl.antiderivative_fn(np.clip(c - zc, 0.0, nl.s_max)) - F_at_c
        return head + np.where(z > edge, (z - edge) * (-f_at_m), 0.0)

    def gap_g(lo, hi):
        total = np.zeros(lo.shape)
        b1 = np.minimum(hi, edge)
        head = b1 > lo                  # part of the slab below the edge
        total[head] -= integral_between(nl, c - b1[head], c - lo[head])
        tail = hi > edge                # constant part beyond it
        total[tail] += (hi[tail] - np.maximum(lo[tail], edge)) * (-f_at_m)
        return total

    # f's kinks above m map to c - k below the edge. There g turns constant,
    # a kink where f still slopes just above m: the slope is read over a
    # step short of f's next kink, and at a critical point of a smooth f it
    # reads at the step's size, under the threshold
    above = [k for k in nl.kinks if k > m]
    d = min(1e-7, 0.5 * (min(above + [c]) - m))
    sloped = abs(_f1(nl, m + d) - f_at_m) > 1e-6 * max(1.0, nl.lipschitz) * d
    kinks = _kinks_in([c - k for k in above] + ([edge] if sloped else []), edge + 1.0)
    # g's slopes are f's on [m, c], and 0 beyond the edge
    return Nonlinearity(f"reflect({nl.kind},{M_prime:g},{m:g})", edge + 1.0,
                        nl.lipschitz, g, G, gap_g, kinks)
