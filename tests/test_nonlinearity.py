"""Catalog construction, exact integrals, zero sets, structural probes."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import quad

from farfield import nonlinearity as nlm
from farfield.errors import InputError
from farfield.nonlinearity import (check_hypotheses, compute_Zf, eval_capped, fprime,
                                   from_table, integral_between, make, scalar_fn,
                                   zero_set)

CATALOG = ("logistic", "abs-sin", "linear-decay", "cantor:3")


# ---------------------------------------------------------------------------
# construction and the evaluation window

def test_make_catalog():
    for spec in CATALOG:
        nl = make(spec)
        assert nl.kind.startswith(spec.split(":")[0])
        assert nl.s_max > 0
        assert nl.lipschitz > 0


def test_make_rejects_unknown():
    with pytest.raises(InputError):
        make("cubic")
    with pytest.raises(InputError):
        make(3.0)
    with pytest.raises(InputError):
        make("cantor:x")


def test_window_override():
    nl = make("linear-decay", s_max=0.5)
    assert nl.s_max == 0.5
    # the Lipschitz constant is re-derived on the new window, not inherited
    assert nl.lipschitz == 1.0
    assert make("logistic", s_max=5.0).lipschitz == 9.0
    with pytest.raises(InputError):
        make("logistic", s_max=-1.0)
    with pytest.raises(InputError):
        make("logistic", s_max=math.inf)


def _launch_f(nl):
    """f at one float clipped to [0, s_max] as the launch rhs clip it inline,
    by comparisons, then the term's scalar f."""
    f, s_max = scalar_fn(nl), nl.s_max
    return lambda v: f(0.0 if v < 0.0 else (s_max if v > s_max else v))


def test_eval_window_enforced():
    # eval_capped and the launches' inline clip hold f to the window [0, 2]
    nl = make("logistic")
    got = eval_capped(nl, np.array([-0.1, 0.5, 2.5]))
    assert got.tolist() == [0.0, 0.25, -2.0]
    assert [_launch_f(nl)(v) for v in (-0.1, 0.5, 2.5)] == [0.0, 0.25, -2.0]


_CAPPED_TERMS = CATALOG + ("cantor:1", "cantor:6", "table")


def _capped_term(name):
    if name == "table":
        return from_table(*_TENT)
    return make(name)


@pytest.mark.parametrize("name", _CAPPED_TERMS)
def test_eval_capped_is_f_on_the_clipped_argument(name):
    # bit for bit nl.fn(np.clip(s, 0, s_max)) on an array and on 0-d inputs,
    # NaN, -0.0 and both sides of the window included; f may work in place
    # on its own fresh arrays, but the argument is never written to
    nl = _capped_term(name)
    s = np.array([math.nan, -0.0, 0.0, -1.0, -1e-300, 0.37 * nl.s_max, nl.s_max,
                  nl.s_max + 1.0, 1e300])
    for arg in (s, *(np.array(v) for v in s)):
        before = arg.copy()
        got = np.asarray(eval_capped(nl, arg))
        want = np.asarray(nl.fn(np.clip(before, 0.0, nl.s_max)))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), arg
        assert arg.tobytes() == before.tobytes()


@pytest.mark.parametrize("name", _CAPPED_TERMS)
def test_capped_float_matches_eval_capped(name):
    # the launches' scalar clip, comparisons on one float, then scalar_fn's f
    # gives eval_capped's np.clip value bit for bit: the sign of a zero and
    # NaN included
    nl = _capped_term(name)
    for v in (-1.0, -0.0, 0.0, 0.37 * nl.s_max, nl.s_max, nl.s_max + 1.0, math.nan):
        got = _launch_f(nl)(v)
        want = float(eval_capped(nl, v))
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got), v
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), v


# ---------------------------------------------------------------------------
# F, the integral from 0, and the cancellation-free slab integral

def _abs_sin_F(z):
    # 2 per whole arch, then 1 - cos on the arch that holds z
    k = np.floor(z / math.pi)
    return 2.0 * k + 1.0 - np.cos(z - k * math.pi)


def test_antiderivative_closed_forms():
    # F(z) = integral_between(nl, 0, z) against F written out in closed form
    for spec, F in (("logistic", lambda z: z**2 / 2 - z**3 / 3),
                    ("abs-sin", _abs_sin_F),
                    ("linear-decay", lambda z: z - z**2 / 2)):
        nl = make(spec)
        zs = np.linspace(0.0, nl.s_max, 401)
        np.testing.assert_allclose(integral_between(nl, 0.0, zs), F(zs), rtol=0.0, atol=1e-13)
    nl = make("abs-sin")
    assert integral_between(nl, 0.0, math.pi) == pytest.approx(2.0, abs=1e-15)
    assert integral_between(nl, 0.0, 2 * math.pi) == pytest.approx(4.0, abs=1e-15)
    assert integral_between(make("linear-decay"), 0.0, 3.0) == -1.5


@pytest.mark.parametrize("spec", CATALOG)
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integral_between_against_quadrature(spec):
    """integral_between must agree with independent adaptive quadrature."""
    nl = make(spec)
    rng = np.random.default_rng(7)
    f = lambda x: float(nl.fn(np.asarray(x, dtype=float)))
    for _ in range(25):
        lo, hi = np.sort(rng.uniform(0.0, nl.s_max, size=2))
        if hi - lo < 1e-12:
            continue
        want, err = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
        got = integral_between(nl, float(lo), float(hi))
        assert abs(got - want) < 1e-9 + 10 * err


def test_integral_between_tiny_slab_relative_accuracy():
    # just below the kink of |sin| the slab integral is ~5e-15; the closed
    # form keeps relative accuracy where the difference of two integrals
    # from 0 cancels catastrophically
    nl = make("abs-sin")
    d = 1e-7
    exact = 2.0 * math.sin(0.5 * d) ** 2
    got = integral_between(nl, math.pi - d, math.pi)
    assert abs(got - exact) / exact < 1e-6
    via_F = integral_between(nl, 0.0, math.pi) - integral_between(nl, 0.0, math.pi - d)
    assert abs(got - exact) * 100.0 < abs(via_F - exact)


def test_integral_between_orientation():
    nl = make("logistic")
    fwd = integral_between(nl, 0.2, 0.8)
    assert integral_between(nl, 0.8, 0.2) == -fwd
    assert integral_between(nl, 0.4, 0.4) == 0.0
    got = integral_between(nl, np.array([0.2, 0.8, 0.4]), np.array([0.8, 0.2, 0.4]))
    assert got.tolist() == [fwd, -fwd, 0.0]


def _array_case(spec, tmp_path):
    if spec == "table":
        xs = np.linspace(0.0, 3.0, 31)
        path = tmp_path / "f.csv"
        rows = "".join(f"{x!r},{math.sin(3.0 * x)!r}\n" for x in xs.tolist())
        path.write_text("s,f\n" + rows)
        return make(f"table:{path}")
    if spec == "table tail":
        # f holds its last knot value on [3, 4], a constant tail to the window end
        xs = np.linspace(0.0, 3.0, 31)
        return from_table(xs, np.sin(3.0 * xs), s_max=4.0)
    return make(spec)


@pytest.mark.parametrize("spec", CATALOG + ("table", "table tail"))
def test_integral_between_array_matches_scalar(spec, tmp_path):
    nl = _array_case(spec, tmp_path)
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, nl.s_max, 400)
    hi = rng.uniform(0.0, nl.s_max, 400)
    hi[:100] = lo[:100] + 10.0 ** rng.uniform(-14.0, -3.0, 100)
    want = np.array([integral_between(nl, float(a), float(b)) for a, b in zip(lo, hi)])
    got = integral_between(nl, lo, hi)
    assert isinstance(got, np.ndarray) and got.shape == lo.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # broadcasting against a scalar limit, as the profile quadrature calls it
    top = 0.5 * nl.s_max
    want = np.array([integral_between(nl, float(a), top) for a in lo])
    got = integral_between(nl, lo.reshape(20, 20), top)
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spec", CATALOG + ("table", "table tail"))
def test_antiderivative_difference_matches_gap(spec, tmp_path):
    # the slab integral is additive: F(b) - F(a), with F the integral from
    # 0, and the slabs [a, m] and [m, b] both sum to the slab [a, b] to rounding
    nl = _array_case(spec, tmp_path)
    rng = np.random.default_rng(13)
    a, m, b = np.sort(rng.uniform(0.0, nl.s_max, size=(3, 200)), axis=0)
    Fa, Fb = integral_between(nl, 0.0, a), integral_between(nl, 0.0, b)
    gap = integral_between(nl, a, b)
    assert np.all(np.abs((Fb - Fa) - gap) <= 1e-12 * np.maximum(1.0, np.abs(Fb)))
    halves = integral_between(nl, a, m) + integral_between(nl, m, b)
    assert np.all(np.abs(halves - gap) <= 1e-12 * np.maximum(1.0, np.abs(gap)))


def _trapezoid_sum(xs, ys, lo, hi):
    """Reference for piecewise-linear f: trapezoids between consecutive knots."""
    pts = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
    return np.diff(pts) * 0.5 * (np.interp(pts[1:], xs, ys) + np.interp(pts[:-1], xs, ys))


@pytest.mark.parametrize("spec", ("cantor:6", "table"))
def test_piecewise_gap_matches_trapezoid_loop(spec, tmp_path):
    # the array form sums the whole cells in another order: agree to a few
    # ulps of the trapezoid magnitudes
    nl = _array_case(spec, tmp_path)
    xs, ys = nl.fn.xs, nl.fn.ys
    rng = np.random.default_rng(5)
    lo, hi = np.sort(rng.uniform(0.0, nl.s_max, size=(2, 300)), axis=0)
    got = integral_between(nl, lo, hi)
    for g, a, b in zip(got, lo, hi):
        traps = _trapezoid_sum(xs, ys, a, b)
        assert abs(g - traps.sum()) <= 8 * np.finfo(float).eps * np.abs(traps).sum()


_TENT_TABLE = "table:" + str(Path(__file__).resolve().parents[1] / "demos" / "tent_table.csv")
_SLAB_TERMS = ("abs-sin", "logistic", "linear-decay", *(f"cantor:{k}" for k in range(1, 7)),
               _TENT_TABLE, "cantor:6 on [0, 3]")


def _slab_term(name):
    return make("cantor:6", s_max=3.0) if name == "cantor:6 on [0, 3]" else make(name)


@pytest.mark.parametrize("name", _SLAB_TERMS,
                         ids=[n.rsplit("/", 1)[-1] for n in _SLAB_TERMS])
def test_slabs_to_a_scalar_level_match_the_general_route(name):
    # a profile's slabs: nodes below a scalar level z go to gap_fn in one
    # call, and give the broadcast route's values bit for bit, at every
    # reachable level and at the window's end (beyond a table's last knot)
    nl = _slab_term(name)
    rng = np.random.default_rng(24)
    for z in [z for z in compute_Zf(nl).points if z > 0] + [nl.s_max]:
        lo = z * rng.uniform(0.0, 1.0, (768, 21))
        lo[:384] = z - z * 10.0 ** rng.uniform(-12.0, 0.0, (384, 21))   # the approach of z
        knots = [k for k in nl.kinks if k < z]
        lo.flat[:len(knots)] = knots
        lo[-1, 0] = 0.0
        assert (lo < z).all()
        fast = integral_between(nl, lo, z)
        assert fast.shape == lo.shape
        assert fast.tobytes() == integral_between(nl, lo, np.full_like(lo, z)).tobytes()
        # lo == hi is still an exact 0, and hi < lo the negated slab
        lo[0, :2] = z, z + 0.1
        got = integral_between(nl, lo, z)
        assert got[0, 0] == 0.0 and math.copysign(1.0, got[0, 0]) == 1.0
        assert got[0, 1] == -integral_between(nl, z, z + 0.1)
        assert got.ravel()[2:].tobytes() == fast.ravel()[2:].tobytes()


@pytest.mark.parametrize("name", _SLAB_TERMS[3:],
                         ids=[n.rsplit("/", 1)[-1] for n in _SLAB_TERMS[3:]])
def test_piecewise_gap_to_a_scalar_matches_the_array_form(name):
    # one whole-cell table per scalar upper end, read by each element's start
    # cell: the same reduceat sums as one (start, stop) pair per element
    pl = _slab_term(name).fn
    xs = pl.xs
    rng = np.random.default_rng(7)
    for z in (xs[xs.size // 2], 0.5 * (xs[1] + xs[2]), xs[-1], xs[-1] + 0.5):
        lo = np.concatenate((xs[xs < z], [xs[0] - 0.5, xs[0] - 1e-3],
                             rng.uniform(xs[0] - 0.5, z, 500)))
        if z > xs[-1]:
            lo = np.append(lo, [xs[-1] + 1e-3, xs[-1] + 0.25])     # beyond the last knot
        assert pl.gap(lo, z).tobytes() == pl.gap(lo, np.full_like(lo, z)).tobytes()


def test_integral_between_tiny_slab_on_array_input():
    # cantor: a slab straddling the knot 1/3, flat (f = 0) to its left and
    # rising with slope 1 to its right, so the integral is d^2 / 2
    nl = make("cantor:3")
    knot = 9.0 / 27.0
    d = np.array([1e-9, 1e-7, 1e-5])
    lo, hi = knot - d, knot + d
    exact = 0.5 * (hi - knot) ** 2
    got = integral_between(nl, lo, hi)
    assert np.all(np.abs(got - exact) / exact < 1e-12)
    via_F = integral_between(nl, 0.0, hi) - integral_between(nl, 0.0, lo)
    assert abs(via_F[0] - exact[0]) > 100.0 * abs(got[0] - exact[0])
    # abs-sin: slabs ending exactly on the arch boundaries k pi
    nl = make("abs-sin")
    hi = np.repeat(np.arange(1, 4) * math.pi, 3)
    lo = hi - np.tile([1e-7, 1e-5, 1e-3], 3)
    exact = 2.0 * np.sin(0.5 * (hi - lo)) ** 2
    got = integral_between(nl, lo, hi)
    assert np.all(np.abs(got - exact) / exact < 1e-6)


# ---------------------------------------------------------------------------
# prefractal catalog member

def _prefractal(level):
    """The level-`level` middle-thirds intervals as floats, built in exact
    rationals from ternary digits, independently of the catalog: one
    interval [sum d_i 3^-i, sum d_i 3^-i + 3^-level] per d in {0, 2}^level."""
    third = Fraction(1, 3)
    lefts = sorted(sum(d * third ** i for i, d in enumerate(digits, 1))
                   for digits in itertools.product((0, 2), repeat=level))
    return [(float(a), float(a + third ** level)) for a in lefts]


def test_prefractal_intervals():
    iv = _prefractal(1)
    assert iv == [(0.0, 1 / 3), (2 / 3, 1.0)]
    iv3 = _prefractal(3)
    assert len(iv3) == 8
    lefts = [a for a, _ in iv3]
    want = [0.0, 2 / 27, 2 / 9, 8 / 27, 2 / 3, 20 / 27, 8 / 9, 26 / 27]
    np.testing.assert_allclose(lefts, want, atol=1e-15)


def test_cantor_tent_geometry():
    nl = make("cantor:3")
    # zero exactly on the kept intervals
    for a, b in _prefractal(3):
        for s in np.linspace(a, b, 5):
            assert float(nl.fn(np.float64(s))) == 0.0
    # the first removed third peaks at height 1/6 in its middle
    assert float(nl.fn(np.float64(0.5))) == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize("level", range(1, 7))
def test_cantor_zero_set_resolves_every_interval(level):
    E = zero_set(make(f"cantor:{level}"))
    assert (len(E.points), len(E.intervals)) == (0, 2 ** level)
    assert E.intervals == tuple(_prefractal(level))


@pytest.mark.parametrize("level", (0, -1, 7))
def test_cantor_level_outside_1_to_6_is_rejected(level):
    # below 1 the tent is f = 0; above 6 no level's profiles are checked
    with pytest.raises(InputError):
        make(f"cantor:{level}")


def test_cantor_zero_set_in_a_wide_window():
    # f = 0 on [1, 3], so the last interval runs to the window's end
    E = zero_set(make("cantor:6", s_max=3.0))
    assert (len(E.points), len(E.intervals)) == (0, 64)
    assert E.intervals[-1] == (_prefractal(6)[-1][0], 3.0)


# ---------------------------------------------------------------------------
# zero sets and reachable levels

def test_zero_set_catalog():
    assert [round(p, 9) for p in zero_set(make("logistic")).points] == [0.0, 1.0]
    pts = zero_set(make("abs-sin")).points
    np.testing.assert_allclose(pts, [0.0, math.pi, 2 * math.pi, 3 * math.pi],
                               atol=1e-9)
    assert [round(p, 9) for p in zero_set(make("linear-decay")).points] == [1.0]
    E = zero_set(make("cantor:3"))
    assert not E.points
    assert len(E.intervals) == 8


def test_cantor_3_levels_are_the_exact_interval_ends():
    # the reachable levels are the left ends k/27 of the kept intervals, as
    # floats equal to the knots, and every interval end is a knot where f
    # is exactly 0
    nl = make("cantor:3")
    want = [0, 2, 6, 8, 18, 20, 24, 26]
    assert compute_Zf(nl).points == tuple(k / 27 for k in want)
    knots = set(nl.fn.xs.tolist())
    for a, b in zero_set(nl).intervals:
        assert a in knots and b in knots
        assert nl.fn(a) == nl.fn(b) == 0.0


_REF_TOL_F = 1e-10    # |f| at or below this counts as a zero in the reference scan


def _edge_inward(absfn, tol_f, outside, inside):
    """Edge of a sub-tolerance run, bisected so |f(edge)| <= tol_f holds."""
    for _ in range(64):
        mid = 0.5 * (outside + inside)
        if absfn(mid) <= tol_f:
            inside = mid
        else:
            outside = mid
    return float(inside)


def _reference_zero_set(nl, grid_n=4096, tol_f=_REF_TOL_F):
    """An independent zero set: a sample scan with a root solve on sign
    changes, golden-section on dips of |f| and bisected run edges."""
    s_max = nl.s_max
    xs = np.linspace(0.0, s_max, grid_n)
    h = xs[1] - xs[0]
    fs = nl.fn(xs)
    absf = np.abs(fs)
    sub = absf <= tol_f
    points, intervals = [], []

    def f1(x):
        return float(nl.fn(np.float64(x)))

    def absfn(x):
        return abs(f1(x))

    i = 0
    while i < grid_n:
        if not sub[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid_n and sub[j + 1]:
            j += 1
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
        i = j + 1

    for i in np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]:
        if sub[i] or sub[i + 1]:
            continue
        r = optimize.brentq(f1, xs[i], xs[i + 1],
                            xtol=1e-14, rtol=8.9e-16)
        points.append(float(r))

    interior = np.nonzero((absf[1:-1] < absf[:-2]) & (absf[1:-1] < absf[2:])
                          & ~sub[1:-1])[0] + 1
    for i in interior:
        if absf[i] > 0.5 * h * max(1.0, nl.lipschitz):
            continue
        try:
            res = optimize.minimize_scalar(absfn, bracket=(xs[i - 1], xs[i], xs[i + 1]),
                                           method="golden", options={"xtol": 1e-13})
        except ValueError:
            continue
        if abs(res.fun) <= tol_f:
            points.append(float(res.x))

    cleaned = []
    for p in sorted(points):
        if any(a - h * 0.5 <= p <= b + h * 0.5 for a, b in intervals):
            continue
        if cleaned and p - cleaned[-1] < 1e-9 * max(1.0, s_max):
            continue
        cleaned.append(min(max(p, 0.0), s_max))
    return nlm.ZeroSet(tuple(cleaned), tuple(sorted(intervals)), float(s_max))


def _assert_close_zero_sets(got, ref):
    # the same counts, with points and interval ends within 1e-9
    assert (len(got.points), len(got.intervals)) == (len(ref.points), len(ref.intervals))
    np.testing.assert_allclose(got.points, ref.points, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(np.ravel(got.intervals), np.ravel(ref.intervals),
                               rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("spec", CATALOG + ("cantor:6",))
@pytest.mark.parametrize("grid_n", (4096, 65_536))
def test_zero_set_matches_the_sample_loop_on_the_catalog(spec, grid_n):
    nl = make(spec)
    _assert_close_zero_sets(zero_set(nl), _reference_zero_set(nl, grid_n))


def _random_tables():
    # knots on the scan grid itself, so every zero knot is a sub-tolerance
    # sample: zero runs of every length, at both ends and in the middle
    n = 64
    xs = np.linspace(0.0, 2.0, n)
    rng = np.random.default_rng(17)
    tables = [np.zeros(n), rng.uniform(0.5, 1.0, n)]        # all zero, no zero
    for k in range(40):
        ys = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 1.0, n)
        ys[rng.random(n) < rng.uniform(0.1, 0.6)] = 0.0
        if k % 4 == 1:
            ys[:rng.integers(1, 4)] = 0.0
        if k % 4 == 2:
            ys[-rng.integers(1, 4):] = 0.0
        tables.append(ys)
    return [(xs, ys) for ys in tables]


def test_zero_set_matches_the_sample_loop_on_random_tables():
    runs = {"single": 0, "low end": 0, "high end": 0}
    for xs, ys in _random_tables():
        nl = from_table(xs, ys)
        _assert_close_zero_sets(zero_set(nl), _reference_zero_set(nl, xs.size))
        z = ys == 0.0
        runs["single"] += int(np.any(z[1:-1] & ~z[:-2] & ~z[2:]))
        runs["low end"] += int(z[0] and z[1])
        runs["high end"] += int(z[-1] and z[-2])
    assert all(v > 0 for v in runs.values()), runs


def test_flat_interval_edges_stay_sub_tolerance():
    # reported edges are exact zeros, so they serve as profile targets
    nl = make("cantor:3")
    E = zero_set(nl)
    for a, b in E.intervals:
        assert float(nl.fn(np.float64(a))) == 0.0
        assert float(nl.fn(np.float64(b))) == 0.0


def test_reachable_levels_catalog():
    np.testing.assert_allclose(compute_Zf(make("logistic")).points, [0.0, 1.0],
                               atol=1e-9)
    np.testing.assert_allclose(compute_Zf(make("abs-sin")).points,
                               [0.0, math.pi, 2 * math.pi, 3 * math.pi],
                               atol=1e-8)
    np.testing.assert_allclose(compute_Zf(make("linear-decay")).points, [1.0],
                               atol=1e-9)
    # F(6) = 0.5 tops F(4) = 0 but not F(2) = 1, two zeros below it
    nl = from_table(np.arange(7.0), [0.0, 1.0, 0.0, -1.0, 0.0, 0.5, 0.0])
    assert compute_Zf(nl).points == (0.0, 2.0)


def test_reachable_levels_sit_in_zero_set():
    for spec in CATALOG:
        nl = make(spec)
        E = zero_set(nl)
        members = list(E.points) + [e for iv in E.intervals for e in iv]
        for z in compute_Zf(nl).points:
            near_pt = any(abs(z - p) < 1e-6 for p in E.points)
            near_iv = any(a - 1e-6 <= z <= b + 1e-6 for a, b in E.intervals)
            assert near_pt or near_iv, (spec, z, members)


# ---------------------------------------------------------------------------
# structural hypotheses

def test_hypotheses_logistic():
    r = check_hypotheses(make("logistic"))
    assert r.h1 is True
    assert r.mu == pytest.approx(1.0, abs=1e-6)
    assert r.mu_prime == 0.5
    assert r.h2 is False          # f goes negative past the hump
    assert r.h3 is True


def test_hypotheses_abs_sin():
    r = check_hypotheses(make("abs-sin"))
    assert r.h1 is False          # no nonpositive tail inside the window
    assert r.h2 is True
    assert r.h3 is None
    nl = make("abs-sin")
    for z in (0.0, math.pi, 2 * math.pi):
        assert fprime(nl, z) == 1.0      # f'(z+) of |sin| at k pi, exactly


def test_hypotheses_linear_decay():
    r = check_hypotheses(make("linear-decay"))
    assert r.h1 is True
    assert r.mu == pytest.approx(1.0, abs=1e-6)


def test_hypotheses_cantor():
    r = check_hypotheses(make("cantor:3"))
    assert r.h1 is False
    assert r.h2 is False          # flat zero stretches
    assert r.h3 is None
    assert any("flat zero stretch" in n for n in r.notes)


_NONPOSITIVE = ([0.0, 1.0, 2.0], [0.0, -1.0, -0.5])     # f <= 0 on its whole window


def _hypothesis_case(name):
    if name == "tent":
        return from_table(*_TENT)
    if name == "sin 3s table":
        xs = np.linspace(0.0, 3.0, 31)
        return from_table(xs, np.sin(3.0 * xs))
    if name == "table f <= 0":
        return from_table(*_NONPOSITIVE)
    spec, _, window = name.partition(" s_max=")
    return make(spec, s_max=float(window)) if window else make(spec)


# name: (h1, h2, h3, mu'); mu' is where f turns down: the logistic's 1/2 and
# the tent table's peak knot 1
_VERDICTS = {
    "logistic": (True, False, True, 0.5),
    "abs-sin": (False, True, None, None),
    "linear-decay": (True, False, True, 0.0),
    **{f"cantor:{k}": (False, False, None, None) for k in range(1, 7)},
    "tent": (True, False, True, 1.0),
    "sin 3s table": (False, False, None, None),
    "table f <= 0": (False, False, None, None),
    "logistic s_max=1.5": (True, False, True, 0.5),
    "logistic s_max=0.8": (False, True, None, None),
    "abs-sin s_max=3": (False, True, None, None),
    "linear-decay s_max=0.5": (False, True, None, None),
}


@pytest.mark.parametrize("name", _VERDICTS)
def test_hypothesis_verdicts_and_exact_mu(name):
    # mu, the upper end of the last gap of E where f > 0, is a point of E
    # or an interval end; it is None where f <= 0 throughout or f > 0 at s_max
    nl = _hypothesis_case(name)
    r = check_hypotheses(nl)
    assert (r.h1, r.h2, r.h3, r.mu_prime) == _VERDICTS[name]
    pts, ivs = nl.zeros
    assert r.mu is None or r.mu in pts or r.mu in np.ravel(ivs)


@pytest.mark.parametrize("name, mu", [("logistic", 1.0), ("linear-decay", 1.0), ("tent", 2.4),
                                      ("table f <= 0", None)]
                         + [(f"cantor:{k}", _prefractal(k)[-1][0]) for k in range(1, 7)])
def test_mu_is_exact(name, mu):
    assert check_hypotheses(_hypothesis_case(name)).mu == mu


@pytest.mark.parametrize("xs, ys", [
    # the hump touches zero at 0.30001, between two samples of a scan
    ([0.0, 0.3, 0.30001, 0.30002, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0, -1.0]),
    # the tail pops above zero on (1.50001, 1.50003), between two samples
    ([0.0, 0.5, 1.0, 1.50001, 1.50002, 1.50003, 2.0], [0.0, 0.5, 0.0, -0.5, 0.3, -0.5, -1.0]),
], ids=["hump touches zero", "tail pops above zero"])
def test_narrow_sign_changes_fail_the_first_condition(xs, ys):
    r = check_hypotheses(from_table(xs, ys))
    assert r.h1 is False
    assert "f touches zero strictly between 0 and mu" in r.notes
    assert r.h3 is None


def test_second_condition_names_the_negative_gap():
    r = check_hypotheses(make("logistic"))
    assert "f < 0 on the gap (1, 2)" in r.notes
    r = check_hypotheses(from_table(*_NONPOSITIVE))
    assert r.mu is None and "no positive hump: f <= 0 on the window" in r.notes


@pytest.mark.parametrize("spec, s_max, edge", [("logistic", 1.0, "1"), ("linear-decay", 1.0, "1"),
                                               ("abs-sin", 2 * math.pi, "6.28319")])
def test_zero_at_the_window_edge_is_noted_and_skipped(spec, s_max, edge):
    # f'(s_max+) lies outside the window, so the second condition skips the
    # zero there and says so; no slope is read
    r = check_hypotheses(make(spec, s_max=s_max))
    assert f"zero at the window edge s={edge}: right slope not evaluated" in r.notes


# ---------------------------------------------------------------------------
# kinks

_TENT = ([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], [0.0, 0.5, 1.0, 0.2, 0.2, -0.3])   # 0.5 is no kink


def _kink_case(name, tmp_path):
    if name == "table":
        return from_table(*_TENT)
    if name == "table widened":
        path = tmp_path / "tent.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(*_TENT)))
        return make(f"table:{path}", s_max=4.0)      # the outer knot 3 turns into a kink
    if name == "table narrowed":
        path = tmp_path / "tent.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(*_TENT)))
        return make(f"table:{path}", s_max=1.0)      # the cell [1, 1.5] is outside
    spec, _, window = name.partition(" s_max=")
    return make(spec, s_max=float(window)) if window else make(spec)


_KINK_CASES = CATALOG + ("cantor:1", "cantor:6", "abs-sin s_max=20", "abs-sin s_max=3",
                         "cantor:2 s_max=3", "logistic s_max=5", "table", "table widened")
_AFFINE_KINDS = ("linear-decay", "cantor", "table")     # f affine between its kinks


@pytest.mark.parametrize("name", _KINK_CASES)
def test_kinks_list_every_point_where_f_is_not_differentiable(name, tmp_path):
    nl = _kink_case(name, tmp_path)
    kinks = np.array(nl.kinks)
    assert np.all(np.diff(kinks) > 0)
    assert np.all((kinks > 0.0) & (kinks < nl.s_max))
    # at each listed kink the one-sided difference quotients differ
    d = 1e-7
    left = (nl.fn(kinks) - nl.fn(kinks - d)) / d
    right = (nl.fn(kinks + d) - nl.fn(kinks)) / d
    assert np.all(np.abs(right - left) > 1e-3)
    # fprime gives those one-sided quotients at each kink, and the central
    # differences between the kinks, on either side
    np.testing.assert_allclose(fprime(nl, kinks, -1), left, atol=1e-6)
    np.testing.assert_allclose(fprime(nl, kinks, 1), right, atol=1e-6)
    mid, d2 = np.linspace(0.0, nl.s_max, 2001)[1:-1], 1e-6
    away = np.searchsorted(kinks, mid + d2) == np.searchsorted(kinks, mid - d2)
    central = (nl.fn(mid + d2) - nl.fn(mid - d2)) / (2.0 * d2)
    for side in (-1, 1):
        np.testing.assert_allclose(fprime(nl, mid[away], side), central[away], atol=1e-6)
    # between them second differences stay bounded: a missing kink with a
    # slope jump J would read about J / (2 h) on the stencil that straddles it
    xs = np.linspace(0.0, nl.s_max, 200_001)
    h = xs[1] - xs[0]
    second = np.abs(np.diff(nl.fn(xs), 2)) / (h * h)
    lo, hi = xs[:-2], xs[2:]
    touches = np.searchsorted(kinks, hi, side="right") > np.searchsorted(kinks, lo, side="left")
    assert float(np.max(second[~touches])) < 10.0
    if name.replace(":", " ").split()[0] in _AFFINE_KINDS:   # up to rounding
        assert float(np.max(second[~touches])) < 1e-3


def test_kinks_of_the_catalog():
    assert make("logistic").kinks == make("linear-decay").kinks == ()
    assert make("abs-sin").kinks == (math.pi, 2.0 * math.pi, 3.0 * math.pi)
    assert make("abs-sin", s_max=3.0).kinks == ()
    assert len(make("cantor:3").kinks) == 3 * 2 ** 3 - 3     # 2^3 - 1 tents, none at 0 or 1
    assert from_table(*_TENT).kinks == (1.0, 1.5, 2.0)


_LIPSCHITZ_CASES = (CATALOG + ("cantor:1", "cantor:2", "cantor:4", "cantor:5", "cantor:6",
                               "logistic s_max=0.3", "logistic s_max=5", "abs-sin s_max=3",
                               "cantor:6 s_max=3", "cantor:3 s_max=0.5", "table",
                               "table widened", "table narrowed"))


@pytest.mark.parametrize("name", _LIPSCHITZ_CASES)
def test_lipschitz_constant_is_exact(name, tmp_path):
    # every secant slope on a fine grid plus the kinks stays under the
    # constant, and the steepest comes within 1e-6 of it; a smooth term's
    # |f'| peaks at an end of the window or at a kink, so the grid also
    # holds the points 1e-7 to either side of those
    nl = _kink_case(name, tmp_path)
    marks = np.array((0.0, *nl.kinks, nl.s_max))
    xs = np.unique(np.clip(np.concatenate([np.linspace(0.0, nl.s_max, 100_001), marks,
                                           marks - 1e-7, marks + 1e-7]), 0.0, nl.s_max))
    slopes = np.abs(np.diff(nl.fn(xs)) / np.diff(xs))
    assert float(slopes.max()) <= nl.lipschitz * (1.0 + 1e-8)
    assert float(slopes.max()) >= nl.lipschitz - 1e-6
    # the largest exact slope on those points, either side, is the constant
    assert max(float(np.abs(fprime(nl, xs, side)).max()) for side in (-1, 1)) == nl.lipschitz


# ---------------------------------------------------------------------------
# tables

def test_from_table_validation():
    with pytest.raises(InputError):
        from_table([0.0, 1.0], [1.0])
    with pytest.raises(InputError):
        from_table([0.5, 1.0], [1.0, 0.0])     # first sample off the origin
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="must be finite"):
            from_table([0.0, bad, 2.0], [1.0, 0.0, -1.0])
        with pytest.raises(InputError, match="must be finite"):
            from_table([0.0, 1.0, 2.0], [1.0, bad, -1.0])
    nl = from_table([0.0, 1.0, 2.0], [1.0, 0.0, -1.0])
    assert float(nl.fn(np.float64(0.5))) == pytest.approx(0.5)
    assert nl.s_max == 2.0
