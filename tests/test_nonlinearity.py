"""Catalog construction, exact integrals, zero sets, structural probes."""

import math

import numpy as np
import pytest
from scipy import optimize
from scipy.integrate import quad

from farfield import nonlinearity as nlm
from farfield.errors import InputError
from farfield.nonlinearity import (antiderivative_F, cantor_prefractal,
                                   check_hypotheses, compute_Zf, eval_capped,
                                   eval_capped_float, eval_f, from_table, integral_between, make,
                                   reflect, zero_set)

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


def test_eval_window_enforced():
    nl = make("logistic")
    assert eval_f(nl, 0.5) == pytest.approx(0.25)
    with pytest.raises(InputError):
        eval_f(nl, 2.5)
    with pytest.raises(InputError):
        eval_f(nl, -0.1)
    # the capped entry point clips instead of raising
    assert eval_capped(nl, np.array([2.5]))[0] == pytest.approx(-2.0)


@pytest.mark.parametrize("name", CATALOG + ("cantor:1", "cantor:6", "table", "reflect"))
def test_capped_float_matches_eval_capped(name):
    # the launches' scalar clip, comparisons on one float, gives eval_capped's
    # np.clip value bit for bit: the sign of a zero and NaN included
    if name == "table":
        nl = from_table(*_TENT)
    elif name == "reflect":
        nl = reflect(make("cantor:2", s_max=3.0), 1.5, 0.3)
    else:
        nl = make(name)
    for v in (-1.0, -0.0, 0.0, 0.37 * nl.s_max, nl.s_max, nl.s_max + 1.0, math.nan):
        got = eval_capped_float(nl, v)
        want = float(eval_capped(nl, v))
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got), v
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), v


# ---------------------------------------------------------------------------
# antiderivative and the cancellation-free integral

def test_antiderivative_closed_forms():
    nl = make("logistic")
    zs = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(antiderivative_F(nl, zs),
                               zs**2 / 2 - zs**3 / 3, atol=1e-14)
    nl = make("abs-sin")
    assert antiderivative_F(nl, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert antiderivative_F(nl, 2 * math.pi) == pytest.approx(4.0, abs=1e-12)
    nl = make("linear-decay")
    assert antiderivative_F(nl, 3.0) == pytest.approx(3.0 - 4.5, abs=1e-14)


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
    # form keeps relative accuracy where the antiderivative difference
    # cancels catastrophically
    nl = make("abs-sin")
    d = 1e-7
    exact = 2.0 * math.sin(0.5 * d) ** 2
    got = integral_between(nl, math.pi - d, math.pi)
    assert abs(got - exact) / exact < 1e-6
    via_F = float(antiderivative_F(nl, math.pi) - antiderivative_F(nl, math.pi - d))
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
    if spec == "reflect":
        return reflect(make("abs-sin"), 7.0, 0.5)
    return make(spec)


@pytest.mark.parametrize("spec", CATALOG + ("table", "reflect"))
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


@pytest.mark.parametrize("spec", CATALOG + ("table", "reflect"))
def test_antiderivative_difference_matches_gap(spec, tmp_path):
    # F and the slab integral are two closed forms of one function; nothing
    # else integrates f, so they must agree to rounding
    nl = _array_case(spec, tmp_path)
    rng = np.random.default_rng(13)
    a, b = np.sort(rng.uniform(0.0, nl.s_max, size=(2, 200)), axis=0)
    Fa, Fb = antiderivative_F(nl, a), antiderivative_F(nl, b)
    gap = integral_between(nl, a, b)
    assert np.all(np.abs((Fb - Fa) - gap) <= 1e-12 * np.maximum(1.0, np.abs(Fb)))


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
    via_F = antiderivative_F(nl, hi) - antiderivative_F(nl, lo)
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

def test_prefractal_intervals():
    iv = cantor_prefractal(1)
    assert iv == [(0.0, 1 / 3), (2 / 3, 1.0)]
    iv3 = cantor_prefractal(3)
    assert len(iv3) == 8
    lefts = [a for a, _ in iv3]
    want = [0.0, 2 / 27, 2 / 9, 8 / 27, 2 / 3, 20 / 27, 8 / 9, 26 / 27]
    np.testing.assert_allclose(lefts, want, atol=1e-15)
    with pytest.raises(InputError):
        cantor_prefractal(0)
    with pytest.raises(InputError):
        cantor_prefractal(17)


def test_cantor_tent_geometry():
    nl = make("cantor:3")
    # zero exactly on the kept intervals
    for a, b in cantor_prefractal(3):
        for s in np.linspace(a, b, 5):
            assert float(nl.fn(np.float64(s))) == 0.0
    # the first removed third peaks at height 1/6 in its middle
    assert float(nl.fn(np.float64(0.5))) == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize("level", range(1, 7))
def test_cantor_zero_set_resolves_every_interval(level):
    E = zero_set(make(f"cantor:{level}"))
    assert (len(E.points), len(E.intervals)) == (0, 2 ** level)
    assert E.intervals == tuple(cantor_prefractal(level))


@pytest.mark.parametrize("level", (0, -1, 7))
def test_cantor_level_outside_1_to_6_is_rejected(level):
    # below 1 the tent is f = 0; above 6 no level's profiles are checked
    with pytest.raises(InputError):
        make(f"cantor:{level}")


def test_cantor_zero_set_in_a_wide_window():
    # f = 0 on [1, 3], so the last interval runs to the window's end
    E = zero_set(make("cantor:6", s_max=3.0))
    assert (len(E.points), len(E.intervals)) == (0, 64)
    assert E.intervals[-1] == (cantor_prefractal(6)[-1][0], 3.0)


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


@pytest.mark.parametrize("source, M_prime, m", [("abs-sin", 7.0, 0.5),
                                                 ("cantor:2 s_max=3", 1.5, 0.3),
                                                 ("logistic", 1.0, 0.5)])
def test_zero_set_of_a_reflection_is_the_mapped_zero_set(source, M_prime, m):
    # g(s) = -f(c - s) up to the edge c - m: each zero zeta >= m of f maps
    # to c - zeta, and where f(m) = 0 the constant tail beyond the edge is a
    # zero interval too, joined to the one that ends at the edge
    c = M_prime + 1.0
    want = {"abs-sin": ((c - 2.0 * math.pi, c - math.pi), ()),
            "cantor:2 s_max=3": ((), ((0.0, c - 8 / 9), (c - 7 / 9, c - 2 / 3),
                                      (c - 1 / 3, c - m + 1.0))),
            "logistic": ((c - 1.0,), ())}[source]
    spec, _, window = source.partition(" s_max=")
    nl = make(spec, s_max=float(window)) if window else make(spec)
    E = zero_set(reflect(nl, M_prime, m))
    assert (E.points, E.intervals) == want


def _edge_inward(absfn, tol_f, outside, inside):
    """Edge of a sub-tolerance run, bisected so |f(edge)| <= tol_f holds."""
    for _ in range(64):
        mid = 0.5 * (outside + inside)
        if absfn(mid) <= tol_f:
            inside = mid
        else:
            outside = mid
    return float(inside)


def _reference_zero_set(nl, grid_n=4096, tol_f=nlm.TOL_F_DEFAULT):
    """An independent zero set: a sample scan with a root solve on sign
    changes, golden-section on dips of |f| and bisected run edges."""
    s_max = nl.s_max
    xs = np.linspace(0.0, s_max, grid_n)
    h = xs[1] - xs[0]
    fs = nl.fn(xs)
    absf = np.abs(fs)
    sub = absf <= tol_f
    points, intervals = [], []

    def absfn(x):
        return abs(nlm._f1(nl, x))

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
        r = optimize.brentq(lambda x: nlm._f1(nl, x), xs[i], xs[i + 1],
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
    assert r.mu_prime == pytest.approx(0.5, abs=1e-3)
    assert r.h2 is False          # f goes negative past the hump
    assert r.h3 is True


def test_hypotheses_abs_sin():
    r = check_hypotheses(make("abs-sin"))
    assert r.h1 is False          # no nonpositive tail inside the window
    assert r.h2 is True
    assert r.h3 is None
    ratios = dict((round(z, 6), v) for z, v in r.h2_ratios)
    for z in (0.0, round(math.pi, 6), round(2 * math.pi, 6)):
        assert ratios[z] == pytest.approx(1.0, abs=1e-2)


def test_hypotheses_linear_decay():
    r = check_hypotheses(make("linear-decay"))
    assert r.h1 is True
    assert r.origin_ratio == math.inf    # f(0) > 0
    assert r.mu == pytest.approx(1.0, abs=1e-6)


def test_hypotheses_cantor():
    r = check_hypotheses(make("cantor:3"))
    assert r.h1 is False
    assert r.h2 is False          # flat zero stretches
    assert r.h3 is None
    assert any("flat zero stretch" in n for n in r.notes)


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
    if name == "reflect abs-sin":
        return reflect(make("abs-sin"), 7.0, 0.5)
    if name == "table narrowed":
        path = tmp_path / "tent.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(*_TENT)))
        return make(f"table:{path}", s_max=1.0)      # the cell [1, 1.5] is outside
    if name == "reflect cantor":
        return reflect(make("cantor:2", s_max=3.0), 1.5, 0.4)
    if name == "reflect cantor flat edge":
        return reflect(make("cantor:2", s_max=3.0), 1.5, 0.3)   # f is flat above m
    if name == "reflect logistic":
        return reflect(make("logistic"), 1.0, 0.5)              # f'(m) = 0
    spec, _, window = name.partition(" s_max=")
    return make(spec, s_max=float(window)) if window else make(spec)


_KINK_CASES = CATALOG + ("cantor:1", "cantor:6", "abs-sin s_max=20", "abs-sin s_max=3",
                         "cantor:2 s_max=3", "logistic s_max=5", "table", "table widened",
                         "reflect abs-sin", "reflect cantor", "reflect cantor flat edge",
                         "reflect logistic")


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
    # between them second differences stay bounded: a missing kink with a
    # slope jump J would read about J / (2 h) on the stencil that straddles it
    xs = np.linspace(0.0, nl.s_max, 200_001)
    h = xs[1] - xs[0]
    second = np.abs(np.diff(nl.fn(xs), 2)) / (h * h)
    lo, hi = xs[:-2], xs[2:]
    touches = np.searchsorted(kinks, hi, side="right") > np.searchsorted(kinks, lo, side="left")
    assert float(np.max(second[~touches])) < 10.0


def test_kinks_of_the_catalog():
    assert make("logistic").kinks == make("linear-decay").kinks == ()
    assert make("abs-sin").kinks == (math.pi, 2.0 * math.pi, 3.0 * math.pi)
    assert make("abs-sin", s_max=3.0).kinks == ()
    assert len(make("cantor:3").kinks) == 3 * 2 ** 3 - 3     # 2^3 - 1 tents, none at 0 or 1
    assert from_table(*_TENT).kinks == (1.0, 1.5, 2.0)
    g = reflect(make("abs-sin"), 7.0, 0.5)
    assert g.kinks == (8.0 - 2.0 * math.pi, 8.0 - math.pi, 7.5)
    # the edge c - m is a kink only where f slopes just above m
    assert reflect(make("cantor:2", s_max=3.0), 1.5, 0.4).kinks[-1] == 2.1
    assert 2.2 not in reflect(make("cantor:2", s_max=3.0), 1.5, 0.3).kinks
    assert reflect(make("logistic"), 1.0, 0.5).kinks == ()


_LIPSCHITZ_CASES = (CATALOG + ("cantor:1", "cantor:2", "cantor:4", "cantor:5", "cantor:6",
                               "logistic s_max=0.3", "logistic s_max=5", "abs-sin s_max=3",
                               "cantor:6 s_max=3", "cantor:3 s_max=0.5", "table",
                               "table widened", "table narrowed", "reflect abs-sin",
                               "reflect cantor", "reflect logistic"))


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


# ---------------------------------------------------------------------------
# reflection and tables

def test_reflect_involution():
    nl = make("abs-sin")
    g = reflect(reflect(nl, 7.0, 0.0), 7.0, 0.0)
    xs = np.linspace(0.0, 7.0, 1001)
    assert float(np.max(np.abs(g.fn(xs) - nl.fn(xs)))) < 1e-13


def test_reflect_validates_window():
    nl = make("cantor:3")          # window [0, 1] cannot reach M'+1 = 2
    with pytest.raises(InputError):
        reflect(nl, 1.0, 0.0)


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
