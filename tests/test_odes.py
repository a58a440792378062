"""Adaptive RK4 stepper: accuracy, corrected samples, event location, kink landing."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from farfield import elliptic, nonlinearity, odes, profile1d
from farfield.errors import InputError, NumericError
from farfield.nonlinearity import compute_Zf, integral_between, make
from farfield.odes import OdeResult, integrate
from farfield.profile1d import compute_profile, disconnectedness_probe, integrate_profile_ode


def test_exponential_decay():
    res = integrate(lambda t, y: (-y[0], 0.0), 0.0, [1.0, 0.0], 5.0, tol=1e-12)
    assert abs(res.y[0] - math.exp(-5.0)) < 1e-10


def test_harmonic_oscillator_period():
    # y'' = -y returns to its start after 2*pi
    rhs = lambda t, y: np.array([y[1], -y[0]])
    res = integrate(rhs, 0.0, [1.0, 0.0], 2.0 * math.pi, tol=1e-12)
    assert abs(res.y[0] - 1.0) < 1e-9
    assert abs(res.y[1]) < 1e-9


def test_samples_inside_steps_are_accurate():
    ts = np.array([0.1, 0.7, 1.3, 2.0])
    res = integrate(lambda t, y: (y[0], 0.0), 0.0, [1.0, 0.0], 2.0, tol=1e-12, sample_ts=ts)
    assert res.samples_filled == ts.size
    np.testing.assert_array_equal(res.sample_ts, ts)
    err = np.max(np.abs(res.sample_ys[:, 0] - np.exp(ts)))
    assert err < 1e-9


def test_event_bisection():
    # y = t - 1 crosses zero at exactly t = 1
    res = integrate(lambda t, y: (1.0, 0.0), 0.0, [-1.0, 0.0], 3.0,
                    events=[lambda t, y: y[0]])
    assert res.event_index == 0
    assert abs(res.event_t - 1.0) < 1e-9
    assert abs(res.t - res.event_t) < 1e-12


def test_event_starting_at_zero_does_not_fire():
    # sign changes are detected from a nonzero reference, so a trajectory
    # launched on the zero line runs to completion
    res = integrate(lambda t, y: (1.0, 0.0), 0.0, [0.0, 0.0], 1.0,
                    events=[lambda t, y: y[0]])
    assert res.event_index is None
    assert abs(res.y[0] - 1.0) < 1e-12


def test_reversed_interval_rejected():
    with pytest.raises(NumericError):
        integrate(lambda t, y: (-y[0], 0.0), 1.0, [1.0, 0.0], 0.0)


def test_step_budget_enforced():
    with pytest.raises(NumericError):
        integrate(lambda t, y: (-y[0], 0.0), 0.0, [1.0, 0.0], 10.0, tol=1e-13, max_steps=3)


@pytest.mark.parametrize("rhs", [
    lambda t, y: (math.nan, 0.0),
    lambda t, y: (y[0] if t < 0.5 else math.nan, 0.0),
    lambda t, y: (1.0, math.nan),        # max over the components skips this NaN
])
def test_nan_state_raises(rhs):
    with pytest.raises(NumericError, match=r"NaN state in the step from t="):
        integrate(rhs, 0.0, [1.0, 0.0], 1.0)


def test_a_state_of_other_than_two_components_is_rejected():
    for y0 in (1.0, [1.0], [1.0, 0.0, 0.0], [[1.0], [0.0]]):
        with pytest.raises(InputError, match="a state of two floats is needed"):
            integrate(lambda t, y: (-y[0], 0.0), 0.0, y0, 1.0)


def test_infinite_error_estimate_shrinks_the_step(monkeypatch):
    real = odes._double_step
    calls = []

    def first_infinite(rhs, t, y, h, k1):
        calls.append(h)
        y_new, err, *rest = real(rhs, t, y, h, k1)
        return (y_new, math.inf if len(calls) == 1 else err, *rest)

    monkeypatch.setattr(odes, "_double_step", first_infinite)
    res = integrate(lambda t, y: (-y[0], 0.0), 0.0, [1.0, 0.0], 1.0, tol=1e-12)
    assert res.rejected >= 1
    assert calls[1] == odes._SHRINK_MIN * calls[0]
    assert abs(res.y[0] - math.exp(-1.0)) < 1e-10


def test_first_stage_is_shared_by_every_attempt_from_a_state():
    # an accepted step costs the state's rhs value plus 10 calls (3 for the
    # full step, 3 for the first half step, 4 for the second); a rejected
    # one costs the 10 only
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return y[1], -math.sin(y[0])

    res = integrate(rhs, 0.0, [0.0, 1.9], 30.0, tol=1e-11, h0=2.0)
    assert res.rejected > 0
    assert calls[0] == res.n_steps + 10 * (res.n_steps + res.rejected)


def test_samples_cost_only_the_last_steps_end_slope():
    # samples do not cut steps short, and one strictly inside an accepted step
    # reads the step's quintic: its end slope is the next step's first stage,
    # so only a sample inside the last step costs one more rhs call
    def run(ts):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return y[1], -math.sin(y[0])

        res = integrate(rhs, 0.0, [0.0, 1.9], 30.0, tol=1e-11, h0=2.0, sample_ts=ts)
        return res, calls[0]

    bare, bare_calls = run(None)
    assert bare_calls == bare.n_steps + 10 * (bare.n_steps + bare.rejected)
    inner = np.sort(np.random.default_rng(7).uniform(0.5, 29.5, 400))
    for ts, last in ((inner, 0), (np.append(inner, 30.0 - 1e-9), 1)):
        res, calls = run(ts)
        assert res.samples_filled == ts.size
        assert (res.n_steps, res.rejected) == (bare.n_steps, bare.rejected)
        assert res.y.tobytes() == bare.y.tobytes()
        assert calls == res.n_steps + 10 * (res.n_steps + res.rejected) + last


def test_an_event_costs_one_cut_step_and_two_end_slopes():
    # the step holding the event is taken again, cut where its quintic puts
    # the event: the discarded step costs its 10 rhs calls and its end slope,
    # and the step that then holds the event one more end slope
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return y[1], -math.sin(y[0])

    res = integrate(rhs, 0.0, [0.0, 1.9], 30.0, tol=1e-11, events=[lambda t, y: y[0] - 2.0])
    assert res.event_index == 0
    assert calls[0] == res.n_steps + 10 * (res.n_steps + res.rejected) + 12
    tight = integrate(rhs, 0.0, [0.0, 1.9], 30.0, tol=1e-13, events=[lambda t, y: y[0] - 2.0])
    assert abs(res.event_t - tight.event_t) < 1e-10
    assert abs(res.event_y[0] - 2.0) < 1e-14


def test_steps_follow_the_tolerance_not_the_samples(monkeypatch):
    # the abs-sin pi launch fills 850 grid samples on its way up
    run = lambda: compute_profile(make("abs-sin"), math.pi, xi_max=20.0, n=2048)
    (res,) = _launches(monkeypatch, profile1d, integrate, run)
    assert res.samples_filled > 800
    assert res.n_steps <= 250


def test_pendulum_samples_match_a_tighter_run():
    # y'' = -sin y over about five swings of amplitude 1: the quintic samples
    # at tol 1e-11 agree with a tol-1e-13 run's as well as the end states do
    ts = np.linspace(0.0, 30.0, 3001)
    rhs = lambda t, y: (y[1], -math.sin(y[0]))
    coarse = integrate(rhs, 0.0, [1.0, 0.0], 30.0, tol=1e-11, sample_ts=ts)
    fine = integrate(rhs, 0.0, [1.0, 0.0], 30.0, tol=1e-13, sample_ts=ts)
    assert coarse.samples_filled == fine.samples_filled == ts.size
    assert 3 * coarse.n_steps < ts.size          # most samples lie inside steps
    err = np.max(np.abs(coarse.sample_ys - fine.sample_ys))
    assert err < 1e-9
    assert err <= 2.0 * np.max(np.abs(coarse.y - fine.y))


def test_corrected_samples_are_as_accurate_as_the_end_state():
    # without the d/30 local-error correction of the quintic's midpoint the
    # interior samples are 2.3 times worse than the final state
    ts = np.linspace(0.0, 5.0, 1001)
    res = integrate(lambda t, y: (-y[0], 0.0), 0.0, [1.0, 0.0], 5.0, tol=1e-12, sample_ts=ts)
    err = np.max(np.abs(res.sample_ys[:, 0] - np.exp(-ts)))
    end_err = abs(res.y[0] - math.exp(-5.0))
    assert err <= 1e-12
    assert err <= 2.0 * end_err


@pytest.mark.parametrize("sign, y0, t1, exact_end", [
    (+1.0, 0.0, 2.0, math.exp(2.0) / 2.0),               # y = 2 - 2 e^-t, then e^t / 2
    (-1.0, 2.0, 1.2, 2.0 - math.exp(1.2) / 2.0),         # y = 2 e^-t, then 2 - e^t / 2
])
def test_steps_land_on_a_kink_of_the_rhs(sign, y0, t1, exact_end):
    # y' = +-(1 + |y - 1|) has its kink at y = 1, which the solution reaches
    # at t = ln 2 from either side
    def run(breaks):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return sign * (1.0 + abs(y[0] - 1.0)), 0.0

        res = integrate(rhs, 0.0, [y0, 0.0], t1, tol=1e-12, sample_ts=[math.log(2.0)],
                        breaks=breaks)
        assert calls[0] == res.n_steps + 10 * (res.n_steps + res.rejected)
        return res

    res = run((1.0,))
    assert abs(res.y[0] / exact_end - 1.0) < 1e-11
    assert abs(res.sample_ys[0, 0] - 1.0) < 1e-12
    # the step across the kink passes step doubling with this much more error
    assert abs(run(()).sample_ys[0, 0] - 1.0) > 5e-12


def test_a_step_starting_on_a_break_is_not_cut():
    # the landing rule measures passes from the step's start, so a run that
    # starts on a break, or within the slack of one, steps as if it had none
    rhs = lambda t, y: (1.0 + abs(y[0] - 1.0), 0.0)
    for y0 in (1.0, 1.0 - 0.5 * odes._BREAK_SLACK):
        bare = integrate(rhs, 0.0, [y0, 0.0], 1.0, tol=1e-12)
        res = integrate(rhs, 0.0, [y0, 0.0], 1.0, tol=1e-12, breaks=(1.0,))
        assert (res.n_steps, res.rejected) == (bare.n_steps, bare.rejected)
        assert res.y.tobytes() == bare.y.tobytes()


# ---------------------------------------------------------------------------
# the ndarray stepper this one replaced, kept as its reference: the state
# moved to a tuple of Python floats, and every result must stay bit for bit.
# Steps follow the tolerance alone, and a sample strictly inside a step, or
# an event's bisection, reads the step's quintic Hermite interpolant through
# its start, its corrected midpoint y_half - d/30 and its end.

def _ref_rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_double_step(rhs, t, y, h):
    y_big = _ref_rk4_step(rhs, t, y, h)
    y_half = _ref_rk4_step(rhs, t, y, 0.5 * h)
    y_fine = _ref_rk4_step(rhs, t + 0.5 * h, y_half, 0.5 * h)
    d = y_big - y_fine
    err = np.max(np.abs(d)) / 15.0
    return y_fine - d / 15.0, err, d, y_half


def _ref_quintic(rhs, t, y, h, y_half, d, y_new):
    d1 = y_half - d / 30.0 - y
    d2 = y_new - y
    g0, gm, g1 = h * rhs(t, y), h * rhs(t + 0.5 * h, y_half), h * rhs(t + h, y_new)
    return (y, g0,
            16.0 * d1 + 7.0 * d2 - 6.0 * g0 - g1 - 8.0 * gm,
            -32.0 * d1 - 34.0 * d2 + 13.0 * g0 + 5.0 * g1 + 32.0 * gm,
            16.0 * d1 + 52.0 * d2 - 12.0 * g0 - 8.0 * g1 - 40.0 * gm,
            -24.0 * d2 + 4.0 * g0 + 4.0 * g1 + 16.0 * gm)


def _ref_sample(c, s, h):
    th = s / h
    return c[0] + th * (c[1] + th * (c[2] + th * (c[3] + th * (c[4] + th * c[5]))))


def _ref_locate_event(c, t, h, y_new, gfun, g0):
    lo, hi = 0.0, h
    y_hi = y_new
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        y_mid = _ref_sample(c, mid, h)
        if g0 * gfun(t + mid, y_mid) <= 0.0:
            hi, y_hi = mid, y_mid
        else:
            lo = mid
        if hi - lo < 1e-15 * max(1.0, abs(t) + h):
            break
    return t + hi, y_hi


def _ref_break_fraction(breaks, a, b, slack=1e-9):
    # the break nearest a among those the step passes, neither within slack
    # of its start nor within slack of its end
    if b > a:
        passed = [k for k in breaks if a + slack < k < b - slack]
        k = min(passed, default=None)
    else:
        passed = [k for k in breaks if b + slack < k < a - slack]
        k = max(passed, default=None)
    return None if k is None else (k - a) / (b - a)


def _reference_integrate(rhs, t0, y0, t1, tol=1e-10, h0=None, hmin=1e-13,
                         hmax=None, sample_ts=None, events=None, breaks=(),
                         max_steps=2_000_000):
    """The ndarray stepper; rhs may return any sequence, as the tuple one allows.
    An attempt that passes a break of y[0] is taken again, cut where the
    secant of y[0] between its ends meets the break; the cut counts as a
    rejected attempt."""
    user_rhs = rhs
    rhs = lambda t, y: np.array(user_rhs(t, y), dtype=float)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    t = float(t0)
    if t1 <= t0:
        raise NumericError("integrate: need t1 > t0")
    if hmax is None:
        hmax = (t1 - t0) / 16.0
    h = h0 if h0 is not None else min(hmax, (t1 - t0) / 100.0)

    res = OdeResult(t=t, y=y)
    if sample_ts is not None:
        sample_ts = np.asarray(sample_ts, dtype=float)
        res.sample_ts = sample_ts
        res.sample_ys = np.empty((sample_ts.size, y.size))
        while res.samples_filled < sample_ts.size and sample_ts[res.samples_filled] <= t:
            res.sample_ys[res.samples_filled] = y
            res.samples_filled += 1

    g_prev = None
    if events:
        g_prev = [g(t, y) for g in events]

    steps = 0
    cut = False
    while t < t1:
        if steps >= max_steps:
            raise NumericError(f"integrate: step budget exhausted at t={t:.6g}")
        h = max(min(h, hmax, t1 - t), hmin)

        y_new, err, d, y_half = _ref_double_step(rhs, t, y, h)
        frac = _ref_break_fraction(breaks, y[0], y_new[0]) if h > hmin else None
        if frac is not None:
            res.rejected += 1
            h *= frac
            continue
        scale = tol * (1.0 + np.max(np.abs(y)))
        if err > scale and h > hmin:
            res.rejected += 1
            h *= max(0.1, 0.9 * (scale / err) ** 0.2)
            continue

        t_new = t + h
        if events:
            g_new = [g(t_new, y_new) for g in events]
            hit = None
            for k, (a, b) in enumerate(zip(g_prev, g_new)):
                if a != 0.0 and a * b <= 0.0:
                    hit = k
                    break
            if hit is not None:
                c = _ref_quintic(rhs, t, y, h, y_half, d, y_new)
                te, ye = _ref_locate_event(c, t, h, y_new, events[hit], g_prev[hit])
                if te < t_new and not cut:
                    cut, h = True, te - t
                    continue
                steps += 1
                if sample_ts is not None:
                    while (res.samples_filled < sample_ts.size
                           and sample_ts[res.samples_filled] <= te):
                        st = sample_ts[res.samples_filled]
                        res.sample_ys[res.samples_filled] = _ref_sample(c, st - t, h)
                        res.samples_filled += 1
                res.t, res.y = te, ye
                res.event_index, res.event_t, res.event_y = hit, te, ye
                res.n_steps = steps
                return res
            g_prev = g_new
        steps += 1

        if sample_ts is not None:
            while (res.samples_filled < sample_ts.size
                   and sample_ts[res.samples_filled] <= t_new + 1e-15 * max(1.0, t_new)):
                st = sample_ts[res.samples_filled]
                if st >= t_new:
                    res.sample_ys[res.samples_filled] = y_new
                else:
                    c = _ref_quintic(rhs, t, y, h, y_half, d, y_new)
                    res.sample_ys[res.samples_filled] = _ref_sample(c, st - t, h)
                res.samples_filled += 1

        t, y = t_new, y_new
        if err > 0.0:
            h *= min(4.0, 0.9 * (scale / err) ** 0.2)
        else:
            h *= 4.0

    res.t, res.y, res.n_steps = t, y, steps
    return res


def _launches(monkeypatch, module, stepper, run):
    """The OdeResults of every launch `run` makes through `module`'s stepper."""
    seen = []

    def recorded(*args, **kwargs):
        seen.append(stepper(*args, **kwargs))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(module, "integrate", recorded)
        run()
    return seen


def _assert_bit_identical(a: OdeResult, b: OdeResult):
    assert (a.n_steps, a.rejected, a.samples_filled) == (b.n_steps, b.rejected, b.samples_filled)
    assert a.t == b.t and a.y.tobytes() == b.y.tobytes()
    assert (a.event_index, a.event_t) == (b.event_index, b.event_t)
    assert (a.event_y is None) == (b.event_y is None)
    if a.event_y is not None:
        assert a.event_y.tobytes() == b.event_y.tobytes()
    assert (a.sample_ys is None) == (b.sample_ys is None)
    if a.sample_ys is not None:
        n = a.samples_filled
        assert a.sample_ts.tobytes() == b.sample_ts.tobytes()
        assert a.sample_ys[:n].tobytes() == b.sample_ys[:n].tobytes()


_TENT_TABLE = "table:" + str(Path(__file__).resolve().parents[1] / "demos" / "tent_table.csv")
_PROFILES = [("abs-sin", math.pi), ("abs-sin", 3.0 * math.pi), ("logistic", 1.0),
             ("cantor:3", 26 / 27)]
# levels a grid scan lands on a few ulps short of the zeros pi and 3 pi; no
# profile ends there, so their launches run directly at slope sqrt(2 F(z))
_NEAR_ZEROS = (3.141592653589779, 9.424777960769353)
_PROFILES += [("abs-sin", z) for z in _NEAR_ZEROS]
# every positive reachable level of the catalog terms, and the tent table's
_PROFILES += [(spec, z) for spec in ("abs-sin", "logistic", "linear-decay", "cantor:3")
              for z in compute_Zf(make(spec)).points if z > 0 and (spec, z) not in _PROFILES]
_PROFILES.append(pytest.param(_TENT_TABLE, 1.0, id="tent_table-1.0"))


@pytest.mark.parametrize("spec, z", _PROFILES)
def test_profile_launch_matches_the_ndarray_stepper(monkeypatch, spec, z):
    nl = make(spec)
    if z in _NEAR_ZEROS:
        slope0 = math.sqrt(2.0 * integral_between(nl, 0.0, z))
        run = lambda: integrate_profile_ode(nl, slope0, np.linspace(0.0, 10.0, 1025), tol=1e-11)
    else:
        run = lambda: compute_profile(nl, z, xi_max=20.0)
    new = _launches(monkeypatch, profile1d, integrate, run)
    ref = _launches(monkeypatch, profile1d, _reference_integrate, run)
    assert len(new) == len(ref) == 1
    _assert_bit_identical(new[0], ref[0])
    if spec == "cantor:3":
        assert new[0].rejected < 100      # steps land on the knots: few retries


def test_retries_share_the_first_stage_on_a_launch_without_breaks(monkeypatch):
    # with its kinks dropped the cantor:3 launch runs into the knots and
    # retries many rejected steps, each from the state's one first stage
    nl = dataclasses.replace(make("cantor:3"), kinks=())
    run = lambda: compute_profile(nl, 26 / 27, xi_max=20.0)
    new = _launches(monkeypatch, profile1d, integrate, run)
    ref = _launches(monkeypatch, profile1d, _reference_integrate, run)
    _assert_bit_identical(new[0], ref[0])
    assert new[0].rejected > 100


@pytest.mark.parametrize("spec, z, eps", [("logistic", 1.0, 0.1),
                                          ("cantor:3", 26 / 27, 0.05)])
def test_bubble_launch_matches_the_ndarray_stepper(monkeypatch, spec, z, eps):
    # the cap's rhs carries the non-autonomous (N - 1)/r v' term
    run = lambda: elliptic.radial_bubble(make(spec), z, eps)
    new = _launches(monkeypatch, elliptic, integrate, run)
    ref = _launches(monkeypatch, elliptic, _reference_integrate, run)
    assert len(new) == len(ref) >= 1
    assert new[-1].event_index == 0       # the cap reached 0
    for a, b in zip(new, ref):
        _assert_bit_identical(a, b)


@pytest.mark.parametrize("sign", [+1, -1])
def test_probe_launch_matches_the_ndarray_stepper(monkeypatch, sign):
    run = lambda: disconnectedness_probe(make("abs-sin"), math.pi, 0.1, sign)
    new = _launches(monkeypatch, profile1d, integrate, run)
    ref = _launches(monkeypatch, profile1d, _reference_integrate, run)
    assert new[0].event_index is not None
    _assert_bit_identical(new[0], ref[0])



# ---------------------------------------------------------------------------
# piecewise-linear terms on one Python float

@pytest.mark.parametrize("level", [1, 3, 6])
def test_scalar_piecewise_path_matches_np_interp(level):
    pl = make(f"cantor:{level}").fn
    knots = pl.xs.tolist()
    pts = (knots
           + [math.nextafter(x, -math.inf) for x in knots]
           + [math.nextafter(x, math.inf) for x in knots]
           + [-1.0, -1e-300, -0.0, 1.5, 1e300, -math.inf, math.inf]
           + np.random.default_rng(level).uniform(-0.1, 1.1, 2000).tolist())
    for x in pts:
        got = pl(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.interp(x, pl.xs, pl.ys).tobytes(), x
    assert math.isnan(pl(math.nan))
    assert isinstance(pl(np.float64(0.5)), np.floating)    # numpy input, numpy path


def test_scalar_piecewise_path_on_a_table():
    pl = nonlinearity.from_table([0.0, 0.25, 1.0, 2.0], [0.5, -1.0, 0.0, 3.0]).fn
    for x in np.linspace(-0.5, 2.5, 301).tolist():
        assert pl(x) == float(np.interp(x, pl.xs, pl.ys))
