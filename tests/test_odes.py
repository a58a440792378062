"""Adaptive RK4 stepper: accuracy, corrected samples, and the one landing rule
by which steps end on events and on kinks of the rhs."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from farfield import nonlinearity, odes, profile1d, sliding
from farfield.errors import InputError, NumericError
from farfield.nonlinearity import compute_Zf, eval_capped, integral_between, make
from farfield.odes import OdeResult, integrate
from farfield.profile1d import compute_profile, disconnectedness_probe


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
    assert len(res.sample_ys) == ts.size
    np.testing.assert_array_equal(res.sample_ts, ts)
    err = np.max(np.abs(res.sample_ys[:, 0] - np.exp(ts)))
    assert err < 1e-9


def test_event_bisection():
    # y = t - 1 crosses zero at exactly t = 1, where the run stops
    res = integrate(lambda t, y: (1.0, 0.0), 0.0, [-1.0, 0.0], 3.0, events=[(0, 0.0)])
    assert res.event_index == 0
    assert abs(res.t - 1.0) < 1e-9
    assert abs(res.y[0]) <= odes._EVENT_SLACK * (1.0 + np.max(np.abs(res.y)))


def test_event_starting_at_zero_does_not_fire():
    # an event does not count from its own level, so a trajectory launched
    # on the zero line runs to completion
    res = integrate(lambda t, y: (1.0, 0.0), 0.0, [0.0, 0.0], 1.0, events=[(0, 0.0)])
    assert res.event_index is None
    assert abs(res.y[0] - 1.0) < 1e-12


def test_reversed_interval_rejected():
    # caller input: a NaN end would return at t0 with no step, and an
    # infinite one would end in a NaN state
    for t1 in (0.0, 1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="need finite t0 < t1"):
            integrate(lambda t, y: (-y[0], 0.0), 1.0, [1.0, 0.0], t1)
    with pytest.raises(InputError, match="need finite t0 < t1"):
        integrate(lambda t, y: (-y[0], 0.0), -math.inf, [1.0, 0.0], 0.0)


def test_step_budget_enforced(monkeypatch):
    monkeypatch.setattr(odes, "_MAX_STEPS", 3)
    with pytest.raises(NumericError, match="step budget exhausted"):
        integrate(lambda t, y: (-y[0], 0.0), 0.0, [1.0, 0.0], 10.0, tol=1e-13)


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


def test_infinite_error_estimate_shrinks_the_step():
    # the 4th rhs call is the first attempt's last full-step stage: an
    # infinite one makes the full step infinite and both half steps finite,
    # so the error estimate is inf, not NaN. An attempt costs 10 calls after
    # the shared k1, so the 2nd and the 12th are each attempt's first, at h/2
    ts = []

    def rhs(t, y):
        ts.append(t)
        return (math.inf if len(ts) == 4 else -y[0]), 0.0

    res = integrate(rhs, 0.0, [1.0, 0.0], 1.0, tol=1e-12)
    assert res.rejected >= 1
    assert ts[11] == odes._SHRINK_MIN * ts[1]
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
        assert len(res.sample_ys) == ts.size
        assert (res.n_steps, res.rejected) == (bare.n_steps, bare.rejected)
        assert res.y.tobytes() == bare.y.tobytes()
        assert calls == res.n_steps + 10 * (res.n_steps + res.rejected) + last


def _counted(fn, n):
    # fn, counting its calls in n[0]
    def wrapped(*args):
        n[0] += 1
        return fn(*args)
    return wrapped


def test_an_event_costs_only_its_cut_attempts():
    # an attempt that passes the event is taken again, cut inside its bracket,
    # and counts as a rejected attempt: a run with an event costs what one
    # without does, n_steps + 10 (n_steps + rejected) rhs calls, plus the end
    # slope of the last step when a sample lies inside it
    rhs = lambda t, y: (y[1], -math.sin(y[0]))
    ts = None
    for last in (0, 1):
        calls = [0]
        res = integrate(_counted(rhs, calls), 0.0, [0.0, 1.9], 30.0, tol=1e-11,
                        sample_ts=ts, events=[(0, 2.0)])
        assert res.event_index == 0
        assert calls[0] == res.n_steps + 10 * (res.n_steps + res.rejected) + last
        ts = [res.t - 1e-9]      # the next run samples inside its last step
    tight = integrate(rhs, 0.0, [0.0, 1.9], 30.0, tol=1e-13, events=[(0, 2.0)])
    assert abs(res.t - tight.t) < 1e-10
    assert abs(res.y[0] - 2.0) < 1e-14


def test_an_event_is_the_last_accepted_step_end():
    # the reported event is the extrapolated state of the run's last step,
    # not a point read off an interpolant
    res = integrate(lambda t, y: (y[1], -math.sin(y[0])), 0.0, [0.0, 1.9], 30.0, tol=1e-11,
                    sample_ts=np.linspace(0.0, 30.0, 301), events=[(0, 2.0)])
    assert res.event_index == 0
    assert res.t == res.step_ts[-1] and res.y[0] == res.step_y0s[-1]
    assert abs(res.y[0] - 2.0) <= odes._EVENT_SLACK * (1.0 + np.max(np.abs(res.y)))
    assert len(res.step_ts) == res.n_steps
    # the samples reached, those up to the event, and no more
    assert res.sample_ts[-1] <= res.t < res.sample_ts[-1] + 0.1
    assert len(res.sample_ts) == len(res.sample_ys)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_the_earliest_crossing_wins(order):
    # y = t crosses 1 before 1.05; a step over both lands on y = 1 whichever
    # event comes first in the list
    levels = [1.05, 1.0]
    res = integrate(lambda t, y: (1.0, 0.0), 0.0, [0.0, 0.0], 3.0,
                    events=[(0, levels[k]) for k in order])
    assert res.event_index == order.index(1)
    assert abs(res.t - 1.0) < 1e-15 and abs(res.y[0] - 1.0) < 1e-15


def test_an_event_wins_a_tie_with_a_kink():
    # the level 1 is both a kink of the rhs and an event: the run stops on it
    # within the event's slack, not at the kink's looser one
    rhs = lambda t, y: (1.0 + abs(y[0] - 1.0), 0.0)
    res = integrate(rhs, 0.0, [0.0, 0.0], 3.0, events=[(0, 1.0)], breaks=(1.0,))
    assert res.event_index == 0
    assert abs(res.y[0] - 1.0) <= odes._EVENT_SLACK * (1.0 + np.max(np.abs(res.y)))
    assert res.step_ts[-1] - res.step_ts[-2] > 1e3 * odes._HMIN


def test_an_event_no_float_state_hits_ends_after_a_few_cuts():
    # g = 1e3 (y^2 - 2) has no float zero: it jumps by 4e-13 between
    # neighbouring floats y. As a level, the crossing is the pair (0, sqrt 2),
    # and the bracket lands within 4 ulp of it on an ordinary step, not on an
    # _HMIN step that creeps past it
    res = integrate(lambda t, y: (1.0, 0.0), 0.0, [0.0, 0.0], 3.0, events=[(0, math.sqrt(2.0))])
    assert res.event_index == 0 and res.t == res.step_ts[-1]
    assert abs(res.y[0] - math.sqrt(2.0)) <= 4.0 * math.ulp(math.sqrt(2.0))
    assert res.step_ts[-1] - res.step_ts[-2] > 1e3 * odes._HMIN
    assert res.rejected <= 2


def test_steps_follow_the_tolerance_not_the_samples():
    # the abs-sin pi launch over the 2,049-node grid to xi = 20 (a probe's
    # route, which reads dense output) steps exactly as the bare launch does
    nl = make("abs-sin")
    slope0 = profile1d.shoot_slope(nl, math.pi)
    res = profile1d._launch(nl, slope0, 20.0, sample_ts=np.linspace(0.0, 20.0, 2049))
    bare = profile1d._launch(nl, slope0, 20.0)
    assert len(res.sample_ys) == 2049 and bare.sample_ys is None
    assert res.n_steps <= 250
    assert (res.n_steps, res.rejected) == (bare.n_steps, bare.rejected)
    assert (res.step_ts, res.step_y0s) == (bare.step_ts, bare.step_y0s)


def test_pendulum_samples_match_a_tighter_run():
    # y'' = -sin y over about five swings of amplitude 1: the quintic samples
    # at tol 1e-11 agree with a tol-1e-13 run's as well as the end states do
    ts = np.linspace(0.0, 30.0, 3001)
    rhs = lambda t, y: (y[1], -math.sin(y[0]))
    coarse = integrate(rhs, 0.0, [1.0, 0.0], 30.0, tol=1e-11, sample_ts=ts)
    fine = integrate(rhs, 0.0, [1.0, 0.0], 30.0, tol=1e-13, sample_ts=ts)
    assert len(coarse.sample_ys) == len(fine.sample_ys) == ts.size
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
# Steps follow the tolerance alone, and a sample strictly inside a step reads
# the step's quintic Hermite interpolant through its start, its corrected
# midpoint y_half - d/30 and its end. Every accepted step's end t and y[0]
# are recorded. Kinks and events are levels: an attempt that passes the
# earliest by more than its slack is cut at the secant's meeting with it,
# and an event's cuts narrow a bracket in h until an end lies within its
# slack, so the run's last step ends at the event.

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


def _ref_first_level(breaks, events, y, y_new, slack):
    # (fraction, event index or None) of the earliest level passed by more
    # than slack: each event (c, level) that y[c] does not start on, and the
    # nearest passed break; an event wins a tie with a break or a later event
    found = [((level - y[c]) / (y_new[c] - y[c]), 0, k) for k, (c, level) in enumerate(events)
             if (y[c] < level and y_new[c] - level > slack)
             or (y[c] > level and level - y_new[c] > slack)]
    frac = _ref_break_fraction(breaks, y[0], y_new[0])
    if frac is not None:
        found.append((frac, 1, None))
    return None if not found else min(found)[::2]


def _reference_integrate(rhs, t0, y0, t1, tol=1e-10, h0=None, hmin=1e-13,
                         hmax=None, sample_ts=None, events=(), breaks=(),
                         max_steps=2_000_000, event_slack=2.0 ** -50):
    """The ndarray stepper; rhs may return any sequence, as the tuple one allows.
    An attempt that passes a break of y[0], or an event's level, by more than
    its slack is taken again, cut where the secant between its ends meets the
    earliest such level; the cut counts as a rejected attempt and a cut that
    ends short of a break is accepted. An event's cuts keep a bracket in h:
    the near end is the start, then each cut ending short that passes the
    error test, the far end each attempt past the level; the next h is the
    regula falsi's, and an end kept twice has its g halved (Illinois). The
    first accepted end past a level or within its slack of it stops the run."""
    user_rhs = rhs
    rhs = lambda t, y: np.array(user_rhs(t, y), dtype=float)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    t = float(t0)
    if not -math.inf < t0 < t1 < math.inf:
        raise InputError("integrate: need finite t0 < t1")
    if hmax is None:
        hmax = (t1 - t0) / 16.0
    h = h0 if h0 is not None else min(hmax, (t1 - t0) / 100.0)

    res = OdeResult(t=t, y=y)
    ys = []
    if sample_ts is not None:
        sample_ts = np.asarray(sample_ts, dtype=float)
        while len(ys) < sample_ts.size and sample_ts[len(ys)] <= t:
            ys.append(y)

    near = far = None     # the bracket's ends: dicts of h, g and the event k
    last = None           # the end that moved last, "near" or "far"
    steps = 0
    while t < t1:
        if steps >= max_steps:
            raise NumericError(f"integrate: step budget exhausted at t={t:.6g}")
        h = max(min(h, hmax, t1 - t), hmin)

        y_new, err, d, y_half = _ref_double_step(rhs, t, y, h)
        slack = event_slack * (1.0 + np.max(np.abs(y_new)))
        found = _ref_first_level(breaks, events, y, y_new, slack) if h > hmin else None
        if found is not None and found[1] is None:
            res.rejected += 1
            h *= found[0]
            near = None
            continue
        if found is not None:
            k = found[1]
            c, level = events[k]
            if near is None or near["k"] != k:
                near = dict(k=k, h=0.0, g=y[c] - level)
                far, last = dict(h=h, g=y_new[c] - level), "far"
                h_next = h * found[0]
            else:
                if last == "far":
                    near["g"] *= 0.5
                far, last = dict(h=h, g=y_new[c] - level), "far"
                h_next = near["h"] + (far["h"] - near["h"]) * (near["g"] / (near["g"] - far["g"]))
            if near["h"] < h_next < far["h"]:
                res.rejected += 1
                h = h_next
                continue
        scale = tol * (1.0 + np.max(np.abs(y)))
        if err > scale and h > hmin:
            res.rejected += 1
            h *= max(0.1, 0.9 * (scale / err) ** 0.2)
            near = None
            continue

        hit = None
        if events:
            reached = _ref_first_level((), events, y, y_new, -slack)
            if reached is not None:
                hit = reached[1]
            elif near is not None:
                c, level = events[near["k"]]
                if last == "near":
                    far["g"] *= 0.5
                near.update(h=h, g=y_new[c] - level)
                last = "near"
                h_next = near["h"] + (far["h"] - near["h"]) * (near["g"] / (near["g"] - far["g"]))
                if near["h"] < h_next < far["h"]:
                    res.rejected += 1
                    h = h_next
                    continue
                near = None
        t_new = t + h
        steps += 1
        res.step_ts.append(t_new)
        res.step_y0s.append(y_new[0])

        if sample_ts is not None:
            while (len(ys) < sample_ts.size
                   and sample_ts[len(ys)] <= t_new + 1e-15 * max(1.0, t_new)):
                st = sample_ts[len(ys)]
                if st >= t_new:
                    ys.append(y_new)
                else:
                    c = _ref_quintic(rhs, t, y, h, y_half, d, y_new)
                    ys.append(_ref_sample(c, st - t, h))

        t, y = t_new, y_new
        if hit is not None:
            res.event_index = hit
            break
        if err > 0.0:
            h *= min(4.0, 0.9 * (scale / err) ** 0.2)
        else:
            h *= 4.0

    res.t, res.y, res.n_steps = t, y, steps
    if sample_ts is not None:
        res.sample_ts, res.sample_ys = sample_ts[:len(ys)], np.array(ys).reshape(-1, 2)
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
    assert (a.n_steps, a.rejected) == (b.n_steps, b.rejected)
    assert a.t == b.t and a.y.tobytes() == b.y.tobytes()
    assert a.event_index == b.event_index
    assert np.array(a.step_ts).tobytes() == np.array(b.step_ts).tobytes()
    assert np.array(a.step_y0s).tobytes() == np.array(b.step_y0s).tobytes()
    assert len(a.step_ts) == a.n_steps
    assert (a.sample_ys is None) == (b.sample_ys is None)
    if a.sample_ys is not None:
        assert a.sample_ts.tobytes() == b.sample_ts.tobytes()
        assert a.sample_ys.tobytes() == b.sample_ys.tobytes()


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
        run = lambda: profile1d._launch(nl, slope0, 10.0, sample_ts=np.linspace(0.0, 10.0, 1025))
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


def test_stage_times_match_the_ndarray_stepper():
    # a forced oscillator from a t0 off the binary grid: the rhs reads every
    # stage's time, which the written-out attempt must form as the ndarray
    # stepper does, t + h/2 + h/4 and t + h/2 + h/2 for the second half step
    rhs = lambda t, y: (y[1], math.sin(3.0 * t) - y[0])
    args = (rhs, 0.1, [1.0, 0.0], 7.3)
    kw = dict(tol=1e-11, sample_ts=np.linspace(0.1, 7.3, 37))
    _assert_bit_identical(integrate(*args, **kw), _reference_integrate(*args, **kw))


def _clip_checked(monkeypatch, module, nl, extra=lambda r, y: 0.0):
    # every stage of `module`'s launches against f on the np.clip-ped state,
    # bit for bit; returns the list of the states' V
    seen = []

    def checked(rhs, *args, **kwargs):
        def rhs_checked(t, y):
            got = rhs(t, y)
            assert got == (y[1], -float(eval_capped(nl, y[0])) - extra(t, y)), (t, y)
            seen.append(y[0])
            return got
        return integrate(rhs_checked, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", checked)
    return seen


@pytest.mark.parametrize("spec", ["logistic", "abs-sin", "cantor:3"])
def test_profile_launch_rhs_clips_the_state_to_the_window(monkeypatch, spec):
    nl = make(spec)
    seen = _clip_checked(monkeypatch, profile1d, nl)
    for slope0 in (-1.0, 3.0 * nl.s_max):      # leave [0, s_max] below and above
        profile1d._launch(nl, slope0, 2.0, sample_ts=np.linspace(0.0, 2.0, 9))
    assert min(seen) < 0.0 and max(seen) > nl.s_max


def test_bubble_launch_rhs_clips_the_state_to_the_window(monkeypatch):
    nl = make("logistic")
    seen = _clip_checked(monkeypatch, sliding, nl, lambda r, y: (2 - 1) / r * y[1])
    assert sliding.radial_bubble(nl, 1.0, 0.1).feasible
    assert min(seen) < 0.0      # the stages of the step that holds v = 0


@pytest.mark.parametrize("spec, z, eps", [("logistic", 1.0, 0.1),
                                          ("cantor:3", 26 / 27, 0.05)])
def test_bubble_launch_matches_the_ndarray_stepper(monkeypatch, spec, z, eps):
    # the cap's rhs carries the non-autonomous (N - 1)/r v' term
    run = lambda: sliding.radial_bubble(make(spec), z, eps)
    new = _launches(monkeypatch, sliding, integrate, run)
    ref = _launches(monkeypatch, sliding, _reference_integrate, run)
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


def _cap(spec, z, eps, steps):
    return pytest.param(sliding, lambda: sliding.radial_bubble(make(spec), z, eps), steps,
                        id=f"cap-{spec}")


def _probe(nl, z, delta, sign, steps, **kw):
    return pytest.param(profile1d, lambda: disconnectedness_probe(nl, z, delta, sign, **kw),
                        steps, id=f"probe-{nl.kind}-{z:.6g}-{sign:+d}")


# the CI caps, and probes kicked both ways: abs-sin at pi and, on s_max 20,
# at 3, 5 and 6 pi; the logistic at 1; the demo's cantor:3 level 2/27. Each
# carries the accepted steps its event launch took when a cut that ended
# short was accepted as an ordinary step (and 82 for the abs-sin pi probe
# kicked below, which that rule took 85 steps to creep up on its stall)
_ABS_SIN_20, _CANTOR_3 = make("abs-sin", s_max=20.0), make("cantor:3")
_LANDING_RUNS = [_cap("logistic", 1.0, 0.1, 163), _cap("cantor:3", 26 / 27, 0.05, 517),
                 _cap("abs-sin", 3.0 * math.pi, 0.5, 314)]
_LANDING_RUNS += [_probe(nl, z, delta, sign, steps[sign < 0], **kw) for sign in (1, -1)
                  for nl, z, delta, steps, kw in (
    [(make("abs-sin"), math.pi, 0.1, (82, 82), {}), (make("logistic"), 1.0, 0.1, (58, 55), {}),
     (_CANTOR_3, compute_Zf(_CANTOR_3).points[1], 1e-4, (56, 59), {"xi_max": 60.0})]
    + [(_ABS_SIN_20, k * math.pi, 0.1, steps, {})
       for k, steps in ((3, (149, 153)), (5, (203, 209)), (6, (227, 238)))])]
# their attempts, accepted and rejected, over every launch of the 15 runs
# under that rule
_LANDING_ATTEMPTS = 2909


def _landings(monkeypatch, module, run):
    """(OdeResult, events) of every launch `run` makes through `module`."""
    out = []

    def recorded(rhs, *args, events=(), **kwargs):
        out.append((integrate(rhs, *args, events=events, **kwargs), events))
        return out[-1][0]

    monkeypatch.setattr(module, "integrate", recorded)
    run()
    return out


@pytest.mark.parametrize("module, run, steps", _LANDING_RUNS)
def test_probe_and_cap_events_land_on_their_zero(monkeypatch, module, run, steps):
    # the CI caps and the kicked probes: each event is the last accepted step
    # end, within the event slack of its level, reached on an ordinary step
    # rather than an _HMIN step, in no more accepted steps than listed
    landed = [(res, events) for res, events in _landings(monkeypatch, module, run)
              if res.event_index is not None]
    assert len(landed) == 1
    res, events = landed[0]
    c, level = events[res.event_index]
    assert res.t == res.step_ts[-1] and res.y[0] == res.step_y0s[-1]
    assert abs(res.y[c] - level) <= odes._EVENT_SLACK * (1.0 + np.max(np.abs(res.y)))
    assert res.step_ts[-1] - res.step_ts[-2] > 1e3 * odes._HMIN
    assert res.n_steps <= steps


def test_landing_runs_take_no_more_attempts_than_listed(monkeypatch):
    attempts = 0
    for param in _LANDING_RUNS:
        module, run, _ = param.values
        attempts += sum(res.n_steps + res.rejected
                        for res, _ in _landings(monkeypatch, module, run))
    assert attempts <= _LANDING_ATTEMPTS


# ---------------------------------------------------------------------------
# piecewise-linear terms on one Python float

_TABLE = ([0.0, 0.25, 1.0, 2.0], [0.5, -1.0, 0.0, 3.0])


def _float_path(nl):
    # the closure the launches call, np.interp's formula on one float
    f = nonlinearity.scalar_fn(nl)
    assert f is not nl.fn
    return f


@pytest.mark.parametrize("level", [1, 3, 6])
def test_scalar_piecewise_path_matches_np_interp(level):
    nl = make(f"cantor:{level}")
    pl = nl.fn
    knots = pl.xs.tolist()
    pts = (knots
           + [math.nextafter(x, -math.inf) for x in knots]
           + [math.nextafter(x, math.inf) for x in knots]
           + [-1.0, -1e-300, -0.0, 1.5, 1e300, -math.inf, math.inf]
           + np.random.default_rng(level).uniform(-0.1, 1.1, 2000).tolist())
    f = _float_path(nl)
    for x in pts:
        got = f(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.interp(x, pl.xs, pl.ys).tobytes(), x
    assert math.isnan(f(math.nan))
    assert isinstance(pl(0.5), np.floating)    # the term's fn is np.interp itself


def test_scalar_piecewise_path_on_a_table():
    nl = nonlinearity.from_table(*_TABLE)
    pl = nl.fn
    f = _float_path(nl)
    for x in np.linspace(-0.5, 2.5, 301).tolist():
        assert f(x) == float(np.interp(x, pl.xs, pl.ys))


@pytest.mark.parametrize("name", ["logistic", "abs-sin", "linear-decay", "cantor:1",
                                  "cantor:3", "cantor:6", "table"])
def test_scalar_f_maps_a_float_to_a_float(name):
    # the launches' rhs negate the scalar f's value with no float() around it
    nl = nonlinearity.from_table(*_TABLE) if name == "table" else make(name)
    f = nonlinearity.scalar_fn(nl)
    pts = (np.linspace(0.0, nl.s_max, 1001).tolist() + list(nl.kinks)
           + list(nl.zeros[0]) + [v for iv in nl.zeros[1] for v in iv])
    for x in pts:
        got = f(x)
        assert type(got) is float, (x, type(got))
        assert got == pytest.approx(float(nl.fn(np.array(x))), rel=0.0, abs=1e-15), x
