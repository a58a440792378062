"""Classical 4th-order Runge-Kutta with step doubling, landing on events and kinks.

Deliberately hand-rolled: the 1-D profiles are built by inverting xi(V)
and then cross-checked against this integrator, so the two routes must not
share code with any library solver. Step control is the textbook scheme:
take one full step and two half steps, compare, accept when the difference
passes the tolerance, and use the extrapolated (locally 5th-order) value.
The step size follows the tolerance, the breaks and the events below;
sample times do not cut steps short. Each accepted step appends its end t and y[0] to
`OdeResult.step_ts` and `step_y0s`, extrapolated states with no
interpolation error; `n_steps` is their count.

A sample time strictly inside an accepted step [t, t + h] reads the step's
quintic Hermite interpolant (dense output; Hairer, Norsett and Wanner,
Solving ODEs I, II.6). It matches value and slope at three points: the
start (t, y); the midpoint, where the first half step's state y_half less
d/30 with d = y_big - y_fine carries the step's measured local error at
s = h/2 (a one-step method from a fixed state has local error C s^5 +
O(s^6), and the doubling measures C h^5 = 16/15 d); and the end, the
extrapolated state. Every slope is already known: the start's is the first
stage, the midpoint's is the first stage of the second half step, and the
end's is the next step's first stage, computed early and handed on.

Events and breaks land by one rule: an attempt that passes one is taken
again, cut where the secant between its two ends meets it (Gear and
Osterby, ACM TOMS 10, 1984, locate the discontinuity and restart there).
The secant costs no rhs call, and a cut counts as a rejected attempt.

A break is a value of y[0] where the rhs has a kink. Step doubling
under-reads the error of a step across one, and the controller, growing h
after each accepted step, keeps running into the next. So an attempt whose
end passes a break by more than _BREAK_SLACK is cut at it, and the next
step starts on it.

An event is a function g(t, y) whose sign change stops the run. Once an
attempt passes the error test, every g is evaluated at its end; of those
that changed sign, the one whose secant zero comes first is the event. An
end past that zero by more than _EVENT_SLACK (1 + max|y|) is cut at it, and
the cuts close in on the zero until an end lies within the slack, or until
a cut would not shorten h. The event is then that accepted step's end, an
extrapolated state like every other, and the run stops there. An event
function often marks where the rhs changes form: the logistic radial cap's
v = 0 event sits on the kink of its reaction's clip at 0, where f' drops
from 1 to 0, and the cut steps end on it.

The state is exactly two Python floats, and a whole attempt (full step,
two half steps, error estimate, extrapolated state) is written out on them
in the loop, a frame that calls only the rhs: for these small systems the
interpreter's frames and state building, not the arithmetic, are what a
step spends, and numpy's per-call overhead would cost more still. rhs(t, y)
gets the state as a tuple of two floats and may return any sequence of two
floats. Its value at a state, the first RK4 stage, is computed once and
shared by the full step, the first half step, every retry after a rejected
attempt or a cut, and the interpolant of the step before that state. A run
costs n_steps + 10 (n_steps + rejected) rhs calls, 11 per accepted step and
10 per rejected attempt or cut, plus 1 when the last step holds a sample;
samples cost none, and an event costs only its cut attempts. A step reads
the samples inside it off its quintic as it is accepted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError

_SAFETY = 0.9
_GROW_MAX = 4.0
_SHRINK_MIN = 0.1
_HMIN = 1e-13         # smallest step; a step this small is always accepted
_BREAK_SLACK = 1e-9   # an attempt may end this far past a break of y[0]
_EVENT_SLACK = 2.0 ** -50  # and this far times 1 + max|y| past an event's g = 0
_MAX_STEPS = 2_000_000  # accepted steps before a run is a NumericError


@dataclass
class OdeResult:
    """One run: where it ended, the samples it reached (sample_ts cut to
    match), the event it stopped on, if any, which is its last step end, and
    every accepted step's end t and y[0]."""
    t: float                      # time integration actually ended at
    y: np.ndarray                 # state there
    sample_ts: np.ndarray | None = None
    sample_ys: np.ndarray | None = None   # shape (len(sample_ts), 2)
    event_index: int | None = None
    event_t: float | None = None
    event_y: np.ndarray | None = None
    n_steps: int = 0
    rejected: int = 0
    step_ts: list = field(default_factory=list, repr=False)   # each accepted step's end
    step_y0s: list = field(default_factory=list, repr=False)  # and y[0] there


def _quintic(h, y, k1, y_half, k_half, d, y_new, k_end):
    """Per component, the coefficients in theta = s/h of the quintic through
    (0, y), (1/2, y_half - d/30) and (1, y_new) with slopes h k1, h k_half
    and h k_end there, written out on the two components."""
    (a0, b0), (am, bm), (a1, b1), (pa, pb) = y, y_half, y_new, d
    (fa, fb), (ma, mb), (ga, gb) = k1, k_half, k_end
    da, db, ea, eb = am - pa / 30.0 - a0, bm - pb / 30.0 - b0, a1 - a0, b1 - b0
    fa, fb, ma, mb, ga, gb = h * fa, h * fb, h * ma, h * mb, h * ga, h * gb
    return ((a0, fa, 16.0 * da + 7.0 * ea - 6.0 * fa - ga - 8.0 * ma,
             -32.0 * da - 34.0 * ea + 13.0 * fa + 5.0 * ga + 32.0 * ma,
             16.0 * da + 52.0 * ea - 12.0 * fa - 8.0 * ga - 40.0 * ma,
             -24.0 * ea + 4.0 * fa + 4.0 * ga + 16.0 * ma),
            (b0, fb, 16.0 * db + 7.0 * eb - 6.0 * fb - gb - 8.0 * mb,
             -32.0 * db - 34.0 * eb + 13.0 * fb + 5.0 * gb + 32.0 * mb,
             16.0 * db + 52.0 * eb - 12.0 * fb - 8.0 * gb - 40.0 * mb,
             -24.0 * eb + 4.0 * fb + 4.0 * gb + 16.0 * mb))


def _at(coefs, th):
    """The quintic's state at the step fraction th."""
    return tuple([c0 + th * (c1 + th * (c2 + th * (c3 + th * (c4 + th * c5))))
                  for c0, c1, c2, c3, c4, c5 in coefs])


def _break_fraction(breaks, a, b):
    """The secant's step fraction at the first break that y[0], going from
    a to b, passes by more than _BREAK_SLACK, or None. A break within
    _BREAK_SLACK of a is the one the step starts on."""
    if b > a:
        i = bisect_right(breaks, a + _BREAK_SLACK)
        if i < len(breaks) and breaks[i] < b - _BREAK_SLACK:
            return (breaks[i] - a) / (b - a)
    else:
        i = bisect_left(breaks, a - _BREAK_SLACK) - 1
        if i >= 0 and breaks[i] > b + _BREAK_SLACK:
            return (breaks[i] - a) / (b - a)
    return None


def integrate(rhs, t0, y0, t1, tol=1e-10, h0=None, sample_ts=None, events=None,
              breaks=()):
    """Integrate y' = rhs(t, y) from t0 to t1 (t1 > t0).

    y0: a sequence of exactly two floats; any other shape raises InputError.
    rhs and the event functions get the state as a tuple of two floats; rhs
    returns a sequence of two floats.
    sample_ts: increasing times inside [t0, t1]. They do not limit the step:
    one strictly inside an accepted step gets the step's quintic Hermite
    interpolant there, which costs no rhs call (the step's end slope is the
    next step's first stage); one on a step's end gets that step's state.
    The result holds the samples the run reached, `sample_ts` cut to match.
    events: list of scalar functions g(t, y); integration stops at the
    earliest sign change of any of them. An attempt that passes one by more
    than _EVENT_SLACK (1 + max|y|) is taken again, cut at the secant's zero
    of g, so the event is an accepted step end, the last in `step_ts`.
    breaks: sorted values of y[0] where the rhs has a kink; an attempt that
    passes one by more than _BREAK_SLACK is taken again, cut at it.
    A NaN state raises NumericError naming t, and so does a run past
    _MAX_STEPS accepted steps; steps are at most (t1 - t0)/16.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (2,):
        raise InputError(f"integrate: y0 has shape {y0.shape}; a state of two floats is needed")
    y = tuple(y0.tolist())
    t = float(t0)
    if t1 <= t0:
        raise NumericError("integrate: need t1 > t0")
    t1 = float(t1)
    hmax = (t1 - t0) / 16.0
    h = h0 if h0 is not None else min(hmax, (t1 - t0) / 100.0)

    res = OdeResult(t=t, y=np.array(y))
    filled = n_samples = 0
    if sample_ts is not None:
        res.sample_ts = np.asarray(sample_ts, dtype=float)
        sample_ts = res.sample_ts.tolist()
        n_samples = len(sample_ts)
        filled = bisect_right(sample_ts, t)
    ys = [y] * filled           # the samples reached, as tuples

    g_prev = None
    if events:
        g_prev = [g(t, y) for g in events]

    end_t, end_y0 = res.step_ts.append, res.step_y0s.append
    k1 = None
    while t < t1:
        if len(res.step_ts) >= _MAX_STEPS:
            raise NumericError(f"integrate: step budget exhausted at t={t:.6g}")
        h = max(min(h, hmax, t1 - t), _HMIN)

        if k1 is None:
            k1 = rhs(t, y)
        # the attempt: one RK4 step of h and two of h/2 from (t, y)
        a, b = y
        p1, q1 = k1
        hh = 0.5 * h
        p2, q2 = rhs(t + hh, (a + hh * p1, b + hh * q1))
        p3, q3 = rhs(t + hh, (a + hh * p2, b + hh * q2))
        p4, q4 = rhs(t + h, (a + h * p3, b + h * q3))
        h6 = h / 6.0
        big_a = a + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        big_b = b + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        hq = 0.5 * hh
        p2, q2 = rhs(t + hq, (a + hq * p1, b + hq * q1))
        p3, q3 = rhs(t + hq, (a + hq * p2, b + hq * q2))
        p4, q4 = rhs(t + hh, (a + hh * p3, b + hh * q3))
        h6 = hh / 6.0
        y_half = ma, mb = (a + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
                           b + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4))
        pm, qm = k_half = rhs(t + hh, y_half)
        p2, q2 = rhs(t + hh + hq, (ma + hq * pm, mb + hq * qm))
        p3, q3 = rhs(t + hh + hq, (ma + hq * p2, mb + hq * q2))
        p4, q4 = rhs(t + hh + hh, (ma + hh * p3, mb + hh * q3))
        fine_a = ma + h6 * (pm + 2.0 * p2 + 2.0 * p3 + p4)
        fine_b = mb + h6 * (qm + 2.0 * q2 + 2.0 * q3 + q4)
        d = da, db = big_a - fine_a, big_b - fine_b
        ea, eb = abs(da), abs(db)
        total = ea + eb             # NaN if either is; max can skip one
        err = ((eb if eb > ea else ea) if total == total else total) / 15.0
        y_new = (fine_a - da / 15.0, fine_b - db / 15.0)
        if err != err:
            raise NumericError(f"integrate: NaN state in the step from t={t:.6g}")
        if breaks and h > _HMIN:
            frac = _break_fraction(breaks, a, y_new[0])
            if frac is not None:
                res.rejected += 1
                h *= frac
                continue
        scale = tol * (1.0 + max(abs(a), abs(b)))
        if err > scale and h > _HMIN:
            res.rejected += 1
            h *= max(_SHRINK_MIN, _SAFETY * (scale / err) ** 0.2)
            continue

        t_new = t + h
        hit = None
        if events:
            # of the events that changed sign, the one whose secant zero comes first
            g_new = [g(t_new, y_new) for g in events]
            for k, (g0, g1) in enumerate(zip(g_prev, g_new)):
                if g0 != 0.0 and g0 * g1 <= 0.0 and (hit is None or g0 / (g0 - g1) < frac):
                    hit, frac = k, g0 / (g0 - g1)
            if hit is not None:
                slack = _EVENT_SLACK * (1.0 + max(abs(y_new[0]), abs(y_new[1])))
                if abs(g_new[hit]) > slack and max(h * frac, _HMIN) < h:
                    res.rejected += 1
                    h *= frac
                    continue
            g_prev = g_new
        end_t(t_new)
        end_y0(y_new[0])

        k_end = None
        if filled < n_samples:
            # samples before t_new read the quintic; those on the end, the end state
            inner = bisect_left(sample_ts, t_new, filled)
            end = bisect_right(sample_ts, t_new + 1e-15 * max(1.0, t_new), inner)
            if inner > filled:
                k_end = rhs(t_new, y_new)
                coefs = _quintic(h, y, k1, y_half, k_half, d, y_new, k_end)
                ys += [_at(coefs, (s - t) / h) for s in sample_ts[filled:inner]]
            ys += [y_new] * (end - inner)
            filled = end

        t, y, k1 = t_new, y_new, k_end
        if hit is not None:
            res.event_index, res.event_t, res.event_y = hit, t, np.array(y)
            break
        if err > 0.0:
            h *= min(_GROW_MAX, _SAFETY * (scale / err) ** 0.2)
        else:
            h *= _GROW_MAX

    res.t, res.y, res.n_steps = t, np.array(y), len(res.step_ts)
    if sample_ts is not None:
        res.sample_ts, res.sample_ys = res.sample_ts[:filled], np.array(ys).reshape(-1, 2)
    return res
