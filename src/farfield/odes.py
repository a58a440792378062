"""Classical 4th-order Runge-Kutta with step doubling and event location.

Deliberately hand-rolled: the 1-D profiles are built by quadrature and then
cross-checked against this integrator, so the two routes must not share code
with any library solver. Step control is the textbook scheme: take one full
step and two half steps, compare, accept when the difference passes the
tolerance, and use the extrapolated (locally 5th-order) value. The step size
follows the tolerance and the breaks below; sample times do not cut steps
short.

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

Event location bisects the same interpolant. The first step found to hold
an event is then taken again, cut at the time its quintic gave, and the
event is located on whichever step holds it after that. An event function
often marks where the rhs changes form: the logistic radial cap's v = 0
event sits on the kink of its reaction's clip at 0, where f' drops from 1
to 0. The first quintic takes its end from past that kink; the cut step
ends on it.

A break is a value of y[0] where the rhs has a kink. Step doubling
under-reads the error of a step across one, and the controller, growing h
after each accepted step, keeps running into the next. So an attempt whose
end passes a break by more than _BREAK_SLACK is taken again, cut where the
secant of y[0] between its two ends meets the break; the next step starts
on it (Gear and Osterby, ACM TOMS 10, 1984, locate the discontinuity and
restart there). The secant costs no rhs call, and a cut counts as a
rejected attempt.

The state is exactly two Python floats, and each RK4 stage is written out
on the two scalars: for these small systems the interpreter's cost of
building a state, not the arithmetic, is what a step spends, and numpy's
per-call overhead would cost more still. rhs(t, y) gets the state as a
tuple of two floats and may return any sequence of two floats. Its value
at a state, the first RK4 stage, is computed once and shared by the full
step, the first half step, every retry after a rejected attempt or a cut,
and the interpolant of the step before that state.
Without events a run costs n_steps + 10 (n_steps + rejected) rhs calls, 11
per accepted step and 10 per rejected attempt or cut, plus 1 when the last
step holds a sample; samples cost none. An event inside a step costs 12
more: the 10 calls and the end slope of the step the cut discards, and the
end slope of the step that holds the event. A step records the quintic
coefficients and the sample range of the samples inside it, and one numpy
Horner pass fills them all at the end of the run (or at the event), with
the operations and their order of a Python loop over the samples.
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


def _rk4_step(rhs, t, y, h, k1):
    """One RK4 step of size h from (t, y), whose rhs value k1 is given."""
    a, b = y
    p1, q1 = k1
    hh = 0.5 * h
    p2, q2 = rhs(t + hh, (a + hh * p1, b + hh * q1))
    p3, q3 = rhs(t + hh, (a + hh * p2, b + hh * q2))
    p4, q4 = rhs(t + h, (a + h * p3, b + h * q3))
    h6 = h / 6.0
    return (a + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
            b + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4))


@dataclass
class OdeResult:
    t: float                      # time integration actually ended at
    y: np.ndarray                 # state there
    sample_ts: np.ndarray | None = None
    sample_ys: np.ndarray | None = None   # shape (len(sample_ts), 2)
    event_index: int | None = None
    event_t: float | None = None
    event_y: np.ndarray | None = None
    n_steps: int = 0
    rejected: int = 0
    samples_filled: int = field(default=0, repr=False)


def _double_step(rhs, t, y, h, k1):
    """One h-step vs two h/2-steps; returns (extrapolated y, err_inf,
    y_big - y_fine, y_half, rhs at (t + h/2, y_half))."""
    y_big = _rk4_step(rhs, t, y, h, k1)
    hh = 0.5 * h
    y_half = _rk4_step(rhs, t, y, hh, k1)
    k_half = rhs(t + hh, y_half)
    a, b = _rk4_step(rhs, t + hh, y_half, hh, k_half)
    da, db = y_big[0] - a, y_big[1] - b
    ea, eb = abs(da), abs(db)
    total = ea + eb             # NaN if either is; max can skip one
    err = ((eb if eb > ea else ea) if total == total else total) / 15.0
    return (a - da / 15.0, b - db / 15.0), err, (da, db), y_half, k_half


def _quintic(h, y, k1, y_half, k_half, d, y_new, k_end):
    """Per component, the coefficients in theta = s/h of the quintic through
    (0, y), (1/2, y_half - d/30) and (1, y_new) with slopes h k1, h k_half
    and h k_end there."""
    coefs = []
    for y0, ym, y1, f0, fm, f1, dk in zip(y, y_half, y_new, k1, k_half, k_end, d):
        d1 = ym - dk / 30.0 - y0
        d2 = y1 - y0
        g0, gm, g1 = h * f0, h * fm, h * f1
        coefs.append((y0, g0,
                      16.0 * d1 + 7.0 * d2 - 6.0 * g0 - g1 - 8.0 * gm,
                      -32.0 * d1 - 34.0 * d2 + 13.0 * g0 + 5.0 * g1 + 32.0 * gm,
                      16.0 * d1 + 52.0 * d2 - 12.0 * g0 - 8.0 * g1 - 40.0 * gm,
                      -24.0 * d2 + 4.0 * g0 + 4.0 * g1 + 16.0 * gm))
    return coefs


def _at(coefs, th):
    """The quintic's state at the step fraction th."""
    return tuple([c0 + th * (c1 + th * (c2 + th * (c3 + th * (c4 + th * c5))))
                  for c0, c1, c2, c3, c4, c5 in coefs])


def _locate_event(coefs, t, h, y_new, gfun, g0):
    """Bisect the step for the first sign change of gfun on the quintic."""
    lo, hi = 0.0, h
    y_hi = y_new
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        y_mid = _at(coefs, mid / h)
        if g0 * gfun(t + mid, y_mid) <= 0.0:
            hi, y_hi = mid, y_mid
        else:
            lo = mid
        if hi - lo < 1e-15 * max(1.0, abs(t) + h):
            break
    return t + hi, y_hi


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


def _fill_from_quintics(sample_ys, sample_ts, pending):
    """Fill every recorded step's samples from its quintic by one Horner
    pass: pending holds (first sample, end sample, t, h, coefficients)."""
    if not pending:
        return
    lo, hi, t, h, coefs = (np.array(v) for v in zip(*pending))
    counts = hi - lo
    step = np.repeat(np.arange(lo.size), counts)
    idx = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    th = ((sample_ts[idx] - t[step]) / h[step])[:, None]
    c = coefs[step]                             # (samples, components, 6)
    sample_ys[idx] = c[..., 0] + th * (c[..., 1] + th * (c[..., 2] + th * (
        c[..., 3] + th * (c[..., 4] + th * c[..., 5]))))


def integrate(rhs, t0, y0, t1, tol=1e-10, h0=None, sample_ts=None, events=None,
              breaks=(), max_steps=2_000_000):
    """Integrate y' = rhs(t, y) from t0 to t1 (t1 > t0).

    y0: a sequence of exactly two floats; any other shape raises InputError.
    rhs and the event functions get the state as a tuple of two floats; rhs
    returns a sequence of two floats.
    sample_ts: increasing times inside [t0, t1]. They do not limit the step:
    one strictly inside an accepted step gets the step's quintic Hermite
    interpolant there, which costs no rhs call (the step's end slope is the
    next step's first stage); one on a step's end gets that step's state.
    events: list of scalar functions g(t, y); integration stops at the first
    sign change of any of them, located by bisecting the step's quintic
    (the first step to hold it is taken again, cut at it).
    breaks: sorted values of y[0] where the rhs has a kink; an attempt that
    passes one by more than _BREAK_SLACK is taken again, cut at it.
    A NaN state raises NumericError naming t; steps are at most (t1 - t0)/16.
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
    filled = 0
    n_samples = 0
    if sample_ts is not None:
        res.sample_ts = np.asarray(sample_ts, dtype=float)
        sample_ts = res.sample_ts.tolist()
        n_samples = len(sample_ts)
        res.sample_ys = np.empty((n_samples, 2))
        filled = bisect_right(sample_ts, t)
        res.sample_ys[:filled] = y
    pending = []                # steps whose samples read their quintic

    g_prev = None
    if events:
        g_prev = [g(t, y) for g in events]

    steps = 0
    k1 = None
    cut = False                 # a step holding an event was taken again, cut at it
    while t < t1:
        if steps >= max_steps:
            raise NumericError(f"integrate: step budget exhausted at t={t:.6g}")
        h = max(min(h, hmax, t1 - t), _HMIN)

        if k1 is None:
            k1 = rhs(t, y)
        y_new, err, d, y_half, k_half = _double_step(rhs, t, y, h, k1)
        if err != err:
            raise NumericError(f"integrate: NaN state in the step from t={t:.6g}")
        if breaks and h > _HMIN:
            frac = _break_fraction(breaks, y[0], y_new[0])
            if frac is not None:
                res.rejected += 1
                h *= frac
                continue
        scale = tol * (1.0 + max(abs(y[0]), abs(y[1])))
        if err > scale and h > _HMIN:
            res.rejected += 1
            h *= max(_SHRINK_MIN, _SAFETY * (scale / err) ** 0.2)
            continue

        t_new = t + h
        k_end = coefs = None            # built when a sample or an event needs them
        if events:
            g_new = [g(t_new, y_new) for g in events]
            hit = None
            for k, (a, b) in enumerate(zip(g_prev, g_new)):
                if a != 0.0 and a * b <= 0.0:
                    hit = k
                    break
            if hit is not None:
                coefs = _quintic(h, y, k1, y_half, k_half, d, y_new, rhs(t_new, y_new))
                te, ye = _locate_event(coefs, t, h, y_new, events[hit], g_prev[hit])
                if te < t_new and not cut:
                    cut, h = True, te - t
                    continue
                steps += 1
                end = bisect_right(sample_ts, te, filled) if n_samples else 0
                if end > filled:
                    pending.append((filled, end, t, h, coefs))
                    filled = end
                _fill_from_quintics(res.sample_ys, res.sample_ts, pending)
                res.t, res.y = te, np.array(ye)
                res.event_index, res.event_t, res.event_y = hit, te, res.y
                res.n_steps, res.samples_filled = steps, filled
                return res
            g_prev = g_new
        steps += 1

        if filled < n_samples:
            # samples before t_new read the quintic; those on the end, the end state
            inner = bisect_left(sample_ts, t_new, filled)
            end = bisect_right(sample_ts, t_new + 1e-15 * max(1.0, t_new), inner)
            if inner > filled:
                if coefs is None:
                    k_end = rhs(t_new, y_new)
                    coefs = _quintic(h, y, k1, y_half, k_half, d, y_new, k_end)
                pending.append((filled, inner, t, h, coefs))
            if end > inner:
                res.sample_ys[inner:end] = y_new
            filled = end

        t, y, k1 = t_new, y_new, k_end
        if err > 0.0:
            h *= min(_GROW_MAX, _SAFETY * (scale / err) ** 0.2)
        else:
            h *= _GROW_MAX

    _fill_from_quintics(res.sample_ys, res.sample_ts, pending)
    res.t, res.y, res.n_steps, res.samples_filled = t, np.array(y), steps, filled
    return res
