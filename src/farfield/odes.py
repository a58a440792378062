"""Classical 4th-order Runge-Kutta with step doubling, landing on events and kinks.

Deliberately hand-rolled: the 1-D profiles are built by inverting xi(V)
and then cross-checked against this integrator, so the two routes must not
share code with any library solver. Step control is the textbook scheme:
take one full step and two half steps, compare, accept when the difference
passes the tolerance, and use the extrapolated (locally 5th-order) value.
Each accepted step appends its end t and y[0], an extrapolated state, to
`OdeResult.step_ts` and `step_y0s`.

A sample time strictly inside an accepted step [t, t + h] reads the step's
quintic Hermite interpolant (dense output; Hairer, Norsett and Wanner,
Solving ODEs I, II.6), which matches value and slope at the start, at the
end and at the midpoint, where y_half - d/30 with d = y_big - y_fine carries
the step's measured local error (C s^5 at s = h/2, when the doubling
measures C h^5 = 16/15 d). Every slope is a stage the run computes anyway.

Kinks and events are levels that a component of y crosses. One routine,
`_first_pass`, finds the earliest level an attempt passes by more than its
slack; the attempt is taken again, cut where the secant between its ends
meets that level (Gear and Osterby, ACM TOMS 10, 1984), which costs no rhs
call and counts as a rejected attempt. A kink is a level of y[0] where the
rhs has a kink (`breaks`), with slack _BREAK_SLACK: step doubling
under-reads the error of a step across one, so a cut that ends short is
accepted and the next step starts on the kink. An event (c, level) has
slack _EVENT_SLACK (1 + max|y|) and wins a tie with a kink; the first
accepted step that ends past its level or within the slack of it ends the
run. Its cuts keep a bracket in h from the fixed start: the near end is the
start, then each cut that ends short and passes the error test; the far
end is each attempt past the level. The next h is the regula falsi's with
the Illinois halving (Dowell and Jarratt, BIT 11, 1971). A failed error
test drops the bracket, and an h that would leave it takes the attempt.

The state is exactly two Python floats, and a whole attempt (full step,
two half steps, error estimate, extrapolated state) is written out on them
in the loop, a frame that calls only the rhs: for these small systems
frames and state building, not arithmetic, are what a step spends. The rhs
value at a state, the first RK4 stage, is shared by every attempt from it
and by the interpolant of the step before it. A run costs n_steps +
10 (n_steps + rejected) rhs calls, plus 1 when the last step holds a sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError

_SAFETY = 0.9
_GROW_MAX = 4.0
_SHRINK_MIN = 0.1
_HMIN = 1e-13         # smallest step; a step this small is always accepted
_BREAK_SLACK = 1e-9   # an attempt may end this far past a kink of y[0]
_EVENT_SLACK = 2.0 ** -50  # and this far times 1 + max|y| from an event's level
_MAX_STEPS = 2_000_000  # accepted steps before a run is a NumericError


@dataclass
class OdeResult:
    """One run: where it ended (on the event it stopped on, if any), the
    samples it reached (sample_ts cut to match) and every step end."""
    t: float                      # time integration actually ended at
    y: np.ndarray                 # state there
    sample_ts: np.ndarray | None = None
    sample_ys: np.ndarray | None = None   # shape (len(sample_ts), 2)
    event_index: int | None = None
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


def _first_pass(breaks, events, y, y_new, side):
    """(secant fraction, event index or None for a kink) of the earliest level
    y[c] passes from y to y_new by more than side * its slack (side -1: ends
    past it or within the slack), or None. A step that starts on a level (a
    kink: within _BREAK_SLACK of it) does not pass it; an event wins a tie."""
    best = None
    if events:
        slack = side * _EVENT_SLACK * (1.0 + max(abs(y_new[0]), abs(y_new[1])))
        for k, (c, level) in enumerate(events):
            a, b = y[c], y_new[c]
            if (b - level > slack if a < level else a > level and level - b > slack):
                frac = (level - a) / (b - a)
                if best is None or frac < best[0]:
                    best = frac, k
    a, b = y[0], y_new[0]
    if b > a:
        i = bisect_right(breaks, a + _BREAK_SLACK)
        if i == len(breaks) or breaks[i] >= b - _BREAK_SLACK:
            return best
    else:
        i = bisect_left(breaks, a - _BREAK_SLACK) - 1
        if i < 0 or breaks[i] <= b + _BREAK_SLACK:
            return best
    frac = (breaks[i] - a) / (b - a)
    return (frac, None) if best is None or frac < best[0] else best


def _illinois(land, events, h, y_new, far):
    """Move the far (or near) end of the bracket [event, near [h, g], far [h, g],
    far end moved last] to the attempt, halve the other end's g if this end
    moved last time too, and return the regula falsi's next h."""
    c, level = events[land[0]]
    if land[3] == far:
        land[1 if far else 2][1] *= 0.5
    land[2 if far else 1], land[3] = [h, y_new[c] - level], far
    (h0, g0), (h1, g1) = land[1:3]
    return h0 + (h1 - h0) * (g0 / (g0 - g1))


def integrate(rhs, t0, y0, t1, tol=1e-10, h0=None, sample_ts=None, events=(),
              breaks=()):
    """Integrate y' = rhs(t, y) from t0 to t1 (t0 < t1, both finite; else InputError).

    y0: exactly two floats (else InputError); rhs gets a tuple of two, returns two.
    sample_ts: increasing times in [t0, t1], which do not limit the step: one
    strictly inside an accepted step reads its quintic, one on its end its
    state; the result holds those the run reached, `sample_ts` cut to match.
    events: (c, level) pairs; the run stops where y[c] first crosses a level
    it does not start on, landed within _EVENT_SLACK (1 + max|y|) of it as
    the last accepted step end, and `event_index` names the pair.
    breaks: sorted values of y[0] where the rhs has a kink; an attempt that
    passes one by more than _BREAK_SLACK is taken again, cut at it.
    A NaN state raises NumericError naming t, and so does a run past
    _MAX_STEPS accepted steps; steps are at most (t1 - t0)/16.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (2,):
        raise InputError(f"integrate: y0 has shape {y0.shape}; a state of two floats is needed")
    if not -math.inf < t0 < t1 < math.inf:
        raise InputError(f"integrate: need finite t0 < t1, got t0={t0!r}, t1={t1!r}")
    y, t, t1 = tuple(y0.tolist()), float(t0), float(t1)
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

    end_t, end_y0 = res.step_ts.append, res.step_y0s.append
    k1 = land = None            # land: the bracket of the event being landed
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
        passed = h > _HMIN and (breaks or events) and _first_pass(breaks, events, y, y_new, 1.0)
        if passed:
            frac, k = passed
            h_next = h * frac
            if k is None:       # a kink: the cut is accepted if it ends short
                land = None
            elif land is not None and land[0] == k:
                h_next = _illinois(land, events, h, y_new, True)
            else:
                c, level = events[k]
                land = [k, [0.0, y[c] - level], [h, y_new[c] - level], True]
            if land is None or land[1][0] < h_next < land[2][0]:
                res.rejected += 1
                h = h_next
                continue
        scale = tol * (1.0 + max(abs(a), abs(b)))
        if err > scale and h > _HMIN:
            res.rejected += 1
            h, land = h * max(_SHRINK_MIN, _SAFETY * (scale / err) ** 0.2), None
            continue

        hit = None
        if events:      # reached: ended past a level or within the slack of it
            passed = _first_pass((), events, y, y_new, -1.0)
            if passed:
                hit = passed[1]
            elif land is not None:      # short of the level: the near end moves
                h_next = _illinois(land, events, h, y_new, False)
                if land[1][0] < h_next < land[2][0]:
                    res.rejected += 1
                    h = h_next
                    continue
                land = None
        t_new = t + h
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
            res.event_index = hit
            break
        if err > 0.0:
            h *= min(_GROW_MAX, _SAFETY * (scale / err) ** 0.2)
        else:
            h *= _GROW_MAX

    res.t, res.y, res.n_steps = t, np.array(y), len(res.step_ts)
    if sample_ts is not None:
        res.sample_ts, res.sample_ys = res.sample_ts[:filled], np.array(ys).reshape(-1, 2)
    return res
