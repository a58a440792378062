"""Monotone 1-D limit profiles rising from 0 to a reachable zero of f.

The profile solves V'' + f(V) = 0 with V(0) = 0, V nondecreasing, V -> z,
which pins the launch slope to sqrt(2 F(z)) and gives the first integral
W^2 = 2 (F(z) - F(V)). Construction inverts

    xi(V) = integral_0^V  dsigma / sqrt(2 (F(z) - F(sigma)))

on a mesh graded toward V = z (log approach) that breaks at f's kinks, as
QUADPACK's QAGP takes its break points, so no segment crosses a kink. Each
term carries xi(V) in closed form (`nl.xi`), so nothing here integrates.
The slopes W at the nodes are one slab integral from the node array up to
the scalar z, the route on which `integral_between` calls `gap_fn` once.
The profile on its uniform grid is the cubic Hermite interpolant of the
mesh nodes (xi, V) with the exact slopes W, evaluated in numpy bit for bit
as scipy's CubicHermiteSpline would.
Every profile is then cross-checked against a completely separate route,
an RK4 launch of V'' = -f(V) up to where V is _CROSSCHECK_FLOOR below z,
at whose accepted step ends the two must agree to 1e-6 or construction
fails loudly: the check depends on f and z alone, not on the output grid.
The launch steps from kink to kink of f: a step that would carry V past
one of `nl.kinks` (the knots of a piecewise-linear term, k pi for |sin|)
is taken again, cut at it, because step doubling under-reads the error of
a step across a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# bench/tracer.py counts calls to profile1d.quad; nothing here calls it
from scipy.integrate import quad  # noqa: F401

from . import nonlinearity as nlm
from .errors import ConsistencyError, InfeasibleProfileError, InputError
from .grids import format_17g
from .nonlinearity import Nonlinearity, integral_between, zero_set
from .odes import integrate

_CROSSCHECK_TOL = 1e-6
_LAUNCH_TOL = 1e-11   # RK4 tolerance of a profile or probe launch
_EXIT_TOL = 1e-8      # the mesh ends this far below the limit z
# the cross-check launch ends this far below z (at z / 2 if z is smaller),
# before its error, amplified like exp(xi) along the limit, nears the tolerance
_CROSSCHECK_FLOOR = 1e-3
_MESH_LOW = 384       # uniform-in-V part up to 0.9 z
_MESH_TAIL = 384      # geometric approach of the limit


@dataclass(eq=False)
class Profile1D:
    z: float
    slope0: float
    xi: np.ndarray
    values: np.ndarray
    w: np.ndarray
    crosscheck: float = 0.0      # max |xi inversion - RK4 launch| at its step ends
    xi_attained: float = 0.0     # where the mesh reaches z - _EXIT_TOL


def shoot_slope(nl: Nonlinearity, z: float) -> float:
    """Launch slope sqrt(2 F(z)) of the profile ending at z."""
    if not (0.0 <= z <= nl.s_max + 1e-12):
        raise InputError(f"shoot_slope: z={z:g} outside [0, {nl.s_max:g}]")
    if z <= 1e-14:
        if 0.0 not in zero_set(nl):
            raise InfeasibleProfileError("zero profile needs f(0) = 0")
        return 0.0
    if z not in zero_set(nl):
        raise InfeasibleProfileError(f"z={z:.17g} is not a zero of f "
                                     f"(f(z)={float(nlm.eval_capped(nl, z)):.3e})")
    Fz = integral_between(nl, 0.0, z)
    if Fz <= 0.0:
        raise InfeasibleProfileError(f"F(z)={Fz:.3e} <= 0 at z={z:g}: no real launch slope")
    return float(np.sqrt(2.0 * Fz))


def _launch(nl: Nonlinearity, slope0: float, xi_end: float, **kwargs):
    """RK4 integration of V'' = -f(V) from (V, V') = (0, slope0) to xi_end;
    kwargs go to `integrate`. V is clipped to the analysis window in f, so
    overshoot stays defined, and steps land on f's kinks (breaks of V)."""
    # one call into f a stage, V clipped inline to [0, s_max] bit for bit as
    # eval_capped clips (np.clip on a scalar costs more than an RK4 step)
    f, s_max = nlm.scalar_fn(nl), nl.s_max

    def rhs(t, y):
        v = y[0]
        return y[1], -f(0.0 if v < 0.0 else (s_max if v > s_max else v))

    return integrate(rhs, 0.0, (0.0, slope0), xi_end, tol=_LAUNCH_TOL, breaks=nl.kinks, **kwargs)


def _xi_mesh(nl: Nonlinearity, z: float):
    """Graded V-mesh, broken at f's kinks below z - _EXIT_TOL, the slopes W
    there and xi(V) at every node, in the term's closed form."""
    if 0.1 * z <= _EXIT_TOL:
        raise InputError(f"compute_profile: z={z:g} too small for exit_tol={_EXIT_TOL:g}")
    v_low = np.linspace(0.0, 0.9 * z, _MESH_LOW + 1)
    t_hi = np.geomspace(np.sqrt(0.1 * z), np.sqrt(_EXIT_TOL), _MESH_TAIL + 1)
    kinks = [k for k in nl.kinks if k < z - _EXIT_TOL]
    v_mesh = np.unique(np.concatenate((v_low, z - t_hi[1:] ** 2, kinks)))
    # of two nodes within rounding (a sliver segment) the second goes, unless
    # it is a kink and the first is neither a kink nor 0: the kinks all stay
    close, fixed = np.diff(v_mesh) <= 1e-12 * z, np.isin(v_mesh, (0.0, *kinks))
    first_goes = close & fixed[1:] & ~fixed[:-1]
    v_mesh = v_mesh[~np.append(first_goes, False) & ~np.insert(close & ~first_goes, 0, False)]

    gaps = integral_between(nl, v_mesh, z)
    if np.any(gaps[:-1] <= 0.0):
        bad = v_mesh[:-1][gaps[:-1] <= 0.0][0]
        raise InfeasibleProfileError(
            f"profile to z={z:g} is non-attaining: F(z) - F({bad:g}) <= 0 below z")
    if gaps[-1] <= 0.0:
        raise InfeasibleProfileError(
            f"profile to z={z:g}: first integral vanishes already at z - {_EXIT_TOL:g}")
    w_mesh = np.sqrt(2.0 * gaps)
    return v_mesh, w_mesh, nl.xi(v_mesh, w_mesh, z)


def _hermite(x, y, dydx, xe):
    """The cubic Hermite interpolant of values y and slopes dydx at nodes x,
    evaluated at points xe in [x[0], x[-1]], bit for bit as scipy's
    CubicHermiteSpline: its PPoly coefficients, the cell x[i] <= xe < x[i+1]
    (the last cell closed on the right) and PPoly's power sum, left to right."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1 = t / dx, (slope - dydx[:-1]) / dx - t
    i = np.clip(np.searchsorted(x, xe, side="right") - 1, 0, x.size - 2)
    s = xe - x[i]
    return y[i] + dydx[i] * s + c1[i] * (s * s) + c0[i] * ((s * s) * s)


def compute_profile(nl: Nonlinearity, z: float, xi_max: float = 10.0,
                    n: int = 2048) -> Profile1D:
    """Build the profile ending at z on a uniform grid of n+1 points.

    Inversion of xi(V) is the primary route (the term's closed form at the
    mesh nodes; cubic Hermite inversion with the exact first-integral
    slopes, `_hermite`; the slabs end at z). An independent RK4 launch runs,
    unsampled, to the mesh xi of z - _CROSSCHECK_FLOOR; the largest gap at
    its accepted step ends is stored, and one not at or below
    _CROSSCHECK_TOL, NaN included, is a ConsistencyError. Beyond the xi
    where the mesh reaches z - _EXIT_TOL the profile is clamped there.
    """
    if not 0 < xi_max < math.inf or n < 1:
        raise InputError("compute_profile: need finite xi_max > 0 and n >= 1")
    xi = np.linspace(0.0, xi_max, n + 1)
    slope0 = shoot_slope(nl, z)
    if slope0 == 0.0:      # the zero profile
        zeros = np.zeros_like(xi)
        return Profile1D(0.0, 0.0, xi, zeros, zeros.copy(), 0.0, xi_max)

    v_mesh, w_mesh, xi_nodes = _xi_mesh(nl, z)
    inverse = _hermite(xi_nodes, v_mesh, w_mesh, np.minimum(xi, xi_nodes[-1]))
    values = np.where(xi <= xi_nodes[-1], inverse, v_mesh[-1])
    values = np.maximum.accumulate(np.clip(values, 0.0, v_mesh[-1]))
    w = np.sqrt(2.0 * np.maximum(integral_between(nl, values, z), 0.0))

    # the launch is unstable along the limit (deviations grow like exp(xi)
    # once V hugs z), so it stops while V is still below it by the floor
    level = z - min(_CROSSCHECK_FLOOR, 0.5 * z)
    res = _launch(nl, slope0, float(np.interp(level, v_mesh, xi_nodes)))
    v_quad = _hermite(xi_nodes, v_mesh, w_mesh, np.array(res.step_ts))
    crosscheck = float(np.max(np.abs(v_quad - res.step_y0s)))
    if not crosscheck <= _CROSSCHECK_TOL:
        raise ConsistencyError(
            f"profile construction routes disagree by {crosscheck:.3e} at z={z:g} "
            f"(xi(V) inversion vs direct launch)")

    return Profile1D(float(z), float(slope0), xi, values, w,
                     crosscheck, float(xi_nodes[-1]))


@dataclass(eq=False)
class ProbeReport:
    """Outcome of launching with a perturbed slope (connectedness probe)."""
    z: float
    delta: float
    sign: int
    event: str            # crossed_limit | stalled_below | returned_to_zero | left_window | none
    xi_event: float | None
    v_event: float | None
    w_event: float | None
    xi: np.ndarray
    v: np.ndarray
    w: np.ndarray


def disconnectedness_probe(nl: Nonlinearity, z: float, delta: float, sign: int,
                           xi_max: float = 40.0, n: int = 1024) -> ProbeReport:
    """Launch with slope sqrt(2F(z)) + sign*delta and watch where it fails.

    A positive kick makes the trajectory cross the limit value and keep
    going; a negative kick makes it stall below and turn around. delta = 0
    reproduces the profile itself (event "none"). This is the numerical
    witness that distinct limit values have separated launch slopes.
    """
    if not delta >= 0 or sign not in (-1, 0, 1):
        raise InputError("probe: need delta >= 0 and sign in {-1, 0, 1}")
    if not 0 < xi_max < math.inf or n < 1:
        raise InputError("probe: need finite xi_max > 0 and n >= 1")
    xi = np.linspace(0.0, xi_max, n + 1)
    # reaches the limit value, its slope vanishes below it, it falls back to
    # the floor, it leaves the analysis window
    events = [(0, z), (1, 0.0), (0, 0.0), (0, nl.s_max)]
    names = ("crossed_limit", "stalled_below", "returned_to_zero", "left_window")
    res = _launch(nl, shoot_slope(nl, z) + sign * delta, xi_max, sample_ts=xi, events=events)
    if res.event_index is None:
        event, xe, ve, we = "none", None, None, None
    else:
        event, xe, (ve, we) = names[res.event_index], res.t, res.y.tolist()
    v, w = res.sample_ys.T
    return ProbeReport(float(z), float(delta), int(sign), event, xe, ve, we, xi[:v.size], v, w)


def profile_residual(p: Profile1D, nl: Nonlinearity) -> float:
    """Max |second difference + f(V)| over interior nodes of the profile grid."""
    if p.xi.size < 3:
        raise InputError("profile_residual: need at least 3 nodes")
    h = p.xi[1] - p.xi[0]
    lap = (p.values[:-2] - 2.0 * p.values[1:-1] + p.values[2:]) / (h * h)
    return float(np.max(np.abs(lap + nlm.eval_capped(nl, p.values[1:-1]))))


def save_profile_csv(p: Profile1D, path: str) -> None:
    """Write xi,V,W rows with 17 significant digits (lossless round trip).

    The bytes are those of a `csv.writer` in its default dialect given
    `f"{v:.17g}"` strings: no field needs quoting, and every line ends in
    \r\n. `format_17g` formats every value, and one `%` on a repeated row
    template lays out the file.
    """
    cells = format_17g(np.column_stack((p.xi, p.values, p.w)))
    with open(path, "wb") as fh:
        fh.write(b"xi,V,W\r\n")
        fh.write(b"%s,%s,%s\r\n" * p.xi.size % tuple(cells))
