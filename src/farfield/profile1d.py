"""Monotone 1-D limit profiles rising from 0 to a reachable zero of f.

The profile solves V'' + f(V) = 0 with V(0) = 0, V nondecreasing, V -> z,
which pins the launch slope to sqrt(2 F(z)) and gives the first integral
W^2 = 2 (F(z) - F(V)). Construction inverts

    xi(V) = integral_0^V  dsigma / sqrt(2 (F(z) - F(sigma)))

on a mesh graded toward V = z (log approach) that breaks at f's kinks, as
QUADPACK's QAGP takes its break points, so no segment crosses a kink. Where
f is affine between kinks (`nl.piecewise_linear`: tables, cantor,
linear-decay), W^2 is a quadratic on each segment, whose xi is elementary
(`_affine_xi`). The other terms (logistic, abs-sin) take a batched adaptive
Gauss-Kronrod 10/21 rule (`_integrate_segments`) under a slope-weighted
error budget, the endpoint softened by sigma = z - t^2 and the first
segment by sigma = u^2 (for f(0) > 0).
Every slab integral the profile takes (the integrand's F(z) - F(sigma),
the mesh gaps, the slopes W) runs from an array of nodes up to the scalar
z, the route on which `integral_between` calls the term's `gap_fn` once.
The profile on its uniform grid is the cubic Hermite interpolant of the
mesh nodes (xi, V) with the exact slopes W, evaluated in numpy bit for bit
as scipy's CubicHermiteSpline would.
Every profile is then cross-checked against a completely separate route:
direct RK4 integration of the launch problem. The two must agree to 1e-6
or construction fails loudly. The launch steps from kink to kink of f: a
step that would carry V past one of `nl.kinks` (the knots of a
piecewise-linear term, k pi for |sin|) is taken again, cut at it, because
step doubling under-reads the error of a step across a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# bench/tracer.py counts calls to profile1d.quad; nothing here calls it
from scipy.integrate import quad  # noqa: F401

from . import nonlinearity as nlm
from .errors import ConsistencyError, InfeasibleProfileError, InputError, NumericError
from .grids import format_17g
from .nonlinearity import Nonlinearity, integral_between, zero_set
from .odes import integrate

_CROSSCHECK_TOL = 1e-6
_LAUNCH_TOL = 1e-11   # RK4 tolerance of a profile or probe launch
_EXIT_TOL = 1e-8      # the mesh ends this far below the limit z
# stop comparing once within this distance of the limit: the launch route's
# error is amplified like exp(xi) there, so the window must end while the
# amplification is still a few orders below the check tolerance
_CROSSCHECK_FLOOR = 1e-3
_MESH_LOW = 384       # uniform-in-V part up to 0.9 z
_MESH_TAIL = 384      # geometric approach of the limit
_QUAD_EPSABS = 1e-13  # per mesh segment
_QUAD_EPSREL = 1e-11
_GK_MAX_DEPTH = 16    # bisections of a segment before it is an error
_ERR_BUDGET = 1e-9    # bound on the slope-weighted quadrature error, in V

# Gauss-Kronrod 10/21 (QUADPACK qk21) on [-1, 1]: the Kronrod nodes from the
# right end to the centre with their weights; odd-indexed nodes are also the
# Gauss nodes, with the Gauss weights below
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977134770, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_X21 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W21 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G11 = np.zeros(11)
_G11[1::2] = _WG
_G21 = np.concatenate((_G11[:-1], _G11[::-1]))


@dataclass(eq=False)
class Profile1D:
    z: float
    slope0: float
    xi: np.ndarray
    values: np.ndarray
    w: np.ndarray
    crosscheck: float = 0.0      # max |quadrature route - ODE route|
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


def integrate_profile_ode(nl: Nonlinearity, slope0: float, xi_grid, events=None):
    """Direct RK4 route: integrate V'' = -f(V) from (V, V') = (0, slope0).

    The caller supplies the launch slope: `shoot_slope` for the profile
    itself, or that slope plus a kick for a probe. Returns (V samples, W
    samples, raw ode result). The reaction term is evaluated with its
    argument clipped to the analysis window so overshoot experiments remain
    well defined, and steps land on f's kinks (`nl.kinks`, breaks of V).
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    # one call into f a stage, V clipped inline to [0, s_max] bit for bit as
    # eval_capped clips (np.clip on a scalar costs more than an RK4 step)
    f, s_max = nlm.scalar_fn(nl), nl.s_max

    def rhs(t, y):
        v = y[0]
        return y[1], -f(0.0 if v < 0.0 else (s_max if v > s_max else v))

    res = integrate(rhs, 0.0, (0.0, slope0), float(xi_grid[-1]),
                    tol=_LAUNCH_TOL, sample_ts=xi_grid, events=events, breaks=nl.kinks)
    filled = res.samples_filled
    return res.sample_ys[:filled, 0], res.sample_ys[:filled, 1], res


def _xi_integrand(nl: Nonlinearity, z: float, x, p, q, r):
    """Integrand of xi in the variable x of a segment whose substitution is
    sigma = p + q x + r x^2: (0, 0, 1) is sigma = u^2, (z, 0, -1) is
    sigma = z - t^2 and (0, 1, 0) is sigma itself."""
    sigma = p + q * x + r * x * x
    return np.abs(q + 2.0 * r * x) / np.sqrt(2.0 * integral_between(nl, sigma, z))


def _gk21(fn, lo, hi):
    """QUADPACK's qk21 on every piece [lo_i, hi_i] at once: fn takes the
    (pieces, 21) node array. Returns the Kronrod values and error estimates."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    f = fn(centre[:, None] + half[:, None] * _X21)
    resk = (f * _W21).sum(axis=1)
    resg = (f * _G21).sum(axis=1)
    resabs = (np.abs(f) * _W21).sum(axis=1) * half          # pieces have lo < hi
    resasc = (np.abs(f - 0.5 * resk[:, None]) * _W21).sum(axis=1) * half
    err = np.abs(resk - resg) * half
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * half, np.maximum(50.0 * np.finfo(float).eps * resabs, err)


def _integrate_segments(nl: Nonlinearity, z: float, lo, hi, coef):
    """Integral and error estimate of the xi integrand over every segment
    [lo_k, hi_k] of its own variable, substitution coef[k] = (p, q, r).

    Each pass evaluates all open pieces together; a piece is closed when it
    meets max(epsabs * its share of the segment, epsrel * |its value|), or
    when the bisection that made it did not halve the pair's error (the
    roundoff regime). A segment still open after _GK_MAX_DEPTH bisections
    is a NumericError that names it.
    """
    val = np.zeros(lo.size)
    err = np.zeros(lo.size)
    seg, a, b = np.arange(lo.size), lo, hi
    for depth in range(_GK_MAX_DEPTH + 1):
        c = coef[seg]
        res, e = _gk21(lambda x: _xi_integrand(nl, z, x, c[:, :1], c[:, 1:2], c[:, 2:]), a, b)
        share = (b - a) / (hi[seg] - lo[seg])
        tol = np.maximum(_QUAD_EPSABS * share, _QUAD_EPSREL * np.abs(res))
        done = e <= tol
        if depth:
            # the first half of the pieces are left children, the second right
            m = seg.size // 2
            done |= np.tile(e[:m] + e[m:] > 0.5 * parent_err, 2)
        np.add.at(val, seg[done], res[done])
        np.add.at(err, seg[done], e[done])
        still_open = ~done
        if not still_open.any() or depth == _GK_MAX_DEPTH:
            break
        seg, a, b, parent_err = seg[still_open], a[still_open], b[still_open], e[still_open]
        mid = 0.5 * (a + b)
        seg, a, b = np.tile(seg, 2), np.concatenate((a, mid)), np.concatenate((mid, b))

    if still_open.any():
        k = seg[still_open][0]
        x = np.array((lo[k], hi[k]))
        v = np.sort(coef[k, 0] + coef[k, 1] * x + coef[k, 2] * x * x)
        raise NumericError(f"profile quadrature: mesh segment {k}, V in [{v[0]:.17g}, "
                           f"{v[1]:.17g}], still open after {_GK_MAX_DEPTH} bisections")
    return val, err


def _affine_xi(length, s0, s1, beta):
    """xi across segments of length L where f has slope beta: the integral
    over [0, L] of Q^(-1/2), Q = 2 (F(z) - F) the quadratic with Q'' = -2 beta,
    s0^2 and s1^2 at the ends. It is 2 L/(s0 + s1) g(-beta L^2/(s0 + s1)^2),
    g(y) = artanh(sqrt y)/sqrt y, arctan(sqrt -y)/sqrt -y or 1 (y > 0, < 0, 0),
    with no difference of close numbers."""
    q = length / (s0 + s1)
    r = np.sqrt(np.abs(beta)) * q
    g = np.ones_like(r)
    np.arctanh(r, out=g, where=beta < 0.0)
    np.arctan(r, out=g, where=beta > 0.0)
    np.divide(g, r, out=g, where=beta != 0.0)
    return 2.0 * q * g


def _xi_quadrature_mesh(nl: Nonlinearity, z: float, exit_tol: float):
    """Graded V-mesh, broken at f's kinks below z - exit_tol, and cumulative
    xi(V): in closed form on affine cells, else by quadrature."""
    if 0.1 * z <= exit_tol:
        raise InputError(f"compute_profile: z={z:g} too small for exit_tol={exit_tol:g}")
    v_low = np.linspace(0.0, 0.9 * z, _MESH_LOW + 1)
    t_hi = np.geomspace(np.sqrt(0.1 * z), np.sqrt(exit_tol), _MESH_TAIL + 1)
    kinks = [k for k in nl.kinks if k < z - exit_tol]
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
            f"profile to z={z:g}: first integral vanishes already at z - {exit_tol:g}")
    w_mesh = np.sqrt(2.0 * gaps)

    a, b = v_mesh[:-1], v_mesh[1:]
    if nl.piecewise_linear:     # no segment crosses a kink: f is affine on each
        dxi = _affine_xi(b - a, w_mesh[:-1], w_mesh[1:], nl.slope(0.5 * (a + b), 1))
        return v_mesh, w_mesh, np.concatenate(([0.0], np.cumsum(dxi)))

    # sigma = u^2 kills the 1/sqrt(sigma) start of the first segment when
    # f(0) > 0; sigma = z - t^2 softens the approach of the limit
    tail = a >= 0.9 * z - 1e-15
    lo = np.where(tail, np.sqrt(z - b), a)
    hi = np.where(tail, np.sqrt(z - a), b)
    coef = np.where(tail[:, None], [z, 0.0, -1.0], [0.0, 1.0, 0.0])
    lo[0], hi[0], coef[0] = 0.0, np.sqrt(b[0]), (0.0, 0.0, 1.0)
    val, err = _integrate_segments(nl, z, lo, hi, coef)
    xi_nodes = np.concatenate(([0.0], np.cumsum(val)))

    # Deep in the tail the integrand picks up relative noise eps*z/(z-sigma)
    # from forming z - t^2; a xi error there moves V by only W * dxi, so the
    # budget weights each segment's error by the local slope.
    err_v = float(np.sum(err * w_mesh[:-1]))
    if err_v > _ERR_BUDGET:
        raise NumericError(
            f"profile quadrature: slope-weighted error bound {err_v:.2e} too large")
    return v_mesh, w_mesh, xi_nodes


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

    Quadrature-and-inversion is the primary route (xi(V) exact on affine
    cells, else by Gauss-Kronrod; cubic Hermite inversion with the exact
    first-integral slopes, `_hermite`; the slabs end at z); an independent
    RK4 launch is run on the same grid and the maximum disagreement is
    stored. One not at or below _CROSSCHECK_TOL, NaN included, is a
    ConsistencyError. Beyond the xi where the mesh reaches z - _EXIT_TOL
    the profile is clamped there.
    """
    if not 0 < xi_max < math.inf or n < 1:
        raise InputError("compute_profile: need finite xi_max > 0 and n >= 1")
    xi = np.linspace(0.0, xi_max, n + 1)
    slope0 = shoot_slope(nl, z)
    if slope0 == 0.0:      # the zero profile
        zeros = np.zeros_like(xi)
        return Profile1D(0.0, 0.0, xi, zeros, zeros.copy(), 0.0, xi_max)

    v_mesh, w_mesh, xi_nodes = _xi_quadrature_mesh(nl, z, _EXIT_TOL)
    inverse = _hermite(xi_nodes, v_mesh, w_mesh, np.minimum(xi, xi_nodes[-1]))
    values = np.where(xi <= xi_nodes[-1], inverse, v_mesh[-1])
    values = np.maximum.accumulate(np.clip(values, 0.0, v_mesh[-1]))
    w = np.sqrt(2.0 * np.maximum(integral_between(nl, values, z), 0.0))

    # The launch problem is unstable along the limit (deviations grow like
    # exp(xi) once V hugs z), so the direct route is only compared while the
    # profile is still a fixed distance below its limit. On a grid too coarse
    # to hold two nodes there, both routes are compared at xi = 0 and at the
    # mesh xi where V reaches that distance (half of z when z is smaller).
    n_chk = int(np.searchsorted(values, z - _CROSSCHECK_FLOOR, side="right"))
    if n_chk >= 2:
        at, v_quad = xi[:n_chk], values[:n_chk]
    else:
        level = z - min(_CROSSCHECK_FLOOR, 0.5 * z)
        at = np.array((0.0, np.interp(level, v_mesh, xi_nodes)))
        v_quad = _hermite(xi_nodes, v_mesh, w_mesh, at)
    v_ode, _, _ = integrate_profile_ode(nl, slope0, at)
    crosscheck = float(np.max(np.abs(v_quad[:v_ode.size] - v_ode)))
    if not crosscheck <= _CROSSCHECK_TOL:
        raise ConsistencyError(
            f"profile construction routes disagree by {crosscheck:.3e} at z={z:g} "
            f"(quadrature inversion vs direct launch)")

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
    if delta < 0 or sign not in (-1, 0, 1):
        raise InputError("probe: need delta >= 0 and sign in {-1, 0, 1}")
    xi = np.linspace(0.0, xi_max, n + 1)
    kick = sign * delta

    events = [
        lambda t, y: y[0] - z,            # reaches the limit value
        lambda t, y: y[1],                # slope vanishes below the limit
        lambda t, y: y[0],                # falls back to the floor
        lambda t, y: y[0] - nl.s_max,     # leaves the analysis window
    ]
    names = {0: "crossed_limit", 1: "stalled_below", 2: "returned_to_zero", 3: "left_window"}

    v, w, res = integrate_profile_ode(nl, shoot_slope(nl, z) + kick, xi, events=events)
    if res.event_index is None:
        event, xe, ve, we = "none", None, None, None
    else:
        event = names[res.event_index]
        xe, ve, we = float(res.event_t), float(res.event_y[0]), float(res.event_y[1])
    return ProbeReport(float(z), float(delta), int(sign), event, xe, ve, we,
                       xi[:v.size], v, w)


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
