"""The sliding-method tools of the paper's PDE approach.

That approach rests on the maximum principle, the sliding method
(Berestycki and Nirenberg, Bol. Soc. Brasil. Mat. 22, 1991) and Liouville
results. Sliding moves a compactly supported subsolution under a solution:
if the two never touch along the path, the solution stays above it.

  dirichlet_eigenvalue: the ball's principal Dirichlet eigenvalue
                        (j_nu/R)^2, from Ikebe's tridiagonal route to the
                        Bessel zero j_nu. It falls like R^-2, so where f
                        grows at least linearly off a zero, a small multiple
                        of the eigenfunction on a large ball is a
                        subsolution above that zero;
  radial_bubble       : the radial cap, Delta v + f(v) = 0 on a ball with
                        v = 0 on its sphere; its zero extension slides;
  *_energy            : cap, ramp and constant-level energies over a ball;
                        the ramp's grows like the surface, a level's like
                        its volume;
  sliding_verify      : the cap slid under a solved quarter field, with its
                        margin read at every step.

None of them calls the solver; only `sliding_verify` reads a `Field`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .grids import Field
from .nonlinearity import Nonlinearity, eval_capped, integral_between, scalar_fn
from .odes import integrate

_IKEBE_ORDER = 64             # order of the truncated Ikebe matrix
_EIGEN_N_MAX = 2000           # largest N at which that cut moves j by a few ulp at most
_BUBBLE_R_MAX = 200.0         # radius a cap launch integrates out to
_BUBBLE_TOL = 1e-12           # RK4 tolerance of a cap launch
_RAMP_SHELL_N = 2048          # trapezoid cells across the ramp's unit shell


# ---------------------------------------------------------------------------
# principal Dirichlet eigenvalue of the ball

def dirichlet_eigenvalue(N: int, R: float) -> float:
    """Principal eigenvalue of -Delta on the radius-R ball in R^N: (j/R)^2.

    j is the first positive zero of the Bessel function J_nu, nu = N/2 - 1.
    4/j^2 is the largest eigenvalue of Ikebe's symmetric tridiagonal matrix
    (Math. Comp. 29, 1975), diagonal 2/((nu+2k-1)(nu+2k+1)) and off-diagonal
    1/((nu+2k+1) sqrt((nu+2k)(nu+2k+2))). Cutting it at order _IKEBE_ORDER
    moves j by at most a few ulp for N up to _EIGEN_N_MAX. An eigenvalue
    that is not a positive normal float (R so large that it underflows, or
    so small that it overflows) is a NumericError.
    """
    if not (1 <= N <= _EIGEN_N_MAX and 0 < R < math.inf):
        raise InputError(f"dirichlet_eigenvalue: need 1 <= N <= {_EIGEN_N_MAX} "
                         "and finite R > 0")
    a = N / 2.0 - 1.0 + 2.0 * np.arange(1, _IKEBE_ORDER + 1)      # nu + 2k
    off = 1.0 / ((a[:-1] + 1.0) * np.sqrt(a[:-1] * (a[:-1] + 2.0)))
    T = np.diag(2.0 / ((a - 1.0) * (a + 1.0))) + np.diag(off, 1) + np.diag(off, -1)
    j = 2.0 / math.sqrt(np.linalg.eigvalsh(T)[-1])
    lam = (j / R) * (j / R)
    if not sys.float_info.min <= lam < math.inf:
        raise NumericError(f"dirichlet_eigenvalue: (j/R)^2 = {lam:g} at R = {R:g} "
                           "is not a positive normal float")
    return lam


# ---------------------------------------------------------------------------
# radial cap ("bubble") used as a sliding subsolution

@dataclass(eq=False)
class Bubble:
    z: float
    eps: float
    N: int
    a: float              # center height actually used
    R: float              # radius where the cap hits 0
    r: np.ndarray
    v: np.ndarray
    vp: np.ndarray
    feasible: bool
    bisections: int
    energy: float = math.nan   # cap energy over its own ball (feasible caps)


def radial_bubble(nl: Nonlinearity, z: float, eps: float, N: int = 2) -> Bubble:
    """Radially decreasing cap: v'' + (N-1)/r v' + f(v) = 0, v(0) = a, v'(0) = 0.

    Starts at a = z - eps/2 and integrates outward until v crosses 0 (the cap
    radius). If the trajectory lingers too long near the unstable top and
    fails to cross within _BUBBLE_R_MAX, the start height is bisected down inside
    (z - eps, z). The zero extension of the cap is the sliding comparison
    object; it never exceeds its center height a.
    """
    if not (0 < eps <= z <= nl.s_max):
        raise InputError(f"radial_bubble: need 0 < eps <= z <= s_max = {nl.s_max:g}, "
                         f"got eps={eps:g}, z={z:g}")
    if N < 1:
        raise InputError(f"radial_bubble: need N >= 1, got N={N}")
    sphere_area(N)      # the cap's energy needs it: an N where it overflows fails here
    f, s_max = scalar_fn(nl), nl.s_max

    def shoot(a: float):
        r0 = 1e-8
        fa = eval_capped(nl, a)
        y0 = np.array([a - fa * r0 * r0 / (2.0 * N), -fa * r0 / N])

        def rhs(r, y):
            v = y[0]    # clipped inline as profile1d's launch clips
            return y[1], -f(0.0 if v < 0.0 else (s_max if v > s_max else v)) - (N - 1) / r * y[1]

        grid = np.linspace(r0, _BUBBLE_R_MAX, 4097)
        return integrate(rhs, r0, y0, _BUBBLE_R_MAX, tol=_BUBBLE_TOL, sample_ts=grid,
                         events=[(0, 0.0)], breaks=nl.kinks)

    a = z - 0.5 * eps
    lo = z - eps
    bis = 0
    res = shoot(a)
    while res.event_index is None and bis < 40:
        a = 0.5 * (a + lo)      # move down, away from the slow unstable top
        bis += 1
        res = shoot(a)
    feas = res.event_index is not None
    r, v, vp = res.sample_ts, res.sample_ys[:, 0], res.sample_ys[:, 1]
    if feas:
        R = res.t
        r = np.append(r, R)
        v = np.clip(np.append(v, 0.0), 0.0, None)
        vp = np.append(vp, res.y[1])
    else:
        R = np.inf
    bub = Bubble(float(z), float(eps), int(N), float(a), R, r, v, vp, feas, bis)
    if feas:
        bub.energy = cap_energy(bub, nl, R)
    return bub


def sphere_area(N: int) -> float:
    """Area of the unit sphere in R^N; an overflow is a NumericError."""
    try:
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    except OverflowError:
        raise NumericError(f"unit sphere area in dimension N={N} overflows a float") from None


def ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N; an overflow is a NumericError."""
    try:
        return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
    except OverflowError:
        raise NumericError(f"unit ball volume in dimension N={N} overflows a float") from None


def cap_energy(bub: Bubble, nl: Nonlinearity, r_ball: float) -> float:
    """Energy of the zero-extended cap over the radius-r_ball ball.

    E = int ( |grad v|^2 / 2 + G(v) ) with G(s) = F(z) - F(s), the potential
    gap to the top level. Outside the cap the integrand is the constant
    G(0) = F(z). An energy that is not finite (r^(N-1) or r_ball^N
    overflows for large N) is a NumericError.
    """
    if not bub.feasible:
        raise InputError("cap_energy: cap never closed (not feasible)")
    if r_ball <= 0:
        raise InputError("cap_energy: need r_ball > 0")
    N = bub.N
    rr = bub.r[bub.r <= min(r_ball, bub.R)]
    vv = np.interp(rr, bub.r, bub.v)
    vp = np.interp(rr, bub.r, bub.vp)
    G = integral_between(nl, vv, bub.z)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below if not finite
        dens = (0.5 * vp * vp + G) * rr ** (N - 1)
        E = sphere_area(N) * np.trapezoid(dens, rr)
        if r_ball > bub.R:
            G0 = integral_between(nl, 0.0, bub.z)
            E += G0 * ball_volume(N) * (np.float64(r_ball) ** N - np.float64(bub.R) ** N)
    return _finite_energy(E, "cap", r_ball, N)


def ramp_energy(nl: Nonlinearity, z: float, r_ball: float, N: int = 2) -> float:
    """Energy of the ramp: z inside radius r-1, z*(r - |x|) on the unit shell.
    An energy that is not finite (r^(N-1) overflows) is a NumericError."""
    if r_ball <= 1.0:
        raise InputError("ramp_energy: need r_ball > 1")
    rr = np.linspace(r_ball - 1.0, r_ball, _RAMP_SHELL_N + 1)
    vv = z * (r_ball - rr)
    G = integral_between(nl, vv, z)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below if not finite
        dens = (0.5 * z * z + G) * rr ** (N - 1)
        E = sphere_area(N) * np.trapezoid(dens, rr)
    return _finite_energy(E, "ramp", r_ball, N)


def level_energy(nl: Nonlinearity, z: float, level: float, r_ball: float,
                 N: int = 2) -> float:
    """Energy of the constant state `level` over the radius-r_ball ball.
    An energy that is not finite (r_ball^N overflows) is a NumericError."""
    G = integral_between(nl, level, z)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below if not finite
        E = G * ball_volume(N) * np.float64(r_ball) ** N
    return _finite_energy(E, "level", r_ball, N)


def _finite_energy(E, name: str, r_ball: float, N: int) -> float:
    if not math.isfinite(E):
        raise NumericError(f"{name} energy over radius {r_ball:g} in dimension N={N} "
                           f"is not finite ({E})")
    return float(E)


# ---------------------------------------------------------------------------
# sliding comparison of a cap under a solved field

@dataclass(eq=False)
class SlideReport:
    centers: np.ndarray       # (k, 2) path of cap centers
    margins: np.ndarray       # min over the cap footprint of u - v at each step
    min_margin: float
    implied_floor: float      # cap center height: u >= this along the path if ok
    ok: bool


def sliding_verify(field: Field, bub: Bubble, start, stop, steps: int = 61) -> SlideReport:
    """Translate the cap from start to stop under the field, tracking margins.

    At each center the cap footprint must lie inside the open domain (away
    from the trace column and the floor). The margin is the minimum of
    u(x) - v(|x - c|) over grid nodes in the footprint; all margins positive
    means the field dominates the sliding cap along the whole path, so the
    field exceeds the cap height at every visited center.
    """
    if steps < 1:
        raise InputError("sliding_verify: need steps >= 1")
    if not bub.feasible:
        raise InputError("sliding_verify: cap never closed (not feasible)")
    if field.kind != "quarter":
        raise InputError("sliding_verify expects a quarter-domain field")
    g = field.grid
    start = np.asarray(start, dtype=float)
    stop = np.asarray(stop, dtype=float)
    centers = start[None, :] + np.linspace(0.0, 1.0, steps)[:, None] * (stop - start)
    R = bub.R
    for c in centers:
        if not (c[0] - R > 0 and c[0] + R < g.L1 and c[1] - R > 0 and c[1] + R < g.L2):
            raise InputError(
                f"sliding_verify: footprint of radius {R:g} at ({c[0]:g},{c[1]:g}) "
                "leaves the open domain")

    X1, X2 = np.meshgrid(g.x1_nodes("quarter"), g.x2("quarter"), indexing="ij")
    margins = np.empty(steps)
    for k, c in enumerate(centers):
        d = np.hypot(X1 - c[0], X2 - c[1])
        mask = d <= R
        vcap = np.interp(d[mask], bub.r, bub.v)
        margins[k] = float(np.min(field.values[mask] - vcap))
    mm = float(np.min(margins))
    return SlideReport(centers, margins, mm, float(bub.a), bool(mm > 0.0))
