"""Batched adaptive Gauss-Kronrod quadrature of xi(V): the oracle of the
closed forms that every term carries as `Nonlinearity.xi`.

xi(V) = integral_0^V dsigma / sqrt(2 (F(z) - F(sigma))) on each mesh
segment, all segments together, by QUADPACK's qk21 rule and error estimate,
the endpoint softened by sigma = z - t^2 and the first segment by
sigma = u^2 (for f(0) > 0), under a slope-weighted error budget. It needs
only the term's slab integral, so it is independent of every closed form.
`oracle(nl)` is a copy of the term whose xi is this quadrature, for
`compute_profile`.
"""

import dataclasses

import numpy as np

from farfield.errors import NumericError
from farfield.nonlinearity import Nonlinearity, integral_between

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


def quadrature_xi(nl: Nonlinearity, v_mesh, w_mesh, z: float):
    """xi at the mesh nodes v_mesh (from 0, broken at f's kinks, W = w_mesh
    there) by Gauss-Kronrod on every segment."""
    a, b = v_mesh[:-1], v_mesh[1:]
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
    return xi_nodes


def oracle(nl: Nonlinearity) -> Nonlinearity:
    """The term nl with its xi taken by quadrature instead of closed form."""
    return dataclasses.replace(nl, xi=lambda v, w, z: quadrature_xi(nl, v, w, z))
