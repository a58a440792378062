"""Finite-difference solvers for Delta u + f(u) = 0 on truncated domains.

Three domain kinds share one 5-point stencil:

  quarter : [0, L1] x [0, L2], trace at x1 = 0, hard floor u = 0 at x2 = 0,
            zero-flux (mirror ghost) at x1 = L1 and x2 = L2;
  half    : [0, L1] x x2-periodic strip, trace at x1 = 0, zero-flux at
            x1 = L1;
  torus   : periodic in both directions, no boundary data at all.

Unknowns are every node except the trace column and (quarter) the floor row.
On them the Laplacian is the Kronecker sum (T1 kron I + I kron T2) / h^2 of
1-D second differences, each Dirichlet-mirror or periodic.
`assemble_laplacian` builds it once per solve as a sparse matrix L with a
boundary vector b, and it is the only discrete Laplacian here: the flow,
Newton and every residual apply L u + b. It is diagonalized axis by axis,
so `shifted_solver` solves (sigma I - L) x = rhs with no matrix factored:
by dense eigenbasis products on grids of at most _DENSE_MAX_AXIS unknowns
per axis, by sine and Fourier transforms on larger ones.

One relaxation, the semi-implicit flow `flow_relax`, keeps order; each step
is one shifted solve of K - L. `flow_operator` builds its fixed parts once,
so flows that share them (a sweep's trials) assemble nothing more.
`solve_field` builds its three methods from this flow and one damped Newton
iteration, `newton_solve`, whose steps solve with the Jacobian L + diag(f')
through `_factor` (a sparse LU up to _DIRECT_MAX unknowns, bicgstab above);
a test checks that newton and monotone reach the same state on a logistic
quarter:

  newton   : damped Newton on the sparse system, from the start state;
  monotone : the flow run to tol from a supersolution, each step checked
             to descend;
  auto     : the flow run to tol, so the answer is the state the evolution
             selects (this matters when several plateaus exist). Once in
             the basin, a step that does not halve the residual hands the
             state to Newton, which finishes; the handoff is recorded.

The reaction term is always evaluated with its argument clipped to the
analysis window; solutions that finish outside the window are flagged.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.linalg import solve_banded
from scipy.sparse import dia_matrix, diags
from scipy.sparse.linalg import bicgstab, splu

from . import nonlinearity as nlm
from .errors import ConsistencyError, InputError, NumericError
from .grids import Field, Grid2D, _check_kind, as_trace
from .nonlinearity import Nonlinearity, eval_capped, eval_capped_float, integral_between
from .odes import integrate

_DIRECT_MAX = 256 * 256       # unknown count up to which we factorize directly
_DENSE_MAX_AXIS = 64          # shifted solves by dense eigenbasis products up to this
_NEWTON_MAX_ITER = 60
_FPRIME_DELTA = 1e-7          # central-difference step of Newton's f'
_FLOW_MAX_STEPS = 200_000
_FLOW_CONTRACTION = 0.5       # in the basin, a step must cut the residual this much
_LINE_SEARCH_MIN = 1.0 / 1024.0
_WINDOW_SLACK = 1e-8
_EIGEN_MAX_ITER = 400
_BUBBLE_R_MAX = 200.0         # radius a cap launch integrates out to
_BUBBLE_TOL = 1e-12           # RK4 tolerance of a cap launch
_RAMP_SHELL_N = 2048          # trapezoid cells across the ramp's unit shell


# ---------------------------------------------------------------------------
# sparse operator on the unknown vector

def _second_difference(n: int, periodic: bool) -> dia_matrix:
    """1-D second difference with unit spacing on n >= 2 nodes, as DIA.

    Node i couples to i - 1 and i + 1, and entries on one node sum. Periodic
    wraps both ends (on two nodes both neighbours are one node). Otherwise
    the low end is Dirichlet (no entry: the neighbour is data or zero) and
    the high end a mirror ghost, which doubles the inward entry. A DIA
    diagonal d holds the entry (j - d, j) at column j, so the sub- and
    superdiagonal each leave one column empty; offsets ascend.
    """
    lower, upper = np.ones(n), np.ones(n)
    lower[-1] = upper[0] = 0.0
    diagonals = {-1: lower, 0: np.full(n, -2.0), 1: upper}
    if periodic:     # entries (n - 1, 0) and (0, n - 1) close the ring
        for d, j in ((1 - n, 0), (n - 1, n - 1)):
            diagonals.setdefault(d, np.zeros(n))[j] += 1.0
    else:            # node n - 1 sees n - 2 twice
        lower[-2] = 2.0
    offsets = sorted(diagonals)
    return dia_matrix((np.array([diagonals[d] for d in offsets]), offsets),
                      shape=(n, n))


def _kron_sum(T1: dia_matrix, T2: dia_matrix) -> dia_matrix:
    """T1 kron I + I kron T2, diagonal by diagonal.

    A diagonal d of T1 becomes diagonal d * n2, each entry repeated n2
    times; a diagonal d of T2 becomes diagonal d, tiled n1 times. The zero
    padding of a DIA diagonal keeps the tiles from coupling across blocks.
    Offsets are stored in ascending order.
    """
    n1, n2 = T1.shape[0], T2.shape[0]
    d1, d2 = [d * n2 for d in T1.offsets.tolist()], T2.offsets.tolist()
    offsets = sorted(set(d1) | set(d2))
    index = {d: k for k, d in enumerate(offsets)}
    data = np.zeros((len(offsets), n1, n2))
    for d, row in zip(d1, T1.data):
        data[index[d]] += row[:, None]
    for d, row in zip(d2, T2.data):
        data[index[d]] += row
    return dia_matrix((data.reshape(len(offsets), n1 * n2), offsets),
                      shape=(n1 * n2, n1 * n2))


# (x1, x2) periodicity per kind; the other closures are Dirichlet at the
# trace column and the quarter floor, mirror at x1 = L1 and the quarter top
_PERIODIC = {"quarter": (False, False), "half": (False, True), "torus": (True, True)}


def assemble_laplacian(grid: Grid2D, kind: str, trace: np.ndarray | None):
    """Sparse Laplacian L and boundary vector b with Delta u = L u + b.

    This is the one discrete Laplacian: the flow, Newton and every residual
    apply it. L is stored as DIA: on these few-diagonal operators its
    matvec beats CSR.
    Unknown ordering is row-major over (i = 1..n1, j over the x2 nodes that
    are unknowns). L is the Kronecker sum (T1 kron I + I kron T2) / h^2 of
    1-D second differences, one per direction and closure. Mirror ghosts
    double the inward coefficient on zero-flux edges; Dirichlet data lands
    in b, which is the trace row over h^2. The torus wraps both directions
    and has b = 0.
    """
    _check_kind(kind)
    n1, n2, h2 = grid.n1, grid.n2, grid.h * grid.h
    p1, p2 = _PERIODIC[kind]
    T1, T2 = _second_difference(n1, p1), _second_difference(n2, p2)
    L = _kron_sum(T1, T2)
    L.data *= 1.0 / h2        # in place: a scaled copy would double the memory touched
    b = np.zeros(n1 * n2)
    if kind != "torus":
        b[:n2] += (trace[1:] if kind == "quarter" else trace) / h2
    return L, b


def _axis_eigenbasis(n: int, periodic: bool):
    """(Q, Q^-1, mu) with T = Q diag(mu) Q^-1, T = _second_difference(n, periodic).

    A periodic T is symmetric. The mirror row makes the other T
    nonsymmetric, but D T D^-1 with D = diag(1, ..., 1, 1/sqrt 2) is
    symmetric: it is T with sqrt 2 at both (n - 1, n - 2) and (n - 2, n - 1).
    """
    S = _second_difference(n, periodic).toarray()
    if not periodic:
        S[-1, -2] = S[-2, -1] = math.sqrt(2.0)
    mu, V = np.linalg.eigh(S)
    if periodic:
        return V, V.T, mu
    d = np.ones(n)
    d[-1] = math.sqrt(0.5)
    return V / d[:, None], V.T * d, mu


def shifted_solver(grid: Grid2D, kind: str, sigma: float):
    """Solver x = solve(rhs) for (sigma I - L) x = rhs, L from assemble_laplacian.

    L = (T1 kron I + I kron T2) / h^2 is diagonalized axis by axis, so with
    T = Q diag(mu) Q^-1 per axis the solve is Q1 ((Q1^-1 R Q2^-T) / den) Q2^T
    on the unknown block R, den = sigma - (mu1 + mu2) / h^2 (Buzbee, Golub
    and Nielson 1970). Two kernels apply it, chosen by grid size:

      dense     : both axes have at most _DENSE_MAX_AXIS unknowns. Q and
                  Q^-1 are built once per solver by `_axis_eigenbasis`, and
                  a solve is four small matrix products, which on such
                  grids cost less than the transforms' dispatch (one BLAS
                  thread, 2-core x86_64: 17 vs 44-69 us at 32^2, 63 vs
                  87-136 us at 64^2, about equal at 128^2);
      transform : larger grids, by fast transforms (Swarztrauber 1977). A
                  Dirichlet-low, mirror-high axis of n unknowns has
                  eigenvectors sin((2k + 1) pi i / (2n)), i = 1..n, with
                  eigenvalues -4 sin^2((2k + 1) pi / (4n)); dst(type=2)
                  synthesizes them and idst(type=2) analyzes. A periodic
                  axis has Fourier modes with eigenvalues -4 sin^2(pi k / n).

    rhs is the unknown block (n1, n2) or its ravel; x comes back in the same
    shape. No matrix of the grid's size is formed or factored, so the grid
    size has no limit.
    """
    _check_kind(kind)
    n1, n2, h2 = grid.n1, grid.n2, grid.h * grid.h
    p1, p2 = _PERIODIC[kind]

    def eigenvalues(n, periodic, count):
        k = np.arange(count)
        angle = np.pi * k / n if periodic else (2 * k + 1) * np.pi / (4 * n)
        return -4.0 * np.sin(angle) ** 2

    dense = max(n1, n2) <= _DENSE_MAX_AXIS
    if dense:
        Q1, Q1inv, mu1 = _axis_eigenbasis(n1, p1)
        Q2, Q2inv, mu2 = _axis_eigenbasis(n2, p2)
    else:
        # rfft keeps the n // 2 + 1 nonnegative modes of the last periodic
        # axis; on the torus the first axis keeps all n1 of fft's modes
        mu1 = eigenvalues(n1, p1, n1)
        mu2 = eigenvalues(n2, p2, n2 // 2 + 1 if p2 else n2)
    den = sigma - (mu1[:, None] + mu2[None, :]) / h2

    def solve(rhs):
        r = rhs.reshape(n1, n2)
        if dense:
            x = Q1 @ ((Q1inv @ r @ Q2inv.T) / den) @ Q2.T
        elif kind == "torus":
            x = sfft.irfft2(sfft.rfft2(r) / den, s=(n1, n2))
        elif kind == "half":
            c = sfft.rfft(sfft.idst(r, type=2, axis=0), axis=1)
            x = sfft.dst(sfft.irfft(c / den, n=n2, axis=1), type=2, axis=0)
        else:
            x = sfft.dstn(sfft.idstn(r, type=2) / den, type=2)
        return x.reshape(rhs.shape)
    return solve


def _unknown_block(u: np.ndarray, kind: str) -> np.ndarray:
    if kind == "torus":
        return u
    return u[1:, 1:] if kind == "quarter" else u[1:, :]


def _vec(u: np.ndarray, kind: str) -> np.ndarray:
    return _unknown_block(u, kind).ravel()


def _trace_row(u: np.ndarray, kind: str) -> np.ndarray | None:
    return None if kind == "torus" else u[0, :]


def _unvec(v: np.ndarray, u_template: np.ndarray, kind: str) -> np.ndarray:
    u = u_template.copy()
    blk = _unknown_block(u, kind)
    blk[...] = v.reshape(blk.shape)
    return u


def laplacian_full(u: np.ndarray, grid: Grid2D, kind: str) -> np.ndarray:
    """L u + b at the unknown nodes (shape (n1, width)), trace from u[0, :]."""
    blk = _unknown_block(u, kind)
    L, b = assemble_laplacian(grid, kind, _trace_row(u, kind))
    return (L @ blk.ravel() + b).reshape(blk.shape)


def residual_max(nl: Nonlinearity, u: np.ndarray, grid: Grid2D, kind: str) -> float:
    lap = laplacian_full(u, grid, kind)
    return float(np.max(np.abs(lap + eval_capped(nl, _unknown_block(u, kind)))))


def _fprime_numeric(nl: Nonlinearity, v: np.ndarray) -> np.ndarray:
    up = eval_capped(nl, v + _FPRIME_DELTA)
    dn = eval_capped(nl, v - _FPRIME_DELTA)
    return (up - dn) / (2.0 * _FPRIME_DELTA)


def _factor(A):
    """Solver x = solve(rhs) for A x = rhs, factored once for many right sides.

    Only Newton uses it, for its Jacobian L + diag(f'); the flow's K - L goes
    to `shifted_solver`. Up to _DIRECT_MAX unknowns this is SuperLU with the
    minimum-degree ordering on A^T + A, which fills about half as much as
    COLAMD on these 5-point matrices; a singular factor is a NumericError.
    Above it each solve runs bicgstab.
    """
    n = A.shape[0]
    if n <= _DIRECT_MAX:
        try:
            return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as e:     # SuperLU: "Factor is exactly singular"
            raise NumericError(f"direct linear solve failed: {e}") from None

    def solve(rhs):
        # bicgstab's breakdown tests are absolute (rho < eps^2), so a small
        # right side, as near convergence, is scaled to unit norm first;
        # mirror ghosts make the stencil nonsymmetric, so no cg here
        scale = float(np.linalg.norm(rhs))
        if scale == 0.0:
            return np.zeros_like(rhs)
        x, info = bicgstab(A, rhs / scale, rtol=1e-10, atol=0.0, maxiter=20 * n)
        if info != 0:
            raise NumericError(f"iterative linear solve failed (info={info})")
        return x * scale
    return solve


# ---------------------------------------------------------------------------
# solvers

def newton_solve(nl: Nonlinearity, grid: Grid2D, kind: str, trace: np.ndarray,
                 u0: np.ndarray, tol: float = 1e-9) -> Field:
    """Damped Newton iteration from u0 (full array, boundary rows included);
    a final residual not at or below tol, NaN included, is a NumericError."""
    L, b = assemble_laplacian(grid, kind, trace)
    v = _vec(u0, kind)

    def res(vv):
        return L @ vv + b + eval_capped(nl, vv)

    r = res(v)
    rn = float(np.max(np.abs(r)))
    it = 0
    while rn > tol and it < _NEWTON_MAX_ITER:
        J = L + diags(_fprime_numeric(nl, v))
        step = _factor(J)(-r)
        lam = 1.0
        while True:
            v_try = v + lam * step
            r_try = res(v_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try <= (1.0 - 0.25 * lam) * rn:
                break
            if lam <= _LINE_SEARCH_MIN:
                # the shortest step is taken if it lowers the residual at all
                if rn_try >= rn:
                    raise NumericError(
                        f"newton line search failed at lambda={lam:g}: residual "
                        f"{rn_try:.3e} at the trial step, {rn:.3e} before it "
                        f"(iteration {it + 1})")
                break
            lam *= 0.5
        v, r, rn = v_try, r_try, rn_try
        it += 1
    if not rn <= tol:
        raise NumericError(f"newton did not reach tol={tol:g}: residual {rn:.3e} "
                           f"after {it} iterations")
    return _finish(nl, _unvec(v, u0, kind), grid, kind, rn,
                   {"method": "newton", "iterations": it})


@dataclass(eq=False)
class FlowOperator:
    """The parts of a flow step fixed by (nl, grid, kind, trace): L and b of
    `assemble_laplacian`, the K - L `shifted_solver`, and the trace row
    they were built from (None on the torus)."""
    L: dia_matrix
    b: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray]
    trace: np.ndarray | None


def flow_operator(nl: Nonlinearity, grid: Grid2D, kind: str,
                  trace: np.ndarray | None) -> FlowOperator:
    """Build the flow's operator once, for any number of flows that share it.

    K = max(Lip f, 1e-6) is the flow's shift: its implicit step solves
    K - L. K at or above the two-sided Lip f keeps v -> K v + f(v)
    nondecreasing and dt = 1/K at or below the reaction's fastest time scale;
    near a zero where f' = -K, one step cancels the error to first order.
    """
    trace = None if trace is None else np.array(trace, dtype=float)
    L, b = assemble_laplacian(grid, kind, trace)
    K = max(nl.lipschitz, 1e-6)
    return FlowOperator(L, b, shifted_solver(grid, kind, K), trace)


def flow_relax(nl: Nonlinearity, u0: np.ndarray, grid: Grid2D, kind: str,
               res_target: float = 1e-3, max_steps: int = _FLOW_MAX_STEPS,
               descend: bool = False, basin: float | None = None,
               op: FlowOperator | None = None):
    """Semi-implicit parabolic flow u_t = Delta u + f(u) until the residual drops.

    Each step solves (K - L) dv = L v + b + f(v), K = max(Lip f, 1e-6):
    implicit Laplacian, explicit reaction, dt = 1/K. The solve is
    `shifted_solver`'s, so no grid size is too large for it.
    K - L is an M-matrix and v -> K v + f(v) is nondecreasing, so ordered
    states stay ordered. With `descend`, a step that rises above 1e-10 (the
    start was no supersolution) is a ConsistencyError. The boundary data
    are read from u0. `op` is a prebuilt `flow_operator` for flows that
    share one (nl, grid, kind, trace), as a sweep's trials do; without it
    the flow builds its own. A u0 whose trace row is not the one `op` was
    built from is a ConsistencyError.

    The flow stops when the max-norm residual is at most res_target, after
    max_steps steps, or, given `basin`, at the first step from a residual at
    or below basin that does not cut it by the factor _FLOW_CONTRACTION: the
    flow has reached the rounding floor, or a state it cannot contract
    (where f' is about 0, as on a flat zero interval of f), and Newton
    should finish. Returns (state, steps, residual, ratio): the residual at
    the state, and its ratio to the previous step's (None before the first
    step). steps == max_steps means the flow stopped at the cap. A NaN or
    infinite residual is a NumericError naming the step.
    """
    trace = _trace_row(u0, kind)
    if op is None:
        op = flow_operator(nl, grid, kind, trace)
    elif not np.array_equal(trace, op.trace):     # None equals only None
        raise ConsistencyError("flow_relax: the start's trace row is not the "
                               "one the flow operator was built from")
    L, b, solve = op.L, op.b, op.solve
    v = _vec(u0, kind).copy()
    abs_rate = np.empty_like(v)       # |rate|, rewritten every step
    rn_prev = ratio = None
    for k in range(max_steps + 1):
        rate = L @ v                  # rate = L v + b + f(v), summed in place
        rate += b
        rate += eval_capped(nl, v)
        rn = float(np.abs(rate, out=abs_rate).max())
        if not math.isfinite(rn):
            raise NumericError(f"flow_relax: non-finite residual at step {k}")
        if k:
            ratio = rn / rn_prev
        stalled = (basin is not None and k and rn_prev <= basin
                   and ratio > _FLOW_CONTRACTION)
        if rn <= res_target or k == max_steps or stalled:
            return _unvec(v, u0, kind), k, rn, ratio
        step = solve(rate)
        if descend and np.max(step) > 1e-10:
            raise ConsistencyError(f"monotone flow lost ordering at step {k} "
                                   f"(worst rise {np.max(step):.3e}): the start "
                                   "is not a supersolution")
        v += step
        rn_prev = rn


def _default_start(grid: Grid2D, kind: str, trace: np.ndarray) -> np.ndarray:
    """Trace extended constantly in x1; floor row zeroed on the quarter."""
    n1 = grid.n1
    u = np.tile(trace, (n1 + 1, 1)).astype(float)
    if kind == "quarter":
        u[:, 0] = 0.0
        u[0, :] = trace
    return u


def _apply_boundary(u: np.ndarray, kind: str, trace: np.ndarray | None) -> np.ndarray:
    u = np.asarray(u, dtype=float).copy()
    if kind == "torus":
        return u
    u[0, :] = trace
    if kind == "quarter":
        u[:, 0] = 0.0
    return u


def _finish(nl: Nonlinearity, u: np.ndarray, grid: Grid2D, kind: str,
            residual: float, meta: dict) -> Field:
    out_low = float(np.min(u))
    out_high = float(np.max(u))
    meta = dict(meta)
    meta["out_of_window"] = bool(out_low < -_WINDOW_SLACK
                                 or out_high > nl.s_max + _WINDOW_SLACK)
    meta["min_value"] = out_low
    meta["max_value"] = out_high
    return Field(u, grid, kind, residual, meta)


def solve_field(nl: Nonlinearity, grid: Grid2D, kind: str, trace,
                method: str = "auto", u0=None, tol: float = 1e-9,
                flow_target: float = 1e-3) -> Field:
    """Solve Delta u + f(u) = 0 on the requested domain kind.

    u0 may be a scalar (constant start), a full array, or None for the
    trace-extension default; a non-finite value in it is an InputError. The
    auto method runs the parabolic flow to tol, so the answer is the state
    the evolution selects. Once the residual is
    at or below flow_target, a flow step that does not cut it by the factor
    _FLOW_CONTRACTION ends the flow, and Newton finishes from that state.
    meta["handoff"] records the flow's residual and step ratio there, and
    is None when the flow reached tol; meta["iterations"] is Newton's count,
    0 when Newton did not run.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"solve_field: tol must be finite and positive, got {tol!r}")
    _check_kind(kind)
    if kind == "torus":
        tr = None
        if u0 is None:
            raise InputError("torus solves need an explicit start state u0")
        shape = (grid.n1, grid.n2)
    else:
        tr = as_trace(trace, grid, kind)
        shape = (grid.n1 + 1, tr.size)
    if u0 is None:
        u = _default_start(grid, kind, tr)
    elif not np.all(np.isfinite(np.asarray(u0, dtype=float))):
        raise InputError("u0 contains non-finite values")
    elif np.isscalar(u0):
        u = _apply_boundary(np.full(shape, float(u0)), kind, tr)
    else:
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != shape:
            raise InputError(f"u0 has shape {u0.shape}, domain wants {shape}")
        u = _apply_boundary(u0, kind, tr)

    if method == "newton":
        f = newton_solve(nl, grid, kind, tr, u, tol=tol)
    elif method == "monotone":
        u_m, steps, res, _ = flow_relax(nl, u, grid, kind, res_target=tol,
                                        max_steps=_FLOW_MAX_STEPS, descend=True)
        if not res <= tol:
            raise NumericError(f"monotone flow did not reach tol={tol:g} "
                               f"in {steps} steps")
        f = _finish(nl, u_m, grid, kind, res,
                    {"method": "monotone", "iterations": steps, "direction": "above"})
    elif method == "auto":
        u_flow, steps, res, ratio = flow_relax(nl, u, grid, kind, res_target=tol,
                                               max_steps=_FLOW_MAX_STEPS,
                                               basin=flow_target)
        if res <= tol:
            f = _finish(nl, u_flow, grid, kind, res, {"iterations": 0, "handoff": None})
        else:
            f = newton_solve(nl, grid, kind, tr, u_flow, tol=tol)
            f.meta["handoff"] = {"residual": res, "ratio": ratio}
        f.meta.update(method="auto", flow_steps=steps,
                      flow_capped=steps == _FLOW_MAX_STEPS)
    else:
        raise InputError(f"unknown method {method!r} (newton | monotone | auto)")
    return f


# ---------------------------------------------------------------------------
# radial Dirichlet eigenpair (drives the truncation-size heuristics)

@dataclass(eq=False)
class EigenResult:
    N: int
    R: float
    value: float
    r: np.ndarray
    phi: np.ndarray
    iterations: int


def dirichlet_eigenpair(N: int, R: float, n: int = 4096) -> EigenResult:
    """Principal eigenvalue of -Delta on the radius-R ball, radial reduction.

    Solves -(phi'' + (N-1)/r phi') = lambda phi, phi'(0) = 0, phi(R) = 0 on a
    uniform radial mesh by inverse power iteration; at r = 0 the operator
    limit Delta phi(0) = N phi''(0) closes the stencil. The eigenvalue is a
    Rayleigh quotient in the r^(N-1)-weighted inner product that makes the
    radial operator self-adjoint. phi is normalized to phi(0) = 1. The
    iteration stops when the weighted residual |A phi - lambda phi| stops
    shrinking, at roundoff; one still shrinking after _EIGEN_MAX_ITER
    iterations is a NumericError.
    """
    if N < 1 or not 0 < R < math.inf or n < 16:
        raise InputError("dirichlet_eigenpair: need N >= 1, finite R > 0, n >= 16")
    hr = R / n
    h2 = hr * hr
    # banded (ab) layout for solve_banded: unknowns phi_0 .. phi_{n-1}
    diag = np.empty(n)
    upper = np.zeros(n)
    lower = np.zeros(n)
    diag[0] = 2.0 * N / h2
    upper[1] = -2.0 * N / h2
    for i in range(1, n):
        c = (N - 1) / (2.0 * i * h2)         # (N-1)/(2 r_i hr) with r_i = i hr
        diag[i] = 2.0 / h2
        if i + 1 < n:
            upper[i + 1] = -(1.0 / h2 + c)
        lower[i - 1] = -(1.0 / h2 - c)
    ab = np.vstack([upper, diag, lower])

    w = (np.arange(n) * hr) ** (N - 1) if N > 1 else np.ones(n)
    w = w.copy()
    w[0] = w[0] if N == 1 else 0.0

    phi = np.ones(n)
    res_old = math.inf
    for it in range(_EIGEN_MAX_ITER):
        phi_new = solve_banded((1, 1), ab, phi)
        phi_new /= np.max(np.abs(phi_new))
        Aphi = _banded_apply(upper, diag, lower, phi_new)
        den = np.sum(w * phi_new * phi_new)
        lam_new = np.sum(w * phi_new * Aphi) / den
        res = math.sqrt(np.sum(w * (Aphi - lam_new * phi_new) ** 2) / den) / lam_new
        # the residual shrinks by about lambda_1/lambda_2 a step until it
        # reaches roundoff; the iterate before it stops shrinking is the answer
        if res >= res_old:
            break
        phi, lam, res_old = phi_new, lam_new, res
    else:
        raise NumericError(f"dirichlet_eigenpair: residual {res:.1e} still shrinking "
                           f"after {_EIGEN_MAX_ITER} iterations")
    r = np.arange(n + 1) * hr
    phi_full = np.empty(n + 1)
    phi_full[:n] = phi / phi[0]
    phi_full[n] = 0.0
    return EigenResult(N, float(R), float(lam), r, phi_full, it)


def _banded_apply(upper, diag, lower, x):
    y = diag * x
    y[:-1] += upper[1:] * x[1:]
    y[1:] += lower[:-1] * x[:-1]
    return y


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

    @property
    def v0(self) -> float:
        return self.a


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

    def shoot(a: float):
        r0 = 1e-8
        fa = eval_capped(nl, a)
        y0 = np.array([a - fa * r0 * r0 / (2.0 * N), -fa * r0 / N])

        def rhs(r, y):
            return y[1], -eval_capped_float(nl, y[0]) - (N - 1) / r * y[1]

        grid = np.linspace(r0, _BUBBLE_R_MAX, 4097)
        res = integrate(rhs, r0, y0, _BUBBLE_R_MAX, tol=_BUBBLE_TOL, sample_ts=grid,
                        events=[lambda r, y: y[0]], breaks=nl.kinks)
        return res, grid

    a = z - 0.5 * eps
    lo = z - eps
    bis = 0
    res, grid = shoot(a)
    while res.event_index is None and bis < 40:
        a = 0.5 * (a + lo)      # move down, away from the slow unstable top
        bis += 1
        res, grid = shoot(a)
    feas = res.event_index is not None
    if feas:
        R = float(res.event_t)
        filled = res.samples_filled
        r = np.concatenate((grid[:filled], [R]))
        v = np.concatenate((res.sample_ys[:filled, 0], [0.0]))
        vp = np.concatenate((res.sample_ys[:filled, 1], [float(res.event_y[1])]))
        v = np.clip(v, 0.0, None)
    else:
        R = np.inf
        filled = res.samples_filled
        r = grid[:filled]
        v = res.sample_ys[:filled, 0]
        vp = res.sample_ys[:filled, 1]
    bub = Bubble(float(z), float(eps), int(N), float(a), R, r, v, vp, feas, bis)
    if feas:
        bub.energy = cap_energy(bub, nl, R)
    return bub


def sphere_area(N: int) -> float:
    from math import gamma, pi
    return 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)


def ball_volume(N: int) -> float:
    from math import gamma, pi
    return pi ** (N / 2.0) / gamma(N / 2.0 + 1.0)


def cap_energy(bub: Bubble, nl: Nonlinearity, r_ball: float) -> float:
    """Energy of the zero-extended cap over the radius-r_ball ball.

    E = int ( |grad v|^2 / 2 + G(v) ) with G(s) = F(z) - F(s), the potential
    gap to the top level. Outside the cap the integrand is the constant
    G(0) = F(z).
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
    dens = (0.5 * vp * vp + G) * rr ** (N - 1)
    E = sphere_area(N) * np.trapezoid(dens, rr)
    if r_ball > bub.R:
        G0 = integral_between(nl, 0.0, bub.z)
        E += G0 * ball_volume(N) * (r_ball ** N - bub.R ** N)
    return float(E)


def bubble_energy(bub: Bubble, nl: Nonlinearity,
                  r_ball: float | None = None) -> tuple[float, float]:
    """Energies over the radius-r_ball ball (default: the cap's own radius)
    of the cap and of the plateau ramp at the same level.

    The pair is the comparison the cap exists for: the cap fills the ball
    near the top level at plateau cost (volume times G near zero), while
    the ramp pays only a surface-shell cost. Returns (cap, ramp).
    """
    r = float(bub.R if r_ball is None else r_ball)
    if r <= 1.0:
        raise InputError("bubble_energy: the ramp comparison needs a ball "
                         "radius above 1")
    return cap_energy(bub, nl, r), ramp_energy(nl, bub.z, r, N=bub.N)


def ramp_energy(nl: Nonlinearity, z: float, r_ball: float, N: int = 2) -> float:
    """Energy of the ramp: z inside radius r-1, z*(r - |x|) on the unit shell."""
    if r_ball <= 1.0:
        raise InputError("ramp_energy: need r_ball > 1")
    rr = np.linspace(r_ball - 1.0, r_ball, _RAMP_SHELL_N + 1)
    vv = z * (r_ball - rr)
    G = integral_between(nl, vv, z)
    dens = (0.5 * z * z + G) * rr ** (N - 1)
    return float(sphere_area(N) * np.trapezoid(dens, rr))


def level_energy(nl: Nonlinearity, z: float, level: float, r_ball: float,
                 N: int = 2) -> float:
    """Energy of the constant state `level` over the radius-r_ball ball."""
    G = integral_between(nl, level, z)
    return float(G * ball_volume(N) * r_ball ** N)


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

    x1 = g.x1
    x2 = g.x2(field.kind)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    margins = np.empty(steps)
    for k, c in enumerate(centers):
        d = np.hypot(X1 - c[0], X2 - c[1])
        mask = d <= R
        vcap = np.interp(d[mask], bub.r, bub.v)
        margins[k] = float(np.min(field.values[mask] - vcap))
    mm = float(np.min(margins))
    return SlideReport(centers, margins, mm, float(bub.a), bool(mm > 0.0))
