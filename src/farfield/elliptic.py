"""Finite-difference solvers for Delta u + f(u) = 0 on truncated domains.

The domain kinds are one table, `grids.PERIODIC`, of (x1, x2) axis
closures, and they share one 5-point stencil. An axis is periodic, or
Dirichlet at 0 with a zero-flux (mirror ghost) far end:

  quarter : [0, L1] x [0, L2], trace at x1 = 0, hard floor u = 0 at x2 = 0;
  half    : [0, L1] x x2-periodic strip, trace at x1 = 0;
  torus   : periodic in both directions, no boundary data at all.

Unknowns are every node except the Dirichlet ones: the trace column on x1,
the floor on x2. On them the Laplacian is the Kronecker sum
(T1 kron I + I kron T2) / h^2 of 1-D second differences, each
Dirichlet-mirror or periodic.
`assemble_laplacian` returns it as a sparse matrix L with a boundary vector
b, and it is the only discrete Laplacian here: the flow, Newton and every
residual apply L u + b. It is diagonalized axis by axis, so
`shifted_solver` solves (sigma I - L) x = rhs with no matrix factored: by
dense eigenbasis products on grids of at most _DENSE_MAX_AXIS unknowns per
axis, by sine and Fourier transforms on larger ones. L and the solvers
are built once per process and shared, L read-only; b is built per solve.

One relaxation, the semi-implicit flow `flow_relax`, keeps order down to
its basin; each step is one shifted solve of K - L. In the basin, where one
mode's geometric decay dominates, a step whose last two residual ratios
agree is stretched by 1 / (1 - ratio) to the sum of that tail, at most 2x
a step. `flow_operator` gathers its fixed parts, so flows that share them
(a sweep's trials) build not even b again.
`solve_field` builds its two methods from this flow and one damped Newton
iteration, `newton_solve`, whose steps solve with the Jacobian
L + diag(f'(v+)), f' the exact one-sided slope `fprime` of the clipped f,
through `_factor`, a sparse LU at every grid size;
a test checks that Newton and the flow run to tol with no basin reach the
same state on a logistic quarter:

  newton : damped Newton on the sparse system, from the start state;
  auto   : the flow run to tol, so the answer is the state the evolution
           selects (this matters when several plateaus exist). Once in
           the basin (a residual at or below _FLOW_TARGET), a step that
           does not halve the residual hands the state to Newton, which
           finishes; the handoff is recorded.

The reaction term is always evaluated with its argument clipped to the
analysis window; solutions that finish outside the window are flagged.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.sparse import dia_matrix, diags
from scipy.sparse.linalg import splu
# bench/tracer.py counts calls to elliptic.bicgstab; nothing here calls it
from scipy.sparse.linalg import bicgstab  # noqa: F401

from .errors import ConsistencyError, InputError, NumericError
from .grids import Field, Grid2D, as_trace, periodic_axes
from .nonlinearity import Nonlinearity, eval_capped, fprime

_DENSE_MAX_AXIS = 64          # shifted solves by dense eigenbasis products up to this
_OPERATORS_KEPT = 4           # Laplacians, and shifted solvers, kept built per process
_NEWTON_MAX_ITER = 60
_FLOW_MAX_STEPS = 200_000
_FLOW_TARGET = 1e-3           # solve_field's basin: residual below which Newton may finish
_FLOW_CONTRACTION = 0.5       # in the basin, a step must cut the residual this much
_TAIL_AGREE = 0.05            # relative gap of two ratios that make a geometric tail
_LINE_SEARCH_MIN = 1.0 / 1024.0
_WINDOW_SLACK = 1e-8


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


@lru_cache(maxsize=_OPERATORS_KEPT)
def _laplacian(grid: Grid2D, kind: str) -> dia_matrix:
    """L of `assemble_laplacian`, built once per (grid, kind) and read-only."""
    p1, p2 = periodic_axes(kind)
    L = _kron_sum(_second_difference(grid.n1, p1), _second_difference(grid.n2, p2))
    L.data *= 1.0 / (grid.h * grid.h)   # in place: a scaled copy would double the memory touched
    L.data.flags.writeable = L.offsets.flags.writeable = False
    return L


def assemble_laplacian(grid: Grid2D, kind: str, trace: np.ndarray | None):
    """Sparse Laplacian L and boundary vector b with Delta u = L u + b.

    This is the one discrete Laplacian: the flow, Newton and every residual
    apply it. L is stored as DIA: on these few-diagonal operators its
    matvec beats CSR.
    Unknown ordering is row-major over (i = 1..n1, j over the x2 nodes that
    are unknowns). L is the Kronecker sum (T1 kron I + I kron T2) / h^2 of
    1-D second differences, one per direction and closure. Mirror ghosts
    double the inward coefficient on zero-flux edges; Dirichlet data lands
    in b, which is the trace row over h^2 (less the floor corner over a
    Dirichlet x2). A periodic x1 has no trace and b = 0. L depends on
    (grid, kind) alone: the last _OPERATORS_KEPT are kept and shared,
    read-only, at 40 bytes an unknown on a quarter (1.15 MB at 240 x 120,
    12 MB at 307,200 unknowns), 56 on a half and 72 on the torus.
    """
    L = _laplacian(grid, kind)
    b = np.zeros(L.shape[0])
    p1, p2 = periodic_axes(kind)
    if not p1:
        b[:grid.n2] += (trace if p2 else trace[1:]) / (grid.h * grid.h)
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
    size has no limit. The last _OPERATORS_KEPT solvers are kept, keyed by
    (grid, kind, sigma) and the kernel.
    """
    return _shifted_solver(grid, kind, sigma, max(grid.n1, grid.n2) <= _DENSE_MAX_AXIS)


@lru_cache(maxsize=_OPERATORS_KEPT)
def _shifted_solver(grid: Grid2D, kind: str, sigma: float, dense: bool):
    n1, n2, h2 = grid.n1, grid.n2, grid.h * grid.h
    p1, p2 = periodic_axes(kind)

    def eigenvalues(n, periodic, count):
        k = np.arange(count)
        angle = np.pi * k / n if periodic else (2 * k + 1) * np.pi / (4 * n)
        return -4.0 * np.sin(angle) ** 2

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
        elif p1:      # periodic in both axes
            x = sfft.irfft2(sfft.rfft2(r) / den, s=(n1, n2))
        elif p2:
            c = sfft.rfft(sfft.idst(r, type=2, axis=0), axis=1)
            x = sfft.dst(sfft.irfft(c / den, n=n2, axis=1), type=2, axis=0)
        else:
            x = sfft.dstn(sfft.idstn(r, type=2) / den, type=2)
        return x.reshape(rhs.shape)
    return solve


def _unknown_block(u: np.ndarray, kind: str) -> np.ndarray:
    """u without its Dirichlet nodes: the trace column on x1, the floor on x2."""
    p1, p2 = periodic_axes(kind)
    return u[0 if p1 else 1:, 0 if p2 else 1:]


def _vec(u: np.ndarray, kind: str) -> np.ndarray:
    return _unknown_block(u, kind).ravel()


def _trace_row(u: np.ndarray, kind: str) -> np.ndarray | None:
    return None if periodic_axes(kind)[0] else u[0, :]


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


def _factor(A):
    """Solver x = solve(rhs) for A x = rhs, factored once for many right sides.

    Only Newton uses it, for its Jacobian L + diag(f'); the flow's K - L goes
    to `shifted_solver`. It is SuperLU at every grid size, with the
    minimum-degree ordering on A^T + A, which fills about half as much as
    COLAMD on these 5-point matrices; a singular factor is a NumericError.
    At 307,200 unknowns the factor holds about 28 M entries and the solve
    peaks near 0.55 GB; its memory on larger grids is unmeasured.
    """
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    except RuntimeError as e:     # SuperLU: "Factor is exactly singular"
        raise NumericError(f"direct linear solve failed: {e}") from None


# ---------------------------------------------------------------------------
# solvers

def newton_solve(nl: Nonlinearity, grid: Grid2D, kind: str, u0: np.ndarray,
                 tol: float = 1e-9) -> Field:
    """Damped Newton iteration from u0 (full array, boundary rows included).

    The boundary data are read from u0, as the flow reads them. A final
    residual not at or below tol, NaN included, is a NumericError."""
    L, b = assemble_laplacian(grid, kind, _trace_row(u0, kind))
    v = _vec(u0, kind)

    def res(vv):
        return L @ vv + b + eval_capped(nl, vv)

    r = res(v)
    rn = float(np.max(np.abs(r)))
    it = 0
    while rn > tol and it < _NEWTON_MAX_ITER:
        J = L + diags(fprime(nl, v))
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
    `assemble_laplacian`, the K - L `shifted_solver`, and the grid, kind and
    trace row they were built from (trace None on the torus)."""
    L: dia_matrix
    b: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray]
    grid: Grid2D
    kind: str
    trace: np.ndarray | None


def flow_operator(nl: Nonlinearity, grid: Grid2D, kind: str,
                  trace: np.ndarray | None) -> FlowOperator:
    """The flow's operator, for any number of flows that share it.

    K = max(Lip f, 1e-6) is the flow's shift: its implicit step solves
    K - L. K at or above the two-sided Lip f keeps v -> K v + f(v)
    nondecreasing and dt = 1/K at or below the reaction's fastest time scale;
    near a zero where f' = -K, one step cancels the error to first order.
    On a grid already seen, L and the K - L solver are the kept ones.
    """
    trace = None if trace is None else np.array(trace, dtype=float)
    L, b = assemble_laplacian(grid, kind, trace)
    K = max(nl.lipschitz, 1e-6)
    return FlowOperator(L, b, shifted_solver(grid, kind, K), grid, kind, trace)


def flow_relax(nl: Nonlinearity, u0: np.ndarray, grid: Grid2D, kind: str,
               res_target: float = 1e-3, max_steps: int = _FLOW_MAX_STEPS,
               basin: float | None = None, op: FlowOperator | None = None):
    """Semi-implicit parabolic flow u_t = Delta u + f(u) until the residual drops.

    Each step solves (K - L) dv = L v + b + f(v), K = max(Lip f, 1e-6):
    implicit Laplacian, explicit reaction, dt = 1/K. The solve is
    `shifted_solver`'s, so no grid size is too large for it.
    K - L is an M-matrix and v -> K v + f(v) is nondecreasing, so ordered
    states stay ordered down to the basin. The boundary data are read from
    u0. `op` is a prebuilt `flow_operator` for flows that share one (nl,
    grid, kind, trace), as a sweep's trials do; without it the flow builds
    its own. An `op` built for another grid or kind, or from another trace
    row than u0's, is a ConsistencyError.

    The flow stops when the max-norm residual is at most res_target, after
    max_steps steps, or, given `basin`, at the first step from a residual at
    or below basin that does not cut it by the factor _FLOW_CONTRACTION: the
    flow has reached the rounding floor, or a state it cannot contract
    (where f' is about 0, as on a flat zero interval of f), and Newton
    should finish. In the basin (from a residual at or below it), once the
    last two residual ratios since the last jump agree to _TAIL_AGREE, the
    step is multiplied by 1 / (1 - ratio): the sum of the geometric tail
    that ratio describes, which removes the dominant mode at once (Aitken's
    delta-squared process on the flow's linear tail). The stall check
    returns first when the ratio exceeds _FLOW_CONTRACTION, so the factor
    is at most 2; such a jump keeps no order. Flows with no basin take no
    jump. Returns (state, steps, residual, ratio): the residual at the
    state, and its ratio to the previous step's (None before the first
    step). steps == max_steps means the flow stopped at the cap. A NaN or
    infinite residual is a NumericError naming the step.
    """
    trace = _trace_row(u0, kind)
    if op is None:
        op = flow_operator(nl, grid, kind, trace)
    elif ((op.grid, op.kind) != (grid, kind)
          or not np.array_equal(trace, op.trace)):    # None equals only None
        raise ConsistencyError("flow_relax: the flow operator was built for "
                               "another grid, kind or trace row than the start's")
    L, b, solve = op.L, op.b, op.solve
    v = _vec(u0, kind).copy()
    abs_rate = np.empty_like(v)       # |rate|, rewritten every step
    rn_prev = ratio = ratio_prev = None
    k_tail = -1                       # step of the last tail jump
    for k in range(max_steps + 1):
        rate = L @ v                  # rate = L v + b + f(v), summed in place
        rate += b
        rate += eval_capped(nl, v)
        rn = float(np.abs(rate, out=abs_rate).max())
        if not math.isfinite(rn):
            raise NumericError(f"flow_relax: non-finite residual at step {k}")
        if k:
            ratio_prev, ratio = ratio, rn / rn_prev
        in_basin = basin is not None and k and rn_prev <= basin
        if rn <= res_target or k == max_steps or (in_basin and ratio > _FLOW_CONTRACTION):
            return _unvec(v, u0, kind), k, rn, ratio
        step = solve(rate)
        # two steady ratios since the last jump: one mode's geometric tail,
        # whose sum is the step times 1 / (1 - ratio), at most 2 here
        if (in_basin and k >= k_tail + 3
                and abs(ratio - ratio_prev) <= _TAIL_AGREE * ratio):
            step *= 1.0 / (1.0 - ratio)
            k_tail = k
        v += step
        rn_prev = rn


def _apply_boundary(u: np.ndarray, kind: str, trace: np.ndarray | None) -> np.ndarray:
    u = np.asarray(u, dtype=float).copy()
    p1, p2 = periodic_axes(kind)
    if not p1:
        u[0, :] = trace
    if not p2:
        u[:, 0] = 0.0
    return u


def _finish(nl: Nonlinearity, u: np.ndarray, grid: Grid2D, kind: str,
            residual: float, meta: dict) -> Field:
    meta = dict(meta)
    meta["out_of_window"] = bool(np.min(u) < -_WINDOW_SLACK
                                 or np.max(u) > nl.s_max + _WINDOW_SLACK)
    return Field(u, grid, kind, residual, meta)


def solve_field(nl: Nonlinearity, grid: Grid2D, kind: str, trace,
                method: str = "auto", u0=None, tol: float = 1e-9) -> Field:
    """Solve Delta u + f(u) = 0 on the requested domain kind.

    u0 may be a scalar (constant start), a full array, or None for the
    trace extended constantly in x1; a non-finite value in it is an
    InputError. The newton method runs `newton_solve` from that start. The
    auto method runs the parabolic flow to tol, so the answer is the state
    the evolution selects. Once the residual is at or below _FLOW_TARGET,
    the flow takes its tail jumps, and a flow step that does not cut the
    residual by the factor _FLOW_CONTRACTION ends the flow, and Newton
    finishes from that state. meta["handoff"] records the flow's residual
    and step ratio there, and is None when the flow reached tol;
    meta["iterations"] is Newton's count, 0 when Newton did not run.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"solve_field: tol must be finite and positive, got {tol!r}")
    tr = None if periodic_axes(kind)[0] else as_trace(trace, grid, kind)
    shape = (grid.x1_nodes(kind).size, grid.x2(kind).size)
    if u0 is None:
        if tr is None:      # no trace row to extend
            raise InputError("torus solves need an explicit start state u0")
        u0 = np.tile(tr, (shape[0], 1))
    elif np.isscalar(u0):
        u0 = np.full(shape, float(u0))
    u0 = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise InputError("u0 contains non-finite values")
    if u0.shape != shape:
        raise InputError(f"u0 has shape {u0.shape}, domain wants {shape}")
    u = _apply_boundary(u0, kind, tr)

    if method == "newton":
        return newton_solve(nl, grid, kind, u, tol=tol)
    if method != "auto":
        raise InputError(f"unknown method {method!r} (newton | auto)")
    u_flow, steps, res, ratio = flow_relax(nl, u, grid, kind, res_target=tol,
                                           max_steps=_FLOW_MAX_STEPS,
                                           basin=_FLOW_TARGET)
    if res <= tol:
        f = _finish(nl, u_flow, grid, kind, res, {"iterations": 0, "handoff": None})
    else:
        f = newton_solve(nl, grid, kind, u_flow, tol=tol)
        f.meta["handoff"] = {"residual": res, "ratio": ratio}
    f.meta.update(method="auto", flow_steps=steps, flow_capped=steps == _FLOW_MAX_STEPS)
    return f
