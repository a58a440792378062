"""Domain solvers: the discrete Laplacian, the shifted solves, the flow and Newton."""

import dataclasses
import math

import numpy as np
import pytest

import farfield.elliptic as elliptic
from farfield.elliptic import (assemble_laplacian, flow_operator, flow_relax,
                               laplacian_full, newton_solve,
                               shifted_solver, solve_field,
                               _apply_boundary, _unknown_block, _unvec, _vec)
from farfield.errors import ConsistencyError, InputError, NumericError
from farfield.grids import as_trace, make_grid
from farfield.nonlinearity import eval_capped, make
from farfield.profile1d import compute_profile
from farfield.traces import make_trace


def _residual_max(nl, u, grid, kind):
    """max |L u + b + f(u)| over the unknowns, recomputed from u alone."""
    lap = laplacian_full(u, grid, kind)
    return float(np.max(np.abs(lap + eval_capped(nl, _unknown_block(u, kind)))))


# ---------------------------------------------------------------------------
# the discrete Laplacian against a brute-force dense reference

@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_stencil_routes_agree(kind):
    # laplacian_full applies the assembled operator, reading the trace from
    # u[0, :]; the reference visits the neighbours of every unknown
    g = make_grid(6.0, 4.0, 0.5)
    rng = np.random.default_rng(11)
    if kind == "torus":
        u = rng.standard_normal((g.n1, g.n2))
        trace = None
    else:
        trace = as_trace(rng.uniform(0, 1, g.x2(kind).size), g, kind)
        u = rng.standard_normal((g.n1 + 1, trace.size))
        u[0, :] = trace
        if kind == "quarter":
            u[:, 0] = 0.0
    L_ref, b_ref = _dense_laplacian(g, kind, trace)
    direct = laplacian_full(u, g, kind)
    reference = (L_ref @ _vec(u, kind) + b_ref).reshape(direct.shape)
    assert float(np.max(np.abs(direct - reference))) < 1e-12


def _dense_laplacian(grid, kind, trace):
    """Brute-force Delta u = L u + b: visit the four neighbours of each unknown."""
    n1, n2, h2 = grid.n1, grid.n2, grid.h * grid.h
    if kind == "torus":
        nodes = [(i, j) for i in range(n1) for j in range(n2)]
    elif kind == "quarter":
        nodes = [(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1)]
    else:
        nodes = [(i, j) for i in range(1, n1 + 1) for j in range(n2)]
    index = {p: k for k, p in enumerate(nodes)}
    L = np.zeros((len(nodes), len(nodes)))
    b = np.zeros(len(nodes))
    for k, (i, j) in enumerate(nodes):
        L[k, k] = -4.0 / h2
        for a, c in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if kind == "torus":
                a %= n1
            elif a == n1 + 1:
                a = n1 - 1                  # mirror ghost beyond x1 = L1
            if kind != "quarter":
                c %= n2
            elif c == n2 + 1:
                c = n2 - 1                  # mirror ghost beyond x2 = L2
            if (a, c) in index:
                L[k, index[a, c]] += 1.0 / h2
            elif kind == "quarter" and c == 0:
                pass                        # floor node, u = 0
            else:
                assert a == 0
                b[k] += trace[c] / h2       # trace column
    return L, b


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
@pytest.mark.parametrize("dims", [(1.0, 1.0, 0.5), (1.0, 1.5, 0.5), (3.0, 0.7, 0.1)])
def test_assembly_matches_dense_reference(kind, dims):
    # the smallest grids have n1 = 2 and n2 = 2: on a periodic width of two
    # both x2 neighbours are the same node and must sum to 2/h^2
    g = make_grid(*dims)
    rng = np.random.default_rng(7)
    trace = (None if kind == "torus"
             else as_trace(rng.uniform(-1, 1, g.x2(kind).size), g, kind))
    L, b = assemble_laplacian(g, kind, trace)
    L_ref, b_ref = _dense_laplacian(g, kind, trace)
    assert np.array_equal(L.toarray(), L_ref)
    assert np.array_equal(b, b_ref)


def _reference_flow(nl, u0, grid, kind, res_target, max_steps):
    """Semi-implicit Euler with dense algebra: (K - L) dv = L v + b + f(v)."""
    L, b = _dense_laplacian(grid, kind, None if kind == "torus" else u0[0, :])
    K = max(nl.lipschitz, 1e-6)             # flow_operator's K
    M = K * np.eye(L.shape[0]) - L
    v = _vec(u0, kind).copy()
    for k in range(max_steps):
        rate = L @ v + b + eval_capped(nl, v)
        if float(np.max(np.abs(rate))) <= res_target:
            return _unvec(v, u0, kind), k
        v += np.linalg.solve(M, rate)
    return _unvec(v, u0, kind), max_steps


def _flow_start(g, kind, rng):
    if kind == "torus":
        return rng.uniform(0.0, 3.0, (g.n1, g.n2))
    u0 = rng.uniform(0.0, 3.0, (g.n1 + 1, g.x2(kind).size))
    u0[0, :] = as_trace(5.0, g, kind)
    if kind == "quarter":
        u0[:, 0] = 0.0
    return u0


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_flow_matches_reference_euler_loop(kind):
    nl = make("abs-sin")
    g = make_grid(6.0, 4.0, 0.25)
    u0 = _flow_start(g, kind, np.random.default_rng(3))
    for cap in (1, 3, 100_000):
        u_ref, k_ref = _reference_flow(nl, u0, g, kind, 1e-10, cap)
        u, k, _, _ = flow_relax(nl, u0, g, kind, res_target=1e-10, max_steps=cap)
        assert k == k_ref
        assert float(np.max(np.abs(u - u_ref))) <= 1e-12
    assert 3 < k < cap                      # the last run reached its target


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_linear_decay_flow_lands_in_one_step(kind):
    # f' = -1 = -K everywhere in the window, so one step solves
    # (1 - L) v = b + 1: the discrete solution itself
    nl = make("linear-decay")
    g = make_grid(6.0, 4.0, 0.25)
    u0 = _flow_start(g, kind, np.random.default_rng(3))
    _, k, res, _ = flow_relax(nl, u0, g, kind, res_target=1e-9)
    assert k == 1 and res <= 1e-9


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_flow_preserves_order(kind):
    # the comparison principle, step by step: starts u <= w with the same
    # boundary data stay ordered after every step. K = Lip f is the least
    # shift that keeps v -> K v + f(v) nondecreasing: K + f' = 0 on all of
    # linear-decay's window, at the logistic's s_max and on cantor's falling
    # tent sides. The starts are scaled into each window. Linear-decay's
    # trace, 20, sits past s_max = 10, where f is flat, because the sharp K
    # maps any two starts inside its window onto one state in one step
    # (order held with equality, which roundoff does not keep); on the torus
    # nothing holds a state outside the window, so it is left out there
    g = make_grid(6.0, 4.0, 0.5)
    for spec, scale in (("abs-sin", 1.0), ("linear-decay", 4.0),
                        ("logistic", 0.4), ("cantor:3", 0.2)):
        if (spec, kind) == ("linear-decay", "torus"):
            continue
        nl = make(spec)
        rng = np.random.default_rng(5)
        u0 = scale * _flow_start(g, kind, rng)
        w0 = u0.copy()
        w_blk = _unknown_block(w0, kind)
        w_blk += scale * rng.uniform(0.05, 3.0, w_blk.shape)
        for cap in range(1, 6):
            u, ku, _, _ = flow_relax(nl, u0, g, kind, res_target=0.0, max_steps=cap)
            w, kw, _, _ = flow_relax(nl, w0, g, kind, res_target=0.0, max_steps=cap)
            assert ku == kw == cap
            assert np.all(w >= u), (spec, cap)
            assert not np.array_equal(w, u), (spec, cap)


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_flow_never_factors(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the flow must not factor a matrix")

    monkeypatch.setattr(elliptic, "splu", refuse)
    nl = make("abs-sin")
    g = make_grid(6.0, 4.0, 0.25)
    u0 = _flow_start(g, kind, np.random.default_rng(3))
    u, k, res, _ = flow_relax(nl, u0, g, kind, res_target=1e-8)
    assert 0 < k < 1000
    assert res == _residual_max(nl, u, g, kind) <= 1e-8


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
@pytest.mark.parametrize("dims", [(1.0, 1.0, 0.5), (2.5, 1.5, 0.5), (6.0, 4.0, 0.25)])
@pytest.mark.parametrize("sigma", [1e-3, 1.0, 10.0])
def test_shifted_solve_matches_dense_reference(kind, dims, sigma, monkeypatch):
    # grids with n1 = n2 = 2, odd n (5 x 3) and even n (24 x 16), all under
    # the dense kernel's size limit; lowering the limit to 0 runs the
    # transform kernel on the same grids, under the same bounds.
    # The bound is on the normwise backward error ||r|| / (||A|| ||x|| + ||b||):
    # at sigma = 1e-3 the torus is nearly singular and ||r|| / ||b|| is set by
    # the roundoff of forming A x itself (about 1e-12 for the dense solve too)
    g = make_grid(*dims)
    L, _ = _dense_laplacian(g, kind, np.zeros(g.x2(kind).size))
    A = sigma * np.eye(L.shape[0]) - L
    rhs = np.random.default_rng(17).standard_normal(L.shape[0])
    x_ref = np.linalg.solve(A, rhs)
    for max_axis in (elliptic._DENSE_MAX_AXIS, 0):
        monkeypatch.setattr(elliptic, "_DENSE_MAX_AXIS", max_axis)
        x = shifted_solver(g, kind, sigma)(rhs)
        r = np.linalg.norm(A @ x - rhs)
        assert r / (np.linalg.norm(A, 2) * np.linalg.norm(x) + np.linalg.norm(rhs)) <= 1e-12
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        blk = shifted_solver(g, kind, sigma)(rhs.reshape(g.n1, g.n2))
        assert np.array_equal(blk.ravel(), x)


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_shifted_solve_kernels_agree_on_a_64_grid(kind, monkeypatch):
    # 64 unknowns per axis is the largest grid the dense kernel takes. The
    # nearly singular sigma = 1e-3 is left to the backward-error test above:
    # there the two kernels' roundoff differs by the condition number, 1e5
    g = make_grid(16.0, 16.0, 0.25)
    assert g.n1 == g.n2 == elliptic._DENSE_MAX_AXIS
    rhs = np.random.default_rng(23).standard_normal(g.n1 * g.n2)
    for sigma in (0.1, 1.1, 10.0):
        dense = shifted_solver(g, kind, sigma)(rhs)
        monkeypatch.setattr(elliptic, "_DENSE_MAX_AXIS", 0)
        fast = shifted_solver(g, kind, sigma)(rhs)
        monkeypatch.undo()
        assert float(np.max(np.abs(dense - fast))) <= 1e-12 * float(np.max(np.abs(fast)))


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_flow_with_a_prebuilt_operator_is_bit_identical(kind):
    nl = make("abs-sin")
    g = make_grid(6.0, 4.0, 0.25)
    u0 = _flow_start(g, kind, np.random.default_rng(3))
    op = flow_operator(nl, g, kind, None if kind == "torus" else u0[0, :])
    for cap in (1, 7, 100_000):
        u, k, res, ratio = flow_relax(nl, u0, g, kind, res_target=1e-10, max_steps=cap)
        u_op, k_op, res_op, ratio_op = flow_relax(nl, u0, g, kind, res_target=1e-10,
                                                  max_steps=cap, op=op)
        assert np.array_equal(u_op, u)
        assert (k_op, res_op, ratio_op) == (k, res, ratio)


@pytest.mark.parametrize("kind", ["quarter", "half"])
def test_flow_rejects_an_operator_built_for_another_trace(kind):
    nl = make("abs-sin")
    g = make_grid(6.0, 4.0, 0.25)
    u0 = _flow_start(g, kind, np.random.default_rng(3))
    op = flow_operator(nl, g, kind, u0[0, :] + 0.5)
    with pytest.raises(ConsistencyError, match="trace row"):
        flow_relax(nl, u0, g, kind, op=op)


def test_flow_rejects_an_operator_built_for_another_grid():
    # both grids have 8 x 8 cells and one trace row, but another spacing:
    # the foreign L would carry the flow to a state 0.3 off the true one
    nl = make("abs-sin")
    ga, gb = make_grid(4.0, 4.0, 0.5), make_grid(8.0, 8.0, 1.0)
    tr = as_trace(5.0, gb, "half")
    u0 = np.full((gb.n1 + 1, gb.n2), 5.0)
    with pytest.raises(ConsistencyError, match="another grid"):
        flow_relax(nl, u0, gb, "half", op=flow_operator(nl, ga, "half", tr))
    # another cell count, the same trace row: no matmul of mismatched shapes
    g1, g2 = make_grid(4.0, 2.0, 0.5), make_grid(6.0, 2.0, 0.5)
    op = flow_operator(nl, g1, "half", as_trace(5.0, g1, "half"))
    with pytest.raises(ConsistencyError, match="another grid"):
        flow_relax(nl, np.full((g2.n1 + 1, g2.n2), 5.0), g2, "half", op=op)
    # and the same grid, another kind
    op = flow_operator(nl, g1, "torus", None)
    with pytest.raises(ConsistencyError, match="another grid"):
        flow_relax(nl, np.full((g1.n1 + 1, g1.n2), 5.0), g1, "half", op=op)


# ---------------------------------------------------------------------------
# the operators kept per process

@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
@pytest.mark.parametrize("method", ["auto", "newton"])
def test_kept_operators_leave_solves_bit_identical(kind, method, cold_operators):
    # a solve on empty caches, then another trace on the same grid, then the
    # first solve again on the kept L and solver: the same bits
    # (the torus has no trace: its starts are levels with a ripple)
    nl = make("logistic")
    g = make_grid(6.0, 4.0, 0.25)
    ripple = 0.05 * np.sin(np.add.outer(np.arange(g.n1), np.arange(g.n2)))
    runs = []
    for level in (0.9, 0.7, 0.9):
        if kind == "torus":
            runs.append(solve_field(nl, g, kind, None, method=method,
                                    u0=level + ripple, tol=1e-10))
        else:
            runs.append(solve_field(nl, g, kind, level, method=method, tol=1e-10))
    cold, _, warm = runs
    assert elliptic._laplacian.cache_info().hits >= 2
    assert np.array_equal(warm.values, cold.values)
    assert warm.residual == cold.residual
    assert warm.meta == cold.meta


def test_laplacian_is_shared_and_read_only():
    g = make_grid(6.0, 4.0, 0.25)
    trace = as_trace(1.0, g, "quarter")
    L1, b1 = assemble_laplacian(g, "quarter", trace)
    L2, b2 = assemble_laplacian(g, "quarter", 2.0 * trace)
    assert L2 is L1
    assert b2 is not b1 and np.array_equal(b2, 2.0 * b1)
    assert flow_operator(make("abs-sin"), g, "quarter", trace).L is L1
    assert assemble_laplacian(g, "half", as_trace(1.0, g, "half"))[0] is not L1
    with pytest.raises(ValueError, match="read-only"):
        L1.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        L1.data *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        L1.offsets[0] = 0
    # Newton's Jacobian is a new matrix, not an update of the shared L
    J = L1 + elliptic.diags(np.ones(L1.shape[0]))
    assert np.array_equal(J.diagonal(), L1.diagonal() + 1.0)


def test_inserted_profile_residual_is_discretization_order():
    # a field that is exactly the 1-D profile in x2 solves the continuum
    # problem, so the discrete residual must shrink like h^2
    nl = make("abs-sin")
    res = {}
    for h in (0.25, 0.125):
        g = make_grid(8.0, 16.0, h)
        p = compute_profile(nl, math.pi, xi_max=16.0, n=g.n2)
        u = np.tile(p.values, (g.n1 + 1, 1))
        res[h] = _residual_max(nl, u, g, "quarter")
    ratio = res[0.25] / res[0.125]
    assert 3.0 < ratio < 5.0


# ---------------------------------------------------------------------------
# solvers

def _supersolution_start(g):
    # f(1.2) < 0, so the constant 1.2 extension of the logistic quarter's
    # trace 0.4 is a supersolution
    return _apply_boundary(np.full((g.n1 + 1, g.n2 + 1), 1.2), "quarter",
                           as_trace(0.4, g, "quarter"))


def test_newton_and_flow_agree():
    # two independent routes to one state: Newton from the trace extension,
    # and the order-keeping flow from a supersolution, with no basin, so it
    # takes no tail jump and never hands off to Newton
    nl = make("logistic")
    g = make_grid(12.0, 8.0, 0.25)
    fn = solve_field(nl, g, "quarter", 0.4, method="newton", tol=1e-11)
    u, _, res, _ = flow_relax(nl, _supersolution_start(g), g, "quarter", res_target=1e-11)
    assert fn.residual < 1e-11
    assert res < 1e-11
    assert float(np.max(np.abs(fn.values - u))) < 1e-9


def test_monotone_descends_from_supersolution():
    # the comparison principle: the flow from a supersolution falls at
    # every node, step by step, to the solution below it
    nl = make("logistic")
    g = make_grid(8.0, 6.0, 0.5)
    prev = _supersolution_start(g)
    for cap in range(1, 6):
        u, k, _, _ = flow_relax(nl, _supersolution_start(g), g, "quarter",
                                res_target=0.0, max_steps=cap)
        assert k == cap
        assert np.all(u <= prev), cap
        prev = u
    u, _, res, _ = flow_relax(nl, prev, g, "quarter", res_target=1e-10)
    assert np.all(u <= prev)
    assert res < 1e-10


@pytest.mark.parametrize("kind", ["quarter", "half", "torus"])
def test_newton_reads_its_boundary_from_the_start(kind):
    # the start's row 0 (0.5) is the trace: the returned field keeps it,
    # and its residual is the one Newton reports
    nl = make("logistic")
    g = make_grid(4.0, 2.0, 0.5)
    rows = g.n1 if kind == "torus" else g.n1 + 1
    u0 = np.full((rows, g.x2(kind).size), 0.8)
    u0[0] = 0.5
    if kind == "quarter":
        u0[:, 0] = 0.0
    f = newton_solve(nl, g, kind, u0, tol=1e-10)
    assert _residual_max(nl, f.values, g, kind) <= 1e-10
    assert f.residual <= 1e-10
    if kind != "torus":
        assert np.array_equal(f.values[0], u0[0])


def test_newton_from_solved_state_is_cheap():
    nl = make("logistic")
    g = make_grid(10.0, 6.0, 0.5)
    trace = as_trace(0.3, g, "quarter")
    f1 = solve_field(nl, g, "quarter", trace, method="auto", tol=1e-10)
    f2 = newton_solve(nl, g, "quarter", f1.values, tol=1e-10)
    assert f2.meta["iterations"] <= 1


def test_auto_method_reports_flow_steps():
    nl = make("linear-decay")
    g = make_grid(10.0, 6.0, 0.5)
    f = solve_field(nl, g, "quarter", as_trace(0.2, g, "quarter"), method="auto")
    assert f.meta["method"] == "auto"
    assert f.meta["flow_steps"] > 0
    assert f.meta["flow_capped"] is False
    assert f.meta["out_of_window"] is False


def test_auto_method_reports_a_capped_flow(monkeypatch):
    # the cantor:3 flow needs 17 steps here (linear-decay's needs 1)
    monkeypatch.setattr(elliptic, "_FLOW_MAX_STEPS", 3)
    nl = make("cantor:3")
    g = make_grid(10.0, 6.0, 0.5)
    f = solve_field(nl, g, "quarter", as_trace(0.2, g, "quarter"), method="auto")
    assert f.meta["flow_steps"] == 3
    assert f.meta["flow_capped"] is True


def test_auto_solves_past_the_direct_limit():
    # 480 x 240 = 115,200 unknowns, above 256^2: the flow runs on
    # transforms to tol and Newton never runs
    nl = make("linear-decay")
    g = make_grid(60.0, 30.0, 0.125)
    assert g.n1 * g.n2 > 256 * 256
    trace = make_trace("bump:15.0,5.0,0.55", nl, g, "quarter")
    f = solve_field(nl, g, "quarter", trace, method="auto", tol=1e-9)
    assert f.residual <= 1e-9
    assert 0 < f.meta["flow_steps"] <= 20
    assert f.meta["iterations"] == 0 and f.meta["handoff"] is None
    assert f.meta["out_of_window"] is False


@pytest.mark.parametrize("h", [0.125, 0.0625])
def test_auto_solves_the_fine_abs_sin_half_without_a_matrix_solve(h, monkeypatch):
    # 76,800 and 307,200 unknowns; the limit 2 pi is a kink of |sin|, where
    # Newton's numeric Jacobian reads f' about 0 and its line search fails
    def refuse(*args, **kwargs):
        raise AssertionError("the flow alone must finish this solve")

    monkeypatch.setattr(elliptic, "splu", refuse)
    nl = make("abs-sin")
    g = make_grid(60.0, 20.0, h)
    f = solve_field(nl, g, "half", 5.029090466054633, tol=1e-10)
    assert f.residual <= 1e-10
    assert f.meta["iterations"] == 0 and f.meta["handoff"] is None
    assert 0 < f.meta["flow_steps"] <= 20
    assert abs(float(f.values[-4:].mean()) - 2 * math.pi) < 1e-6


def test_auto_hands_off_where_the_flow_stops_contracting():
    # cantor:3 vanishes on [0.963, 1]: from 0.97 under a trace of 0.99 the
    # flow only diffuses, each step cutting the residual by about
    # K / (K + slowest Laplacian eigenvalue), so Newton finishes
    nl = make("cantor:3")
    g = make_grid(8.0, 4.0, 0.5)
    f = solve_field(nl, g, "half", 0.99, u0=0.97, tol=1e-9)
    handoff = f.meta["handoff"]
    assert handoff is not None
    assert f.residual <= 1e-9 < handoff["residual"] <= 1e-3
    assert elliptic._FLOW_CONTRACTION < handoff["ratio"] < 1.0
    assert f.meta["iterations"] >= 1
    assert float(np.max(np.abs(f.values - 0.99))) < 1e-12


def test_fine_handoff_factors_its_jacobian(monkeypatch):
    # the handoff above at h = 0.125: 480 x 160 = 76,800 unknowns, above
    # 256^2, and Newton still solves each step through one sparse LU
    calls = []
    real = elliptic.splu
    monkeypatch.setattr(elliptic, "splu",
                        lambda *a, **kw: calls.append(None) or real(*a, **kw))
    nl = make("cantor:3")
    g = make_grid(60.0, 20.0, 0.125)
    assert g.n1 * g.n2 == 76_800
    f = solve_field(nl, g, "half", 0.99, u0=0.97, tol=1e-9)
    assert f.meta["handoff"] is not None
    assert f.meta["iterations"] >= 1 and len(calls) >= 1
    assert f.residual <= 1e-9
    assert float(np.max(np.abs(f.values - 0.99))) <= 1e-12


def test_flow_stops_where_it_stops_contracting():
    # from a residual at or below the basin threshold, the first step that
    # does not halve the residual ends the flow; without a threshold the
    # same flow runs on to its target
    nl = make("cantor:3")
    g = make_grid(8.0, 4.0, 0.5)
    u0 = _apply_boundary(np.full((g.n1 + 1, g.n2), 0.97), "half", as_trace(0.99, g, "half"))
    u, k, res, ratio = flow_relax(nl, u0, g, "half", res_target=0.0, basin=1e-3)
    assert ratio > elliptic._FLOW_CONTRACTION
    assert res / ratio <= 1e-3              # the step started in the basin
    assert res == _residual_max(nl, u, g, "half")
    _, k_plain, res_plain, _ = flow_relax(nl, u0, g, "half", res_target=1e-4)
    assert k_plain > k and res_plain <= 1e-4


def test_flow_stops_at_a_nan_residual():
    # f is NaN above 0.5: the start's unknowns sit below it, the first step
    # lifts some above it, and the flow raises there instead of running on
    # to its 200,000-step cap
    nl = make("logistic")
    nan_above = dataclasses.replace(nl, fn=lambda s: np.where(s > 0.5, np.nan, s * (1.0 - s)))
    g = make_grid(4.0, 4.0, 0.5)
    trace = as_trace(0.9, g, "quarter")
    u0 = _apply_boundary(np.full((g.n1 + 1, trace.size), 0.45), "quarter", trace)
    with pytest.raises(NumericError, match="non-finite residual at step 1$"):
        flow_relax(nan_above, u0, g, "quarter")


def test_line_search_failure_is_a_numeric_error(monkeypatch):
    # a step in the wrong direction raises the residual at every lambda
    # down to 1/1024; Newton must not take it
    real = elliptic._factor
    monkeypatch.setattr(elliptic, "_factor", lambda A: (lambda rhs: -real(A)(rhs)))
    nl = make("logistic")
    g = make_grid(6.0, 4.0, 0.5)
    trace = as_trace(0.4, g, "quarter")
    with pytest.raises(NumericError, match=r"line search failed at lambda=0\.000976562"):
        solve_field(nl, g, "quarter", trace, method="newton", u0=0.8)


def test_auto_selects_evolution_plateau(abs_sin_half):
    # from a start of 5.0 the parabolic flow climbs to the 2*pi plateau, not
    # the higher 3*pi one; the solver must land on the selected state
    _, field, _ = abs_sin_half
    far = field.values[-4:]
    assert abs(float(far.mean()) - 2 * math.pi) < 1e-6
    assert field.residual < 1e-7


def test_solve_field_validation():
    nl = make("logistic")
    g = make_grid(4.0, 4.0, 0.5)
    with pytest.raises(InputError):
        solve_field(nl, g, "torus", None, method="newton")     # torus needs u0
    with pytest.raises(InputError):
        solve_field(nl, g, "quarter", 0.3, method="bogus")
    with pytest.raises(InputError, match=r"\(newton \| auto\)"):
        solve_field(nl, g, "quarter", 0.3, method="monotone")
    with pytest.raises(InputError):
        solve_field(nl, g, "quarter", 0.3, u0=np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, "array"])
def test_solve_field_rejects_a_non_finite_start(bad):
    nl = make("logistic")
    g = make_grid(4.0, 4.0, 0.5)
    u0 = bad
    if bad == "array":
        u0 = np.full((g.n1 + 1, g.n2 + 1), 0.5)
        u0[3, 4] = math.nan
    for method in ("auto", "newton"):
        with pytest.raises(InputError, match="non-finite"):
            solve_field(nl, g, "quarter", 0.3, method=method, u0=u0)


def test_newton_from_a_nan_start_raises():
    # every comparison with NaN is False: the gate must read "not <= tol"
    nl = make("logistic")
    g = make_grid(4.0, 4.0, 0.5)
    with pytest.raises(NumericError, match="did not reach tol"):
        newton_solve(nl, g, "quarter", np.full((g.n1 + 1, g.n2 + 1), math.nan))


def test_torus_constant_state():
    nl = make("abs-sin")
    g = make_grid(4.0, 4.0, 0.25)
    u0 = np.full((g.n1, g.n2), math.pi)
    f = solve_field(nl, g, "torus", None, method="newton", u0=u0, tol=1e-12)
    assert float(np.max(np.abs(f.values - math.pi))) < 1e-12
