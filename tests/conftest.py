"""Shared fixtures: the two expensive domain solves, built once per session.

Each fixture returns (nonlinearity, field, wall_seconds) so the acceptance
tests can check both the numerics and the runtime budget without re-solving.
`cold_operators` empties the Laplacians and shifted solvers kept per process.
"""

import time

import pytest

from farfield import elliptic
from farfield.elliptic import solve_field
from farfield.grids import make_grid
from farfield.nonlinearity import make
from farfield.traces import bump


@pytest.fixture(scope="session")
def decay_quarter():
    nl = make("linear-decay")
    grid = make_grid(60.0, 30.0, 0.25)
    trace = bump(grid.x2("quarter"), 10.0, 5.0, 0.5)
    t0 = time.perf_counter()
    field = solve_field(nl, grid, "quarter", trace, method="auto", tol=1e-9)
    return nl, field, time.perf_counter() - t0


@pytest.fixture(scope="session")
def abs_sin_half():
    # tol 1e-8: the plateau sits on the kink of |sin|, where Newton's local
    # model is one-sided and the residual floor is ~1e-8 on this grid
    nl = make("abs-sin")
    grid = make_grid(60.0, 20.0, 0.25)
    t0 = time.perf_counter()
    field = solve_field(nl, grid, "half", 5.0, method="auto", tol=1e-8)
    return nl, field, time.perf_counter() - t0


@pytest.fixture
def cold_operators():
    elliptic._laplacian.cache_clear()
    elliptic._shifted_solver.cache_clear()
