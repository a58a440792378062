"""The sliding-method tools: eigenvalue, radial caps, energies, the sliding check."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import jn_zeros

import farfield.sliding as sliding
from farfield.errors import InputError, NumericError
from farfield.grids import Field, make_grid
from farfield.nonlinearity import integral_between, make
from farfield.sliding import (Bubble, ball_volume, cap_energy, dirichlet_eigenvalue,
                              level_energy, radial_bubble, ramp_energy, sliding_verify,
                              sphere_area)


# ---------------------------------------------------------------------------
# principal eigenvalue of the ball

def test_eigenvalue_against_bessel_root():
    for N in (2, 4, 6):                                # nu = 0, 1, 2
        want = float(jn_zeros(N // 2 - 1, 1)[0]) ** 2
        assert abs(dirichlet_eigenvalue(N, 1.0) - want) <= 1e-14 * want


def test_eigenvalue_three_dimensional():
    # nu = -1/2, 1/2, 3/2: J_nu's first zeros are pi/2, pi and the root of tan x = x
    for N, j in ((1, math.pi / 2), (3, math.pi), (5, 4.493409457909064)):
        assert abs(dirichlet_eigenvalue(N, 1.0) - j * j) <= 1e-14 * j * j


def _ikebe_eigenvalue(N, order):
    # the same closed form, its top eigenvalue by LAPACK's tridiagonal bisection
    a = N / 2.0 - 1.0 + 2.0 * np.arange(1, order + 1)
    d = 2.0 / ((a - 1.0) * (a + 1.0))
    e = 1.0 / ((a[:-1] + 1.0) * np.sqrt(a[:-1] * (a[:-1] + 2.0)))
    mu = eigvalsh_tridiagonal(d, e, select="i", select_range=(order - 1, order - 1))[0]
    return 4.0 / mu


def test_ikebe_order_is_converged_up_to_the_dimension_bound():
    # cutting Ikebe's matrix at order 64 instead of 1024 moves (j/R)^2 by at
    # most 4 ulp for every N up to the bound (it is 70 ulp off at N = 10^4);
    # numpy's dense eigvalsh adds up to about 3e-15 of roundoff on top
    for N in [*range(1, 65), *range(65, sliding._EIGEN_N_MAX, 13), sliding._EIGEN_N_MAX]:
        exact = _ikebe_eigenvalue(N, 1024)
        assert abs(_ikebe_eigenvalue(N, sliding._IKEBE_ORDER) - exact) <= 4 * np.spacing(exact), N
        assert abs(dirichlet_eigenvalue(N, 1.0) - exact) <= 1e-14 * exact, N


def test_eigenvalue_scaling_is_exact_in_floats():
    for N in (1, 2, 3, 50):
        assert 4.0 * dirichlet_eigenvalue(N, 2.0) == dirichlet_eigenvalue(N, 1.0)


def test_eigen_validation():
    for N, R in ((0, 1.0), (2, -1.0), (2, math.nan), (2, math.inf),
                 (sliding._EIGEN_N_MAX + 1, 1.0)):
        with pytest.raises(InputError):
            dirichlet_eigenvalue(N, R)


# ---------------------------------------------------------------------------
# radial caps

def test_cap_frozen_geometry():
    nl = make("logistic")
    bub = radial_bubble(nl, 1.0, 0.1, N=2)
    assert bub.feasible
    assert bub.a == pytest.approx(0.95, abs=1e-12)
    assert bub.R == pytest.approx(5.374486997730586, abs=1e-6)
    assert bub.v[-1] == 0.0
    assert float(bub.v.max()) <= bub.a
    assert bub.energy == pytest.approx(10.478046836328078, rel=1e-6)


def test_cap_radius_grows_as_eps_shrinks():
    nl = make("logistic")
    r_wide = radial_bubble(nl, 1.0, 0.05, N=2).R
    r_narrow = radial_bubble(nl, 1.0, 0.1, N=2).R
    assert r_wide >= r_narrow


def test_cap_trivial_feasibility_at_full_eps():
    bub = radial_bubble(make("logistic"), 1.0, 1.0, N=2)
    assert bub.feasible
    assert bub.a == pytest.approx(0.5)


def test_cap_validates_eps():
    nl = make("logistic")
    with pytest.raises(InputError):
        radial_bubble(nl, 1.0, 0.0)
    with pytest.raises(InputError):
        radial_bubble(nl, 1.0, 1.5)


# ---------------------------------------------------------------------------
# energies

def _flat_zero_cap(R: float) -> Bubble:
    r = np.linspace(1e-8, R, 257)
    return Bubble(1.0, 1.0, 2, 0.0, R, r, np.zeros_like(r), np.zeros_like(r),
                  True, 0)


def test_zero_cap_energy_closed_form():
    # v = 0 has density G(0) r, linear in r, so the trapezoid rule is exact:
    # the energy over the radius-R ball is G(0) * pi * R^2 on the nose
    nl = make("logistic")
    want = integral_between(nl, 0.0, 1.0) * math.pi * 9.0
    got = cap_energy(_flat_zero_cap(3.0), nl, 3.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_cap_energy_pair_and_guard():
    nl = make("logistic")
    bub = radial_bubble(nl, 1.0, 0.1, N=2)
    cap, ramp = cap_energy(bub, nl, bub.R), ramp_energy(nl, bub.z, bub.R, N=bub.N)
    assert cap == pytest.approx(bub.energy, rel=1e-12)
    assert cap <= ramp
    with pytest.raises(InputError):
        cap_energy(bub, nl, 0.0)
    with pytest.raises(InputError):
        ramp_energy(nl, 1.0, 1.0)


def test_level_energy_closed_form():
    nl = make("logistic")
    got = level_energy(nl, 1.0, 0.9, 10.0, N=2)
    want = integral_between(nl, 0.9, 1.0) * math.pi * 100.0
    assert got == pytest.approx(want, rel=1e-12)


# at N = 150 the power r^N of a radius-1000 ball overflows a float: each
# energy is refused with a NumericError, not returned as inf or raised as a
# bare OverflowError

def test_cap_energy_that_overflows_raises():
    cap = dataclasses.replace(_flat_zero_cap(3.0), N=150)   # finite over its own ball
    assert math.isfinite(cap_energy(cap, make("logistic"), 3.0))
    with pytest.raises(NumericError, match="cap energy .* is not finite"):
        cap_energy(cap, make("logistic"), 1000.0)


def test_ramp_energy_that_overflows_raises():
    with pytest.raises(NumericError, match="ramp energy .* is not finite"):
        ramp_energy(make("logistic"), 1.0, 1000.0, N=150)


def test_level_energy_that_overflows_raises():
    with pytest.raises(NumericError, match="level energy .* is not finite"):
        level_energy(make("logistic"), 1.0, 0.9, 1000.0, N=150)


def test_geometry_constants():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3)


# ---------------------------------------------------------------------------
# sliding comparison

def _constant_field(c: float, g) -> Field:
    vals = np.full((g.n1 + 1, g.n2 + 1), c)
    return Field(vals, g, "quarter", residual=0.0)


def test_slide_under_dominating_constant():
    nl = make("logistic")
    bub = radial_bubble(nl, 1.0, 0.1, N=2)
    g = make_grid(40.0, 20.0, 0.25)
    rep = sliding_verify(_constant_field(0.99, g), bub, (10.0, 10.0), (30.0, 10.0))
    assert rep.ok
    assert rep.min_margin == pytest.approx(0.99 - 0.95, abs=1e-3)
    assert rep.implied_floor == pytest.approx(0.95)


def test_slide_reports_poke_through_without_raising():
    # a field at zero cannot dominate any positive cap; the report flags it
    # at the first step instead of raising
    nl = make("logistic")
    bub = radial_bubble(nl, 1.0, 0.1, N=2)
    g = make_grid(40.0, 20.0, 0.25)
    rep = sliding_verify(_constant_field(0.0, g), bub, (10.0, 10.0), (30.0, 10.0))
    assert not rep.ok
    assert rep.margins[0] < 0.0
    assert rep.min_margin < 0.0


def test_slide_footprint_must_stay_inside():
    nl = make("logistic")
    bub = radial_bubble(nl, 1.0, 0.1, N=2)
    g = make_grid(40.0, 20.0, 0.25)
    with pytest.raises(InputError):
        sliding_verify(_constant_field(1.0, g), bub, (3.0, 10.0), (30.0, 10.0))


def test_slide_requires_quarter_field():
    nl = make("logistic")
    bub = radial_bubble(nl, 1.0, 0.1, N=2)
    g = make_grid(40.0, 20.0, 0.25)
    half = Field(np.full((g.n1 + 1, g.n2), 1.0), g, "half")
    with pytest.raises(InputError):
        sliding_verify(half, bub, (10.0, 10.0), (30.0, 10.0))
