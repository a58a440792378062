"""Translation semiflow, amplitude estimates, limit detection."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from farfield.errors import InputError
from farfield.grids import Field, make_grid
from farfield.nonlinearity import make
from farfield.profile1d import compute_profile
from farfield.trajectory import attractor_table, estimate_M, omega_limit, shift


def _random_field(rng, kind="half", L1=12.0, L2=4.0, h=0.5):
    g = make_grid(L1, L2, h)
    width = g.x2(kind).size
    vals = rng.uniform(0.0, 2.0, size=(g.n1 + 1, width))
    return Field(vals, g, kind)


# ---------------------------------------------------------------------------
# semiflow laws

def test_shift_identity_bit_exact():
    rng = np.random.default_rng(0)
    f = _random_field(rng)
    g = shift(f, 0.0)
    assert np.array_equal(g.values, f.values)


def test_shift_composition_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = _random_field(rng)
        a, b = 0.5 * rng.integers(0, 5, size=2)
        lhs = shift(shift(f, a), b)
        rhs = shift(f, a + b)
        assert np.array_equal(lhs.values, rhs.values)
        assert lhs.grid.n1 == rhs.grid.n1


def test_shift_slices_rows():
    rng = np.random.default_rng(2)
    f = _random_field(rng)
    s = shift(f, 1.5)       # 3 rows at h = 0.5
    assert np.array_equal(s.values, f.values[3:])
    assert s.grid.L1 == pytest.approx(f.grid.L1 - 1.5)


def test_shift_validation():
    rng = np.random.default_rng(3)
    f = _random_field(rng)
    with pytest.raises(InputError):
        shift(f, 0.3)            # not a grid multiple
    with pytest.raises(InputError):
        shift(f, -0.5)
    with pytest.raises(InputError):
        shift(f, 11.5)           # fewer than 3 surviving nodes


# ---------------------------------------------------------------------------
# amplitude estimates

def test_estimate_constant_field():
    g = make_grid(8.0, 4.0, 0.5)
    f = Field(np.full((g.n1 + 1, g.n2), 1.7), g, "half")
    est = estimate_M(f)
    assert est.M == 1.7
    assert est.m == 1.7


def test_estimate_settling_transient():
    # u = 1 + exp(-x1): the sup of the trailing window x1 >= 0.75 L1
    g = make_grid(24.0, 4.0, 0.5)
    x1 = g.x1_nodes("half")
    vals = np.tile(1.0 + np.exp(-x1)[:, None], (1, g.n2))
    est = estimate_M(Field(vals, g, "half"))
    assert abs(est.M - (1.0 + math.exp(-0.75 * 24.0))) < 1e-12


# ---------------------------------------------------------------------------
# candidate tables

def test_quarter_table_single_level():
    nl = make("linear-decay")
    g = make_grid(20.0, 10.0, 0.25)
    t = attractor_table(nl, 1.5, (g.L2, g.n2))
    np.testing.assert_allclose(t.ranges, [(1.0, 1.0)], atol=1e-9)
    assert len(t.profiles) == 1
    assert t.profiles[0].size == g.n2 + 1


def test_quarter_table_caps_levels():
    nl = make("abs-sin")
    g = make_grid(20.0, 10.0, 0.25)
    t = attractor_table(nl, 7.0, (g.L2, g.n2))
    zs = [0.0, math.pi, 2 * math.pi]
    np.testing.assert_allclose(t.ranges, list(zip(zs, zs)), atol=1e-8)
    assert all(a == b for a, b in t.ranges)
    assert [p.size for p in t.profiles] == [g.n2 + 1] * 3
    assert not t.profiles[0].any()       # f(0) = 0: V_0 is the zero state


def test_half_table_constants_and_zero_residual():
    nl = make("abs-sin")
    t = attractor_table(nl, 7.0)
    zs = [0.0, math.pi, 2 * math.pi]
    np.testing.assert_allclose(t.ranges, list(zip(zs, zs)), atol=1e-8)
    assert all(a == b for a, b in t.ranges)      # no flat interval
    assert t.profiles is None
    for z, _ in t.ranges:
        assert abs(float(nl.fn(np.float64(z)))) < 1e-8


def test_half_table_flat_intervals():
    nl = make("cantor:3")
    t = attractor_table(nl, 0.5)
    assert len(t.ranges) == 4         # kept intervals meeting [0, 0.5]
    assert all(a < b <= 0.5 for a, b in t.ranges)
    # an interval that straddles the cap is cut at it
    assert attractor_table(nl, 0.25).ranges[-1] == (t.ranges[2][0], 0.25)


# ---------------------------------------------------------------------------
# limit detection

def test_detects_inserted_profile():
    nl = make("abs-sin")
    g = make_grid(40.0, 20.0, 0.25)
    p = compute_profile(nl, math.pi, xi_max=20.0, n=g.n2)
    vals = np.tile(p.values, (g.n1 + 1, 1))
    rep = omega_limit(nl, Field(vals, g, "quarter", residual=0.0))
    assert rep.converged
    assert rep.detected_z == pytest.approx(math.pi, abs=1e-8)
    final_h = rep.distances[-1]["h"]
    final = min(r["d"] for r in rep.distances if r["h"] == final_h)
    assert final < 1e-10     # candidate profile is built on the same grid


def test_detects_constant_plateau():
    nl = make("abs-sin")
    g = make_grid(30.0, 10.0, 0.25)
    f = Field(np.full((g.n1 + 1, g.n2), math.pi), g, "half", residual=0.0)
    rep = omega_limit(nl, f)
    assert rep.converged
    assert rep.detected_z == pytest.approx(math.pi, abs=1e-8)


def test_ambiguous_midpoint_is_flagged():
    # a constant halfway between two candidate plateaus cannot satisfy the
    # factor-two separation rule
    nl = make("abs-sin")
    g = make_grid(30.0, 10.0, 0.25)
    table = attractor_table(nl, 7.0)
    f = Field(np.full((g.n1 + 1, g.n2), 1.5 * math.pi), g, "half", residual=0.0)
    rep = omega_limit(nl, f, table=table)
    assert not rep.converged
    assert any("runner-up" in n for n in rep.notes)


def test_no_candidates_below_amplitude():
    # linear-decay has its only zero at 1; a field stuck at 0.3 admits no
    # candidate level and the report says so instead of guessing
    nl = make("linear-decay")
    g = make_grid(30.0, 10.0, 0.25)
    f = Field(np.full((g.n1 + 1, g.n2), 0.3), g, "half", residual=0.0)
    rep = omega_limit(nl, f)
    assert rep.detected_z is None
    assert not rep.converged
    assert any("no candidate" in n for n in rep.notes)


def test_distance_rows_cover_every_candidate(abs_sin_half):
    nl, field, _ = abs_sin_half
    rep = omega_limit(nl, field)
    hs = sorted({r["h"] for r in rep.distances})
    zs = sorted({r["z"] for r in rep.distances})
    assert len(rep.distances) == len(hs) * len(zs)
    # winner's distance must not grow along the ladder tail
    win = [r["d"] for r in rep.distances
           if r["z"] == rep.detected_z and r["h"] >= hs[len(hs) // 2]]
    assert win[-1] <= win[0] + 1e-12


def test_report_json_schema(abs_sin_half):
    nl, field, _ = abs_sin_half
    d = asdict(omega_limit(nl, field))
    assert set(d) == {"detected_z", "converged", "M", "m", "tail_slope",
                      "distances", "notes"}
    assert all(set(row) == {"h", "z", "d"} for row in d["distances"])


def test_tail_slope_reads_the_discrete_decay_rate(decay_quarter, abs_sin_half):
    # both limits have f'(z) = -1, so the far-field error decays at the rate r
    # with (2 cosh(r h) - 2) / h^2 = 1, that is r = 8 asinh(1/8) at h = 0.25;
    # the rungs at the solver's floor would drag the fit toward 0
    rate = 8.0 * math.asinh(1.0 / 8.0)
    for nl, field, _ in (decay_quarter, abs_sin_half):
        slope = omega_limit(nl, field).tail_slope
        assert slope == pytest.approx(-rate, rel=1e-2)
