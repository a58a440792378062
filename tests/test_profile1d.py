"""Rising 1-D profiles: launch slopes, quadrature grids, probes, round trips."""

import csv
import math
from pathlib import Path

import gauss_kronrod
import numpy as np
import pytest

from farfield import nonlinearity as nlm
from farfield import profile1d
from farfield.errors import ConsistencyError, InputError, NumericError
from farfield.nonlinearity import compute_Zf, from_table, integral_between, make
from farfield.profile1d import (compute_profile, disconnectedness_probe,
                                profile_residual, save_profile_csv, shoot_slope)

_TENT_TABLE = "table:" + str(Path(__file__).resolve().parents[1] / "demos" / "tent_table.csv")
# a ramp whose only positive level, 5e-4, lies within the cross-check floor
_RAMP = ([0.0, 2.5e-4, 5e-4, 1.0], [0.0, 1e-3, 0.0, -1.0])


def test_launch_slope_squares_to_energy():
    # W(0)^2 = 2 F(z) on the nose, for every reachable level, against the
    # closed forms F(1) = 1/6 (logistic), F(k pi) = 2 k (|sin|) and
    # F(1) = 1/2 (1 - s)
    for spec, levels in (("logistic", [(1.0, 1.0 / 6.0)]),
                         ("abs-sin", [(math.pi, 2.0), (2 * math.pi, 4.0)]),
                         ("linear-decay", [(1.0, 0.5)])):
        nl = make(spec)
        for z, Fz in levels:
            s = shoot_slope(nl, z)
            assert abs(s * s - 2.0 * Fz) < 1e-10


def test_launch_slope_known_values():
    assert shoot_slope(make("abs-sin"), math.pi) == pytest.approx(2.0, abs=1e-12)
    assert shoot_slope(make("logistic"), 1.0) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-12)


def test_launch_slope_rejects_non_plateau():
    with pytest.raises(NumericError):
        shoot_slope(make("linear-decay"), 0.4)
    with pytest.raises(InputError):
        shoot_slope(make("logistic"), -0.5)


def test_logistic_midpoint_position():
    # closed form for the height-1/2 crossing of the z=1 profile
    nl = make("logistic")
    p = compute_profile(nl, 1.0, xi_max=10.0, n=4096)
    xi_half = float(np.interp(0.5, p.values, p.xi))
    t = math.sqrt(2.0)
    want = (math.log((math.sqrt(3) + t) / (math.sqrt(3) - t))
            - math.log((math.sqrt(3) + 1) / (math.sqrt(3) - 1)))
    assert abs(xi_half - want) < 1e-6


def test_abs_sin_known_node():
    nl = make("abs-sin")
    p = compute_profile(nl, math.pi, xi_max=10.0, n=2000)
    v1 = float(np.interp(1.0, p.xi, p.values))
    assert abs(v1 - (4.0 * math.atan(math.e) - math.pi)) < 1e-6


def test_profile_shape_invariants():
    for spec, z in (("logistic", 1.0), ("abs-sin", 2 * math.pi)):
        nl = make(spec)
        p = compute_profile(nl, z, xi_max=12.0, n=1024)
        assert p.values[0] == 0.0
        assert np.all(np.diff(p.values) >= 0)
        assert p.values[-1] <= z + 1e-12
        assert np.all(p.w >= -1e-12)
        assert p.w[0] == pytest.approx(p.slope0)
        assert p.crosscheck < 1e-6


def test_first_integral_along_profile():
    nl = make("abs-sin")
    p = compute_profile(nl, math.pi, xi_max=10.0, n=512)
    drift = np.abs(p.w**2 - 2.0 * integral_between(nl, p.values, math.pi))
    assert float(np.max(drift)) < 1e-8


def test_residual_improves_with_resolution():
    nl = make("logistic")
    fine = profile_residual(compute_profile(nl, 1.0, xi_max=10.0, n=2048), nl)
    coarse = profile_residual(compute_profile(nl, 1.0, xi_max=10.0, n=16), nl)
    assert fine < 1e-5
    assert coarse > fine


def test_level_ordering_orders_profiles():
    # higher plateau, pointwise higher profile
    nl = make("abs-sin")
    lo = compute_profile(nl, math.pi, xi_max=15.0, n=600)
    hi = compute_profile(nl, 2 * math.pi, xi_max=15.0, n=600)
    assert np.all(hi.values - lo.values >= -1e-12)
    mid = np.searchsorted(lo.xi, 5.0)
    assert hi.values[mid] > lo.values[mid] + 0.1


def test_zero_level_profile():
    p = compute_profile(make("abs-sin"), 0.0, xi_max=5.0, n=64)
    assert p.slope0 == 0.0
    assert np.all(p.values == 0.0)
    assert np.all(p.w == 0.0)


def test_probe_overshoot_crosses_limit():
    r = disconnectedness_probe(make("abs-sin"), math.pi, 0.1, +1)
    assert r.event == "crossed_limit"
    assert r.v_event == pytest.approx(math.pi, abs=1e-9)


def test_probe_undershoot_stalls():
    r = disconnectedness_probe(make("abs-sin"), math.pi, 0.1, -1)
    assert r.event == "stalled_below"
    assert r.v_event < math.pi - 0.1
    assert abs(r.w_event) < 1e-12


def test_probe_unperturbed_reproduces_profile():
    nl = make("abs-sin")
    r = disconnectedness_probe(nl, math.pi, 0.0, 0, xi_max=10.0, n=512)
    assert r.event == "none"
    p = compute_profile(nl, math.pi, xi_max=10.0, n=512)
    assert float(np.max(np.abs(r.v - p.values))) < 1e-6


def test_probe_validates_arguments():
    nl = make("logistic")
    for delta in (-0.1, math.nan):
        with pytest.raises(InputError, match="need delta >= 0"):
            disconnectedness_probe(nl, 1.0, delta, +1)
    with pytest.raises(InputError):
        disconnectedness_probe(nl, 1.0, 0.1, 2)
    # a NaN xi_max would report event "none" on an all-NaN grid
    for xi_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="need finite xi_max > 0 and n >= 1"):
            disconnectedness_probe(nl, 1.0, 0.1, -1, xi_max=xi_max)
    with pytest.raises(InputError, match="need finite xi_max > 0 and n >= 1"):
        disconnectedness_probe(nl, 1.0, 0.1, -1, n=0)


def test_profile_csv_round_trip(tmp_path):
    nl = make("logistic")
    p = compute_profile(nl, 1.0, xi_max=8.0, n=128)
    path = tmp_path / "profile.csv"
    save_profile_csv(p, str(path))
    assert path.read_text().splitlines()[0] == "xi,V,W"
    xi, v, w = np.loadtxt(path, delimiter=",", skiprows=1).T
    np.testing.assert_array_equal(xi, p.xi)
    np.testing.assert_array_equal(v, p.values)
    np.testing.assert_array_equal(w, p.w)


def test_profile_csv_bytes_match_csv_writer(tmp_path):
    xi = np.linspace(0.0, 3.0, 41)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((2, xi.size)) * 10.0 ** rng.uniform(-300, 300, (2, xi.size))
    vals[:, :3] = [[0.0, -0.0, 1.0], [1e-320, math.inf, -math.inf]]
    # a real profile too: the cantor:3 W tail reaches scientific notation
    for p in (profile1d.Profile1D(1.0, 0.5, xi, vals[0], vals[1]),
              compute_profile(make("cantor:3"), 26 / 27, xi_max=20.0, n=2048)):
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["xi", "V", "W"])
            for x, v, s in zip(p.xi, p.values, p.w):
                wr.writerow([f"{x:.17g}", f"{v:.17g}", f"{s:.17g}"])
        path = tmp_path / "profile.csv"
        save_profile_csv(p, str(path))
        assert path.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# xi(V): the closed form each term carries, against Gauss-Kronrod and quad

def test_xi_nodes_match_closed_form():
    # deep in the tail only the slope-weighted error W * dxi matters, since
    # it is what moves V
    for spec, z, exact in (
        # for |sin| to pi, xi(V) = ln tan((V + pi) / 4), by the last-hump form
        ("abs-sin", math.pi, lambda v: np.log(np.tan((v + math.pi) / 4.0))),
        # for 1 - s to 1, xi(V) = -ln(1 - V), by the affine-cell closed form
        ("linear-decay", 1.0, lambda v: -np.log1p(-v)),
    ):
        v, w, xi = profile1d._xi_mesh(make(spec), z)
        dxi = np.abs(xi - exact(v))
        assert np.all(dxi * w <= 1e-12), spec
        assert np.all(dxi[v <= z - 1e-6] <= 1e-8), spec


def test_quadrature_budget_raises(monkeypatch):
    # the Gauss-Kronrod oracle refuses a result over its error budget
    monkeypatch.setattr(gauss_kronrod, "_ERR_BUDGET", 1e-30)
    with pytest.raises(NumericError):
        compute_profile(gauss_kronrod.oracle(make("logistic")), 1.0, n=64)


def test_segment_open_at_the_subdivision_cap_raises(monkeypatch):
    # a subdivision cap of 0 leaves open every segment that one
    # Gauss-Kronrod pass does not close; the error names the first of them
    monkeypatch.setattr(gauss_kronrod, "_GK_MAX_DEPTH", 0)
    v, w, _ = profile1d._xi_mesh(make("logistic"), 1.0)
    with pytest.raises(NumericError, match=r"mesh segment \d+, V in \[.*\], still open "
                                           r"after 0 bisections"):
        gauss_kronrod.quadrature_xi(make("logistic"), v, w, 1.0)


_CANTOR_LEVELS = [(f"cantor:{k}", z) for k in (3, 4)
                  for z in compute_Zf(make(f"cantor:{k}")).points if z > 0]


def test_mesh_breaks_at_the_kinks_below_the_exit():
    # a uniform node 1 ulp below a knot (0.7222222222222221 beside 13/18)
    # goes, and the knot stays
    for spec, z in _CANTOR_LEVELS:
        nl = make(spec)
        v, _, _ = profile1d._xi_mesh(nl, z)
        below = [k for k in nl.kinks if k < z - 1e-8]
        assert below and set(below) <= set(v.tolist()), (spec, z)
        assert v[0] == 0.0 and np.all(np.diff(v) > 1e-12 * z), (spec, z)


# the logistic at z = 1 on three windows, and the six levels of |sin| to 20
_CURVED_LEVELS = ([(f"logistic s_max={w}", 1.0) for w in (1, 2, 5)]
                  + [("abs-sin s_max=20", k * math.pi) for k in range(1, 7)])


@pytest.mark.parametrize("spec, z", _CANTOR_LEVELS + [(_TENT_TABLE, 1.0), ("linear-decay", 1.0),
                                                      ("ramp", 5e-4)] + _CURVED_LEVELS)
def test_affine_cells_match_gauss_kronrod(spec, z):
    # Gauss-Kronrod is the oracle of every closed form: the same mesh, xi
    # and profile from a copy of the term that takes xi by quadrature
    name, _, window = spec.partition(" s_max=")
    nl = (from_table(*_RAMP) if spec == "ramp" else
          make(name, s_max=float(window)) if window else make(name))
    oracle = gauss_kronrod.oracle(nl)
    v, w, xi = profile1d._xi_mesh(nl, z)
    ref = gauss_kronrod.quadrature_xi(nl, v, w, z)
    grid = {"xi_max": 200.0, "n": 8} if spec == "ramp" else {}
    p, q = compute_profile(oracle, z, **grid), compute_profile(nl, z, **grid)
    if (spec, z) not in _CURVED_LEVELS:
        assert np.all(np.abs(xi - ref) <= 1e-10 * ref)
        assert np.max(np.abs(p.values - q.values)) <= 1e-14
    else:
        # the quadrature's own tail error reaches 1e-9 relative (the rounding
        # of z - t^2), so it is bounded where it moves V: W |dxi|, as the
        # oracle's error budget weights it
        away = z - v >= 1e-4
        assert np.all(np.abs(xi - ref)[away] <= 1e-10 * ref[away])
        assert np.all(np.abs(xi - ref) * w <= 1e-12)
        assert np.max(np.abs(p.values - q.values)) <= 1e-12
    assert q.crosscheck <= 1e-6


@pytest.mark.parametrize("length", (1e-9, 1e-6, 1e-3, 1.0))
@pytest.mark.parametrize("beta, Q", (
    (0.7, lambda x: 1.0 + 0.5 * x - 0.7 * x * x),
    (-0.7, lambda x: 1.0 + 0.5 * x + 0.7 * x * x),
    (0.0, lambda x: 1.0 + 0.5 * x),
    (0.0, lambda x: 1.0 - 0.9 * x),
    (-1.0, lambda x: (1.001 - x) ** 2),         # near a double root: artanh of r near 1
    (4.0, lambda x: 1e-4 + 4.0 * x * (1.0 - x)),  # a hump high above its ends: arctan of r >> 1
), ids=("concave", "convex", "rising", "falling", "double-root", "hump"))
def test_affine_xi_matches_quad(beta, Q, length):
    # the integral of Q^(-1/2) over [0, L] for a quadratic Q with Q'' = -2 beta
    from scipy.integrate import quad
    ref, _ = quad(lambda x: Q(x) ** -0.5, 0.0, length, epsabs=0.0, epsrel=2e-14, limit=200)
    got = nlm._affine_xi(np.array([length]), np.array([math.sqrt(Q(0.0))]),
                         np.array([math.sqrt(Q(length))]), np.array([beta]))
    assert abs(got[0] - ref) <= 1e-13 * ref


@pytest.mark.parametrize("j", range(2, 8))
def test_carlson_route_matches_scipy_elliptic(j):
    # F(phi|1/j) and K(1/j), the pieces of xi for |sin|, against scipy's
    # ellipkinc and ellipk, both ends of [0, pi/2] included
    from scipy.special import ellipk, ellipkinc
    phi = np.linspace(0.0, 0.5 * math.pi, 201)
    got, ref = nlm._ellipf(phi, 1.0 / j), ellipkinc(phi, 1.0 / j)
    assert got[0] == 0.0 and np.all(np.abs(got - ref) <= 1e-14 * ref)
    assert abs(nlm._ellipf(0.5 * math.pi, 1.0 / j) - ellipk(1.0 / j)) <= 1e-14 * ellipk(1.0 / j)


@pytest.mark.parametrize("spec, z, a, b", (
    ("logistic", 1.0, 0.0, 0.5), ("logistic", 1.0, 0.3, 0.9), ("logistic", 1.0, 0.9, 0.999),
    ("abs-sin", math.pi, 0.0, 1.0), ("abs-sin", math.pi, 2.0, 3.1),
    ("abs-sin", 3 * math.pi, 0.5, 2.5), ("abs-sin", 3 * math.pi, 2.5, 4.0),
    ("abs-sin", 3 * math.pi, 4.0, 8.0), ("abs-sin", 3 * math.pi, 7.0, 9.3),
))
def test_curved_xi_matches_quad(spec, z, a, b):
    # xi(b) - xi(a) against quad of 1/W over [a, b], away from the limit z;
    # quad breaks at the kinks of f inside
    from scipy.integrate import quad
    nl = make(spec)
    kinks = [k for k in nl.kinks if a < k < b]
    ref, _ = quad(lambda s: (2.0 * integral_between(nl, s, z)) ** -0.5, a, b,
                  points=kinks or None, epsabs=0.0, epsrel=2e-14, limit=200)
    v = np.unique([0.0, a, b, *(k for k in nl.kinks if k < z)])
    xi = nl.xi(v, np.sqrt(2.0 * integral_between(nl, v, z)), z)
    got = xi[np.searchsorted(v, b)] - xi[np.searchsorted(v, a)]
    assert abs(got - ref) <= 1e-12 * ref


def test_compute_profile_shoots_the_launch_slope_once(monkeypatch):
    # the RK4 cross-check launches from the slope compute_profile already has
    real = profile1d.shoot_slope
    calls = []
    monkeypatch.setattr(profile1d, "shoot_slope",
                        lambda *a, **kw: calls.append(None) or real(*a, **kw))
    p = compute_profile(make("abs-sin"), math.pi)
    assert len(calls) == 1
    assert p.slope0 == real(make("abs-sin"), math.pi)


def test_nan_launch_fails_the_crosscheck(monkeypatch):
    # NaN compares False with everything: the gate must read "not <= tol"
    real = profile1d.integrate

    def nan_step_end(*args, **kwargs):
        res = real(*args, **kwargs)
        res.step_y0s[1] = math.nan
        return res

    monkeypatch.setattr(profile1d, "integrate", nan_step_end)
    with pytest.raises(ConsistencyError, match="disagree by nan"):
        compute_profile(make("logistic"), 1.0, n=64)


def test_level_below_the_crosscheck_floor_crosschecks_halfway():
    # z = 5e-4 lies within the 1e-3 floor of its own start, so the launch
    # runs to the mesh xi where V reaches z / 2
    nl = from_table(*_RAMP)
    assert compute_Zf(nl).points[-1] == 5e-4
    p = compute_profile(nl, 5e-4, xi_max=200.0, n=8)
    assert p.crosscheck <= 1e-12


@pytest.mark.parametrize("nl, z", (
    (make("abs-sin"), math.pi), (make("cantor:3"), 26 / 27), (from_table(*_RAMP), 5e-4),
), ids=("abs-sin-pi", "cantor3-26-27", "ramp-5e-4"))
def test_crosscheck_belongs_to_the_profile_not_the_grid(nl, z):
    # the launch runs to where V is the floor below z and is compared at its
    # own step ends, so neither the grid's reach nor its spacing moves the check
    checks = {compute_profile(nl, z, xi_max=xi_max, n=n).crosscheck
              for xi_max, n in ((20.0, 2048), (200.0, 8), (8.0, 32))}
    assert len(checks) == 1
    assert 0.0 < checks.pop() <= 1e-6


@pytest.mark.parametrize("level", (4, 5))
def test_cantor_profiles_meet_the_error_budget(level):
    # the mesh breaks at the knots, so every positive level builds
    nl = make(f"cantor:{level}")
    levels = [z for z in compute_Zf(nl).points if z > 0]
    assert len(levels) == 2 ** level - 1
    for z in levels:
        assert compute_profile(nl, z).crosscheck <= 1e-6


# ---------------------------------------------------------------------------
# Hermite inversion of xi(V)

@pytest.mark.parametrize("spec", ("abs-sin", "logistic", "cantor:3", "linear-decay"))
def test_hermite_inversion_matches_scipy(spec):
    # scipy's CubicHermiteSpline is the oracle: the same PPoly coefficients,
    # cells and evaluation order give its values bit for bit, on the grids
    # compute_profile evaluates, on the mesh nodes and at the last node
    from scipy.interpolate import CubicHermiteSpline
    nl = make(spec)
    for z in [z for z in compute_Zf(nl).points if z > 0]:
        v, w, xi = profile1d._xi_mesh(nl, z)
        oracle = CubicHermiteSpline(xi, v, w)
        for xi_max in (10.0, 20.0, 30.0):
            at = np.concatenate((np.minimum(np.linspace(0.0, xi_max, 2049), xi[-1]), xi))
            got = profile1d._hermite(xi, v, w, at)
            assert got.tobytes() == oracle(at).tobytes(), (z, xi_max)
        assert profile1d._hermite(xi, v, w, xi[-1:])[0] == oracle(xi[-1])
