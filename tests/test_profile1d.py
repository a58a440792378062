"""Rising 1-D profiles: launch slopes, quadrature grids, probes, round trips."""

import csv
import math

import numpy as np
import pytest

from farfield import profile1d
from farfield.errors import ConsistencyError, InputError, NumericError
from farfield.nonlinearity import antiderivative_F, compute_Zf, make
from farfield.profile1d import (compute_profile, disconnectedness_probe,
                                load_profile_csv, profile_residual,
                                save_profile_csv, shoot_slope)


def test_launch_slope_squares_to_energy():
    # W(0)^2 = 2 F(z) on the nose, for every reachable level
    for spec, zs in (("logistic", [1.0]),
                     ("abs-sin", [math.pi, 2 * math.pi]),
                     ("linear-decay", [1.0])):
        nl = make(spec)
        for z in zs:
            s = shoot_slope(nl, z)
            assert abs(s * s - 2.0 * float(antiderivative_F(nl, z))) < 1e-10


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
    Fz = float(antiderivative_F(nl, math.pi))
    drift = np.abs(p.w**2 - 2.0 * (Fz - antiderivative_F(nl, p.values)))
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
    with pytest.raises(InputError):
        disconnectedness_probe(nl, 1.0, -0.1, +1)
    with pytest.raises(InputError):
        disconnectedness_probe(nl, 1.0, 0.1, 2)


def test_profile_csv_round_trip(tmp_path):
    nl = make("logistic")
    p = compute_profile(nl, 1.0, xi_max=8.0, n=128)
    path = tmp_path / "profile.csv"
    save_profile_csv(p, str(path))
    xi, v, w = load_profile_csv(str(path))
    np.testing.assert_array_equal(xi, p.xi)
    np.testing.assert_array_equal(v, p.values)
    np.testing.assert_array_equal(w, p.w)


def test_profile_csv_bytes_match_csv_writer(tmp_path):
    xi = np.linspace(0.0, 3.0, 41)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((2, xi.size)) * 10.0 ** rng.uniform(-300, 300, (2, xi.size))
    vals[:, :3] = [[0.0, -0.0, 1.0], [1e-320, math.inf, -math.inf]]
    p = profile1d.Profile1D(1.0, 0.5, xi, vals[0], vals[1])
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
# batched Gauss-Kronrod quadrature of xi(V)

def test_xi_nodes_match_closed_form():
    # for |sin| to pi, xi(V) = ln tan((V + pi) / 4); deep in the tail only
    # the slope-weighted error W * dxi matters, since it is what moves V
    nl = make("abs-sin")
    v, w, xi = profile1d._xi_quadrature_mesh(nl, math.pi, 1e-8)
    dxi = np.abs(xi - np.log(np.tan((v + math.pi) / 4.0)))
    assert np.all(dxi * w <= 1e-12)
    assert np.all(dxi[v <= math.pi - 1e-6] <= 1e-8)


def test_quadrature_budget_raises(monkeypatch):
    monkeypatch.setattr(profile1d, "_ERR_BUDGET", 1e-30)
    with pytest.raises(NumericError):
        compute_profile(make("logistic"), 1.0, n=64)


def test_segment_open_at_the_subdivision_cap_raises(monkeypatch):
    # a subdivision cap of 0 leaves open every segment that one
    # Gauss-Kronrod pass does not close; the error names the first of them
    monkeypatch.setattr(profile1d, "_GK_MAX_DEPTH", 0)
    with pytest.raises(NumericError, match=r"mesh segment \d+, V in \[.*\], still open "
                                           r"after 0 bisections"):
        profile1d._xi_quadrature_mesh(make("cantor:3"), 8 / 27, 1e-8)


def test_mesh_breaks_at_the_kinks_below_the_exit():
    nl = make("cantor:3")
    z = 8 / 27
    v, _, _ = profile1d._xi_quadrature_mesh(nl, z, 1e-8)
    below = [k for k in nl.kinks if k < z - 1e-8]
    assert below and set(below) <= set(v.tolist())
    assert np.all(np.diff(v) > 1e-12 * z)


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
    real = profile1d.integrate_profile_ode

    def nan_sample(*args, **kwargs):
        v, w, res = real(*args, **kwargs)
        v = v.copy()
        v[1] = math.nan
        return v, w, res

    monkeypatch.setattr(profile1d, "integrate_profile_ode", nan_sample)
    with pytest.raises(ConsistencyError, match="disagree by nan"):
        compute_profile(make("logistic"), 1.0, n=64)


@pytest.mark.parametrize("level", (4, 5))
def test_cantor_profiles_meet_the_error_budget(level):
    # the mesh breaks at the knots, so every positive level builds
    nl = make(f"cantor:{level}")
    levels = [z for z in compute_Zf(nl).points if z > 0]
    assert len(levels) == 2 ** level - 1
    for z in levels:
        assert compute_profile(nl, z).crosscheck <= 1e-6
