"""End-to-end gates over the package's headline behaviors.

Every test measures what it claims, prints one PASS/FAIL line with the
numbers it measured (visible under ``pytest -s``), and only then asserts,
so the line always reflects the actual run.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import jn_zeros

import farfield.cli as cli
from farfield.elliptic import solve_field
from farfield.grids import Field, make_grid
from farfield.liouville import halfspace_strip_sweep, periodic_box_sweep
from farfield.nonlinearity import (check_hypotheses, compute_Zf,
                                   integral_between, make)
from farfield.profile1d import compute_profile
from farfield.sliding import (dirichlet_eigenvalue, level_energy, radial_bubble,
                              ramp_energy, sliding_verify)
from farfield.trajectory import estimate_M, omega_limit, shift


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# profile construction

def test_closed_form_profile_match():
    t0 = time.perf_counter()
    p = compute_profile(make("abs-sin"), math.pi, xi_max=10.0, n=2048)
    elapsed = time.perf_counter() - t0
    exact = 4.0 * np.arctan(np.exp(p.xi)) - math.pi
    err = float(np.max(np.abs(p.values - exact)))
    slope_err = abs(p.slope0 - 2.0)
    ok = err < 1e-6 and slope_err < 1e-8 and elapsed < 1.0
    _gate("closed_form_profile_match", ok,
          f"max |V - closed form| {err:.3e} (< 1e-6), "
          f"|V'(0) - 2| {slope_err:.3e} (< 1e-8), {elapsed:.2f}s (< 1s)")


def test_first_integral_conservation():
    cases = [(make("logistic"), [1.0]),
             (make("abs-sin"), [math.pi, 2.0 * math.pi])]
    cant = make("cantor:3")
    cases.append((cant, list(compute_Zf(cant).points)))
    worst, n_profiles = 0.0, 0
    for nl, zs in cases:
        for z in zs:
            p = compute_profile(nl, z)
            gap = integral_between(nl, p.values, z)
            worst = max(worst, float(np.max(np.abs(p.w ** 2 - 2.0 * gap))))
            n_profiles += 1
    ok = worst < 1e-8
    _gate("first_integral_conservation", ok,
          f"max node |W^2 - 2(F(z)-F(V))| {worst:.3e} (< 1e-8) "
          f"over {n_profiles} profiles")


def test_prefractal_plateau_catalog():
    t0 = time.perf_counter()
    nl = make("cantor:3")
    got = list(compute_Zf(nl).points)

    # independent scan: cumulative-trapezoid F on a million points, left
    # edges of the zero runs of f, kept only when F strictly exceeds its
    # running maximum outside a thin collar
    s = np.linspace(0.0, nl.s_max, 1_000_000)
    fv = nl.fn(s)
    F = cumulative_trapezoid(fv, s, initial=0.0)
    zero = np.abs(fv) <= 1e-12
    edges = np.flatnonzero(zero & ~np.concatenate(([False], zero[:-1])))
    collar = int(round(1e-3 / (s[1] - s[0])))
    oracle = [float(s[i]) for i in edges
              if i == 0 or F[i] > np.max(F[:max(i - collar, 1)])]
    elapsed = time.perf_counter() - t0

    exact = [0.0, 2 / 27, 2 / 9, 8 / 27, 2 / 3, 20 / 27, 8 / 9, 26 / 27]
    count_ok = len(got) == len(oracle) == 8
    err_oracle = max(abs(a - b) for a, b in zip(oracle, got)) if count_ok else math.inf
    err_exact = max(abs(a - b) for a, b in zip(exact, got)) if count_ok else math.inf
    ok = count_ok and err_oracle < 1e-5 and err_exact < 1e-5 and elapsed < 5.0
    _gate("prefractal_plateau_catalog", ok,
          f"{len(got)} levels (= 8), |vs scan oracle| {err_oracle:.2e} (< 1e-5), "
          f"|vs exact fractions| {err_exact:.2e}, {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# solved fields and their far-field limits

def test_quarter_field_rises_to_profile(decay_quarter):
    nl, field, wall = decay_quarter
    t0 = time.perf_counter()
    rep = omega_limit(nl, field)
    h = field.grid.h
    prof = compute_profile(nl, 1.0, xi_max=field.grid.L2,
                           n=round(field.grid.L2 / h))
    j_hi = round(20.0 / h) + 1
    sup = float(np.max(np.abs(field.values[round(50.0 / h), :j_hi]
                              - prof.values[:j_hi])))
    k = round(25.0 / h)
    tail_inf = float(np.min(field.values[k:, k:]))
    elapsed = wall + (time.perf_counter() - t0)
    ok = (field.residual < 1e-8 and rep.converged
          and abs(rep.detected_z - 1.0) < 1e-6
          and sup < 5e-2 and tail_inf > 1.0 - 5e-2 and elapsed < 60.0)
    _gate("quarter_field_rises_to_profile", ok,
          f"residual {field.residual:.2e} (< 1e-8), limit {rep.detected_z!r} "
          f"(-> 1), sup |u(50,.) - V| {sup:.2e} (< 5e-2), "
          f"inf tail {tail_inf:.6f} (> 0.95), {elapsed:.1f}s (< 60s)")


def test_strip_plateau_selection(abs_sin_half):
    nl, field, wall = abs_sin_half
    t0 = time.perf_counter()
    rep = omega_limit(nl, field)
    est = estimate_M(field)
    last_h = rep.distances[-1]["h"]
    finals = {r["z"]: r["d"] for r in rep.distances if r["h"] == last_h}
    winner = min(finals, key=lambda z: abs(z - rep.detected_z))
    final_d = finals.pop(winner)
    ratio = min(finals.values()) / final_d if finals else math.inf
    plateau_err = min(abs(rep.detected_z - math.pi),
                      abs(rep.detected_z - 2.0 * math.pi))
    elapsed = wall + (time.perf_counter() - t0)
    ok = (rep.converged and plateau_err < 1e-6
          and abs(rep.detected_z - est.M) < 1e-2
          and final_d < 1e-2 and ratio >= 2.0 and elapsed < 60.0)
    _gate("strip_plateau_selection", ok,
          f"level {rep.detected_z:.6f} (pi or 2pi, err {plateau_err:.1e}), "
          f"|z - amplitude estimate| {abs(rep.detected_z - est.M):.1e} (< 1e-2), "
          f"final distance {final_d:.1e} (< 1e-2), runner-up ratio "
          f"{ratio:.1e} (>= 2), {elapsed:.1f}s (< 60s)")


def test_high_start_settles_at_zero_of_f():
    nl = make("linear-decay")
    g = make_grid(40.0, 16.0, 0.25)
    field = solve_field(nl, g, "half", 3.0,
                        u0=np.full((g.n1 + 1, g.n2), 3.0), tol=1e-9)
    rep = omega_limit(nl, field)
    mu = check_hypotheses(nl).mu
    fz = abs(float(nl.fn(np.float64(rep.detected_z))))
    ok = (rep.converged and rep.detected_z > 0.1
          and rep.detected_z >= mu - 1e-6 and fz < 1e-6)
    _gate("high_start_settles_at_zero_of_f", ok,
          f"uniform start 3.0 settled at {rep.detected_z!r} "
          f">= mu {mu:.6f}, |f(z)| {fz:.1e} (< 1e-6)")


# ---------------------------------------------------------------------------
# caps, energies, eigenvalues, sliding

def test_cap_existence_and_energy_split():
    nl = make("logistic")
    cap01 = radial_bubble(nl, 1.0, 0.1)
    cap05 = radial_bubble(nl, 1.0, 0.05)
    cap, ramp = cap01.energy, ramp_energy(nl, cap01.z, cap01.R, N=cap01.N)
    rs = np.array([5.0, 10.0, 20.0])
    grow_ramp = np.polyfit(np.log(rs),
                           np.log([ramp_energy(nl, 1.0, r) for r in rs]), 1)[0]
    grow_level = np.polyfit(np.log(rs),
                            np.log([level_energy(nl, 1.0, 0.9, r) for r in rs]),
                            1)[0]
    gap = abs(grow_level - grow_ramp)
    ok = (cap01.feasible and 0.9 <= cap01.v[0] < 1.0
          and float(cap01.v.max()) < 1.0 and cap01.v[-1] == 0.0
          and cap05.R >= cap01.R and cap <= ramp and gap >= 0.8)
    _gate("cap_existence_and_energy_split", ok,
          f"v(0) {cap01.v[0]:.3f} in [0.9, 1), v(R)=0, R(eps=0.05) "
          f"{cap05.R:.3f} >= R(0.1) {cap01.R:.3f}, cap {cap:.3f} <= ramp "
          f"{ramp:.3f}, growth exponents {grow_ramp:.3f} vs {grow_level:.3f} "
          f"(gap {gap:.3f} >= 0.8)")


def test_ball_eigenvalue_and_scaling():
    lam = dirichlet_eigenvalue(2, 1.0)
    anchor = float(jn_zeros(0, 1)[0] ** 2)
    gap = abs(lam - anchor) / anchor
    lam2 = dirichlet_eigenvalue(2, 2.0)
    ok = gap <= 1e-14 and 4.0 * lam2 == lam
    _gate("ball_eigenvalue_and_scaling", ok,
          f"lambda {lam!r}, rel err vs j_0,1^2 {gap:.1e} (<= 1e-14), "
          f"quarter at double radius {lam2!r} (x4 exact)")


def test_cap_slides_under_field(decay_quarter):
    nl, field, _ = decay_quarter
    cap = radial_bubble(make("logistic"), 1.0, 0.1)
    rep = sliding_verify(field, cap, (15.0, 10.0), (45.0, 10.0), steps=61)
    h = field.grid.h
    centers_u = [field.values[round(x / h), round(y / h)]
                 for x, y in rep.centers]
    floor = min(centers_u)
    ok = (rep.ok and rep.min_margin > 0.0
          and floor >= cap.v[0] - 1e-3 and len(rep.margins) == 61)
    _gate("cap_slides_under_field", ok,
          f"61 steps (15,10)->(45,10), min margin {rep.min_margin:.4f} (> 0), "
          f"field at visited centers >= {floor:.6f} "
          f"(certified floor {cap.v[0] - 1e-3:.6f})")


# ---------------------------------------------------------------------------
# randomized rigidity evidence

def test_random_start_classification():
    nl = make("abs-sin")
    t0 = time.perf_counter()
    box = periodic_box_sweep(nl, L=16.0, h=0.25, n_trials=20, seed=0)
    strip = halfspace_strip_sweep(nl, L=16.0, h=0.25, n_trials=20, seed=0)
    elapsed = time.perf_counter() - t0
    box_const = [t for t in box.trials if t.outcome == "constant"]
    box_ok = (len(box_const) == box.converged == 20
              and all(t.deviation < 1e-4 for t in box_const)
              and all(t.dist_to_zero_set < 1e-3 for t in box_const))
    strip_prof = [t for t in strip.trials if t.outcome == "profile"]
    strip_ok = (len(strip_prof) == strip.converged == 20
                and all(t.lateral_variation < 1e-4 for t in strip_prof)
                and all(t.profile_distance < 1e-2 for t in strip_prof))
    ok = box_ok and strip_ok and elapsed < 120.0
    _gate("random_start_classification", ok,
          f"box {len(box_const)}/20 constant (max spread "
          f"{box.max_deviation:.1e} < 1e-4, level error {box.zero_distance:.1e}"
          f" < 1e-3), strip {len(strip_prof)}/20 profile (max lateral "
          f"{max(t.lateral_variation for t in strip.trials):.1e} < 1e-4, "
          f"max profile distance "
          f"{max(t.profile_distance for t in strip.trials):.1e} < 1e-2), "
          f"{elapsed:.1f}s (< 120s)")


def test_shift_semigroup_laws():
    rng = np.random.default_rng(2026)
    fails = 0
    for i in range(100):
        kind = "quarter" if i % 2 == 0 else "half"
        h = float(rng.choice([0.25, 0.5]))
        n1 = int(rng.integers(8, 41))
        n2 = int(rng.integers(4, 17))
        g = make_grid(n1 * h, n2 * h, h)
        vals = rng.uniform(0.0, 2.0, size=(n1 + 1, g.x2(kind).size))
        f = Field(vals, g, kind)
        a = h * int(rng.integers(0, n1 // 3 + 1))
        b = h * int(rng.integers(0, n1 // 3 + 1))
        if not np.array_equal(shift(f, 0.0).values, f.values):
            fails += 1
        elif not np.array_equal(shift(shift(f, a), b).values,
                                shift(f, a + b).values):
            fails += 1
    _gate("shift_semigroup_laws", fails == 0,
          f"identity and composition bit-exact on {100 - fails}/100 "
          f"random fields")


def test_repeat_run_invariance(tmp_path, capsys):
    # each solve runs twice with the same argv; each sweep runs once with
    # --threads 1 and once without it
    solves = {
        "quarter": ["solve-quarter", "--f", "linear-decay", "--L1", "60",
                    "--L2", "30", "--h", "0.25", "--trace", "bump:10,5,0.5",
                    "--tol", "1e-9", "--dump-fields"],
        "half": ["solve-half", "--f", "abs-sin", "--L1", "60", "--L2", "20",
                 "--h", "0.25", "--trace", "constant:5", "--tol", "1e-8",
                 "--dump-fields"],
    }
    sweeps = {
        "box": ["liouville-sweep", "--f", "abs-sin", "--domain", "box",
                "--L", "16", "--h", "0.25", "--trials", "20", "--seed", "0"],
        "strip": ["liouville-sweep", "--f", "abs-sin", "--domain", "strip",
                  "--L", "16", "--h", "0.25", "--trials", "20", "--seed", "0"],
    }
    runs = {name: [argv, argv] for name, argv in solves.items()}
    runs.update({name: [argv + ["--threads", "1"], argv]
                 for name, argv in sweeps.items()})
    for name, argvs in runs.items():
        for k, argv in enumerate(argvs):
            out = tmp_path / f"{name}_{k}"
            assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()

    mismatches = []
    n_files = 0
    for name, argvs in runs.items():
        base = tmp_path / f"{name}_0"
        for f in sorted(p.name for p in base.iterdir()):
            n_files += 1
            for k in range(1, len(argvs)):
                other = tmp_path / f"{name}_{k}" / f
                if f == "solve.json":
                    # wall clock is the one sanctioned nondeterminism
                    a = json.loads((base / f).read_text())
                    b = json.loads(other.read_text())
                    a.pop("wall_time_ms")
                    b.pop("wall_time_ms")
                    same = a == b
                else:
                    same = (base / f).read_bytes() == other.read_bytes()
                if not same:
                    mismatches.append(f"{name}/{f}@run{k}")
    _gate("repeat_run_invariance", not mismatches,
          f"2 solves and 2 sweeps run twice each: {n_files} "
          f"artifacts byte-identical (solve.json compared with wall_time_ms "
          f"masked)"
          + (f"; MISMATCHES {mismatches}" if mismatches else ""))
